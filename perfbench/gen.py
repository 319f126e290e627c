"""Seeded input generation for the benchmark.

The two CDF generators are constructive, like the ones the test suite uses:
they build a nonnegative density first and integrate it, so every draw is a
valid CDF by design. They return plain JSON-ready distribution specs; the
program only ever sees those specs, never a seed.

Every case stream is stratified: each block holds every (order, kind) pair
of its workload exactly once, in a seeded order, so the cost of a block
depends on the seed only through the shapes and rates drawn, not through
how many expensive orders the dice happened to pick.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

#: Service rates are log-uniform on [MU_LO, MU_HI]. Above mu ~ 20 the
#: double-precision path breaks its postconditions (a known domain failure
#: that exits 3), so the benchmark stays in the tested corner.
MU_LO, MU_HI = 0.25, 4.0

#: Input kinds of a solve block: three quarters random piecewise-quadratic
#: laws with 2, 3 or 4 pieces, one quarter the triangular law of the paper's
#: table. Only non-polynomial laws fit to the full requested degree (the
#: Bernstein fit of a degree-d polynomial has degree d), so the order alone
#: decides which solver path, double or extended, a case takes.
KINDS = (2, 3, 4, "triangular")

SWEEP_ORDERS = tuple(range(1, 13))  # double-precision solver path
HIGH_ORDERS = tuple(range(13, 25))  # extended-precision (mpmath) path


@dataclass(frozen=True)
class Case:
    """One solve operation: fit ``spec`` at ``order``, solve at rate ``mu``."""

    spec: dict
    order: int
    mu: float
    check_residual: bool


def random_polynomial_spec(rng, max_degree: int = 10) -> dict:
    """A random polynomial CDF of degree in [1, max_degree], as a spec.

    Density = p(x)^2 [+ x*q(x)^2 when an odd top degree is needed], which is
    nonnegative on [0, 1] by construction; the CDF is its integral plus an
    optional atom, scaled to total mass 1.
    """
    target = int(rng.integers(1, max_degree + 1))
    half = (target - 1) // 2
    p = rng.standard_normal(half + 1)
    density = np.convolve(p, p)
    if target >= 2 and (target - 1) % 2 == 1:
        q = rng.standard_normal((target - 2) // 2 + 1)
        odd_part = np.concatenate([[0.0], np.convolve(q, q)])
        density = np.concatenate([density, np.zeros(len(odd_part) - len(density))]) + odd_part
    atom = float(rng.uniform(0.0, 0.6)) if rng.random() < 0.5 else 0.0
    coeffs = np.concatenate([[atom], density / np.arange(1, density.size + 1)])
    coeffs[1:] *= (1.0 - atom) / float(np.sum(coeffs[1:]))
    # relatively tiny trailing coefficients only waste solver degrees
    keep = coeffs.size
    top = float(np.max(np.abs(coeffs)))
    while keep > 2 and abs(coeffs[keep - 1]) < 1e-6 * top:
        keep -= 1
    coeffs = coeffs[:keep]
    coeffs[1:] *= (1.0 - atom) / float(np.sum(coeffs[1:]))
    out = coeffs.tolist()
    out[1] += 1.0 - math.fsum(out)
    return {"type": "polynomial", "coeffs": out}


def random_piecewise_spec(rng, pieces: int) -> dict:
    """A random continuous piecewise-quadratic CDF on [0, 1], as a spec.

    Built by integrating a piecewise-linear nonnegative density over random
    breakpoints, so continuity and monotonicity hold by construction.
    """
    widths = rng.dirichlet(np.ones(pieces)) + 0.05
    widths /= widths.sum()
    breaks = np.concatenate([[0.0], np.cumsum(widths)])
    breaks[-1] = 1.0
    nodes = rng.uniform(0.05, 2.0, pieces + 1)  # density values at the breakpoints
    nodes /= float(np.sum(widths * (nodes[:-1] + nodes[1:]) / 2.0))
    polys = []
    level = 0.0
    for i in range(pieces):
        a, w = float(breaks[i]), float(widths[i])
        d0, d1 = float(nodes[i]), float(nodes[i + 1])
        curv = (d1 - d0) / (2.0 * w)
        # F(x) = level + d0*(x - a) + curv*(x - a)^2, expanded in global x
        polys.append([level - d0 * a + curv * a * a, d0 - 2.0 * curv * a, curv])
        level += w * (d0 + d1) / 2.0
    return {"type": "piecewise", "breaks": breaks.tolist(), "polys": polys}


def random_spec(rng, kind) -> dict:
    if kind == "triangular":
        return {"type": "triangular"}
    return random_piecewise_spec(rng, int(kind))


def random_mu(rng, band: int = 0, bands: int = 1) -> float:
    """Log-uniform on band ``band`` of ``bands`` equal log-width bands."""
    width = (math.log(MU_HI) - math.log(MU_LO)) / bands
    lo = math.log(MU_LO) + band * width
    return float(math.exp(rng.uniform(lo, lo + width)))


def solve_blocks(orders, seed: int, residual_blocks: int):
    """Endless stream of case blocks for a solve workload.

    A block holds every order once, in a seeded sequence. The kind of each
    order rotates through :data:`KINDS` from block to block, the same way
    for every seed, so any four consecutive blocks hold every (order, kind)
    pair exactly once: the seed moves only shapes, rates and sequence.
    The first ``residual_blocks`` blocks each mark one seeded case for the
    (untimed) integral-equation residual check.
    """
    rng = np.random.default_rng([seed, orders[0]])
    for block in itertools.count():
        checked = int(rng.integers(len(orders))) if block < residual_blocks else -1
        yield [
            Case(
                random_spec(rng, KINDS[(int(i) + block) % len(KINDS)]),
                orders[int(i)],
                random_mu(rng),
                position == checked,
            )
            for position, i in enumerate(rng.permutation(len(orders)))
        ]


@dataclass(frozen=True)
class Round:
    """The inputs of one pass through the CLI pipeline."""

    fit_spec: dict
    fit_order: int
    solve_spec: dict
    solve_mu: float
    bound_spec: dict
    bound_order: int
    bound_mu: float
    verify_spec: dict
    verify_seed: int


def cli_rounds(seed: int):
    """Endless stream of seeded CLI pipeline rounds.

    Piecewise specs have a fixed three pieces: the fixed-point kernel and
    every CDF evaluation of the true law cost more per piece. The
    fixed-point iteration count grows with mu, so the rate of `bound`
    rotates through three bands of [MU_LO, MU_HI] from round to round, and
    three consecutive rounds cost the same whatever the seed.
    `verify` always runs at MU_HI: its peak memory (the largest child's,
    reported as peak_rss_mb) grows from ~175 MB below mu = 1.5 to ~195 MB
    at mu = 4, so a seeded rate would make that metric a draw of the seed.
    """
    rng = np.random.default_rng([seed, 0xC11])
    for r in itertools.count():
        yield Round(
            fit_spec=random_piecewise_spec(rng, 3),
            fit_order=int(rng.integers(1, 13)),
            solve_spec=random_polynomial_spec(rng),
            solve_mu=random_mu(rng),
            bound_spec=random_piecewise_spec(rng, 3),
            bound_order=int(rng.integers(1, 13)),
            bound_mu=random_mu(rng, r % 3, 3),
            verify_spec=random_piecewise_spec(rng, 3),
            verify_seed=int(rng.integers(2**31)),
        )
