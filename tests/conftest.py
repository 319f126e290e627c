"""Shared fixtures, randomized-input generators and the reference mode sums.

Both generators are *constructive*: they build a nonnegative density first
and integrate it, so every draw is a valid CDF by design (rather than
rejection-sampling coefficient vectors, which almost never validate at
higher degrees).

The mode sums evaluate a solution's exponential mixture term by term in
complex double precision, straight from its rounded modes. The solver no
longer evaluates them; they are the independent reference its density
series is tested against.
"""

from __future__ import annotations

import cmath
import math

import mpmath
import numpy as np
import pytest

from lindley_alt.distributions import (
    ExponentialService,
    PiecewisePolynomialCdf,
    PolynomialCdf,
    triangular_cdf,
    uniform_cdf,
    validate,
)


@pytest.fixture
def svc1() -> ExponentialService:
    return ExponentialService(1.0)


@pytest.fixture
def uniform() -> PolynomialCdf:
    return uniform_cdf()


@pytest.fixture
def triangular() -> PiecewisePolynomialCdf:
    return triangular_cdf()


def random_polynomial_cdf(rng, max_degree: int = 10, atom_allowed: bool = True) -> PolynomialCdf:
    """A random valid polynomial CDF of degree in [1, max_degree].

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
    atom = float(rng.uniform(0.0, 0.6)) if atom_allowed and rng.random() < 0.5 else 0.0
    coeffs = np.concatenate([[atom], density / np.arange(1, density.size + 1)])
    mass = float(np.sum(coeffs[1:]))
    coeffs[1:] *= (1.0 - atom) / mass
    # drop relatively tiny trailing coefficients (they destabilize nothing
    # but waste solver degrees) and restore the exact mass afterwards
    keep = coeffs.size
    top = float(np.max(np.abs(coeffs)))
    while keep > 2 and abs(coeffs[keep - 1]) < 1e-6 * top:
        keep -= 1
    coeffs = coeffs[:keep]
    coeffs[1:] *= (1.0 - atom) / float(np.sum(coeffs[1:]))
    out = coeffs.tolist()
    gap = 1.0 - math.fsum(out)
    out[1] += gap
    return validate(out)


def gammainc_contraction(coeffs, mu: float) -> float:
    """P[B > A] = 1 - L for F = sum_k c_k x^k, summed at 60 digits.

    L = e^-mu + mu sum_k c_k gamma(k+1, mu) / mu^(k+1), with the float
    coefficients taken exactly, so cancellation among large c_k costs
    nothing.
    """
    with mpmath.workdps(60):
        m = mpmath.mpf(mu)
        laplace = mpmath.exp(-m) + m * mpmath.fsum(
            mpmath.mpf(c) * mpmath.gammainc(k + 1, 0, m) / m ** (k + 1)
            for k, c in enumerate(coeffs)
        )
        return float(1 - laplace)


def random_piecewise_cdf(
    rng, max_pieces: int = 4, pieces: int | None = None, breaks=None
) -> PiecewisePolynomialCdf:
    """A random continuous piecewise-quadratic CDF on [0, 1] (no atom).

    Built by integrating a piecewise-linear nonnegative density over random
    breakpoints, so continuity and monotonicity hold by construction. The
    number of pieces is drawn from 1..max_pieces unless ``pieces`` fixes it;
    given ``breaks``, those are the breakpoints and only the density is drawn.
    """
    if breaks is not None:
        breaks = np.asarray(breaks, dtype=float)
        pieces, widths = breaks.size - 1, np.diff(breaks)
    else:
        if pieces is None:
            pieces = int(rng.integers(1, max_pieces + 1))
        widths = rng.dirichlet(np.ones(pieces)) + 0.05
        widths /= widths.sum()
        breaks = np.concatenate([[0.0], np.cumsum(widths)])
        breaks[-1] = 1.0
    nodes = rng.uniform(0.05, 2.0, pieces + 1)  # density values at the breakpoints
    mass = float(np.sum(widths * (nodes[:-1] + nodes[1:]) / 2.0))
    nodes /= mass

    polys = []
    level = 0.0
    for i in range(pieces):
        a, w = float(breaks[i]), float(widths[i])
        d0, d1 = float(nodes[i]), float(nodes[i + 1])
        curv = (d1 - d0) / (2.0 * w)
        # F(x) = level + d0*(x - a) + curv*(x - a)^2, expanded in global x
        polys.append(
            (
                level - d0 * a + curv * a * a,
                d0 - 2.0 * curv * a,
                curv,
            )
        )
        level += w * (d0 + d1) / 2.0
    return PiecewisePolynomialCdf(tuple(float(b) for b in breaks), tuple(polys))


def mode_density(sol, x: np.ndarray) -> np.ndarray:
    """Complex density sum_j u_j (head_j e^{r_j (x-1)} + tail_j e^{-r_j x})."""
    total = np.zeros(x.shape, dtype=complex)
    for m in sol.modes:
        r = m.root
        total += m.strength * (m.head * np.exp(r * (x - 1.0)) + m.tail * np.exp(-r * x))
    return total


def mode_cdf(sol, x: np.ndarray) -> np.ndarray:
    """Complex CDF pi0 + sum_j u_j int_0^x g_j, in closed form."""
    total = np.full(x.shape, complex(sol.pi0))
    for m in sol.modes:
        r = m.root
        emr = cmath.exp(-r)
        total += (m.strength / r) * (
            m.head * (np.exp(r * (x - 1.0)) - emr) + m.tail * (1.0 - np.exp(-r * x))
        )
    return total
