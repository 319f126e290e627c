"""Preparation-time distributions on [0, 1] and the exponential service law.

Two distribution families are supported:

* :class:`PolynomialCdf` — F(x) = sum_i c_i x^i on [0, 1], the form the exact
  solver consumes. ``c_0 > 0`` encodes an atom at 0.
* :class:`PiecewisePolynomialCdf` — continuous piecewise-polynomial CDFs
  (e.g. the symmetric triangular law), used as ground truth for fitting and
  by the oracles.

All values are immutable after construction and every operation is pure, so
instances are safe to share across threads. Coefficients are stored in
ascending power order throughout.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

from ._moments import _moments
from .errors import InputError, NotACdf

__all__ = [
    "ExponentialService",
    "PolynomialCdf",
    "PiecewisePolynomialCdf",
    "eval_cdf",
    "eval_density",
    "validate",
    "cdf_violations",
    "prob_B_greater_A",
    "inverse_cdf",
    "sample",
    "parse_distribution_spec",
    "uniform_cdf",
    "triangular_cdf",
]

#: Trailing coefficients below this magnitude are trimmed when validating.
TRIM_TOL = 1e-12

#: Monotonicity slack: the density may dip this far below zero numerically.
DENSITY_TOL = 1e-12

#: Grid resolution for the monotonicity check.
_VALIDATION_GRID = 4096

#: Cells of the sampler's uniform grid (the law's breakpoints are added).
_SAMPLER_CELLS = 1 << 12

#: Equal deviate buckets of the sampler's guide table.
_GUIDE_BUCKETS = 1 << 14

#: Draws the sampler handles per pass; its temporaries stay at 0.5 MB each.
_SAMPLER_BLOCK = 1 << 16

#: Newton stops on a draw once its step (or its bracket) is below this.
_NEWTON_TOL = 1e-14

#: Iteration cap. Bisection alone takes a 2^-12 cell below the tolerance in
#: 35 steps, so only a pathological draw gets here.
_NEWTON_ITERS = 64

#: Veltkamp's splitting constant 2^27 + 1.
_SPLITTER = 134217729.0


@dataclass(frozen=True)
class ExponentialService:
    """Exponential service law with the given rate (per unit time)."""

    rate: float

    def __post_init__(self):
        if not (isinstance(self.rate, (int, float)) and self.rate > 0 and math.isfinite(self.rate)):
            raise ValueError(f"service rate must be a positive finite real, got {self.rate!r}")


def _horner(coeffs, x):
    """Evaluate sum_i coeffs[i] * x^i by Horner's rule (scalar or array x)."""
    acc = coeffs[-1]
    if isinstance(x, np.ndarray):
        acc = np.full_like(x, acc, dtype=float)
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def _horner_exact(coeffs, x: Fraction) -> Fraction:
    """Exact rational Horner evaluation (floats are exact rationals)."""
    acc = Fraction(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = acc * x + Fraction(c)
    return acc


@dataclass(frozen=True)
class PolynomialCdf:
    """CDF F(x) = sum_i coeffs[i] * x^i on [0, 1].

    Invariants (enforced by :func:`validate`, which is the intended
    constructor for untrusted input): coefficients sum to 1, the constant
    term (the atom at 0) lies in [0, 1), and the derivative polynomial is
    nonnegative on [0, 1] up to ``DENSITY_TOL``.
    """

    coeffs: tuple[float, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def atom(self) -> float:
        """Probability mass at exactly 0."""
        return self.coeffs[0]

    def segments(self) -> list[tuple[float, float, tuple[float, ...]]]:
        """The distribution as (start, end, coefficient) pieces."""
        return [(0.0, 1.0, self.coeffs)]

    def cdf(self, x):
        return eval_cdf(self, x)

    def density(self, x):
        return eval_density(self, x)


@dataclass(frozen=True)
class PiecewisePolynomialCdf:
    """Continuous piecewise-polynomial CDF on [0, 1].

    ``breakpoints`` are increasing, starting at 0 and ending at 1;
    ``polys[j]`` holds the ascending coefficients of the polynomial valid on
    ``[breakpoints[j], breakpoints[j+1]]`` in *global* x coordinates.
    """

    breakpoints: tuple[float, ...]
    polys: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        problems = _piecewise_violations(self.breakpoints, self.polys)
        if problems:
            raise NotACdf(problems)

    @property
    def atom(self) -> float:
        return float(_horner(self.polys[0], 0.0))

    def segments(self) -> list[tuple[float, float, tuple[float, ...]]]:
        return [
            (self.breakpoints[j], self.breakpoints[j + 1], tuple(self.polys[j]))
            for j in range(len(self.polys))
        ]

    def _segment_index(self, x) -> int:
        idx = bisect_right(self.breakpoints, x) - 1
        return min(max(idx, 0), len(self.polys) - 1)

    def cdf(self, x):
        return eval_cdf(self, x)

    def density(self, x):
        return eval_density(self, x)


def eval_cdf(dist, x):
    """Evaluate a distribution's CDF: 0 below 0, F(x) on [0, 1], 1 above 1.

    Accepts scalars, :class:`fractions.Fraction` (evaluated exactly, for the
    fitting code's exact-node queries), and numpy arrays.
    """
    if isinstance(x, np.ndarray):
        if isinstance(dist, PolynomialCdf):
            val = _horner(dist.coeffs, np.clip(x, 0.0, 1.0))
        else:
            xc = np.clip(x, 0.0, 1.0)
            val = np.empty_like(xc)
            edges = np.searchsorted(dist.breakpoints, xc, side="right") - 1
            edges = np.clip(edges, 0, len(dist.polys) - 1)
            for j, poly in enumerate(dist.polys):
                mask = edges == j
                if np.any(mask):
                    val[mask] = _horner(poly, xc[mask])
        return np.where(x < 0.0, 0.0, np.where(x >= 1.0, 1.0, val))
    if isinstance(x, Rational) and not isinstance(x, int):
        if x < 0:
            return Fraction(0)
        if x >= 1:
            return Fraction(1)
        x = Fraction(x)
        if isinstance(dist, PolynomialCdf):
            return _horner_exact(dist.coeffs, x)
        return _horner_exact(dist.polys[dist._segment_index(x)], x)
    x = float(x)
    if x < 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if isinstance(dist, PolynomialCdf):
        return float(_horner(dist.coeffs, x))
    return float(_horner(dist.polys[dist._segment_index(x)], x))


def _derivative_coeffs(coeffs) -> tuple[float, ...]:
    return tuple(i * c for i, c in enumerate(coeffs))[1:] or (0.0,)


def eval_density(dist, x):
    """Evaluate the density (CDF derivative) at x in (0, 1].

    The atom at 0, if any, is not part of the density; it is reported
    separately as the distribution's ``atom``.
    """
    scalar = not isinstance(x, np.ndarray)
    xs = np.asarray(x, dtype=float)
    if np.any((xs <= 0.0) | (xs > 1.0)):
        raise ValueError("density is defined on (0, 1] only")
    if isinstance(dist, PolynomialCdf):
        val = _horner(_derivative_coeffs(dist.coeffs), xs)
    else:
        val = np.empty_like(xs)
        edges = np.searchsorted(dist.breakpoints, xs, side="right") - 1
        edges = np.clip(edges, 0, len(dist.polys) - 1)
        for j, poly in enumerate(dist.polys):
            mask = edges == j
            if np.any(mask):
                val[mask] = _horner(_derivative_coeffs(poly), xs[mask])
    return float(val) if scalar else val


def _golden_min(fun, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Minimum value of ``fun`` on [lo, hi] by golden-section search."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return min(fc, fd, fun(a), fun(b))


def _monotone_violation(coeffs, lo: float, hi: float) -> float | None:
    """Most negative density value of the piece on [lo, hi], if any.

    Grid scan (share of the 4096-point budget proportional to length) plus
    golden-section refinement around near-zero cells, per the documented
    validation strategy; exhaustive root isolation is intentionally avoided.
    """
    dcoeffs = _derivative_coeffs(coeffs)
    npts = max(8, int(_VALIDATION_GRID * (hi - lo)) + 1)
    xs = np.linspace(lo, hi, npts)
    vals = _horner(dcoeffs, xs)
    worst = float(np.min(vals))
    if worst < -DENSITY_TOL:
        return worst
    # Refine wherever the grid gets suspiciously close to zero: a strictly
    # positive density cannot dip below -tol between grid points unless the
    # grid values are already small.
    scale = max(1.0, float(np.max(np.abs(vals))))
    suspect = np.nonzero(vals < 1e-4 * scale)[0]
    fun = lambda x: float(_horner(dcoeffs, x))
    checked: set[int] = set()
    for i in suspect:
        cell = int(i)
        if cell in checked:
            continue
        checked.add(cell)
        a = xs[max(0, cell - 1)]
        b = xs[min(npts - 1, cell + 1)]
        refined = _golden_min(fun, float(a), float(b))
        worst = min(worst, refined)
        if worst < -DENSITY_TOL:
            return worst
    return None


def cdf_violations(coeffs) -> list[str]:
    """All invariant violations of a coefficient sequence (empty if valid)."""
    coeffs = [float(c) for c in coeffs]
    if not coeffs:
        return ["coefficient sequence is empty"]
    if any(not math.isfinite(c) for c in coeffs):
        return ["coefficients must be finite"]
    while len(coeffs) > 1 and abs(coeffs[-1]) < TRIM_TOL:
        coeffs.pop()
    problems = []
    if len(coeffs) < 2:
        problems.append("degree must be >= 1 after trailing-coefficient trimming")
        return problems
    if -TRIM_TOL <= coeffs[0] < 0.0:
        coeffs[0] = 0.0
    total = math.fsum(coeffs)
    if abs(total - 1.0) > 1e-12:
        problems.append(f"coefficients must sum to 1 (F(1) = 1); got {total!r}")
    if not 0.0 <= coeffs[0] < 1.0:
        problems.append(f"constant term (atom at 0) must lie in [0, 1); got {coeffs[0]!r}")
    worst = _monotone_violation(tuple(coeffs), 0.0, 1.0)
    if worst is not None:
        problems.append(f"density dips to {worst:.3e} < -{DENSITY_TOL:g}: CDF not nondecreasing")
    return problems


def validate(coeffs) -> PolynomialCdf:
    """Validate a coefficient sequence and return the trimmed distribution.

    Raises
    ------
    NotACdf
        Carrying the full list of violated requirements.
    """
    problems = cdf_violations(coeffs)
    if problems:
        raise NotACdf(problems)
    trimmed = [float(c) for c in coeffs]
    while len(trimmed) > 1 and abs(trimmed[-1]) < TRIM_TOL:
        trimmed.pop()
    if -TRIM_TOL <= trimmed[0] < 0.0:
        trimmed[0] = 0.0
    return PolynomialCdf(tuple(trimmed))


def _piecewise_violations(breaks, polys) -> list[str]:
    problems = []
    breaks = [float(b) for b in breaks]
    if len(breaks) < 2 or len(polys) != len(breaks) - 1:
        return ["need one polynomial per interval between breakpoints"]
    if breaks[0] != 0.0 or breaks[-1] != 1.0:
        problems.append("breakpoints must start at 0 and end at 1")
    if any(b1 >= b2 for b1, b2 in zip(breaks, breaks[1:])):
        problems.append("breakpoints must be strictly increasing")
        return problems
    if any(not math.isfinite(c) for poly in polys for c in poly):
        return ["coefficients must be finite"]
    for j in range(1, len(polys)):
        left = _horner(polys[j - 1], breaks[j])
        right = _horner(polys[j], breaks[j])
        if abs(left - right) > 1e-12:
            problems.append(
                f"discontinuity {left - right:.3e} at breakpoint {breaks[j]!r}"
            )
    atom = _horner(polys[0], 0.0)
    if not 0.0 <= atom < 1.0:
        problems.append(f"value at 0 (atom) must lie in [0, 1); got {atom!r}")
    final = _horner(polys[-1], 1.0)
    if abs(final - 1.0) > 1e-12:
        problems.append(f"value at x = 1 must be 1; got {final!r}")
    for j, poly in enumerate(polys):
        worst = _monotone_violation(tuple(poly), breaks[j], breaks[j + 1])
        if worst is not None:
            problems.append(
                f"density dips to {worst:.3e} on segment {j}: CDF not nondecreasing"
            )
    return problems


def _shifted_weighted_integral(coeffs, a: float, b: float, rate: float) -> float:
    """integral_a^b p(t) * rate * e^{-rate*t} dt... without the rate factor.

    Computes integral_a^b p(t) e^{-rate*t} dt for an ascending-coefficient
    polynomial p via the substitution t = a + w*y (w = b - a), which keeps
    every term positive-weighted and feeds the stable moment recurrence:

        integral = e^{-rate*a} * sum_j p_j sum_i C(j,i) a^{j-i} w^{i+1} I_i(-rate*w)
    """
    w = b - a
    if w <= 0.0:
        return 0.0
    jmax = len(coeffs) - 1
    mom = _moments(jmax, complex(-rate * w))
    total = 0.0
    for j, pj in enumerate(coeffs):
        if pj == 0.0:
            continue
        binom = 1.0
        apow = a**j
        inner = 0.0
        wpow = w
        for i in range(j + 1):
            inner += binom * apow * wpow * mom[i].real
            binom = binom * (j - i) / (i + 1)
            apow = apow / a if a != 0.0 else (1.0 if i == j - 1 else 0.0)
            wpow *= w
        total += pj * inner
    return math.exp(-rate * a) * total


def _require_law(dist, where: str, kinds=(PolynomialCdf, PiecewisePolynomialCdf)) -> None:
    """Raise :class:`InputError` unless ``dist`` is one of the law types ``kinds``.

    The solver, the oracles and the bounds read a law's pieces in closed
    form; a plain callable has none and must be fitted first.
    """
    if not isinstance(dist, kinds):
        raise InputError(
            f"{where} needs a {' or '.join(k.__name__ for k in kinds)}, got "
            f"{type(dist).__name__}; fit a plain CDF with bernstein_fit first"
        )


def _laplace(dist, rate: float) -> float:
    """E[e^{-rate*B}] in closed form: the atom plus the density integrated
    against the exponential weight by the stable moment recurrence."""
    _require_law(dist, "prob_B_greater_A")
    laplace = dist.atom
    for a, b, coeffs in dist.segments():
        laplace += _shifted_weighted_integral(_derivative_coeffs(coeffs), a, b, rate)
    return laplace


def prob_B_greater_A(dist, svc: ExponentialService) -> float:
    """P[B > A]: the chance preparation outlasts an exponential service.

    Computed in closed form as 1 - E[e^{-rate*B}] (no quadrature). Strictly
    inside (0, 1) for every valid, nondegenerate distribution, though it
    rounds to 1 once E[e^{-rate*B}] is below half an ulp of 1.
    """
    return 1.0 - _laplace(dist, svc.rate)


def inverse_cdf(dist, u: float) -> float:
    """The x with F(x) = u, by safeguarded Newton (see :func:`inverse_cdf_array`).

    The atom at 0 maps the whole deviate range [0, atom] to 0, and u = 1
    maps to 1.
    """
    if not 0.0 <= u <= 1.0:
        raise ValueError("deviate must lie in [0, 1]")
    return float(inverse_cdf_array(dist, np.array([float(u)]))[0])


def _split(a):
    """Veltkamp's split of a into hi + lo, each of at most 26 significant bits."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _compensated_horner(hi, lo, x: np.ndarray):
    """sum_i (hi[i] + lo[i]) * x^i as an unevaluated sum (value, correction).

    Horner's rule that carries the rounding error of every product (Dekker's
    two-product) and every sum (Knuth's two-sum) in a second polynomial, so
    value + correction is as accurate as Horner run in twice the working
    precision (Graillat, Langlois & Louvet, 2005). ``lo`` holds the low
    parts of coefficients that are themselves rounded.
    """
    xh, xl = _split(x)
    val = np.full_like(x, hi[-1])
    err = np.full_like(x, lo[-1])
    for a, b in zip(hi[-2::-1], lo[-2::-1]):
        prod = val * x
        vh, vl = _split(val)
        prod_err = ((vh * xh - prod) + vh * xl + vl * xh) + vl * xl
        val = prod + a
        z = val - prod
        sum_err = (prod - (val - z)) + (a - z)
        err = err * x + ((prod_err + sum_err) + b)
    return val, err


def _inverse_table(dist):
    """The sampler's grid, local Taylor coefficients of F there, and guide.

    The grid is uniform with ``_SAMPLER_CELLS`` cells plus the law's
    breakpoints, so every cell lies in one polynomial piece. Row k of the
    table holds F^(k)(x_j) / k! of the piece starting at or before x_j,
    computed by compensated Horner from the exact coefficients c_i C(i, k);
    row 0, the CDF values that bracket each draw, keeps its correction term
    in ``low`` and ends at F(1) = 1. Across a cell of width 2^-12 the local
    terms shrink fast, so F(x_j + s) from this table is good to about an ulp
    even for fits whose monomial coefficients are large and cancel, where
    plain Horner loses up to 5e-12 at order 20. The guide holds
    searchsorted(row 0, k / m) at the edges of m equal deviate buckets.
    """
    segments = dist.segments()
    starts = [a for a, _, _ in segments]
    grid = np.union1d(np.linspace(0.0, 1.0, _SAMPLER_CELLS + 1), starts)
    piece = np.searchsorted(starts, grid, side="right") - 1
    taylor = np.zeros((max(len(c) for _, _, c in segments), grid.size))
    low = np.zeros(grid.size)
    for j, (_, _, coeffs) in enumerate(segments):
        at = piece == j
        for k in range(len(coeffs)):
            exact = [Fraction(c) * math.comb(i, k) for i, c in enumerate(coeffs) if i >= k]
            hi = [float(v) for v in exact]
            lo = [float(v - Fraction(h)) for v, h in zip(exact, hi)]
            val, err = _compensated_horner(hi, lo, grid[at])
            if k:
                taylor[k, at] = val + err
            else:
                taylor[0, at], low[at] = val, err
    taylor[0, -1], low[-1] = 1.0, 0.0
    guide = np.searchsorted(taylor[0], np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS)
    return grid, taylor, low, guide


def _find_cells(values: np.ndarray, guide: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(values, u)`` for deviates u in [0, 1), via the guide.

    A draw's answer lies between its bucket's two guide entries; a binary
    search over the few draws whose bucket holds several candidates settles
    it. (A plain searchsorted of random deviates spends ~120 ns a draw on
    mispredicted branches.) Each answer i keeps values[i-1] < u <= values[i]
    even where rounding leaves ``values`` a hair short of monotone.
    """
    m = guide.size - 1
    j = (u * m).astype(np.intp)
    lo, hi = guide[j], guide[j + 1]
    act = np.flatnonzero(lo < hi)
    a_lo, a_hi, a_u = lo[act], hi[act], u[act]
    while act.size:
        mid = (a_lo + a_hi) >> 1
        right = values[mid] < a_u
        a_lo = np.where(right, mid + 1, a_lo)
        a_hi = np.where(right, a_hi, mid)
        lo[act] = a_lo
        more = a_lo < a_hi
        act, a_lo, a_hi, a_u = act[more], a_lo[more], a_hi[more], a_u[more]
    return lo


def _newton_block(table, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF values of deviates in (atom, 1), by safeguarded Newton.

    Each draw starts from linear interpolation inside its grid cell
    [x_j, x_j + w] and iterates on the offset s in [0, w] with
    F(x_j + s) - u = (F(x_j) - u) + s * (g_1 + g_2 s + ...), the cell's
    local Taylor form. The Newton step is taken while it stays inside the
    root's bracket, which every residual's sign narrows; otherwise the
    bracket is bisected. A draw is done once its Newton step drops below
    ``_NEWTON_TOL`` or its bracket below that width.
    """
    grid, taylor, low, guide = table
    cell = _find_cells(taylor[0], guide, u) - 1
    start = taylor[0][cell]
    width = grid[cell + 1] - grid[cell]
    s = (u - start) / (taylor[0][cell + 1] - start) * width
    base = (start - u) + low[cell]  # F(x_j) - u
    lo, hi = np.zeros_like(s), width
    out = np.empty_like(s)
    todo = np.arange(s.size)
    deg = taylor.shape[0] - 1
    for _ in range(_NEWTON_ITERS):
        val, der = taylor[deg][cell], np.zeros_like(s)
        for k in range(deg - 1, 0, -1):
            der = der * s + val
            val = val * s + taylor[k][cell]
        der = der * s + val
        resid = base + s * val
        # s becomes the bracket's low end where resid < 0 and its high end
        # otherwise; an infinity of the opposite sign picks, without branches
        flip = np.copysign(np.inf, -resid)
        lo = np.maximum(lo, np.minimum(s, flip))
        hi = np.minimum(hi, np.maximum(s, flip))
        with np.errstate(divide="ignore", invalid="ignore"):
            step = resid / der
        new = s - step
        newton = (new >= lo) & (new <= hi)  # False for a NaN step too
        new = np.where(newton, new, 0.5 * (lo + hi))
        done = (newton & (np.abs(step) < _NEWTON_TOL)) | (hi - lo < _NEWTON_TOL)
        out[todo[done]] = grid[cell[done]] + new[done]
        keep = np.flatnonzero(~done)
        if not keep.size:
            return out
        todo, cell, s, lo, hi, base = (
            todo[keep], cell[keep], new[keep], lo[keep], hi[keep], base[keep]
        )
    out[todo] = grid[cell] + s
    return out


def inverse_cdf_array(dist, u: np.ndarray) -> np.ndarray:
    """Vectorized :func:`inverse_cdf` for Monte Carlo draws.

    F is tabulated once per call (:func:`_inverse_table`); each draw then
    finds its cell through a guide table and solves F(x) = u there by
    safeguarded Newton on the law's own polynomial piece, to about an ulp
    of x. Draws are handled ``_SAMPLER_BLOCK`` at a time, which keeps the
    temporaries small. Deviates at or below the atom map to 0, deviates at
    or above 1 to 1.
    """
    _require_law(dist, "inverse_cdf")
    u = np.asarray(u, dtype=float)
    flat = u.reshape(-1)
    out = np.where(flat >= 1.0, 1.0, 0.0)
    inside = np.flatnonzero((flat > dist.atom) & (flat < 1.0))
    if inside.size:
        table = _inverse_table(dist)
        for first in range(0, inside.size, _SAMPLER_BLOCK):
            at = inside[first : first + _SAMPLER_BLOCK]
            out[at] = _newton_block(table, flat[at])
    return out.reshape(u.shape)


def sample(dist, rng: np.random.Generator) -> float:
    """One inverse-CDF draw of the preparation time (pure in the rng state)."""
    return inverse_cdf(dist, float(rng.random()))


def uniform_cdf() -> PolynomialCdf:
    """The uniform law on [0, 1]: F(x) = x."""
    return PolynomialCdf((0.0, 1.0))


def triangular_cdf() -> PiecewisePolynomialCdf:
    """The symmetric triangular law on [0, 1] (mode 1/2)."""
    return PiecewisePolynomialCdf(
        breakpoints=(0.0, 0.5, 1.0),
        polys=((0.0, 0.0, 2.0), (-1.0, 4.0, -2.0)),
    )


def parse_distribution_spec(spec):
    """Build a distribution from a JSON spec (string or parsed object).

    Accepted forms: ``{"type": "uniform"}``, ``{"type": "triangular"}``,
    ``{"type": "polynomial", "coeffs": [...]}`` and
    ``{"type": "piecewise", "breaks": [...], "polys": [[...], ...]}``.
    The bare strings ``"uniform"``/``"triangular"`` are shorthand.
    """
    if isinstance(spec, str):
        name = spec.strip().lower()
        if name == "uniform":
            return uniform_cdf()
        if name == "triangular":
            return triangular_cdf()
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise NotACdf([f"distribution spec is not valid JSON: {exc}"]) from exc
    if not isinstance(spec, dict) or "type" not in spec:
        raise NotACdf(["distribution spec must be an object with a 'type' field"])
    kind = str(spec["type"]).lower()
    if kind == "uniform":
        return uniform_cdf()
    if kind == "triangular":
        return triangular_cdf()
    if kind == "polynomial":
        if "coeffs" not in spec:
            raise NotACdf(["polynomial spec needs a 'coeffs' array"])
        return validate(spec["coeffs"])
    if kind == "piecewise":
        if "breaks" not in spec or "polys" not in spec:
            raise NotACdf(["piecewise spec needs 'breaks' and 'polys' arrays"])
        return PiecewisePolynomialCdf(
            tuple(float(b) for b in spec["breaks"]),
            tuple(tuple(float(c) for c in poly) for poly in spec["polys"]),
        )
    raise NotACdf([f"unknown distribution type {kind!r}"])
