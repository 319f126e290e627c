"""Preparation-time distributions on [0, 1] and the exponential service law.

Two distribution families are supported:

* :class:`PolynomialCdf` — F(x) = sum_i c_i x^i on [0, 1], the form the exact
  solver consumes. ``c_0 > 0`` encodes an atom at 0.
* :class:`PiecewisePolynomialCdf` — continuous piecewise-polynomial CDFs
  (e.g. the symmetric triangular law), used as ground truth for fitting and
  by the oracles.

A law is stored by its float monomial coefficients and evaluated in the
well-conditioned Bernstein form (Farouki & Rajan, CAGD 4, 1987) by one
evaluator, :func:`_piece_sum`, from weights converted exactly, rounded once
and cached on the law. Nonnegative density weights prove a law monotone and
make its CDF weights nonnegative too, so where a fit's monomial coefficients
reach 1e12 and cancel, its Bernstein sum cancels nothing.

All values are immutable after construction and every operation is pure, so
instances are safe to share across threads. Coefficients are stored in
ascending power order throughout.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, partial
from fractions import Fraction
from itertools import islice

import numpy as np

from .errors import InputError, NotACdf

__all__ = [
    "ExponentialService",
    "PolynomialCdf",
    "PiecewisePolynomialCdf",
    "eval_cdf",
    "eval_density",
    "validate",
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

#: Draws the sampler handles per pass. Each temporary is then 32 KiB, and
#: the passes reuse heap memory: glibc maps a block of 128 KiB or more
#: afresh, and freeing one of 64 KiB or more may trim the heap, so in a
#: fresh process 2^13-draw passes page-faulted their temporaries in again
#: on every pass (22k minor faults for 10^6 Monte Carlo steps, against
#: 435 at 2^12). Draws are independent, so the block size does not change
#: a single bit of the output.
_SAMPLER_BLOCK = 1 << 12

#: Newton stops on a draw once its step (or its bracket) is below this.
_NEWTON_TOL = 1e-14

#: Iteration cap. Bisection alone takes a 2^-12 cell below the tolerance in
#: 35 steps, so only a pathological draw gets here.
_NEWTON_ITERS = 64


@dataclass(frozen=True)
class ExponentialService:
    """Exponential service law with the given rate (per unit time)."""

    rate: float

    def __post_init__(self):
        try:  # read by the law's number reader, and stored as a float
            (rate,) = _floats((self.rate,))
        except NotACdf:
            rate = math.nan
        if not 0.0 < rate < math.inf:
            raise ValueError(f"service rate must be a positive finite real, got {self.rate!r}")
        object.__setattr__(self, "rate", rate)


def _over_common_denominator(values) -> tuple[list[int], int]:
    """Integer numerators of the rationals over their least common denominator:
    one power of two for doubles, so later arithmetic needs no gcd. Floats, ints
    and Fractions are read as they are, any other real (a numpy float, a 0-d
    array) through ``float()``, which is exact for those."""
    ratios = [(v if isinstance(v, (float, int, Fraction)) else float(v)).as_integer_ratio()
              for v in values]
    den = math.lcm(*(d for _, d in ratios))
    return [num * (den // d) for num, d in ratios], den


def _items(values, violation: str) -> list | tuple:
    """The entries of a list, tuple or ndarray, else :class:`NotACdf`."""
    values = values.tolist() if isinstance(values, np.ndarray) else values
    if isinstance(values, (list, tuple)):
        return values
    raise NotACdf([violation])


def _floats(values, violation="coefficients must be an array of numbers") -> tuple[float, ...]:
    """The one reader of a law's numbers: a list, tuple or 1-d ndarray of
    Python or numpy ints and floats, as a tuple of Python floats. Bools,
    strings, mappings and ints past the float range raise :class:`NotACdf`."""
    values = _items(values, violation)
    if any(isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating))
           for v in values):
        raise NotACdf([violation])
    try:
        return tuple(map(float, values))
    except OverflowError:
        raise NotACdf([violation]) from None


def _taylor_rows(a: float, b: float, coeffs):
    """Bernstein weights of F^(k)/k! on [a, b] in s = (x - a) / h, as float
    rows k = 0, 1, ..., n of degree n - k: exact integers, rounded once.

    Over one denominator, F(a + h s) = sum_j d_j s^j by an integer Horner;
    w_k = sum_{j<=k} C(n-j, k-j) d_j by Pascal additions; each later row is
    the x-derivative of the one before over k, and that division is exact.
    A constant piece is taken at degree 1, so that it has a density row.
    """
    (*c, lo, hi), den = _over_common_denominator([*coeffs, a, b])
    c += [0] * (len(c) == 1)
    n, width, total, w = len(c) - 1, hi - lo, den, list(c)
    if lo or width != den:  # den^(n+1) F = sum_i c_i den^(n-i) (lo + width s)^i
        w, total = [c[n]], den ** (n + 1)
        for i in range(n - 1, -1, -1):
            w = [lo * u + width * v for u, v in zip(w + [0], [0] + w)]
            w[0] += c[i] * den ** (n - i)
    for m in range(1, n + 1):  # T_m = T_(m-1) (s + t) + d_m s^m, t = 1 - s
        for k in range(m, 0, -1):
            w[k] += w[k - 1]
    g = math.gcd(den, width)
    for k in range(n + 1):
        if k:  # (i + 1) w_(i+1) - (m - i) w_i at degree m, over k h = k width / den
            w = [((i + 1) * w[i + 1] - (n - k + 1 - i) * w[i]) // k * (den // g)
                 for i in range(n - k + 1)]
            total *= width // g
        if max(map(abs, w)) >> 1023 >= total:  # a weight v / total could overflow
            raise NotACdf(["coefficients overflow the float range in Bernstein form"])
        yield tuple(v / total for v in w)


def _piece_sum(piece, k: int, x, out=None):
    """Row k (0: F, 1: the density) of a piece (a, b, rows) at x in [a, b].

    The one evaluator: sum_i w_i s^i t^(m - i), s = (x - a) / (b - a),
    t = 1 - s, nested from the top as q <- q s + w_i t^(m - i): exact at s = 0
    and 1, and free of cancellation for nonnegative weights. A float x, or an
    array x in place in ``out``, run the same float operations: bit-identical.
    """
    a, b, rows = piece
    w = rows[k]
    s = x if a == 0.0 and b == 1.0 else (x - a) / (b - a)
    t = 1.0 - s
    if not isinstance(s, np.ndarray):
        q, tk = w[-1], 1.0
        for wi in w[-2::-1]:
            tk *= t
            q = q * s + wi * tk
        return q
    out = np.empty(s.shape) if out is None else out
    out.fill(w[-1])
    tk, term = np.ones(s.shape), np.empty(s.shape)
    for wi in w[-2::-1]:
        np.multiply(tk, t, out=tk)
        np.multiply(out, s, out=out)
        np.multiply(tk, wi, out=term)
        np.add(out, term, out=out)
    return out


class _SampledLaw:
    """What a law builds once: its starts and (a, b, rows) pieces with the rows of
    F and f (``_pieces``) or every Taylor row (``_taylor``), and its sampler table."""

    def _bernstein(self, rows: int | None):
        return [(a, b, tuple(islice(_taylor_rows(a, b, c), rows))) for a, b, c in self.segments()]

    @cached_property
    def _pieces(self):
        return [a for a, _, _ in self.segments()], self._bernstein(2)

    @cached_property
    def _taylor(self):
        return self._bernstein(None)

    @cached_property
    def _sampler_table(self):
        return _inverse_table(self)

    def cdf(self, x):
        return eval_cdf(self, x)

    def density(self, x):
        return eval_density(self, x)


@dataclass(frozen=True)
class PolynomialCdf(_SampledLaw):
    """CDF F(x) = sum_i coeffs[i] * x^i on [0, 1].

    Checked when built (:class:`NotACdf` lists what fails): finite numbers
    (stored as floats, :func:`_floats`) of degree >= 1 that sum to 1, a
    constant term (the atom at 0) in [0, 1), and a derivative >= -``DENSITY_TOL``
    on [0, 1]. :func:`validate` also trims and snaps untrusted input.
    """

    coeffs: tuple[float, ...]

    def __post_init__(self):
        coeffs = _floats(self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if not coeffs:
            raise NotACdf(["coefficient sequence is empty"])
        if any(not math.isfinite(c) for c in coeffs):
            raise NotACdf(["coefficients must be finite"])
        if len(coeffs) < 2:
            raise NotACdf(["degree must be >= 1 after trailing-coefficient trimming"])
        problems = []
        total = math.fsum(coeffs)
        if abs(total - 1.0) > 1e-12:
            problems.append(f"coefficients must sum to 1 (F(1) = 1); got {total!r}")
        if not 0.0 <= coeffs[0] < 1.0:
            problems.append(f"constant term (atom at 0) must lie in [0, 1); got {coeffs[0]!r}")
        # DENSITY_TOL is an absolute slack, which means something only at unit mass
        worst = None if problems else _monotone_violation(self._pieces[1][0])
        if worst is not None:
            problems.append(f"density dips to {worst:.3e} < -{DENSITY_TOL:g}: CDF not nondecreasing")
        if problems:
            raise NotACdf(problems)

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


@dataclass(frozen=True)
class PiecewisePolynomialCdf(_SampledLaw):
    """Continuous piecewise-polynomial CDF on [0, 1].

    ``breakpoints`` are increasing, starting at 0 and ending at 1;
    ``polys[j]`` holds the ascending coefficients of the polynomial valid on
    ``[breakpoints[j], breakpoints[j+1]]`` in *global* x coordinates.
    """

    breakpoints: tuple[float, ...]
    polys: tuple[tuple[float, ...], ...]

    def __post_init__(self):  # the checks of a PolynomialCdf, piece by piece
        text = "breakpoints and polys must be arrays of numbers"
        breaks = _floats(self.breakpoints, text)
        object.__setattr__(self, "breakpoints", breaks)
        object.__setattr__(self, "polys", tuple(_floats(p, text) for p in _items(self.polys, text)))
        if len(breaks) < 2 or len(self.polys) != len(breaks) - 1:
            raise NotACdf(["need one polynomial per interval between breakpoints"])
        if not all(self.polys):
            raise NotACdf(["every piece needs at least one coefficient"])
        problems = []
        if breaks[0] != 0.0 or breaks[-1] != 1.0:
            problems.append("breakpoints must start at 0 and end at 1")
        if any(b1 >= b2 for b1, b2 in zip(breaks, breaks[1:])):
            raise NotACdf([*problems, "breakpoints must be strictly increasing"])
        if any(not math.isfinite(c) for poly in self.polys for c in poly):
            raise NotACdf(["coefficients must be finite"])
        _, pieces = self._pieces
        ends = [(cdf[0], cdf[-1]) for *_, (cdf, _) in pieces]  # F(a), F(b): end weights
        for j in range(1, len(pieces)):
            gap = ends[j - 1][1] - ends[j][0]
            if abs(gap) > 1e-12:
                problems.append(f"discontinuity {gap:.3e} at breakpoint {breaks[j]!r}")
        atom, final = ends[0][0], ends[-1][1]
        if not 0.0 <= atom < 1.0:
            problems.append(f"value at 0 (atom) must lie in [0, 1); got {atom!r}")
        if abs(final - 1.0) > 1e-12:
            problems.append(f"value at x = 1 must be 1; got {final!r}")
        if problems:  # as for a polynomial law: the density slack needs unit mass
            raise NotACdf(problems)
        dips = [(j, _monotone_violation(piece)) for j, piece in enumerate(pieces)]
        problems = [f"density dips to {worst:.3e} on segment {j}: CDF not nondecreasing"
                    for j, worst in dips if worst is not None]
        if problems:
            raise NotACdf(problems)

    @property
    def atom(self) -> float:
        return self.polys[0][0]  # F(0): the first piece starts at 0

    def segments(self) -> list[tuple[float, float, tuple[float, ...]]]:
        return list(zip(self.breakpoints, self.breakpoints[1:], self.polys))


#: The law types, read from their pieces; anything else is read as a plain
#: CDF (:func:`_as_callable`) or refused (:func:`_require_law`).
_LAWS = (PolynomialCdf, PiecewisePolynomialCdf)


def _pointwise(x, on_array, on_float=None):
    """The evaluators' one shape rule: an ndarray, list or tuple x gives a
    float array of its shape (0-d too); a Python or numpy scalar gives a
    float, bit-equal to the array's value."""
    if isinstance(x, (np.ndarray, list, tuple)):
        return np.asarray(on_array(np.asarray(x, dtype=float)))  # 0-d stays an array
    return on_float(float(x)) if on_float else float(on_array(np.asarray(float(x))))


def _density_points(xs):
    """xs (a float or an array) if every point lies in (0, 1], the one
    domain of a density; NaN does not. Else ValueError."""
    if not np.all((xs > 0.0) & (xs <= 1.0)):
        raise ValueError("a density is defined on (0, 1] only; the mass at 0 is the atom")
    return xs


def _unit_points(xs: np.ndarray, what: str) -> np.ndarray:
    """The array xs if every point lies in [0, 1], the one domain of deviates
    and of the residual's points; NaN does not, an empty array does. Else
    ValueError. A min and a max reduction, with no temporaries."""
    if not (xs.min(initial=1.0) >= 0.0 and xs.max(initial=0.0) <= 1.0):
        raise ValueError(f"{what} must lie in [0, 1]")
    return xs


def _as_callable(obj):
    """The one CDF reader: a callable ``obj.cdf``, else ``obj`` if callable."""
    for cdf in (getattr(obj, "cdf", None), obj):
        if callable(cdf):
            return cdf
    raise InputError(f"need a callable CDF or an object with one, got {type(obj).__name__}")


def eval_cdf(dist, x):
    """A distribution's CDF at x (see :func:`_pointwise`): 0 below 0, F(x) on [0, 1], 1 above."""
    def on_array(xs):
        val = _eval_pieces(dist, np.clip(xs, 0.0, 1.0), 0)
        return np.where(xs < 0.0, 0.0, np.where(xs >= 1.0, 1.0, val))
    return _pointwise(x, on_array, partial(_float_cdf, dist))


def _float_cdf(dist, x: float) -> float:
    """The CDF at one float x, from the piece holding it."""
    if x < 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    return _eval_pieces(dist, x, 0)


def _eval_pieces(dist, xs, k: int):
    """Row k (0: F, 1: the density) at a float xs, or at each point of an
    array xs, in [0, 1]."""
    starts, pieces = dist._pieces
    if not isinstance(xs, np.ndarray):
        return _piece_sum(pieces[bisect_right(starts, xs) - 1], k, xs)
    if len(pieces) == 1:
        return _piece_sum(pieces[0], k, xs)
    val = np.empty_like(xs)
    edges = np.searchsorted(starts, xs, side="right") - 1
    for j, piece in enumerate(pieces):
        mask = edges == j
        if np.any(mask):
            val[mask] = _piece_sum(piece, k, xs[mask])
    return val


def _eval_sorted(dist, k: int, xs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Row k (F^(k)/k!) of a law at nondecreasing points xs of [0, 1], into
    ``out``: each piece sums its run of points in place by :func:`_piece_sum`,
    bit-equal to each point's own sum; 0 past a piece's degree, and F(1) = 1.
    Rows 0 and 1 come from ``_pieces``, so they build no higher Taylor row."""
    pieces = dist._pieces[1] if k < 2 else dist._taylor
    cuts = [0, *np.searchsorted(xs, [a for a, _, _ in pieces[1:]]).tolist(), xs.size]
    for piece, lo, hi in zip(pieces, cuts, cuts[1:]):
        if k >= len(piece[2]):
            out[lo:hi] = 0.0
        elif hi > lo:
            _piece_sum(piece, k, xs[lo:hi], out[lo:hi])
    if k == 0:
        out[np.searchsorted(xs, 1.0) :] = 1.0  # F(1) = 1
    return out


def eval_density(dist, x):
    """Evaluate the density (CDF derivative) at x in (0, 1] (see
    :func:`_pointwise` and :func:`_density_points`).

    The atom at 0, if any, is not part of the density; it is reported
    separately as the distribution's ``atom``.
    """
    def density(xs):
        return _eval_pieces(dist, _density_points(xs), 1)
    return _pointwise(x, density, density)


def _golden_min(fun, lo: float, hi: float, tol: float = 1e-12) -> tuple[float, float]:
    """(Minimum value, its argument) of ``fun`` on [lo, hi] by golden-section search."""
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
    return min((fc, c), (fd, d), (fun(a), a), (fun(b), b))


def _monotone_violation(piece) -> float | None:
    """Most negative density value of a piece (a, b, rows), if any.

    None at once when every density weight (rounded, so of its exact sign) is
    >= 0, by the convex-hull property. Otherwise a grid scan (share of the
    4096-point budget by length) plus golden-section refinement near zero.
    """
    lo, hi, (_, density) = piece
    if min(density) >= 0.0:
        return None
    npts = max(8, int(_VALIDATION_GRID * (hi - lo)) + 1)
    xs = np.linspace(lo, hi, npts)
    with np.errstate(over="ignore", invalid="ignore"):  # weights near the float limit
        vals = _piece_sum(piece, 1, xs)
    worst = float(np.min(vals))
    if worst < -DENSITY_TOL:
        return worst
    # Refine wherever the grid gets suspiciously close to zero: a strictly
    # positive density cannot dip below -tol between grid points unless the
    # grid values are already small.
    scale = max(1.0, float(np.max(np.abs(vals))))
    suspect = np.nonzero(vals < 1e-4 * scale)[0]
    fun = lambda x: _piece_sum(piece, 1, x)
    for cell in suspect:
        refined, _ = _golden_min(fun, float(xs[max(0, cell - 1)]), float(xs[min(npts - 1, cell + 1)]))
        worst = min(worst, refined)
        if worst < -DENSITY_TOL:
            return worst
    return None


def validate(coeffs) -> PolynomialCdf:
    """The law of untrusted coefficients: trims trailing ones below ``TRIM_TOL``,
    snaps an atom in [-TRIM_TOL, 0) to 0, then builds the :class:`PolynomialCdf`,
    which checks itself (:class:`NotACdf` lists every violation)."""
    coeffs = list(_floats(coeffs))
    while len(coeffs) > 1 and abs(coeffs[-1]) < TRIM_TOL:
        coeffs.pop()
    if coeffs and -TRIM_TOL <= coeffs[0] < 0.0:  # a tiny negative atom is 0
        coeffs[0] = 0.0
    return PolynomialCdf(tuple(coeffs))


def _require_law(dist, where: str, kinds=_LAWS) -> None:
    """Raise :class:`InputError` unless ``dist`` is one of the law types ``kinds``.

    The solver, the oracles and the bounds read a law's pieces in closed
    form; a plain callable has none and must be fitted first.
    """
    if not isinstance(dist, kinds):
        raise InputError(
            f"{where} needs a {' or '.join(k.__name__ for k in kinds)}, got "
            f"{type(dist).__name__}; fit a plain CDF with bernstein_fit first"
        )


def _service_kernel(dist, rate: float, u: np.ndarray) -> np.ndarray:
    """H(u) = E[F_B(u + A)] for A ~ Exp(rate), in closed form at points u of [0, 1].

    The package's one integral of a law against the exponential service.
    The expectation splits at each polynomial breakpoint of F_B and at the
    point where u + A leaves [0, 1]. From lo = max(u, a) a piece [a, b]
    contributes sum_k gamma_k w^(k+1) I_k, w = b - lo, with gamma_k =
    F^(k)(lo)/k! from the law's Taylor rows and I_k the stable exponential
    moments. No quadrature. H(0) = E[F_B(A)] =
    P[B <= A] = E[e^{-rate*B}], and its bits do not depend on the other
    points asked for: u = 0 has every piece's widest window, so it sets
    :func:`moment_grid`'s downward start wherever it takes that pass.
    """
    from ._moments import moment_grid

    total = np.exp(-rate * (1.0 - u))  # mass where u + A lands past 1
    for a, b, rows in dist._taylor:
        mask = u < b
        if not np.any(mask):
            continue
        um = u[mask]
        lo = np.maximum(um, a)
        width = b - lo
        mom = moment_grid(len(rows) - 1, -rate * width)
        inner = np.zeros_like(um)
        wpow = width
        for k in range(len(rows)):
            inner += _piece_sum((a, b, rows), k, lo) * wpow * mom[k]
            wpow = wpow * width
        total[mask] += rate * np.exp(-rate * (lo - um)) * inner
    return total


def _laplace(dist, rate: float) -> float:
    """L = E[e^{-rate*B}], read off the service kernel as H(0) = E[F_B(A)]."""
    _require_law(dist, "prob_B_greater_A")
    return float(_service_kernel(dist, rate, np.zeros(1))[0])


def prob_B_greater_A(dist, svc: ExponentialService) -> float:
    """P[B > A]: the chance preparation outlasts an exponential service.

    Computed as 1 - L with L = E[e^{-rate*B}] the service kernel's
    H(0) = E[F_B(A)], by the same closed form the fixed-point oracle
    tabulates (no quadrature). Strictly inside (0, 1) for every valid,
    nondegenerate distribution, though it rounds to 1 once L is below half
    an ulp of 1.
    """
    return 1.0 - _laplace(dist, svc.rate)


def inverse_cdf(dist, u: float) -> float:
    """The x with F(x) = u, by safeguarded Newton (see :func:`inverse_cdf_array`,
    which also holds the rule for u)."""
    return float(inverse_cdf_array(dist, np.array([float(u)]))[0])


def _inverse_table(dist):
    """The sampler's grid, local Taylor coefficients of F there, guide and starts.

    The grid is uniform with ``_SAMPLER_CELLS`` cells plus the law's
    breakpoints, so every cell lies in one polynomial piece. Row k of the
    table holds F^(k)(x_j) / k! of the piece starting at or before x_j, from
    the law's Taylor rows (:func:`_taylor_rows`). Row 0, the CDF values
    that bracket each draw, ends at F(1) = 1; its weights are nonnegative,
    so it is good to a few ulps even for fits whose monomial coefficients
    reach 1e12 and cancel. The guide holds
    searchsorted(row 0, k / m) at the edges of m equal deviate buckets. The
    last entry holds Newton's start in each cell (:func:`_hermite_starts`).
    """
    # np.union1d would load numpy.ma (through np.unique) for this one call
    grid = np.sort(np.concatenate([np.linspace(0.0, 1.0, _SAMPLER_CELLS + 1), dist._pieces[0]]))
    grid = grid[np.append(True, grid[1:] != grid[:-1])]
    taylor = np.empty((max(len(rows) for *_, rows in dist._taylor), grid.size))
    for k, row in enumerate(taylor):
        _eval_sorted(dist, k, grid, row)
    guide = np.searchsorted(taylor[0], np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS)
    return grid, taylor, guide, _hermite_starts(grid, taylor)


def _hermite_starts(grid: np.ndarray, taylor: np.ndarray) -> np.ndarray:
    """Row k - 1 holds, per cell, the coefficient c_k of Newton's start
    s(t) = c_1 t + ... + c_5 t^5, the offset from the cell's left end x_j
    at t = (u - F(x_j)) / (F(x_{j+1}) - F(x_j)).

    s is the quintic Hermite interpolant of the inverse CDF on the cell: it
    matches x, dx/du = 1/f and d2x/du2 = -f'/f^3 at both ends (rows 0-2 of
    the table), so its error shrinks like the sixth power of the cell's rise
    and one Newton step finishes a draw. (The cubic, from x and 1/f alone,
    leaves a second step to about one draw in fifteen on an order-5 fit, in
    the tails, where f is small against f'.) A cell with an end density of
    0, or with coefficients so large that the sum could overflow, starts
    from linear interpolation, s = (x_{j+1} - x_j) t.
    """
    width = np.diff(grid)
    rise = np.diff(taylor[0])
    dens = taylor[1]
    slope = 2.0 * taylor[2] if len(taylor) > 2 else np.zeros_like(dens)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d0, d1 = rise / dens[:-1], rise / dens[1:]  # ds/dt at t = 0 and 1
        a0, a1 = -slope[:-1] * d0 * d0 / dens[:-1], -slope[1:] * d1 * d1 / dens[1:]
        coeffs = np.array(
            [
                d0,
                0.5 * a0,
                10.0 * width - 6.0 * d0 - 4.0 * d1 - 1.5 * a0 + 0.5 * a1,
                -15.0 * width + 8.0 * d0 + 7.0 * d1 + 1.5 * a0 - a1,
                6.0 * width - 3.0 * d0 - 3.0 * d1 - 0.5 * a0 + 0.5 * a1,
            ]
        )
        # for t in [0, 1] no partial sum exceeds sum |c_k|
        ok = (dens[:-1] > 0.0) & (dens[1:] > 0.0) & np.isfinite(np.abs(coeffs).sum(axis=0))
    coeffs[:, ~ok] = 0.0
    coeffs[0, ~ok] = width[~ok]
    return coeffs


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

    Each draw starts inside its grid cell [x_j, x_j + w] from the cell's
    Hermite interpolant of the inverse CDF (:func:`_hermite_starts`), clipped
    to [0, w], and iterates on the offset s in [0, w] with
    F(x_j + s) - u = (F(x_j) - u) + s * (g_1 + g_2 s + ...), the cell's
    local Taylor form. The Newton step is taken while it stays inside the
    root's bracket, which every residual's sign narrows; otherwise the
    bracket is bisected. A draw is done once its Newton step drops below
    ``_NEWTON_TOL`` or its bracket below that width.
    """
    grid, taylor, guide, hermite = table
    cell = _find_cells(taylor[0], guide, u) - 1
    start = taylor[0][cell]
    width = grid[cell + 1] - grid[cell]
    t = (u - start) / (taylor[0][cell + 1] - start)
    s = hermite[-1][cell]
    for row in hermite[-2::-1]:
        s = s * t + row[cell]
    s = np.clip(s * t, 0.0, width)
    base = start - u  # F(x_j) - u
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

    F is tabulated once per law (:func:`_inverse_table`); each draw then
    finds its cell through a guide table and solves F(x) = u there by
    safeguarded Newton on the law's own polynomial piece, to about an ulp
    of x. Draws are handled ``_SAMPLER_BLOCK`` at a time, which keeps the
    temporaries small. Deviates in [0, atom] map to 0 and the deviate 1 to
    1; a deviate outside [0, 1], NaN included, is a ValueError
    (:func:`_unit_points`).
    """
    _require_law(dist, "inverse_cdf")
    flat = _unit_points(np.asarray(u, dtype=float).reshape(-1), "deviates")
    out = np.where(flat >= 1.0, 1.0, 0.0)
    inside = np.flatnonzero((flat > dist.atom) & (flat < 1.0))
    if inside.size:
        table = dist._sampler_table
        for first in range(0, inside.size, _SAMPLER_BLOCK):
            at = inside[first : first + _SAMPLER_BLOCK]
            out[at] = _newton_block(table, flat[at])
    return out.reshape(np.shape(u))


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
    named = {"uniform": uniform_cdf, "triangular": triangular_cdf}  # either spelling
    if isinstance(spec, str):
        name = spec.strip().lower()
        try:
            spec = {"type": name} if name in named else json.loads(spec)
        except json.JSONDecodeError as exc:
            raise NotACdf([f"distribution spec is not valid JSON: {exc}"]) from exc
    if not isinstance(spec, dict) or "type" not in spec:
        raise NotACdf(["distribution spec must be an object with a 'type' field"])
    kind = str(spec["type"]).lower()
    if kind in named:
        return named[kind]()
    if kind == "polynomial":
        return validate(spec.get("coeffs"))
    if kind == "piecewise":
        return PiecewisePolynomialCdf(spec.get("breaks"), spec.get("polys"))
    raise NotACdf([f"unknown distribution type {kind!r}"])
