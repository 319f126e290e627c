"""Bernstein polynomial fits of an arbitrary CDF on [0, 1].

The degree-n Bernstein approximant of F is

    (B_n F)(x) = sum_{m=0}^{n} F(m/n) * C(n, m) * x^m * (1 - x)^m-complement,

which is again a CDF whenever F is one (the Bernstein operator preserves
monotonicity and the endpoint values), so its monomial coefficients can be
fed straight to the exact solver. The operator also reproduces affine
functions exactly, which pins down the fit of a linear CDF to machine
precision — a strong self-test.

Monomial coefficients are exact until one final rounding: the conversion
from the Bernstein basis to monomials is catastrophically ill-conditioned
in floating point for n beyond ~15, while the exact forward differences

    c_m = C(n, m) * Delta^m F(0)    (Delta the unit forward difference)

stay exact as long as the CDF values themselves are rational. They are: a
law's float coefficients are dyadic, so its node values F(m/n) are integers
over one denominator d * n^deg, and so are their differences. Opaque
callables are queried with floats, which are exact rationals too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .distributions import (
    _LAWS,
    PolynomialCdf,
    _as_callable,
    _float_cdf,
    _golden_min,
    _over_common_denominator,
    _piece_sum,
    validate,
)
from .errors import OrderTooHigh

__all__ = ["MAX_ORDER", "FitReport", "bernstein_fit", "fit_report", "sup_distance"]

#: Largest supported fit order. Beyond it a callable's float node values
#: carry too little precision through the n-th forward difference (a law's
#: are exact), and the solver's root pairing degrades as well.
MAX_ORDER = 40

#: Resolution of the sup-distance search grid (refined by golden section).
_SUP_GRID = 2**14

#: Grid points scanned per block: two blocks of half the grid each. A full
#: grid's value buffers (131,080 B) sit just over glibc's default 128 KiB
#: mmap threshold, so every scan would map, page-fault and unmap fresh
#: memory; half-grid ones (65,544 B) reuse the heap.
_SUP_BLOCK = _SUP_GRID // 2 + 1

#: The grid's points k / 2^14, k = 0..2^14, exact in binary.
_SUP_XS = np.arange(_SUP_GRID + 1) / _SUP_GRID
_SUP_XS.setflags(write=False)


@dataclass(frozen=True)
class FitReport:
    """A fit together with its measured sup-norm quality."""

    fitted: PolynomialCdf
    requested_order: int
    sup_error: float
    sup_location: float


def _node_numerators(dist, order: int) -> tuple[list[int], int]:
    """Integers N_m and one denominator D with F(m/n) = N_m / D for m = 0..n.

    A law's coefficients are integers C_i over one denominator d, so on the
    piece holding m/n (the last start p/q with m q >= p n), F(m/n) is
    sum_i C_i m^i n^(deg-i) / (d n^deg), deg the top degree; F(1) = 1.
    """
    if not isinstance(dist, _LAWS):
        cdf = _as_callable(dist)
        return _over_common_denominator([cdf(m / order) for m in range(order + 1)])
    starts, _, polys = zip(*dist.segments())
    deg = max(map(len, polys)) - 1
    flat, den = _over_common_denominator([c for poly in polys for c in poly])
    nums = iter(flat)
    horner = [[next(nums) * order ** (deg - i) for i in range(len(p))][::-1] for p in polys]
    cuts = [a.as_integer_ratio() for a in starts]
    values, j = [], 0
    for m in range(order):
        while j + 1 < len(cuts) and m * cuts[j + 1][1] >= cuts[j + 1][0] * order:
            j += 1
        acc = 0
        for c in horner[j]:
            acc = acc * m + c
        values.append(acc)
    den *= order**deg
    return [*values, den], den


def bernstein_fit(dist, order: int) -> PolynomialCdf:
    """Degree-``order`` Bernstein approximant as a validated polynomial CDF.

    Parameters
    ----------
    dist:
        A CDF on [0, 1]: a law, any object with a callable ``cdf`` (a
        ``GridCdf``, a ``WaitingTimeSolution``) or a callable.
    order:
        Polynomial degree n >= 1 of the approximant.

    Raises
    ------
    InputError
        If ``dist`` is none of those (:func:`~lindley_alt.distributions._as_callable`).
    OrderTooHigh
        For orders beyond :data:`MAX_ORDER`.
    NotACdf
        If the input's node values are not monotone in [0, 1] — i.e. the
        input was not a CDF to begin with.

    Notes
    -----
    The returned coefficients sum to 1 in floating point *exactly*: one
    small coefficient absorbs the rounding residue (:func:`_nudge_to_unit_sum`).
    """
    if order < 1:
        raise ValueError(f"fit order must be >= 1, got {order}")
    if order > MAX_ORDER:
        raise OrderTooHigh(order, MAX_ORDER)
    diffs, den = _node_numerators(dist, order)

    # c_m = C(n, m) * Delta^m F(0), exact in integers and rounded once
    floats = [diffs[0] / den]  # m = 0: the atom F(0)
    for m in range(1, order + 1):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        floats.append(math.comb(order, m) * diffs[0] / den)
    return validate(_nudge_to_unit_sum(floats))


def _nudge_to_unit_sum(coeffs: list[float]) -> list[float]:
    """Adjust one coefficient so the exact float sum is 1 within a few ulps.

    The exact rational coefficients sum to 1, but their float roundings
    need not: at high orders the individual coefficients are binomially
    large, so the rounding residue can reach ~1e-7. The correction must
    therefore go to a *small*-magnitude coefficient, where one float
    addition absorbs it exactly; index 1 always qualifies (|c_1| <= order,
    since c_1 = order * (F(1/order) - F(0))). The atom c_0 is preferred
    when the correction keeps it in [0, 1). Iterated because the addition
    itself rounds.
    """
    out = list(coeffs)
    by_magnitude = sorted(range(len(out)), key=lambda i: abs(out[i]))
    for _ in range(8):
        gap = 1.0 - math.fsum(out)
        if gap == 0.0:
            return out
        for i in by_magnitude:
            trial = out[i] + gap
            if i == 0 and not 0.0 <= trial < 1.0:
                continue
            out[i] = trial
            break
    return out


def fit_report(dist, order: int) -> FitReport:
    """Fit and measure: the approximant plus its sup distance to the input."""
    fitted = bernstein_fit(dist, order)
    err, loc = sup_distance(dist, fitted, locate=True)
    return FitReport(fitted=fitted, requested_order=order, sup_error=err, sup_location=loc)


def sup_distance(first, second, locate: bool = False):
    """sup_x |F(x) - G(x)| over [0, 1] for two CDFs as :func:`bernstein_fit` takes them.

    Scans a dyadic grid of 2^14 cells, then refines around the first
    largest gap by golden-section search, which must beat the grid strictly.
    Both one-sided endpoint values are included via the grid itself (both
    functions are right-continuous and any common atom sits at 0).
    """
    k, peak = 0, -np.inf
    f_vals, g_vals = np.empty(_SUP_BLOCK), np.empty(_SUP_BLOCK)
    for start in range(0, _SUP_GRID + 1, _SUP_BLOCK):
        xs = _SUP_XS[start : start + _SUP_BLOCK]
        gaps = _grid_cdf(first, xs, f_vals[: xs.size])
        np.subtract(gaps, _grid_cdf(second, xs, g_vals[: xs.size]), out=gaps)
        j = int(np.argmax(np.abs(gaps, out=gaps)))
        if gaps[j] > peak:  # strict: the first maximum on the grid wins
            k, peak = start + j, float(gaps[j])
    # a law's scalar values skip eval_cdf's type dispatch
    f, g = (partial(_float_cdf, o) if isinstance(o, _LAWS) else _as_callable(o)
            for o in (first, second))
    lo, hi = max(k - 1, 0) / _SUP_GRID, min(k + 1, _SUP_GRID) / _SUP_GRID
    least, where = _golden_min(lambda x: -abs(float(f(x)) - float(g(x))), lo, hi)
    best, where = (peak, k / _SUP_GRID) if -least <= peak else (-least, where)
    return (best, where) if locate else best


def _grid_cdf(obj, xs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The CDF at sorted points xs of [0, 1], into ``out``: for a law,
    :func:`eval_cdf`'s values, each piece's slice summed in place."""
    if not isinstance(obj, _LAWS):
        out[:] = _as_callable(obj)(xs)
        return out
    starts, pieces = obj._pieces
    cuts = np.searchsorted(xs, [*starts, 1.0])
    for piece, lo, hi in zip(pieces, cuts, cuts[1:]):
        if hi > lo:
            _piece_sum(piece, 0, xs[lo:hi], out[lo:hi])
    out[cuts[-1] :] = 1.0  # F(1) = 1
    return out
