"""Bernstein polynomial fits of an arbitrary CDF on [0, 1].

The degree-n Bernstein approximant of F is

    (B_n F)(x) = sum_{m=0}^{n} F(m/n) * C(n, m) * x^m * (1 - x)^m-complement,

which is again a CDF whenever F is one (the Bernstein operator preserves
monotonicity and the endpoint values), so its monomial coefficients can be
fed straight to the exact solver. The operator also reproduces affine
functions exactly, which pins down the fit of a linear CDF to machine
precision — a strong self-test.

Monomial coefficients are accumulated in exact rational arithmetic
(:class:`fractions.Fraction`): the conversion from the Bernstein basis to
monomials is catastrophically ill-conditioned in floating point for n
beyond ~15, while the exact forward differences

    c_m = C(n, m) * Delta^m F(0)    (Delta the unit forward difference)

stay exact as long as the CDF values themselves are rational. CDF queries
go through :func:`eval_cdf` with Fraction nodes, so polynomial and
piecewise-polynomial inputs with float coefficients are evaluated exactly;
opaque callables fall back to float values converted to Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .distributions import (
    PiecewisePolynomialCdf,
    PolynomialCdf,
    _golden_min,
    eval_cdf,
    validate,
)
from .errors import OrderTooHigh

__all__ = ["MAX_ORDER", "FitReport", "bernstein_fit", "fit_report", "sup_distance"]

#: Largest supported fit order. Beyond this, float CDF values quantized to
#: Fractions no longer carry enough precision through the n-th forward
#: difference, and the solver's root pairing degrades as well.
MAX_ORDER = 40

#: Resolution of the sup-distance search grid (refined by golden section).
_SUP_GRID = 2**14

#: Grid points scanned per block: two blocks of half the grid each. A full
#: grid's temporaries (131,080 B) sit just over glibc's default 128 KiB mmap
#: threshold, so every scan would map, page-fault and unmap fresh memory;
#: half-grid ones (65,544 B) reuse the heap.
_SUP_BLOCK = _SUP_GRID // 2 + 1


@dataclass(frozen=True)
class FitReport:
    """A fit together with its measured sup-norm quality."""

    fitted: PolynomialCdf
    requested_order: int
    sup_error: float
    sup_location: float


def _cdf_values_at_nodes(dist, order: int) -> list[Fraction]:
    """F(m/n) for m = 0..n as exact rationals.

    Distribution objects are queried with Fraction arguments (exact
    evaluation path); other callables are queried with floats and the
    results converted, which is exact for the value the callable returned.
    """
    exact = isinstance(dist, (PolynomialCdf, PiecewisePolynomialCdf))
    values = []
    for m in range(order + 1):
        node = Fraction(m, order)
        raw = eval_cdf(dist, node) if exact else dist(m / order)
        values.append(raw if isinstance(raw, Fraction) else Fraction(raw))
    return values


def bernstein_fit(dist, order: int) -> PolynomialCdf:
    """Degree-``order`` Bernstein approximant as a validated polynomial CDF.

    Parameters
    ----------
    dist:
        A distribution object or any callable CDF on [0, 1].
    order:
        Polynomial degree n >= 1 of the approximant.

    Raises
    ------
    OrderTooHigh
        For orders beyond :data:`MAX_ORDER`.
    NotACdf
        If the input's node values are not monotone in [0, 1] — i.e. the
        input was not a CDF to begin with.

    Notes
    -----
    The returned coefficients sum to 1 in floating point *exactly*: after
    rounding the exact rationals, the largest safe coefficient is nudged by
    the residual so that downstream normalization checks hold bitwise.
    """
    if order < 1:
        raise ValueError(f"fit order must be >= 1, got {order}")
    if order > MAX_ORDER:
        raise OrderTooHigh(order, MAX_ORDER)
    values = _cdf_values_at_nodes(dist, order)

    # c_m = C(n, m) * Delta^m F(0), accumulated exactly.
    diffs = list(values)
    coeffs = [diffs[0]]  # m = 0: the atom F(0)
    for m in range(1, order + 1):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        coeffs.append(math.comb(order, m) * diffs[0])

    floats = [float(c) for c in coeffs]
    floats = _nudge_to_unit_sum(floats)
    return validate(floats)


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
    """sup_x |F(x) - G(x)| over [0, 1] for two CDF-like objects.

    Scans a dyadic grid of 2^14 cells, then refines around the best cell by
    golden-section search. Both one-sided endpoint values are included via
    the grid itself (both functions are right-continuous on [0, 1] and any
    common atom sits at 0, a grid point).
    """
    f = _as_callable(first)
    g = _as_callable(second)
    k, peak = 0, -np.inf
    for start in range(0, _SUP_GRID + 1, _SUP_BLOCK):
        xs = np.arange(start, min(start + _SUP_BLOCK, _SUP_GRID + 1)) / _SUP_GRID
        gaps = np.abs(f(xs) - g(xs))
        j = int(np.argmax(gaps))
        if gaps[j] > peak:  # strict: the first maximum on the grid wins
            k, peak = start + j, float(gaps[j])
    lo = max(k - 1, 0) / _SUP_GRID
    hi = min(k + 1, _SUP_GRID) / _SUP_GRID
    x_star = _golden_min(lambda x: -abs(float(f(x)) - float(g(x))), lo, hi)
    best_x = float(x_star)
    best = abs(float(f(best_x)) - float(g(best_x)))
    if best < peak:
        best, best_x = peak, k / _SUP_GRID
    if locate:
        return best, best_x
    return best


def _as_callable(obj):
    if isinstance(obj, (PolynomialCdf, PiecewisePolynomialCdf)):
        return lambda x: eval_cdf(obj, x)
    cdf = getattr(obj, "cdf", None)
    if callable(cdf):
        return cdf
    return obj
