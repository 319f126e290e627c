"""Exponentially weighted polynomial moments on the unit interval.

Everything in this package that integrates a polynomial against an
exponential reduces to the family

    I_k(r) = integral_0^1 y^k * exp(r*y) dy,   k >= 0, r complex,

computed here by stable recurrences in every parameter regime:

* ``|r| < 1e-4``  — Taylor series (the recurrences lose all digits near 0),
* moderate ``|r|`` — upward recurrence while it is contractive (k < |r|),
  switching to a zero-seeded downward (Miller-style) pass above,
* anchored variants ``integral_0^1 y^k exp(r*(y-1)) dy`` for arguments with a
  large positive real part, where exp(r) itself would overflow.

The scalar entry point :func:`exp_weighted_moment` is the public contract
(re-exported by :mod:`lindley_alt`); the array helpers are private to the
package.
"""

from __future__ import annotations

import math

import numpy as np

from ._numeric import DOUBLE

__all__ = ["exp_weighted_moment"]

#: Moment orders are capped: beyond this, callers should reformulate.
MAX_ORDER = 64

#: Below this magnitude the recurrences are replaced by the Taylor series.
_TAYLOR_RADIUS = 1e-4


def _taylor_moments(kmax: int, r, ctx) -> list:
    """I_0..I_kmax by the series sum_m r^m / (m! * (k+m+1)), |r| small."""
    eps, cap = ctx.eps, ctx.terms
    out = []
    for k in range(kmax + 1):
        term = ctx.complex(1)  # r^m / m! at m = 0
        total = term / (k + 1)
        m = 0
        while True:
            m += 1
            term *= r / m
            inc = term / (k + m + 1)
            total += inc
            if abs(inc) <= eps * abs(total) or m > cap:
                break
        out.append(total)
    return out


def _downward_start(kmax: int, mag, ctx=DOUBLE) -> int:
    """Start index for the zero-seeded downward recurrence.

    Error introduced by the zero seed contracts by |r|/j at step j; run the
    start index out until the accumulated contraction beats ``ctx.eps``
    (an index estimate, so it is run in double in every context).
    """
    mag, eps = float(mag), float(ctx.eps)
    start = max(kmax, math.ceil(mag))
    shrink = 1.0
    while shrink > eps and start < kmax + ctx.terms:
        start += 1
        shrink *= min(1.0, mag / start)
    return start


def _moments(kmax: int, r, ctx=DOUBLE) -> list:
    """I_0..I_kmax for one argument ``r`` of the numeric context ``ctx``
    (internal, unvalidated)."""
    mag = abs(r)
    if mag < _TAYLOR_RADIUS:
        return _taylor_moments(kmax, r, ctx)

    er = ctx.exp(r)
    out = [ctx.expm1(r) / r]
    # Upward while contractive: the error amplification at step k is k/|r|.
    k_up = min(kmax, int(mag))
    for k in range(1, k_up + 1):
        out.append((er - k * out[k - 1]) / r)
    if k_up == kmax:
        return out

    # Downward (Miller-style) for the remaining orders, from a zero seed.
    start = _downward_start(kmax, mag, ctx)
    high = [ctx.complex(0)] * (start + 1)
    for k in range(start, k_up + 1, -1):
        high[k - 1] = (er - r * high[k]) / k
    return out + high[k_up + 1 : kmax + 1]


def _anchored_moments(kmax: int, r, ctx=DOUBLE) -> list:
    """integral_0^1 y^k * exp(r*(y-1)) dy for k = 0..kmax (unvalidated)."""
    if r.real <= 700.0:
        scale = ctx.exp(-r)
        return [scale * v for v in _moments(kmax, r, ctx)]
    # exp(r) overflows: run the recurrence directly on the anchored values,
    # where the upward pass is contractive because k/|r| << 1.
    emr = ctx.exp(-r)  # underflows harmlessly toward 0
    out = [(1 - emr) / r]
    for k in range(1, kmax + 1):
        out.append((1 - k * out[k - 1]) / r)
    return out


def exp_weighted_moment(k: int, r: complex) -> complex:
    """Return the moment integral_0^1 y^k * exp(r*y) dy.

    Parameters
    ----------
    k:
        Moment order, ``0 <= k <= 64``.
    r:
        Complex exponential rate.

    Returns
    -------
    complex
        The integral, accurate to close to machine precision in every
        magnitude regime of ``r``.

    Raises
    ------
    ValueError
        If ``k`` is negative or exceeds the supported maximum order.
    """
    if not 0 <= k <= MAX_ORDER:
        raise ValueError(f"moment order must be in [0, {MAX_ORDER}], got {k}")
    return _moments(k, complex(r))[k]


def moment_grid(kmax: int, z: np.ndarray) -> np.ndarray:
    """Vectorized I_k over an array of nonpositive real arguments.

    Returns an array of shape ``(kmax + 1,) + z.shape`` with rows k = 0..kmax.
    Entries with |z| > kmax take the upward recurrence at every order, where
    it is contractive (k < |z|) and stays accurate after exp(z) underflows.
    The others take the zero-seeded downward recurrence, whose start index
    adapts to the largest of their magnitudes; it is exact at z = 0, where
    it reproduces 1/(k+1).
    """
    z = np.asarray(z, dtype=float)
    if np.any(z > 0.0):
        raise ValueError("moment_grid expects nonpositive real arguments")
    rows = np.empty((kmax + 1,) + z.shape)
    up = -z > kmax
    zd = z[~up]
    ez = np.exp(zd)
    cur = np.zeros_like(zd)
    for k in range(_downward_start(kmax, float(np.max(-zd, initial=0.0))), 0, -1):
        cur = (ez - zd * cur) / k
        if k - 1 <= kmax:
            rows[k - 1, ~up] = cur
    zu = z[up]
    ez = np.exp(zu)
    cur = np.expm1(zu) / zu
    rows[0, up] = cur
    for k in range(1, kmax + 1):
        cur = (ez - k * cur) / zu
        rows[k, up] = cur
    return rows


def complex_moment_grid(kmax: int, z: np.ndarray, anchored: bool = False) -> np.ndarray:
    """Vectorized I_k over an array of complex arguments, or, with
    ``anchored``, integral_0^1 y^k * exp(z*(y-1)) dy.

    Returns an array of shape ``(kmax + 1,) + z.shape`` with rows k =
    0..kmax. Each entry takes the regime :func:`_moments` and
    :func:`_anchored_moments` take for it: the Taylor series for |z| < 1e-4,
    the upward recurrence for orders k <= |z|, and above those the
    zero-seeded downward recurrence, started at one index for all entries,
    the one the largest of their magnitudes needs. Anchored values with
    Re z > 700 run the upward recurrence on the anchored values directly;
    the others are exp(-z) * I_k(z).
    """
    z = np.asarray(z, dtype=complex)
    flat = z.reshape(-1)
    rows = np.empty((kmax + 1, flat.size), dtype=complex)
    mag = np.abs(flat)
    orders = np.arange(kmax + 1)[:, None]
    direct = (flat.real > 700.0) & anchored
    series = mag < _TAYLOR_RADIUS
    recur = ~series & ~direct

    zs = flat[series]
    term = np.ones_like(zs)
    total = np.zeros((kmax + 1, zs.size), dtype=complex) + 1.0 / (orders + 1)
    m = 0
    while zs.size and m < DOUBLE.terms:
        m += 1
        term = term * zs / m
        inc = term / (orders + m + 1)
        total += inc
        if np.all(np.abs(inc) <= DOUBLE.eps * np.abs(total)):
            break
    rows[:, series] = total

    zr, mr = flat[recur], mag[recur]
    ez = np.exp(zr)
    vals = np.empty((kmax + 1, zr.size), dtype=complex)
    vals[0] = cur = np.expm1(zr) / zr
    # Upward at every entry; past k = |z| it amplifies error and may
    # overflow, and the downward pass replaces those orders.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, kmax + 1):
            vals[k] = cur = (ez - k * cur) / zr
    k_up = np.minimum(kmax, mr.astype(int))
    down = k_up < kmax
    if np.any(down):
        zd, ed, kd = zr[down], ez[down], k_up[down]
        high = vals[:, down]
        cur = np.zeros_like(zd)
        for k in range(_downward_start(kmax, float(np.max(mr[down]))), 0, -1):
            cur = (ed - zd * cur) / k
            if k - 1 <= kmax:
                high[k - 1] = np.where(k - 1 > kd, cur, high[k - 1])
        vals[:, down] = high
    rows[:, recur] = vals

    if anchored:
        rows[:, ~direct] *= np.exp(-flat[~direct])
        zb = flat[direct]
        rows[0, direct] = cur = (1.0 - np.exp(-zb)) / zb
        for k in range(1, kmax + 1):
            rows[k, direct] = cur = (1.0 - k * cur) / zb
    return rows.reshape((kmax + 1,) + z.shape)
