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

Integrals of the solved law's density series do not come here: the
integral-equation residual integrates that polynomial against the
preparation CDF by Gauss-Legendre with enough nodes to be exact.

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

