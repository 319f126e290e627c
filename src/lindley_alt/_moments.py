"""Exponentially weighted polynomial moments on the unit interval.

Everything in this package that integrates a polynomial against an
exponential reduces to the family

    I_k(r) = integral_0^1 y^k * exp(r*y) dy,   k >= 0, r complex,

computed from integration by parts, r * I_k = E - k * I_{k-1} with E the
integrand's value at y = 1: upward from the closed form of I_0 for orders
k <= |r|, where that is contractive, and downward (Miller-style) from a zero
seed above, which gives 1/(k+1) exactly at r = 0 (Gautschi, "Computational
aspects of three-term recurrence relations", SIAM Review 9(1), 1967). The
anchored table, exp(-r) * I_k(r), runs the same passes with E = 1 and stays
finite where exp(r) overflows.

Integrals of the solved law's density series do not come here: the
integral-equation residual integrates that polynomial against the
preparation CDF by Gauss-Legendre with enough nodes to be exact.

The scalar entry point :func:`exp_weighted_moment` is the public contract
(re-exported by :mod:`lindley_alt`); the tables are private to the package.
"""

from __future__ import annotations

import cmath
import math
import sys

import numpy as np

from ._numeric import DOUBLE

__all__ = ["exp_weighted_moment"]

#: Moment orders are capped: beyond this, callers should reformulate.
MAX_ORDER = 64

#: ln(max float): the largest real part whose exp(r) is a finite double.
MAX_REAL_RATE = math.log(sys.float_info.max)


def _downward_start(kmax: int, mag, ctx=DOUBLE) -> int:
    """Start index for the zero-seeded downward recurrence.

    Error introduced by the zero seed contracts by |r|/j at step j; run the
    start index out until the accumulated contraction beats ``ctx.eps``
    (an index estimate, so it is run in double in every context).
    """
    mag, eps = float(mag), float(ctx.eps)
    start = max(kmax, math.ceil(mag))
    shrink = 1.0
    while shrink > eps:
        start += 1
        shrink *= min(1.0, mag / start)
    return start


# The two passes take Python complex, mpmath numbers or numpy arrays alike.
def _upward(first, e, r, kmax: int) -> list:
    """[I_0 .. I_kmax] from I_0 = ``first`` by I_k = (e - k I_{k-1}) / r."""
    out = [first]
    for k in range(1, kmax + 1):
        out.append((e - k * out[-1]) / r)
    return out


def _downward(e, r, lo: int, kmax: int, start: int) -> list:
    """[I_lo .. I_kmax] by I_{k-1} = (e - r I_k) / k from I_start = 0."""
    cur, out = 0, []
    for k in range(start, lo, -1):
        cur = (e - r * cur) / k
        if k <= kmax + 1:
            out.append(cur)
    return out[::-1]


def _moments(kmax: int, r, ctx=DOUBLE, anchored: bool = False) -> list:
    """I_0..I_kmax for one argument ``r`` of the context ``ctx``, or with
    ``anchored`` exp(-r) * I_k (internal, unvalidated)."""
    e = 1 if anchored else ctx.exp(r)
    out = []
    if r != 0:
        first = -ctx.expm1(-r) / r if anchored else ctx.expm1(r) / r
        out = _upward(first, e, r, min(kmax, int(abs(r))))
    if len(out) <= kmax:
        out += _downward(e, r, len(out), kmax, _downward_start(kmax, abs(r), ctx))
    return out


def exp_weighted_moment(k: int, r: complex) -> complex:
    """Return the moment integral_0^1 y^k * exp(r*y) dy.

    Parameters
    ----------
    k:
        Moment order, an integer in [0, 64].
    r:
        Complex exponential rate: finite, with ``Re r <= ln(max float)``
        (about 709.78), where exp(r) is still a finite double.

    Returns
    -------
    complex
        The integral, accurate to close to machine precision in every
        magnitude regime of ``r``.

    Raises
    ------
    ValueError
        If ``k`` or ``r`` lies outside that domain.
    """
    if not isinstance(k, (int, np.integer)) or not 0 <= k <= MAX_ORDER:
        raise ValueError(f"moment order must be an integer in [0, {MAX_ORDER}], got {k!r}")
    r = complex(r)
    if not cmath.isfinite(r) or r.real > MAX_REAL_RATE:
        raise ValueError(
            f"rate must be finite with real part <= ln(max float) = {MAX_REAL_RATE:.2f}, "
            f"where exp(r) overflows double; got {r!r}"
        )
    return _moments(k, r)[k]


def moment_grid(kmax: int, z: np.ndarray) -> np.ndarray:
    """Vectorized I_k over an array of nonpositive real arguments.

    Returns an array of shape ``(kmax + 1,) + z.shape`` with rows k = 0..kmax.
    Entries with |z| > kmax take the upward pass at every order, where it is
    contractive and stays accurate after exp(z) underflows; the others take
    the downward pass from the start their largest magnitude sets.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z > 0.0):
        raise ValueError("moment_grid expects nonpositive real arguments")
    rows = np.empty((kmax + 1,) + z.shape)
    up = -z > kmax
    zd, zu = z[~up], z[up]
    start = _downward_start(kmax, float(np.max(-zd, initial=0.0)))
    rows[:, ~up] = _downward(np.exp(zd), zd, 0, kmax, start)
    rows[:, up] = _upward(np.expm1(zu) / zu, np.exp(zu), zu, kmax)
    return rows
