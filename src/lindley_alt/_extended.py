"""The extended numeric context: mpmath at the working precision of a solve.

:func:`lindley_alt._numeric.context_for` and
:func:`lindley_alt._numeric.context_of` import it on first use, so a process
whose solves all stay at or below ``EXTENDED_DEGREE`` never loads mpmath.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath as mp
import numpy as np

from .errors import DegenerateMode


class _Extended:
    """mpmath arithmetic at the working precision of the enclosing solve."""

    complex = mp.mpc
    exp = staticmethod(mp.exp)
    expm1 = staticmethod(mp.expm1)
    frexp = staticmethod(mp.frexp)
    ldexp = staticmethod(mp.ldexp)
    polish_iters = 80

    exact = staticmethod(list)  # the exact rationals themselves

    @staticmethod
    def real(x) -> mp.mpf:
        """int, float or Fraction, correctly rounded at working precision."""
        x = Fraction(x)
        return mp.mpf(x.numerator) / x.denominator

    # the tolerances follow the working precision context_for(n) sets
    @property
    def eps(self) -> mp.mpf:
        return mp.mpf(10) ** (-(mp.mp.dps + 5))

    @property
    def polish_tol(self) -> mp.mpf:
        return mp.mpf(10) ** (-(mp.mp.dps - 12))

    accept_tol = polish_tol

    @staticmethod
    def pow2_scales(mags: np.ndarray) -> np.ndarray:
        """The power of two nearest 1/m for each magnitude m (1 for m = 0),
        from m = f 2^e at working precision, so that a magnitude past the
        double range scales too: log2 m rounds to e - 1 where 2 f^2 < 1."""
        pairs = map(mp.frexp, mags)
        return np.array([mp.ldexp(1, (2 * f * f < 1) - e) if f else 1 for f, e in pairs])

    @staticmethod
    def factor_solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """``mp.lu_solve``'s solution at working precision. A system singular
        at working precision raises :class:`DegenerateMode`."""
        try:
            sol = mp.lu_solve(mp.matrix(mat.tolist()), mp.matrix(rhs.tolist()))
        except ZeroDivisionError as exc:
            raise DegenerateMode(f"mode system: {exc} at {mp.mp.dps} digits") from None
        return np.array(list(sol))


EXTENDED = _Extended()
