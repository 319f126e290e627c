"""The two numeric contexts a solve runs in.

Every solver stage is written once, against the small protocol the two
context objects below share: ``exp``/``expm1``, ``polyval``, the complex
constructor, conversion of exact rationals (``exact``, ``real``), the
sampler's ``pi``, ``exp_array``/``sin_array`` and ``combine``, the
tolerances of the moment recurrences and of the Newton polish, and a dense
``lu_solve`` that hands back the context's own numbers. Python ``complex``
and mpmath ``mpc`` share their arithmetic operators, so a stage's body is
the same in both; :func:`context_of` recovers the context from the numbers
a stage is handed, and the solver picks it once per solve by degree.

* :data:`DOUBLE` — cmath/numpy. Its ``lu_solve`` equilibrates the system by
  powers of two, solves with LAPACK and takes one step of iterative
  refinement.
* :data:`EXTENDED` — mpmath at :func:`working_dps` digits (entered with
  ``EXTENDED.precision(n)``, which scopes the precision, so no state leaks
  between calls); ``lu_solve`` is ``mp.lu_solve``; arrays hold objects.
"""

from __future__ import annotations

import cmath
import contextlib
import math
from fractions import Fraction

import mpmath as mp
import numpy as np


#: Working decimal digits of the extended context as a function of degree.
#: The cancellation depth of the weight sums and tail evaluations grows like
#: log10(n!) + the coefficient dynamic range; 3 digits per degree plus a fixed
#: floor covers both with >= 25 digits to spare for every degree up to the
#: fit cap (40).
def working_dps(n: int) -> int:
    return 40 + 3 * n


def _expm1c(z: complex) -> complex:
    """exp(z) - 1 without cancellation for small |z| (complex argument)."""
    x, y = z.real, z.imag
    if y == 0.0:
        return complex(math.expm1(x), 0.0)
    # Real part: expm1(x)*cos(y) - 2*sin^2(y/2); imaginary part: e^x*sin(y).
    return complex(
        math.expm1(x) * math.cos(y) - 2.0 * math.sin(0.5 * y) ** 2,
        math.exp(x) * math.sin(y),
    )


def equilibrate(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-sided power-of-two row/column equilibration of a square system.

    The derivative-hierarchy rows scale like root^level (up to ~1e29 at high
    degree) while the balance and normalization rows are O(1); the raw
    condition number then reflects scaling, not genuine near-degeneracy, and
    the factorization loses digits it does not need to lose. Scale factors
    are rounded to powers of two, so applying them is exact in floating
    point and the scaled system is equivalent bit-for-bit.

    Returns ``(scaled, row_scale, col_scale)`` with
    ``scaled = diag(row_scale) @ mat @ diag(col_scale)``; a solution ``y`` of
    the scaled system maps back as ``x = col_scale * y``.
    """
    scaled = mat.copy()
    rows = np.ones(mat.shape[0])
    cols = np.ones(mat.shape[1])
    for _ in range(4):
        rmax = np.max(np.abs(scaled), axis=1)
        rf = np.exp2(-np.round(np.log2(np.where(rmax > 0.0, rmax, 1.0))))
        scaled *= rf[:, None]
        rows *= rf
        cmax = np.max(np.abs(scaled), axis=0)
        cf = np.exp2(-np.round(np.log2(np.where(cmax > 0.0, cmax, 1.0))))
        scaled *= cf[None, :]
        cols *= cf
    return scaled, rows, cols


class _Double:
    """cmath/numpy arithmetic: the solver's context up to EXTENDED_DEGREE."""

    complex = complex
    real = float
    pi = math.pi
    expm1 = staticmethod(_expm1c)
    exp_array = staticmethod(np.exp)
    sin_array = staticmethod(np.sin)
    #: relative accuracy of the moment series and zero-seeded recurrences,
    #: and the cap on their terms
    eps = 1e-18
    terms = 400
    #: Newton polish: stop below polish_tol, accept below accept_tol
    polish_tol = 1e-13
    accept_tol = 1e-12
    polish_iters = 40

    @staticmethod
    def precision(n: int):
        return contextlib.nullcontext()

    @staticmethod
    def exact(values: list[Fraction]) -> list[Fraction]:
        """The rationals this context starts from: each rounded to double."""
        return [Fraction(float(v)) for v in values]

    @staticmethod
    def exp(z):
        return cmath.exp(z) if z.real <= 709.0 else complex(math.inf)

    @staticmethod
    def combine(weights: list, rows: list) -> np.ndarray:
        """sum_i weights[i] * rows[i] over arrays of equal length."""
        return np.asarray(weights) @ np.array(rows)

    @staticmethod
    def polyval(coeffs, x) -> complex:
        """Horner, highest degree first (numpy's, rounding included)."""
        return complex(np.polyval(coeffs, x))

    @staticmethod
    def lu_solve(mat: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, float]:
        """Solution and condition number of the equilibrated system."""
        scaled, row_scale, col_scale = equilibrate(mat)
        cond = float(np.linalg.cond(scaled))
        b = rhs * row_scale
        y = np.linalg.solve(scaled, b)
        y += np.linalg.solve(scaled, b - scaled @ y)  # one refinement step
        return y * col_scale, cond


class _Extended:
    """mpmath arithmetic at the working precision of the enclosing solve."""

    complex = mp.mpc
    exp = staticmethod(mp.exp)
    expm1 = staticmethod(mp.expm1)
    polyval = staticmethod(mp.polyval)
    exp_array = staticmethod(np.frompyfunc(mp.exp, 1, 1))
    sin_array = staticmethod(np.frompyfunc(mp.sin, 1, 1))
    polish_iters = 80

    @staticmethod
    def precision(n: int):
        return mp.workdps(working_dps(n))

    exact = staticmethod(list)  # the exact rationals themselves

    @staticmethod
    def real(x) -> mp.mpf:
        """int, float or Fraction, correctly rounded at working precision."""
        x = Fraction(x)
        return mp.mpf(x.numerator) / x.denominator

    # pi and the tolerances follow the working precision set by precision(n)
    pi = property(lambda self: +mp.pi)

    @property
    def eps(self) -> mp.mpf:
        return mp.mpf(10) ** (-(mp.mp.dps + 5))

    @property
    def terms(self) -> int:
        return 40 * mp.mp.dps

    @property
    def polish_tol(self) -> mp.mpf:
        return mp.mpf(10) ** (-(mp.mp.dps - 12))

    accept_tol = polish_tol

    @staticmethod
    def combine(weights: list, rows: list) -> np.ndarray:
        """sum_i weights[i] * rows[i] by mpmath fdot, rounded to complex."""
        return np.array([complex(mp.fdot(weights, col)) for col in zip(*rows)])

    @staticmethod
    def lu_solve(mat: np.ndarray, rhs: np.ndarray) -> tuple[list, float]:
        """Solution at working precision; the condition number is the
        diagnostic one of the equilibrated double image."""
        sol = mp.lu_solve(mp.matrix(mat.tolist()), mp.matrix(rhs.tolist()))
        scaled, _, _ = equilibrate(mat.astype(complex))
        cond = float(np.linalg.cond(scaled))
        return list(sol), cond


DOUBLE = _Double()
EXTENDED = _Extended()


def context_of(x):
    """The context a number belongs to: mpmath numbers are extended."""
    return EXTENDED if isinstance(x, (mp.mpf, mp.mpc)) else DOUBLE
