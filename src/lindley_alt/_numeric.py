"""The two numeric contexts a solve runs in.

Every solver stage is written once, against the small protocol the two
context objects share: ``exp``/``expm1``, ``frexp``/``ldexp``, the complex
constructor, conversion of exact rationals (``exact``, ``real``), the
tolerances of the zero-seeded recurrences (moments and the density series'
Bessel coefficients) and of the Newton polish, and a dense ``lu_solve``
that hands back the context's own numbers. The moment recurrences have no
step cap: they run downward only at orders j above |r|, where each step
shrinks the zero seed's error by |r|/j < 1.
Python ``complex`` and mpmath ``mpc`` share their arithmetic operators, so a
stage's body is the same in both; :func:`context_of` recovers the context
from the numbers a stage is handed, and the solver picks it once per solve
by degree.

* :data:`DOUBLE` — cmath/numpy. Its ``lu_solve`` equilibrates the system by
  powers of two, solves with LAPACK and takes one step of iterative
  refinement.
* ``EXTENDED`` — mpmath at :func:`working_dps` digits (entered with
  ``EXTENDED.precision(n)``, which scopes the precision, so no state leaks
  between calls); ``lu_solve`` is ``mp.lu_solve``; arrays hold objects. It
  lives in :mod:`lindley_alt._extended`, which is imported, and mpmath with
  it, only when a solve needs it.
"""

from __future__ import annotations

import cmath
import contextlib
import math
from fractions import Fraction

import numpy as np

from .errors import InputError

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
    expm1 = staticmethod(_expm1c)
    frexp = staticmethod(math.frexp)
    ldexp = staticmethod(math.ldexp)
    #: relative accuracy of the zero-seeded recurrences
    eps = 1e-18
    #: Newton polish: stop below polish_tol, accept below accept_tol
    polish_tol = 1e-13
    accept_tol = 1e-12
    polish_iters = 40

    @staticmethod
    def precision(n: int):
        return contextlib.nullcontext()

    @staticmethod
    def exact(values: list[Fraction], rate: float) -> list[Fraction]:
        """The rationals this context starts from: each rounded to double. A
        nonzero one with no finite nonzero double is an InputError naming mu."""
        out = []
        for v in values:
            try:
                x = float(v)
            except OverflowError:
                x = math.inf
            if v and not 0 < abs(x) < math.inf:
                what = "overflows" if x else "underflows"
                raise InputError(f"mu = {rate!r} is out of range: a coefficient {what} double")
            out.append(Fraction(x))
        return out

    @staticmethod
    def exp(z):
        try:
            return cmath.exp(z)
        except OverflowError:
            return complex(math.inf)

    @staticmethod
    def lu_solve(mat: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, float]:
        """Solution and condition number of the equilibrated system."""
        scaled, row_scale, col_scale = equilibrate(mat)
        cond = float(np.linalg.cond(scaled))
        b = rhs * row_scale
        y = np.linalg.solve(scaled, b)
        y += np.linalg.solve(scaled, b - scaled @ y)  # one refinement step
        return y * col_scale, cond


DOUBLE = _Double()


def context_of(x):
    """The context a number belongs to: mpmath numbers are extended.

    Told by the type's module, so the double path never imports mpmath.
    """
    if type(x).__module__.partition(".")[0] != "mpmath":
        return DOUBLE
    from ._extended import EXTENDED

    return EXTENDED
