"""The two numeric contexts a solve runs in.

Every solver stage is written once, against the small protocol the two
context objects share: ``exp``/``expm1``, ``frexp``/``ldexp``, the complex
constructor, conversion of exact rationals (``exact``, ``real``), the
tolerances of the zero-seeded recurrences (moments and the density series'
Bessel coefficients) and of the Newton polish, and the one step of
:func:`lu_solve` that differs, the factorization (``factor_solve``), which
hands back the context's own numbers. The moment recurrences have no step cap:
they run downward only at orders j above |r|, where each step shrinks the
zero seed's error by |r|/j < 1.
Python ``complex`` and mpmath ``mpc`` share their arithmetic operators, so a
stage's body is the same in both; :func:`context_of` recovers the context
from the numbers a stage is handed, and :func:`context_for` picks it once
per solve, by degree.

* :data:`DOUBLE` — cmath/numpy. It factors with LAPACK and takes one step
  of iterative refinement.
* ``EXTENDED`` — mpmath at the digits :func:`context_for` scopes (so no
  state leaks between calls); it factors with ``mp.lu_solve``; arrays hold
  objects. It lives in :mod:`lindley_alt._extended`, which is imported, and
  mpmath with it, only when a solve needs it.
"""

from __future__ import annotations

import cmath
import contextlib
import math
from fractions import Fraction

import numpy as np


#: Largest degree solved in the double context (see :func:`context_for`).
EXTENDED_DEGREE = 12


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
    def exact(values: list[Fraction]) -> list[float]:
        """The rationals this context starts from: each rounded to double. A
        nonzero one with no finite nonzero double raises OverflowError."""
        out = []
        for v in values:
            try:
                x = float(v)
            except OverflowError:
                x = math.inf
            if v and not 0 < abs(x) < math.inf:
                raise OverflowError(f"a coefficient {'overflows' if x else 'underflows'} double")
            out.append(x)
        return out

    @staticmethod
    def exp(z):
        try:
            return cmath.exp(z)
        except OverflowError:
            return complex(math.inf)

    @staticmethod
    def factor_solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """LAPACK's solution, with one step of iterative refinement."""
        y = np.linalg.solve(mat, rhs)
        y += np.linalg.solve(mat, rhs - mat @ y)
        return y


DOUBLE = _Double()


@contextlib.contextmanager
def context_for(n: int):
    """The numeric context of a degree-n solve, entered.

    At degree n the derivative-hierarchy weights mix factorial ratios up to
    n! with the input coefficients (themselves binomially large for
    polynomial fits), and every later quantity (the characteristic
    coefficients, the tail sums S(r), the endpoint-derivative tables, the
    linear-system rows) is a small difference of terms that dwarf it. The
    lost digits grow roughly like log10(n!), so double precision runs out in
    the mid-teens: measured over fit corpora (triangular and random
    piecewise, two rates each), integral-equation residuals stay below 6e-12
    and density dips above -4e-12 through degree 12, residuals first cross
    1e-9 at degree 15, and the density dips below the -1e-8 postcondition by
    degree 17. So up to :data:`EXTENDED_DEGREE` (that crossing minus a
    margin) this is :data:`DOUBLE`, accurate to ~1e-13 and much faster.
    Above it, it is ``EXTENDED`` at 40 + 3n decimal digits: the cancellation
    depth grows like log10(n!) plus the coefficients' dynamic range, and 3
    digits per degree over a fixed floor covers both with >= 25 digits to
    spare up to the fit cap (40). The digits are scoped to the ``with``
    block, and mpmath is imported here, on the first such solve.
    """
    if n <= EXTENDED_DEGREE:
        yield DOUBLE
        return
    import mpmath

    from ._extended import EXTENDED

    with mpmath.workdps(40 + 3 * n):
        yield EXTENDED


def context_of(x):
    """The context a number belongs to: mpmath numbers are extended.

    Told by the type's module, so the double path never imports mpmath.
    """
    if type(x).__module__.partition(".")[0] != "mpmath":
        return DOUBLE
    from ._extended import EXTENDED

    return EXTENDED


def _pow2_scale(m, ctx):
    """2^-e, or 2^(1-e) where 2 f^2 < 1, for a magnitude m = f 2^e: the power
    of two nearest 1/m in log2, at working precision. 1 for a zero or NaN m
    and 0 for an infinite one, as exp2(-round(log2 m)) gives. A double m
    below 2^-1023 would overflow; the exact stage's range check keeps the
    mode system's row and column maxima far above that."""
    f, e = ctx.frexp(m)
    if 0 < f < math.inf:
        return ctx.ldexp(1, (2 * f * f < 1) - e)
    return 0.0 if f == math.inf else 1.0


def lu_solve(mat: np.ndarray, rhs: np.ndarray, ctx) -> tuple[np.ndarray, float]:
    """Solution of ``mat @ x = rhs`` in ``ctx``, and the condition number of
    the equilibrated system's double image.

    The hierarchy rows scale like root^level (to ~1e29 at high degree), the
    other rows are O(1). Unscaled, the condition number measures that
    scaling, the factorization loses digits, and mpmath's pivot test,
    relative to the matrix norm, refuses solvable systems (order 16 at
    mu = 1e-150). So rows, then columns, are multiplied by :func:`_pow2_scale`
    of their largest magnitude until a pass changes no scale, at most four:
    powers of two, so the scaled system is exactly equivalent.
    ``ctx.factor_solve`` solves it, and ``x = col_scale * y`` maps the
    solution back, exactly too. A pass that changes no scale leaves every
    later pass a no-op, so stopping there changes no bit of the result.
    """
    scaled, mags = mat, np.abs(mat)  # |2^k z| = 2^k |z| exactly
    rows = cols = 1
    for _ in range(4):
        rf = np.array([_pow2_scale(m, ctx) for m in np.max(mags, axis=1)])[:, None]
        scaled, mags = scaled * rf, mags * rf
        cf = np.array([_pow2_scale(m, ctx) for m in np.max(mags, axis=0)])
        scaled, mags = scaled * cf, mags * cf
        rows, cols = rows * rf[:, 0], cols * cf
        if np.all(rf == 1) and np.all(cf == 1):
            break
    cond = float(np.linalg.cond(np.asarray(scaled, dtype=complex)))
    return ctx.factor_solve(scaled, rhs * rows) * cols, cond
