"""Exact rational weights and the double/extended crossover degree.

At degree n the derivative-hierarchy weights mix factorial ratios up to n!
with the input coefficients (themselves binomially large for polynomial
fits), and every downstream quantity — the characteristic coefficients, the
tail sums S(r), the endpoint-derivative tables, the linear-system rows — is
a small difference of terms that dwarf it. The lost digits grow roughly
like log10(n!), so double precision runs out in the mid-teens: measured on
fit corpora, integral-equation residuals cross 1e-9 at degree 15 and the
computed density dips visibly negative (beyond the -1e-8 postcondition) by
degree 17. The weights and characteristic coefficients are dyadic
rationals, so :class:`fractions.Fraction` computes them losslessly; above
:data:`EXTENDED_DEGREE` the solver runs every later stage in the extended
numeric context of :mod:`lindley_alt._numeric`, and below it the double
context is already accurate to ~1e-13 and much faster.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .distributions import _over_common_denominator
from .errors import AsymmetryDetected

#: Largest degree handled by the double-precision context. Measured over fit
#: corpora (triangular + random piecewise, two rates each): through degree
#: 12 the double context keeps integral-equation residuals below 6e-12 and
#: density dips above -4e-12; residuals first cross 1e-9 at degree 15.
#: Threshold = that crossing minus a safety margin.
EXTENDED_DEGREE = 12


def exact_nu(coeffs: tuple[float, ...], rate: float) -> list[Fraction]:
    """The derivative-hierarchy weights as exact rationals.

    nu[m] = rate * sum_{i=0}^{m} ((i + n - m)!/i!) * c_{i+n-m}; the top
    weight is pinned to the rate exactly (its defining sum is the
    coefficient total, 1 for every valid CDF).
    """
    c, den = _over_common_denominator(coeffs)
    n = len(c) - 1
    mu = Fraction(rate)
    out = []
    for m in range(n):
        gap = n - m
        total = 0
        ratio = math.factorial(gap)  # (i + gap)!/i! at i = 0
        for i in range(m + 1):
            total += ratio * c[i + gap]
            ratio = ratio * (i + 1 + gap) // (i + 1)
        out.append(mu * Fraction(total, den))
    out.append(mu)
    return out


def exact_char(nu_fr: list[Fraction], rate: float) -> list[Fraction]:
    """Characteristic coefficients r^{2n}(r^2 - mu^2) + (-1)^n S(r)S(-r), exact.

    In exact arithmetic the odd coefficients vanish identically; the guard
    below is the internal bug tripwire for that invariant.
    """
    n = len(nu_fr) - 1
    (mu, *nu), den = _over_common_denominator([rate, *nu_fr[:n]])
    scale = den * den
    coeffs = [0] * (2 * n + 3)
    coeffs[2 * n + 2] += scale
    coeffs[2 * n] -= mu * mu
    sign = -1 if n % 2 else 1
    for i in range(n):
        for j in range(n):
            term = nu[i] * nu[j]
            coeffs[i + j] += -sign * term if j % 2 else sign * term
    if any(coeffs[1::2]):
        raise AsymmetryDetected(
            "odd characteristic coefficients nonzero in exact arithmetic"
        )
    return [Fraction(v, scale) for v in coeffs]
