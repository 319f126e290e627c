"""Exact rational weights and characteristic coefficients.

They are dyadic rationals, so :class:`fractions.Fraction` computes them
losslessly; in floating point their sums cancel catastrophically. The
numeric context the later stages run in is chosen by
:func:`lindley_alt._numeric.context_for`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .distributions import _over_common_denominator


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

    The odd coefficients vanish identically: the products of (i, j) and
    (j, i) with i + j odd cancel.
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
    return [Fraction(v, scale) for v in coeffs]
