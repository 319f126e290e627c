"""Exact waiting-time solver for W = max{0, B - A - W}.

The steady-state law of the recursion, for exponential service A (rate mu)
and a polynomial preparation CDF B on [0, 1], is an atom at zero plus a
mixture of exponential modes:

    f_W(x) = sum_i d_i * zeta_i * exp(r_i * x),    x in [0, 1],

where the r_i are the roots of an even characteristic polynomial of degree
2n + 2 (n = polynomial degree of the preparation CDF). This module builds
that polynomial, finds and pairs its roots, constructs one mode per +- root
pair, and solves a dense (n + 2) x (n + 2) complex linear system for the
mode weights and the atom.

Numerical backbone:

* roots are found in the squared variable (degree n + 1), so the +- pairing
  is exact by construction, then Newton-polished on the full polynomial;
* every exponential is evaluated in an *anchored* form — the growing part of
  a mode is parametrized as exp(r*(x-1)) — so nothing overflows even when
  roots have large real parts (which near-degenerate inputs do produce);
* every integral in the linear system reduces to the closed-form moment
  family of :mod:`lindley_alt._moments`;
* the law is evaluated from one real Chebyshev series of the density,
  sampled from the mode mixture at the solve's working precision; the
  residual integrates it against F_B by Gauss-Legendre, exact on that
  polynomial;
* the derivative-hierarchy weights and characteristic coefficients are
  assembled in exact rational arithmetic (they cancel catastrophically in
  floating point);
* every later stage is written once against a numeric context
  (:mod:`lindley_alt._numeric`): double precision up to degree 12, mpmath
  above — double precision loses ~log10(n!) digits there and visibly
  corrupts the density.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp
import numpy as np
from numpy.polynomial import Chebyshev

from ._exact import EXTENDED_DEGREE, exact_char, exact_nu, safe_float
from ._moments import _anchored_moments, _moments
from ._numeric import DOUBLE, EXTENDED, context_of
from .distributions import (
    ExponentialService,
    PolynomialCdf,
    _compensated_horner,
    _require_law,
)
from .errors import (
    ConvergenceFailure,
    DegenerateMode,
    IllConditioned,
    InputError,
    PairingFailure,
    PostconditionViolation,
    RepeatedRoot,
)

__all__ = [
    "CharacteristicSystem",
    "Mode",
    "WaitingTimeSolution",
    "nu_coefficients",
    "characteristic_polynomial",
    "find_roots",
    "pair_roots",
    "assemble_linear_system",
    "solve",
    "eval_waiting_density",
    "eval_waiting_cdf",
    "integral_equation_residual",
    "solution_summary",
]

#: Condition numbers above this trigger the IllConditioned warning.
ILL_CONDITIONED_THRESHOLD = 1e10

#: Relative gap below which two squared-variable roots count as repeated.
_REPEATED_ROOT_TOL = 1e-7

#: Grid used by the solution's structural self-checks.
_CHECK_GRID = 1025

#: Chebyshev points of the density series: the first pass samples 2^4 + 1,
#: and doubling stops at 2^16 + 1 (terms grow like 6 sqrt(mu) for mu >> 1).
_SERIES_START = 1 << 4
_SERIES_MAX = 1 << 16

#: Relative gap below which a pair column's head and tail count as equal in
#: magnitude; the reported theta is then the one normalized to 1.
_NORMALIZATION_TIE = 1e-12


@dataclass(frozen=True)
class CharacteristicSystem:
    """Derivative-hierarchy weights and the characteristic polynomial.

    ``nu[m]`` = mu * sum_i ((i + n - m)! / i!) * c_{i+n-m}; ``char_poly``
    holds ascending coefficients of the even degree-(2n+2) polynomial whose
    roots generate the density's exponential modes.
    """

    nu: tuple[float, ...]
    char_poly: tuple[float, ...]
    rate: float
    degree: int


@dataclass(frozen=True)
class Mode:
    """One +- root pair of the characteristic polynomial.

    ``root`` is the representative (the pair member with positive real part,
    or positive imaginary part on the imaginary axis). The pair's density
    contribution is ``strength * (head*exp(root*(x-1)) + tail*exp(-root*x))``
    with ``(head, tail)`` the balanced column built by
    :func:`_pair_coefficients` — finite for every root. It is also all that
    :func:`solution_summary` needs for the coupled form it reports.
    """

    root: complex
    head: complex
    tail: complex
    strength: complex


@dataclass(frozen=True)
class WaitingTimeSolution:
    """Atom plus exponential-mode mixture: the steady-state law of W.

    ``modes`` holds the representative half of each root pair, for
    :func:`solution_summary`. Evaluation reads ``density_series``, f on
    [0, 1] as a Chebyshev series, and ``integral_series``, its integral from
    0, so F = pi0 + that integral; they are derived data, left out of
    equality and hashing. All invariants (normalization, realness,
    nonnegativity) are verified before construction completes.
    """

    pi0: float
    modes: tuple[Mode, ...]
    prep: PolynomialCdf
    service: ExponentialService
    condition_number: float
    density_series: Chebyshev = field(compare=False)
    integral_series: Chebyshev = field(compare=False)

    @property
    def mu(self) -> float:
        return self.service.rate

    def density(self, x):
        return eval_waiting_density(self, x)

    def cdf(self, x):
        return eval_waiting_cdf(self, x)


def nu_coefficients(prep: PolynomialCdf, svc: ExponentialService) -> tuple[float, ...]:
    """Weights of the derivative hierarchy that closes the integral equation.

    nu[m] = mu * sum_{i=0}^{m} ((i + n - m)! / i!) * c_{i+n-m}, m = 0..n.
    Evaluated in exact rational arithmetic and rounded once: the terms
    alternate in sign with magnitudes up to n! * max|c|, so a floating-point
    accumulation loses roughly log10(n!) digits — total loss of significance
    well inside the supported degree range. Every input is a dyadic
    rational, which makes the exact path lossless and cheap. The top weight
    equals the rate exactly (its defining sum is the coefficient total,
    1 for every valid CDF).
    """
    return tuple(float(v) for v in exact_nu(prep.coeffs, svc.rate))


def characteristic_polynomial(
    nu: tuple[float, ...], svc: ExponentialService, n: int
) -> tuple[float, ...]:
    """Ascending coefficients of the even degree-(2n+2) root polynomial.

    The polynomial is r^{2n} (r^2 - mu^2) + (-1)^n * S(r) * S(-r) with
    S(r) = sum_{i<n} nu_i r^i, assembled in exact rational arithmetic (the
    inputs are dyadic rationals): the cross products cancel catastrophically
    in floating point at high degree. Evenness is then structural — for odd
    i + j the (i, j) and (j, i) cross terms carry opposite signs and cancel
    exactly — and the odd coefficients are still checked as an internal bug
    tripwire (AsymmetryDetected) before being returned as exact zeros.
    """
    nu_fr = [Fraction(v) for v in nu[: n + 1]]
    return tuple(float(v) for v in exact_char(nu_fr, svc.rate))


def _char_value_and_scale(char_poly, r):
    """Polynomial value at r and the cancellation scale sum |a_k| |r|^k."""
    val = scale = 0
    mag = abs(r)
    power = pmag = 1
    for a in char_poly:
        val += a * power
        scale += abs(a) * pmag
        power *= r
        pmag *= mag
    return val, scale


def _poly_value(poly, r):
    """Polynomial value at r, ascending coefficients."""
    val = 0
    power = 1
    for a in poly:
        val += a * power
        power *= r
    return val


def _polish(char_poly, dpoly, r, ctx):
    """Newton-polish one root of the characteristic polynomial in ``ctx``."""
    tol = ctx.polish_tol
    for _ in range(ctx.polish_iters):
        val, scale = _char_value_and_scale(char_poly, r)
        if abs(val) <= tol * scale:
            return r
        dval = _poly_value(dpoly, r)
        if dval == 0:
            break
        r -= val / dval
    val, scale = _char_value_and_scale(char_poly, r)
    if abs(val) > ctx.accept_tol * scale:
        raise ConvergenceFailure(
            f"Newton polish stalled at residual {float(abs(val) / scale):.2e} "
            f"for root near {complex(r):.6g}"
        )
    return r


def find_roots(char_poly) -> np.ndarray:
    """All 2n+2 roots of the even characteristic polynomial.

    Solved as a degree-(n+1) polynomial in the squared variable (companion-
    matrix eigenvalues), then square-rooted — which makes the root set
    exactly closed under negation — and Newton-polished on the original
    polynomial to relative residual < 1e-12, in the numeric context of the
    coefficients (extended-precision coefficients are polished to their
    working precision).

    Raises
    ------
    RepeatedRoot
        If two squared-variable roots lie within 1e-7 relative distance, or
        two polished roots within 1e-9: the closed form assumes simple roots.
    ConvergenceFailure
        If polishing cannot reach the required residual.
    """
    ctx = context_of(char_poly[0])
    # seeds: the even coefficients, ascending in s = r^2, rescaled by a power
    # of two (exact, roots unchanged) so their double image stays in range
    even = char_poly[0::2]
    shift = mp.frexp(max(abs(a) for a in even))[1]
    s_roots = np.roots([float(mp.ldexp(a, -shift)) for a in reversed(even)])
    # the closed form assumes simple roots, and a doubled root also defeats
    # the polish that follows
    for i in range(s_roots.size):
        for j in range(i + 1, s_roots.size):
            gap = abs(s_roots[i] - s_roots[j])
            scale = max(abs(s_roots[i]), abs(s_roots[j]), 1e-300)
            if gap < _REPEATED_ROOT_TOL * scale:
                raise RepeatedRoot(
                    f"characteristic roots {s_roots[i]:.6g} and {s_roots[j]:.6g} "
                    f"(squared variable) are within relative distance "
                    f"{gap / scale:.2e} < {_REPEATED_ROOT_TOL:g}"
                )
    dpoly = [k * a for k, a in enumerate(char_poly)][1:]
    reps = [
        # principal square root: Re >= 0; Im > 0 on the axis
        _polish(char_poly, dpoly, ctx.complex(cmath.sqrt(complex(s))), ctx)
        for s in s_roots
    ]
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            if abs(reps[i] - reps[j]) < 1e-9 * max(abs(reps[i]), abs(reps[j])):
                raise RepeatedRoot(f"Newton polish collapsed roots near {complex(reps[i]):.6g}")
    return np.array(reps + [-r for r in reps])


def pair_roots(roots: np.ndarray) -> np.ndarray:
    """Deterministic ordering with partner symmetry.

    Representatives (first half) have positive real part, ties broken by
    positive imaginary part, sorted by descending real then imaginary part;
    entry i's partner sits at the mirrored index and is its exact negation.
    Classification and order are decided on the double roundings, so they
    do not depend on the numeric context the roots were polished in.
    """
    roots = np.asarray(roots)
    doubles = roots.astype(complex)
    if roots.dtype != object:  # extended-precision roots are mpmath objects
        roots = doubles
    reps = [
        (d, r)
        for d, r in zip(doubles, roots)
        if d.real > 0.0 or (d.real == 0.0 and d.imag > 0.0)
    ]
    if 2 * len(reps) != roots.size:
        raise PairingFailure(
            f"{len(reps)} representatives for {roots.size} roots; "
            f"the root set is not closed under negation"
        )
    for d, _ in reps:
        if float(np.min(np.abs(doubles + d))) > 1e-9 * max(abs(d), 1e-300):
            raise PairingFailure(f"root {d:.6g} lacks a negated partner")
    reps.sort(key=lambda dr: (-dr[0].real, -dr[0].imag))
    reps = [r for _, r in reps]
    return np.array(reps + [-r for r in reversed(reps)])


def _pair_coefficients(r, nu, mu, n: int):
    """Balanced coefficients (head, tail) of one pair's density column.

    The pair contributes head * exp(r*(x-1)) + tail * exp(-r*x) with
    (head, tail) parallel to (S(r), r^n (r - mu)), S(r) = sum_{i<n} nu_i r^i:
    at a root this is the null vector of the 2x2 mode system, so the column
    also carries the coupled form :func:`solution_summary` reports. Both are
    divided by r^n when |r| >= 1, so neither overflows however large the
    root, and nothing is divided by S(r), so the column stays finite where S
    vanishes. Normalized so the larger coefficient has magnitude 1.

    Raises
    ------
    DegenerateMode
        If both coefficients vanish (only possible at a root collapsing onto
        the origin, which the repeated-root guard rejects earlier).
    """
    if abs(r) >= 1:
        head, rn = 0, 1
        inv = 1 / r
        for i in range(n):  # Horner in u = 1/r: sum_i nu_i u^{n-i}, nu_0 innermost
            head = (head + nu[i]) * inv
    else:
        head, rn = context_of(r).polyval(nu[:n][::-1], r), r**n
    tail = rn * (r - mu)
    scale = max(abs(head), abs(tail))
    if not 0 < scale < math.inf:
        raise DegenerateMode(f"pair column vanished at root {complex(r):.6g}")
    return head / scale, tail / scale


def _basis_tables(basis, n: int, ctx):
    """Per-mode endpoint derivatives and moments, in anchored form.

    For mode j with root r and balanced column coefficients (head, tail),
    the strength-coefficient function is

        g_j(x) = head * exp(r*(x-1)) + tail * exp(-r*x),

    bounded by construction. Returns, for each mode: derivative values
    g_j^{(m)}(0) and g_j^{(m)}(1) for m = 0..n, moments int_0^1 y^k g_j dy
    for k = 0..n, and the total integral int_0^1 g_j dy.
    """
    at0, at1, mom, integral = [], [], [], []
    for r, head, tail in basis:
        emr = ctx.exp(-r)
        plus = _anchored_moments(n, r, ctx)
        minus = _moments(n, -r, ctx)
        rpow = npow = 1  # r^m, (-r)^m
        at0.append([])
        at1.append([])
        for _ in range(n + 1):
            at0[-1].append(head * rpow * emr + tail * npow)
            at1[-1].append(head * rpow + tail * npow * emr)
            rpow *= r
            npow *= -r
        mom.append([head * p + tail * q for p, q in zip(plus, minus)])
        # both pair members integrate to the same closed form
        integral.append((head + tail) * (1 - emr) / r)
    return at0, at1, mom, integral


def assemble_linear_system(
    basis, nu, prep: PolynomialCdf, svc: ExponentialService
) -> tuple[np.ndarray, np.ndarray]:
    """Dense complex system for the mode strengths and the atom.

    Unknowns are (u_1..u_{n+1}, pi0) where u_j is mode j's strength (the
    multiplier of its balanced pair column).
    Row 0 pins the density value at 0 to the atom's throughput balance; rows
    1..n pin the derivative hierarchy at 0 (each involving derivative values
    at 1 and moment integrals, all in closed form); the final row is the
    normalization atom + integral of the density = 1. ``basis`` holds
    (root, head, tail) per mode and ``nu`` the derivative weights, both in
    one numeric context; the arrays hold that context's numbers.
    """
    ctx = context_of(basis[0][0])
    c = [ctx.real(v) for v in prep.coeffs]
    n = prep.degree
    mu = ctx.real(svc.rate)
    at0, at1, mom, integral = _basis_tables(basis, n, ctx)
    nmodes = len(basis)
    mat = [[0] * (nmodes + 1) for _ in range(nmodes + 1)]

    # Row 0: g(0) + mu * sum_k c_k * Mom_k - mu*(1 - c_0)*pi0 = 0.
    for j in range(nmodes):
        mat[0][j] = at0[j][0] + mu * sum(c[k] * mom[j][k] for k in range(n + 1))
    mat[0][nmodes] = -mu * (1 - c[0])
    # Rows l = 1..n: the derivative hierarchy at 0.
    for ell in range(1, n + 1):
        ratio = ctx.real(math.factorial(ell))  # (i + ell)!/i!, running product
        weights = [ratio * c[ell]]
        for i in range(1, n - ell + 1):
            ratio *= ctx.real(i + ell) / i
            weights.append(ratio * c[i + ell])
        for j in range(nmodes):
            entry = at0[j][ell] - mu * at0[j][ell - 1]
            entry += mu * (-1) ** (ell - 1) * at1[j][ell - 1]
            acc = 0
            for i, w in enumerate(weights):
                acc += w * mom[j][i]
            entry += mu * acc
            for jj in range(ell):
                entry -= nu[n - jj] * (-1) ** (ell - 1 - jj) * at1[j][ell - 1 - jj]
            mat[ell][j] = entry
        mat[ell][nmodes] = mu * math.factorial(ell) * c[ell]
    # Final row: normalization.
    mat[nmodes] = integral + [1]
    mat = np.array(mat)
    return mat, np.array([0] * nmodes + [1], dtype=mat.dtype)


def _verify_structure(cs: CharacteristicSystem, roots: np.ndarray) -> None:
    """Structural invariants asserted on every solve."""
    if abs(cs.nu[-1] - cs.rate) > 1e-12 * cs.rate:
        raise PostconditionViolation("top_weight", f"nu_n = {cs.nu[-1]!r} != rate")
    if any(cs.char_poly[1::2]):
        raise PostconditionViolation("even_polynomial", "odd coefficients nonzero")
    # multiset closed under negation (exact) and conjugation (within 1e-10)
    neg = np.sort_complex(-roots)
    conj = np.sort_complex(np.conj(roots))
    original = np.sort_complex(roots)
    if not np.array_equal(original, neg):
        raise PostconditionViolation("negation_closure", "root multiset not symmetric")
    scale = float(np.max(np.abs(roots)))
    if float(np.max(np.abs(original - conj))) > 1e-10 * max(scale, 1.0):
        raise PostconditionViolation("conjugation_closure", "roots not conjugate-paired")


def _context(n: int):
    """The numeric context of a degree-n solve: extended above EXTENDED_DEGREE.

    The weight sums, characteristic cross products and row assembly cancel
    to ~log10(n!) digits; past the measured cliff every stage after the
    exact weights runs in extended precision and is rounded to double once,
    at the end.
    """
    return EXTENDED if n > EXTENDED_DEGREE else DOUBLE


def solve(prep: PolynomialCdf, svc: ExponentialService) -> WaitingTimeSolution:
    """Compute the exact steady-state waiting-time law.

    Orchestrates the full closed-form pipeline (weights, characteristic
    polynomial, roots, pairing, balanced mode columns, linear system) and
    verifies every structural invariant before returning. Up to degree 12
    everything runs in equilibrated double precision with one step of
    iterative refinement; above that the assembly cancellation outgrows
    double precision and the same pipeline runs in exact rational /
    extended-precision arithmetic. The density series is sampled from the
    mode mixture in the same context, before the strengths are rounded.

    Raises
    ------
    RepeatedRoot, ConvergenceFailure, DegenerateMode
        Propagated from the corresponding stages.
    PostconditionViolation
        If the assembled solution violates a structural invariant
        (normalization, realness, nonnegativity, root symmetry).

    Warns
    -----
    IllConditioned
        When a double-precision solve's equilibrated condition number
        exceeds 1e10; the solution is still returned, with the condition
        number recorded.
    """
    _require_law(prep, "solve", (PolynomialCdf,))
    if prep.degree < 1:
        raise InputError("preparation CDF must have degree >= 1 (degenerate B == 0)")
    n = prep.degree
    mu = svc.rate
    ctx = _context(n)
    with ctx.precision(n):
        nu_fr = ctx.exact(exact_nu(prep.coeffs, mu))
        char_fr = exact_char(nu_fr, mu)
        cs = CharacteristicSystem(
            nu=tuple(map(safe_float, nu_fr)),
            char_poly=tuple(map(safe_float, char_fr)),
            rate=mu,
            degree=n,
        )
        nu = [ctx.real(v) for v in nu_fr]
        ordered = pair_roots(find_roots([ctx.real(v) for v in char_fr]))
        _verify_structure(cs, ordered.astype(complex))
        basis = [(r,) + _pair_coefficients(r, nu, mu, n) for r in ordered[: n + 1].tolist()]
        mat, rhs = assemble_linear_system(basis, nu, prep, svc)
        sol, cond = ctx.lu_solve(mat, rhs)
        density = _density_series(basis, sol[:-1], ctx)

    # the extended system is solved at working precision
    if ctx is DOUBLE and cond > ILL_CONDITIONED_THRESHOLD:
        warnings.warn(
            f"mode system condition number {cond:.3e} exceeds "
            f"{ILL_CONDITIONED_THRESHOLD:g} even after equilibration; the "
            f"double-precision mode strengths may carry amplified rounding error",
            IllConditioned,
            stacklevel=2,
        )

    pi0_raw = complex(sol[-1])
    modes = tuple(
        Mode(root=complex(r), head=complex(head), tail=complex(tail), strength=complex(u))
        for (r, head, tail), u in zip(basis, sol)
    )
    solution = WaitingTimeSolution(
        pi0=pi0_raw.real,
        modes=modes,
        prep=prep,
        service=svc,
        condition_number=cond,
        density_series=density,
        integral_series=density.integ(lbnd=0.0),
    )
    _verify_solution(solution, pi0_raw)
    return solution


def _mode_terms(basis, strengths, x: np.ndarray, ctx) -> np.ndarray:
    """Complex density values sum_j u_j g_j(x), rounded to double once.

    The density series' sampler: it runs in the solve's context, on the
    unrounded strengths. The points are mirrored (``x[::-1] == 1 - x`` to
    the context's rounding), so one exp(-r*x) per point and mode serves both
    pair members: exp(r*(x-1)) is the mirrored entry, and with Re r >= 0
    neither overflows.
    """
    weights, rows = [], []
    for (r, head, tail), u in zip(basis, strengths):
        decay = ctx.exp_array(-r * x)
        weights += [u * head, u * tail]
        rows += [decay[::-1], decay]
    return ctx.combine(weights, rows)


def _chebyshev_points(m: int, ctx) -> np.ndarray:
    """The m + 1 Chebyshev extrema sin^2(pi k / (2m)) of [0, 1] in the
    context's reals, ascending and mirrored (x[::-1] == 1 - x)."""
    return ctx.sin_array(np.arange(m + 1) * (ctx.pi / (2 * m))) ** 2


def _chebyshev_coefficients(values: np.ndarray) -> np.ndarray:
    """Coefficients on [0, 1] of the interpolant through values at
    :func:`_chebyshev_points`: a DCT-I, as the real FFT of the even extension
    of the values ordered by t = 2x - 1 = cos(pi k / m)."""
    v = values[::-1]
    m = v.size - 1
    coeffs = np.fft.rfft(np.concatenate([v, v[-2:0:-1]])).real / m
    coeffs[[0, m]] /= 2.0
    return coeffs


def _standard_chop(coeffs: np.ndarray) -> int | None:
    """How many leading coefficients to keep, or None while no plateau of
    rounding noise shows: standardChop of Aurentz & Trefethen, "Chopping a
    Chebyshev series", ACM TOMS 43(4), 2017, at tol = machine epsilon, with
    their 1-based j, j2, j3."""
    n, tol = coeffs.size, np.finfo(float).eps
    envelope = np.maximum.accumulate(np.abs(coeffs)[::-1])[::-1]
    if n < 17 or envelope[0] == 0.0:
        return None if n < 17 else 1
    envelope = envelope / envelope[0]
    # the plateau: the first j whose envelope is nearly flat up to j2
    j = np.arange(2, n + 1)
    j2 = np.floor(1.25 * j + 5.5).astype(int)  # Matlab's round
    j, j2 = j[j2 <= n], j2[j2 <= n]
    e1, e2 = envelope[j - 1], envelope[j2 - 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        flat = (e1 == 0.0) | (e2 / e1 > 3.0 * (1.0 - np.log(e1) / np.log(tol)))
    if not np.any(flat):
        return None
    plateau, j2 = int(j[flat][0]) - 1, int(j2[flat][0])
    if envelope[plateau - 1] == 0.0:
        return plateau
    # the cut: the lowest point of the envelope seen under a slight tilt
    j3 = int(np.sum(envelope >= tol ** (7.0 / 6.0)))
    if j3 < j2:
        j2 = j3 + 1
        envelope[j2 - 1] = tol ** (7.0 / 6.0)
    tilted = np.log10(envelope[:j2]) + np.linspace(0.0, -np.log10(tol) / 3.0, j2)
    return max(int(np.argmin(tilted)), 1)


def _density_series(basis, strengths, ctx) -> Chebyshev:
    """The density as one real Chebyshev series on [0, 1], chopped.

    Doubles the sample points, keeping every sample, until
    :func:`_standard_chop` finds the rounding plateau. Raises
    :class:`PostconditionViolation` if none shows by the last point count,
    or if the samples' imaginary residue (checked here, once) exceeds 1e-8.
    """
    m = _SERIES_START
    samples = _mode_terms(basis, strengths, _chebyshev_points(m, ctx), ctx)
    while (keep := _standard_chop(coeffs := _chebyshev_coefficients(samples.real))) is None:
        if m == _SERIES_MAX:
            raise PostconditionViolation("density_series", f"unresolved at {m + 1} points")
        m *= 2
        finer = _mode_terms(basis, strengths, _chebyshev_points(m, ctx)[1::2], ctx)
        samples = np.append(np.column_stack([samples[:-1], finer]).ravel(), samples[-1])
    worst = float(np.max(np.abs(samples.imag)))
    if worst > 1e-8:
        raise PostconditionViolation("density_real", f"max |Im f| = {worst:.3e}")
    return Chebyshev(coeffs[:keep], domain=[0.0, 1.0])


def _verify_solution(sol: WaitingTimeSolution, pi0_raw: complex) -> None:
    if abs(pi0_raw.imag) > 1e-8:
        raise PostconditionViolation("atom_real", f"Im(pi0) = {pi0_raw.imag:.3e}")
    if not -1e-10 <= sol.pi0 <= 1.0 + 1e-10:
        raise PostconditionViolation("atom_range", f"pi0 = {sol.pi0!r} outside [0, 1]")
    total = sol.pi0 + float(sol.integral_series(1.0))  # atom + integral
    if abs(total - 1.0) > 1e-10:
        raise PostconditionViolation(
            "normalization", f"atom + integral = {total!r}, defect {abs(total - 1.0):.3e}"
        )
    worst_neg = float(np.min(sol.density_series(np.linspace(0.0, 1.0, _CHECK_GRID))))
    if worst_neg < -1e-8:
        raise PostconditionViolation("density_nonnegative", f"min f = {worst_neg:.3e}")


def eval_waiting_density(sol: WaitingTimeSolution, x):
    """Waiting-time density on (0, 1] (the atom at 0 is not included)."""
    xs = np.asarray(x, dtype=float)
    if np.any((xs <= 0.0) | (xs > 1.0)):
        raise ValueError(
            "waiting-time density is defined on (0, 1]; the mass at 0 is the atom pi0"
        )
    out = sol.density_series(xs)
    return out if isinstance(x, np.ndarray) else float(out.flat[0])


def eval_waiting_cdf(sol: WaitingTimeSolution, x):
    """Waiting-time CDF: 0 below 0, atom + integral of the density on [0, 1],
    1 above."""
    xs = np.asarray(x, dtype=float)
    vals = sol.pi0 + sol.integral_series(np.clip(xs, 0.0, 1.0))
    # at exactly 1 the computed value (1 within 1e-10 by normalization) is
    # returned rather than clamped, so the endpoint stays a real check
    out = np.where(xs < 0.0, 0.0, np.where(xs > 1.0, 1.0, vals))
    return out if isinstance(x, np.ndarray) else float(out.flat[0])


def integral_equation_residual(
    sol: WaitingTimeSolution, prep: PolynomialCdf, svc: ExponentialService, points
) -> float:
    """Largest defect at the points of the stationary integral equation

        f(x) - mu F(x) + mu pi0 F_B(x) + mu int_0^{1-x} F_B(x+y) f(y) dy
             + mu int_{1-x}^1 f(y) dy = 0.

    f and F come from the solution's two series, F_B from ``prep`` by
    compensated Horner (at high order its monomial coefficients reach 1e11
    and cancel). The inner integrand is a polynomial, which Gauss-Legendre
    with (deg F_B + terms) / 2 + 1 nodes integrates exactly. So the defect
    vanishes only on the true law: moving the atom by 1% moves it above 1e-4.
    """
    x = np.atleast_1d(np.asarray(points, dtype=float)).reshape(-1)
    c = np.asarray(prep.coeffs, dtype=float)

    def fb(t):  # value plus correction
        return sum(_compensated_horner(c, np.zeros_like(c), t))

    f, mass = sol.density_series, sol.integral_series
    nodes, weights = np.polynomial.legendre.leggauss((prep.degree + f.coef.size) // 2 + 1)
    b = 1.0 - x
    y = 0.5 * b[:, None] * (1.0 + nodes)  # the nodes mapped onto [0, 1 - x]
    inner = 0.5 * b * ((fb(x[:, None] + y) * f(y)) @ weights)
    resid = f(x) + svc.rate * (
        sol.pi0 * (fb(x) - 1.0) - mass(x) + inner + mass(1.0) - mass(b)
    )
    return float(np.max(np.abs(resid), initial=0.0))


def _json_complex(z: complex):
    def num(v: float):
        return v if math.isfinite(v) else None

    return {"re": num(z.real), "im": num(z.imag)}


def solution_summary(sol: WaitingTimeSolution) -> dict:
    """The solution as a JSON-ready dict (the CLI's wire format).

    Roots/zetas/ds list both members of every pair (representatives first,
    then their negations in mirrored order) so the density is reconstructible
    directly as sum d * zeta * exp(root * x); qs has one entry per pair.
    These coupled-form quantities are only reported, so they are read off
    each mode's balanced column here, in closed form. At a root the mode
    system's null vector (zeta, theta) is parallel to (head, tail) and the
    partner's to (tail, head); each is normalized so its larger component is
    1, with theta = 1 when the magnitudes agree to 1e-12 relative (always, up
    to rounding, on the imaginary axis). The weights follow as
    d * zeta = strength * head * exp(-root) and partner d * partner zeta =
    strength * tail, and the coupling q = partner d / d is exp(root), times
    zeta on a tie. Values that overflow double precision serialize as null.
    """
    reported = []  # (zeta, partner zeta, q, d, partner d) per pair
    for m in sol.modes:
        head, tail = m.head, m.tail
        tie = abs(abs(head) - abs(tail)) <= _NORMALIZATION_TIE * max(abs(head), abs(tail))
        theta_one = tie or abs(tail) > abs(head)  # else zeta = 1
        ptheta_one = tie or abs(head) > abs(tail)  # else partner zeta = 1
        zeta = head / tail if theta_one else complex(1.0)
        pzeta = tail / head if ptheta_one else complex(1.0)
        q = DOUBLE.exp(m.root) * (zeta if tie else 1.0)
        weight = m.strength * cmath.exp(-m.root) * (tail if theta_one else head)
        pweight = m.strength * (head if ptheta_one else tail)
        reported.append((zeta, pzeta, q, weight, pweight))
    zetas, pzetas, qs, ds, pds = zip(*reported)
    roots = [m.root for m in sol.modes] + [-m.root for m in reversed(sol.modes)]
    return {
        "pi0": sol.pi0,
        "mu": sol.mu,
        "coeffs": list(sol.prep.coeffs),
        "roots": [_json_complex(r) for r in roots],
        "zetas": [_json_complex(z) for z in zetas + pzetas[::-1]],
        "qs": [_json_complex(q) for q in qs],
        "ds": [_json_complex(d) for d in ds + pds[::-1]],
        "condition_number": sol.condition_number,
    }
