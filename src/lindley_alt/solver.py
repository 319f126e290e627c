"""Exact waiting-time solver for W = max{0, B - A - W}.

The steady-state law of the recursion, for exponential service A (rate mu)
and a polynomial preparation CDF B on [0, 1], is an atom at zero plus a
mixture of exponential modes:

    f_W(x) = sum_i d_i * zeta_i * exp(r_i * x),    x in [0, 1],

where the r_i are the roots of an even characteristic polynomial of degree
2n + 2 (n = polynomial degree of the preparation CDF). This module builds
that polynomial, finds its roots as +- pairs, constructs one mode per pair,
and solves a dense (n + 2) x (n + 2) complex linear system for the mode
weights and the atom.

Numerical backbone:

* roots are found in the squared variable (degree n + 1) and Newton-polished
  on the full polynomial; each pair's partner is its representative's exact
  negation, so the pairing is exact by construction;
* every exponential is evaluated in an *anchored* form — the growing part of
  a mode is parametrized as exp(r*(x-1)) — so nothing overflows even when
  roots have large real parts (which near-degenerate inputs do produce);
* every integral in the linear system reduces to the closed-form moment
  family of :mod:`lindley_alt._moments`;
* the law is evaluated from one real Chebyshev series of the density,
  read off the modes at the solve's working precision (each exponential's
  coefficients are scaled modified Bessel values from a downward
  recurrence); the residual integrates it against F_B by Gauss-Legendre,
  exact on that polynomial;
* the derivative-hierarchy weights and characteristic coefficients are
  assembled in exact rational arithmetic (they cancel catastrophically in
  floating point);
* every later stage is written once against a numeric context, double or
  mpmath, which :func:`lindley_alt._numeric.context_for` picks by degree.
  Both contexts solve the mode system the same way: exact power-of-two
  equilibration, then the context's own factorization.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import Chebyshev

from ._exact import exact_char, exact_nu
from ._moments import _moments
from ._numeric import DOUBLE, context_for, context_of, lu_solve
from .distributions import (
    ExponentialService,
    PolynomialCdf,
    _density_points,
    _pointwise,
    _require_law,
    _unit_points,
    eval_cdf,
)
from .errors import (
    ConvergenceFailure,
    DegenerateMode,
    IllConditioned,
    InputError,
    PostconditionViolation,
    RepeatedRoot,
)

__all__ = [
    "Mode",
    "WaitingTimeSolution",
    "find_roots",
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

#: Most coefficients the density series may take (about 6 sqrt(mu) at mu >> 1).
_SERIES_MAX = (1 << 16) + 1

#: Most Gauss-Legendre nodes the integral-equation residual takes.
_RESIDUAL_NODES = 1025

#: Relative gap below which a pair column's head and tail count as equal in
#: magnitude; the reported theta is then the one normalized to 1.
_NORMALIZATION_TIE = 1e-12


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
    [0, 1] as a Chebyshev series summed from the modes' closed-form
    coefficients, and ``integral_series``, its integral from 0, so
    F = pi0 + that integral; they are derived data, left out of equality
    and hashing. :func:`solve` checks the invariants (normalization,
    realness, nonnegativity) on the constructed object before it returns.
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


def _char_terms(char_poly, r):
    """Polynomial value and derivative at r, ascending coefficients, and
    the cancellation scale sum |a_k| |r|^k, in one pass."""
    val = dval = scale = 0
    mag = abs(r)
    prev, power, pmag = 0, 1, 1  # r^(k-1), r^k, |r|^k
    for k, a in enumerate(char_poly):
        val += a * power
        dval += k * a * prev
        scale += abs(a) * pmag
        prev, power = power, power * r
        pmag *= mag
    return val, dval, scale


def _polish(char_poly, r, ctx):
    """Newton-polish one root of the characteristic polynomial in ``ctx``.

    Raises OverflowError where the polynomial's terms at the root pass the
    context's range (in double, once |r| to the polynomial's degree passes
    1e308), and ConvergenceFailure unless the residual, NaN included, ends
    below the acceptance tolerance.
    """
    tol = ctx.polish_tol
    for _ in range(ctx.polish_iters):
        val, dval, scale = _char_terms(char_poly, r)
        if not scale < math.inf:
            raise OverflowError(
                f"the characteristic polynomial overflows near root {complex(r):.6g}"
            )
        if abs(val) <= tol * scale:
            return r
        if dval == 0:
            break
        r -= val / dval
    val, _, scale = _char_terms(char_poly, r)
    if not abs(val) <= ctx.accept_tol * scale:
        raise ConvergenceFailure(
            f"Newton polish stalled at residual {float(abs(val) / scale):.2e} "
            f"for root near {complex(r):.6g}"
        )
    return r


def find_roots(char_poly) -> np.ndarray:
    """All 2n+2 roots of the even characteristic polynomial, paired.

    Solved as a degree-(n+1) polynomial in the squared variable (companion-
    matrix eigenvalues), then square-rooted and Newton-polished on the
    original polynomial to relative residual < 1e-12, in the numeric context
    of the coefficients (extended-precision coefficients are polished to
    their working precision).

    The first n+1 entries are the representatives: each polished root or its
    negation, whichever has positive real part (positive imaginary part on
    the imaginary axis), sorted by descending real, then imaginary part.
    The last n+1 are their exact negations in mirrored order, so entry i's
    partner is entry 2n+1-i. Sign and order are decided on the double
    roundings, so they do not depend on the numeric context.

    Raises
    ------
    RepeatedRoot
        If two squared-variable roots lie within 1e-7 relative distance, or
        two polished roots within 1e-9: the closed form assumes simple roots.
    ConvergenceFailure
        If polishing cannot reach the required residual.
    OverflowError
        If the polynomial's terms at a root overflow the context's range, or
        the roots span more than the double seeds resolve: a nonzero constant
        term, yet a seed of exactly 0 (triangular fits from mu ~ 1e34).
    """
    ctx = context_of(char_poly[0])
    # seeds: the even coefficients, ascending in s = r^2, rescaled by a power
    # of two (exact, roots unchanged) so their double image stays in range
    even = char_poly[0::2]
    shift = ctx.frexp(max(abs(a) for a in even))[1]
    s_roots = np.roots([float(ctx.ldexp(a, -shift)) for a in reversed(even)])
    if even[0] and not s_roots.all():
        raise OverflowError(
            "the characteristic roots span more than the double seeds resolve "
            "(a seed is 0, the constant term is not)"
        )
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
    reps = [
        _polish(char_poly, ctx.complex(cmath.sqrt(complex(s))), ctx)
        for s in s_roots
    ]
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            if abs(reps[i] - reps[j]) < 1e-9 * max(abs(reps[i]), abs(reps[j])):
                raise RepeatedRoot(f"Newton polish collapsed roots near {complex(reps[i]):.6g}")

    def order(r):  # descending real, then imaginary part, of the double rounding
        d = complex(r)
        return -d.real, -d.imag

    # a representative has Re > 0, or Im > 0 on the axis: order(r) < (0, 0)
    reps = sorted((r if order(r) < (0.0, 0.0) else -r for r in reps), key=order)
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
    if abs(r) >= 1:  # S(r) / r^n = sum_i nu_i u^(n-i), u = 1/r
        x, coeffs, rn = 1 / r, [*nu[:n], 0], 1
    else:
        x, coeffs, rn = r, nu[n - 1 :: -1], r**n
    head = 0
    for a in coeffs:  # Horner, highest power first
        head = head * x + a
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
    g_j^{(m)}(0) and g_j^{(m)}(1) for m = 0..n, and moments
    int_0^1 y^k g_j dy for k = 0..n (k = 0 is the total integral).
    """
    at0, at1, mom = [], [], []
    for r, head, tail in basis:
        emr = ctx.exp(-r)
        plus = _moments(n, r, ctx, anchored=True)
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
    return at0, at1, mom


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
    at0, at1, mom = _basis_tables(basis, n, ctx)
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
    mat[nmodes] = [m[0] for m in mom] + [1]
    mat = np.array(mat)
    return mat, np.array([0] * nmodes + [1], dtype=mat.dtype)


def _verify_structure(nu, char, mu: float, roots: np.ndarray) -> None:
    """Structural invariants asserted on every solve: on the weights ``nu``
    and characteristic coefficients ``char`` the context starts from (their
    double roundings in the double context, the exact rationals in the
    extended one), and on the roots."""
    if nu[-1] != mu:
        raise PostconditionViolation("top_weight", f"nu_n = {float(nu[-1])!r} != rate")
    if any(char[1::2]):
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


def solve(prep: PolynomialCdf, svc: ExponentialService) -> WaitingTimeSolution:
    """Compute the exact steady-state waiting-time law.

    Orchestrates the full closed-form pipeline (weights, characteristic
    polynomial, paired roots, balanced mode columns, linear system) and
    verifies every structural invariant before returning. The weights and
    characteristic coefficients are exact rationals; every later stage runs
    in the numeric context of :func:`lindley_alt._numeric.context_for`. In
    both contexts the mode system is equilibrated by powers of two before it
    is factored. The density series is summed from the modes in the same
    context, before the strengths are rounded.

    Raises
    ------
    InputError
        For anything but a :class:`PolynomialCdf`, or (in the double context)
        a mu that puts a nonzero exact coefficient, or the characteristic
        polynomial's terms at a root, outside the double range, or a mu at
        which the roots span more than the double seeds of the root finder resolve.
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
    n = prep.degree
    mu = svc.rate
    with context_for(n) as ctx:
        try:
            nu_ex = ctx.exact(exact_nu(prep.coeffs, mu))
            char_ex = ctx.exact(exact_char(nu_ex, mu))
            nu = [ctx.real(v) for v in nu_ex]
            roots = find_roots([ctx.real(v) for v in char_ex])
        except OverflowError as exc:
            raise InputError(f"mu = {mu!r} is out of range: {exc}") from None
        _verify_structure(nu_ex, char_ex, mu, roots.astype(complex))
        basis = [(r,) + _pair_coefficients(r, nu, mu, n) for r in roots[: n + 1].tolist()]
        mat, rhs = assemble_linear_system(basis, nu, prep, svc)
        sol, cond = lu_solve(mat, rhs, ctx)
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


def _scaled_bessel(z, ctx) -> list:
    """exp(-z) I_k(z), k = 0, 1, ..., by Miller's zero-seeded downward
    recurrence I_{k-1} = (2k/z) I_k + I_{k+1}, normalized by
    I_0 + 2 sum_k I_k = exp(z) (Gautschi, SIAM Review 9(1), 1967). It starts
    where the dominant solution p_{k+1} = p_{k-1} - (2k/z) p_k, run forward
    from (0, 1), first reaches 1/eps: an index estimate, so it runs in double
    in every context. Raises :class:`PostconditionViolation` past
    ``_SERIES_MAX`` coefficients."""
    step, big = 2 / complex(z), 1 / float(ctx.eps)
    prev, cur, start = 0.0, 1.0, 1
    while abs(cur) < big:
        if start + 1 >= _SERIES_MAX:
            root = 2 * complex(z)
            raise PostconditionViolation(
                "density_series", f"unresolved within {_SERIES_MAX} terms at root {root:.6g}"
            )
        prev, cur, start = cur, prev - start * step * cur, start + 1
    step, nxt, cur = 2 / z, 0, 1
    out = [cur]
    for k in range(start, 0, -1):
        nxt, cur = cur, k * step * cur + nxt
        out.append(cur)
    out.reverse()
    scale = 1 / (2 * sum(out) - out[0])
    return [v * scale for v in out]


def _density_series(basis, strengths, ctx) -> Chebyshev:
    """The density as one real Chebyshev series on [0, 1], chopped.

    On t = 2x - 1, with z = r / 2, a pair's exp(r*(x-1)) and exp(-r*x) are
    exp(-z) exp(+-z t), whose coefficients are eps_k exp(-z) I_k(z) times 1
    and (-1)^k (Abramowitz & Stegun 9.6.34; eps_0 = 1, else 2); Re r >= 0,
    so nothing overflows. The modes are summed in ``ctx`` on the unrounded
    strengths and rounded to complex once. Keeps the shortest prefix whose
    dropped tail sum |c_k| is at most machine epsilon times the whole sum.
    Raises :class:`PostconditionViolation` if sum |Im c_k|, a bound on
    |Im f| over [0, 1], exceeds 1e-8.
    """
    total = []
    for (r, head, tail), u in zip(basis, strengths):
        bessel = _scaled_bessel(r / 2, ctx)
        even, odd = 2 * u * (head + tail), 2 * u * (head - tail)
        total += [0] * (len(bessel) - len(total))
        for k, b in enumerate(bessel):
            total[k] += b * (odd if k % 2 else even)
    total[0] /= 2
    coeffs = np.array([complex(c) for c in total])
    residue = float(np.sum(np.abs(coeffs.imag)))
    if residue > 1e-8:
        raise PostconditionViolation("density_real", f"sum |Im c_k| = {residue:.3e}")
    coeffs = coeffs.real
    dropped = np.cumsum(np.abs(coeffs[::-1]))[::-1]  # dropped[k] = sum_{j >= k} |c_j|
    keep = max(int(np.count_nonzero(dropped > np.finfo(float).eps * dropped[0])), 1)
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
    """Waiting-time density on (0, 1] (the atom at 0, pi0, is not included), at
    x as :func:`~lindley_alt.distributions._pointwise` and
    :func:`~lindley_alt.distributions._density_points` read it."""
    return _pointwise(x, lambda xs: sol.density_series(_density_points(xs)))


def eval_waiting_cdf(sol: WaitingTimeSolution, x):
    """Waiting-time CDF: 0 below 0, atom + integral of the density on [0, 1],
    1 above, at x as :func:`~lindley_alt.distributions._pointwise` reads it."""
    def cdf(xs):
        vals = sol.pi0 + sol.integral_series(np.clip(xs, 0.0, 1.0))
        # at exactly 1 the computed value (1 within 1e-10 by normalization)
        # is returned rather than clamped, so the endpoint stays a real check
        return np.where(xs < 0.0, 0.0, np.where(xs > 1.0, 1.0, vals))
    return _pointwise(x, cdf)


def integral_equation_residual(
    sol: WaitingTimeSolution, prep: PolynomialCdf, svc: ExponentialService, points
) -> float:
    """Largest defect at the points of the stationary integral equation

        f(x) - mu F(x) + mu pi0 F_B(x) + mu int_0^{1-x} F_B(x+y) f(y) dy
             + mu int_{1-x}^1 f(y) dy = 0.

    f and F come from the solution's two series, F_B from ``prep`` by
    :func:`eval_cdf`, in Bernstein form (at high order the monomial
    coefficients reach 1e11 and would cancel). The inner integrand is a
    polynomial, which Gauss-Legendre with (deg F_B + terms) / 2 + 1 nodes
    integrates exactly. So the defect vanishes only on the true law: moving
    the atom by 1% moves it above 1e-4.

    Raises
    ------
    InputError
        If that takes more than ``_RESIDUAL_NODES`` nodes: the node rule
        needs memory quadratic in the count (26,058 nodes asked for 5 GiB).
    ValueError
        If a point lies outside [0, 1] or is NaN, where the two series are
        extrapolated (:func:`~lindley_alt.distributions._unit_points`).
    """
    f, mass = sol.density_series, sol.integral_series
    count = (prep.degree + f.coef.size) // 2 + 1
    if count > _RESIDUAL_NODES:
        raise InputError(
            f"the integral-equation residual supports density series of up to "
            f"{2 * _RESIDUAL_NODES - 1 - prep.degree} terms (mu up to about 1e5); "
            f"this one has {f.coef.size}"
        )
    x = _unit_points(np.asarray(points, dtype=float).reshape(-1), "residual points")
    nodes, weights = np.polynomial.legendre.leggauss(count)
    b = 1.0 - x
    y = 0.5 * b[:, None] * (1.0 + nodes)  # the nodes mapped onto [0, 1 - x]
    inner = 0.5 * b * ((eval_cdf(prep, x[:, None] + y) * f(y)) @ weights)
    resid = f(x) + svc.rate * (
        sol.pi0 * (eval_cdf(prep, x) - 1.0) - mass(x) + inner + mass(1.0) - mass(b)
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
