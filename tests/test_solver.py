"""Exact solver: characteristic system, modes, weights, postconditions.

The uniform preparation case (mu = 1) has closed-form structure — the
characteristic polynomial is r^4 - r^2 - 1, its roots are +-phi^(1/2) and
+-i/phi^(1/2) with phi the golden ratio — so it anchors most regressions.
The independent checks are the integral-equation residual (which vanishes
only on the true solution) and the fixed-point oracle (separate module,
tested against the solver in test_oracle.py and the acceptance suite).
"""

import cmath
import math
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from conftest import random_polynomial_cdf
from lindley_alt._exact import exact_char, exact_nu
from lindley_alt._moments import _anchored_moments, _moments
from lindley_alt._numeric import DOUBLE
from lindley_alt.bernstein import bernstein_fit
from lindley_alt.distributions import (
    ExponentialService,
    PolynomialCdf,
    triangular_cdf,
    validate,
)
from lindley_alt.errors import (
    IllConditioned,
    InputError,
    PairingFailure,
    RepeatedRoot,
)
from lindley_alt.solver import (
    _cdf_terms,
    _mode_terms,
    characteristic_polynomial,
    eval_waiting_cdf,
    eval_waiting_density,
    find_roots,
    integral_equation_residual,
    nu_coefficients,
    pair_roots,
    solution_summary,
    solve,
)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


@pytest.fixture(scope="module")
def uniform_solution():
    return solve(validate([0.0, 1.0]), ExponentialService(1.0))


class TestDerivativeWeights:
    def test_quadratic_example(self):
        # F = x^2 with mu = 2: weights (4, 4, 2), top pinned at mu
        svc = ExponentialService(2.0)
        assert nu_coefficients(validate([0.0, 0.0, 1.0]), svc) == (4.0, 4.0, 2.0)

    def test_top_weight_is_service_rate(self):
        rng = np.random.default_rng(1)
        for mu in (0.25, 1.0, 3.5):
            dist = random_polynomial_cdf(rng)
            nu = nu_coefficients(dist, ExponentialService(mu))
            assert nu[dist.degree] == mu
            assert len(nu) == dist.degree + 1


class TestCharacteristicPolynomial:
    def test_uniform_closed_form(self):
        # r^4 - r^2 - 1, ascending coefficients
        char = characteristic_polynomial((1.0, 1.0), ExponentialService(1.0), 1)
        np.testing.assert_allclose(char, (-1.0, 0.0, -1.0, 0.0, 1.0), atol=0.0)

    def test_always_even(self):
        rng = np.random.default_rng(2)
        for mu in (0.5, 1.0, 2.0):
            dist = random_polynomial_cdf(rng)
            svc = ExponentialService(mu)
            char = characteristic_polynomial(nu_coefficients(dist, svc), svc, dist.degree)
            assert len(char) == 2 * dist.degree + 3
            assert all(c == 0.0 for c in char[1::2])
            assert char[-1] == 1.0  # monic


class TestRoots:
    def test_uniform_golden_ratio_roots(self):
        char = (-1.0, 0.0, -1.0, 0.0, 1.0)
        roots = pair_roots(find_roots(char))
        assert roots.shape == (4,)
        # representatives first, descending real part
        assert roots[0] == pytest.approx(math.sqrt(GOLDEN), abs=1e-12)
        assert roots[1] == pytest.approx(1j / math.sqrt(GOLDEN), abs=1e-12)
        # partners are the exact negations, mirrored
        assert roots[3] == -roots[0]
        assert roots[2] == -roots[1]

    def test_multiset_closed_under_negation_and_conjugation(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            dist = random_polynomial_cdf(rng)
            svc = ExponentialService(float(rng.uniform(0.25, 4.0)))
            char = characteristic_polynomial(nu_coefficients(dist, svc), svc, dist.degree)
            roots = pair_roots(find_roots(char))
            by_key = sorted(roots, key=lambda r: (round(r.real, 9), round(r.imag, 9)))
            negated = sorted(-roots, key=lambda r: (round(r.real, 9), round(r.imag, 9)))
            conjugated = sorted(np.conj(roots), key=lambda r: (round(r.real, 9), round(r.imag, 9)))
            np.testing.assert_allclose(by_key, negated, atol=1e-10)
            np.testing.assert_allclose(by_key, conjugated, atol=1e-10)

    def test_repeated_root_detected(self):
        # (s - 2)^2 in s = r^2: r^4 - 4r^2 + 4
        with pytest.raises(RepeatedRoot):
            find_roots((4.0, 0.0, -4.0, 0.0, 1.0))

    def test_pairing_failure_on_tampered_set(self):
        with pytest.raises(PairingFailure):
            pair_roots(np.array([1.0 + 0.0j, 2.0 + 0.0j, -1.0 + 0.0j, -3.0 + 0.0j]))


class TestUniformSolution:
    """Frozen closed-form case: every public quantity is pinned."""

    def test_atom(self, uniform_solution):
        assert uniform_solution.pi0 == pytest.approx(0.687560007794, abs=1e-9)

    def test_condition_number_is_modest(self, uniform_solution):
        assert 1.0 < uniform_solution.condition_number < 50.0

    def test_summary_structure(self, uniform_solution):
        summary = solution_summary(uniform_solution)
        assert set(summary) == {
            "pi0", "mu", "coeffs", "roots", "zetas", "qs", "ds", "condition_number",
        }
        assert summary["mu"] == 1.0
        assert summary["coeffs"] == [0.0, 1.0]
        assert len(summary["roots"]) == 4
        assert len(summary["zetas"]) == 4
        assert len(summary["ds"]) == 4
        assert len(summary["qs"]) == 2

    def test_frozen_mode_quantities(self, uniform_solution):
        summary = solution_summary(uniform_solution)
        roots = [complex(r["re"], r["im"]) for r in summary["roots"]]
        zetas = [complex(z["re"], z["im"]) for z in summary["zetas"]]
        qs = [complex(q["re"], q["im"]) for q in summary["qs"]]
        ds = [complex(v["re"], v["im"]) for v in summary["ds"]]
        want_real_root = math.sqrt(GOLDEN)

        idx = int(np.argmin([abs(r - want_real_root) for r in roots]))
        assert roots[idx] == pytest.approx(1.272019649514069, abs=1e-12)
        # at the real root the mode vector is (1, r^2 - r)
        assert zetas[idx] == pytest.approx(1.0, abs=1e-12)
        assert qs[idx % 2 if len(qs) == 2 else idx] is not None
        assert ds[idx] == pytest.approx(-0.012275, abs=1e-5)

        jdx = int(np.argmin([abs(r - 1j / math.sqrt(GOLDEN)) for r in roots]))
        assert zetas[jdx] == pytest.approx(-0.6180339887 + 0.7861513778j, abs=1e-9)
        assert ds[jdx] == pytest.approx(0.024023 - 0.405298j, abs=1e-5)

    def test_coupling_value(self, uniform_solution):
        summary = solution_summary(uniform_solution)
        qs = [complex(q["re"], q["im"]) for q in summary["qs"]]
        assert any(q == pytest.approx(3.568052, abs=1e-5) for q in qs)
        assert any(q == pytest.approx(-0.992998 + 0.118129j, abs=1e-5) for q in qs)

    def test_density_and_cdf_shapes(self, uniform_solution):
        xs = np.linspace(1e-6, 1.0, 512)
        dens = eval_waiting_density(uniform_solution, xs)
        cdf = eval_waiting_cdf(uniform_solution, xs)
        assert np.all(dens >= -1e-10)
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf[-1] == pytest.approx(1.0, abs=1e-10)
        # mass accounting: atom + integral of density = 1
        total = uniform_solution.pi0 + np.trapezoid(dens, xs)
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_cdf_boundaries(self, uniform_solution):
        assert eval_waiting_cdf(uniform_solution, -0.5) == 0.0
        assert eval_waiting_cdf(uniform_solution, 2.0) == 1.0
        assert eval_waiting_cdf(uniform_solution, 0.0) == pytest.approx(
            uniform_solution.pi0, abs=1e-12
        )

    def test_density_domain(self, uniform_solution):
        for bad in (0.0, -1.0, 1.5):
            with pytest.raises(ValueError):
                eval_waiting_density(uniform_solution, bad)


class TestResidualOracle:
    def test_vanishes_on_true_solution(self, uniform_solution):
        pts = np.linspace(0.001, 1.0, 1000)
        resid = integral_equation_residual(
            uniform_solution, validate([0.0, 1.0]), ExponentialService(1.0), pts
        )
        assert float(np.max(np.abs(resid))) < 1e-12

    def test_detects_perturbation(self, uniform_solution):
        import dataclasses

        bad = dataclasses.replace(uniform_solution, pi0=uniform_solution.pi0 * 1.01)
        pts = np.linspace(0.001, 1.0, 50)
        resid = integral_equation_residual(
            bad, validate([0.0, 1.0]), ExponentialService(1.0), pts
        )
        assert float(np.max(np.abs(resid))) > 1e-4

    def test_random_problems(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            dist = random_polynomial_cdf(rng)
            svc = ExponentialService(float(rng.uniform(0.25, 4.0)))
            sol = solve(dist, svc)
            pts = np.linspace(0.005, 1.0, 200)
            resid = integral_equation_residual(sol, dist, svc, pts)
            assert float(np.max(np.abs(resid))) < 1e-7
            assert eval_waiting_cdf(sol, 1.0) == pytest.approx(1.0, abs=1e-10)
            assert 0.0 < sol.pi0 < 1.0


def _residual_loop(sol, prep, svc, points):
    """The per-point, per-mode residual the vectorized one replaced."""
    c = prep.coeffs
    n = prep.degree
    mu = svc.rate
    total = complex(_cdf_terms(sol, np.ones(1))[0]) - sol.pi0  # int_0^1 f(y) dy
    worst = 0.0
    for x in np.atleast_1d(np.asarray(points, dtype=float)):
        b = 1.0 - x
        fx = complex(_mode_terms(sol, np.array([x]))[0])
        capf = complex(_cdf_terms(sol, np.array([x]))[0])
        fb = float(np.polyval(list(reversed(c)), x))
        partial = np.zeros(n + 1, dtype=complex)  # int_0^b y^k f(y) dy
        for m in sol.modes:
            if b <= 0.0:
                break
            r = m.root
            plus = _anchored_moments(n, r * b)
            minus = _moments(n, -r * b)
            shift = cmath.exp(r * (b - 1.0))
            bpow = b
            for k in range(n + 1):
                partial[k] += m.strength * bpow * (
                    m.head * shift * plus[k] + m.tail * minus[k]
                )
                bpow *= b
        tail = total - partial[0]
        double = complex(0.0)
        for i in range(n + 1):
            if c[i] == 0.0:
                continue
            for k in range(i + 1):
                double += c[i] * comb(i, k) * x ** (i - k) * partial[k]
        resid = fx - mu * capf + mu * sol.pi0 * fb + mu * double + mu * tail
        worst = max(worst, abs(resid))
    return worst


def _residual_scale(sol, prep, svc):
    """Size of the terms the residual sums: every mode term is at most
    |strength| * max(|head|, |tail|) on [0, 1], the binomial weights carry
    the coefficients, and mu multiplies all but the density."""
    modes = sum(abs(m.strength) * max(abs(m.head), abs(m.tail)) for m in sol.modes)
    return (1.0 + svc.rate) * modes * max(1.0, max(abs(c) for c in prep.coeffs))


class TestVectorizedResidual:
    PTS = np.linspace(0.0, 1.0, 101)  # both ends: b = 1 and b = 0

    @pytest.mark.parametrize("mu", [0.25, 1.0, 4.0])
    def test_matches_loop_double_path(self, mu):
        svc = ExponentialService(mu)
        for order in range(1, 13):
            fit = bernstein_fit(triangular_cdf(), order)
            sol = solve(fit, svc)
            want = _residual_loop(sol, fit, svc, self.PTS)
            got = integral_equation_residual(sol, fit, svc, self.PTS)
            assert abs(got - want) <= 1e-13 * _residual_scale(sol, fit, svc)

    def test_matches_loop_extended_path(self):
        fit = bernstein_fit(triangular_cdf(), 16)
        svc = ExponentialService(1.0)
        sol = solve(fit, svc)
        want = _residual_loop(sol, fit, svc, self.PTS)
        got = integral_equation_residual(sol, fit, svc, self.PTS)
        assert abs(got - want) <= 1e-13 * _residual_scale(sol, fit, svc)

    def test_reproduces_double_path_failure_at_large_rate(self):
        # order 5 at mu = 1000: the double path's known defect (verify
        # prints 8.293e-02 and exits 3); the residual must keep showing it
        fit = bernstein_fit(triangular_cdf(), 5)
        svc = ExponentialService(1000.0)
        sol = solve(fit, svc)
        pts = np.linspace(1.0 / 1000, 1.0, 1000)
        want = _residual_loop(sol, fit, svc, pts)
        got = integral_equation_residual(sol, fit, svc, pts)
        assert abs(got - want) <= 1e-13 * _residual_scale(sol, fit, svc)
        assert f"{got:.3e}" == "8.293e-02"


def _exact_nu_fractions(coeffs, rate):
    """exact_nu by per-operation Fraction arithmetic, as it was written."""
    c = [Fraction(v) for v in coeffs]
    n = len(c) - 1
    mu = Fraction(rate)
    out = []
    for m in range(n + 1):
        gap = n - m
        total = Fraction(0)
        for i in range(m + 1):
            total += Fraction(math.factorial(i + gap), math.factorial(i)) * c[i + gap]
        out.append(mu * total)
    out[n] = mu
    return out


def _exact_char_fractions(nu_fr, rate):
    """exact_char by per-operation Fraction arithmetic, as it was written."""
    n = len(nu_fr) - 1
    mu = Fraction(rate)
    coeffs = [Fraction(0)] * (2 * n + 3)
    coeffs[2 * n + 2] += 1
    coeffs[2 * n] -= mu * mu
    sign = -1 if n % 2 else 1
    for i in range(n):
        for j in range(n):
            term = nu_fr[i] * nu_fr[j]
            if j % 2:
                term = -term
            coeffs[i + j] += sign * term
    return coeffs


def test_integer_exact_arithmetic_matches_fractions():
    laws = [bernstein_fit(triangular_cdf(), n) for n in range(1, 41)]
    rng = np.random.default_rng(40)
    laws += [random_polynomial_cdf(rng, max_degree=20) for _ in range(40)]
    for law in laws:
        for mu in (0.01, 1.0, 1000.0):
            nu = exact_nu(law.coeffs, mu)
            assert nu == _exact_nu_fractions(law.coeffs, mu)
            # the exact weights (extended path) and their doubles (double path)
            for weights in (nu, DOUBLE.exact(nu)):
                assert exact_char(weights, mu) == _exact_char_fractions(weights, mu)


class TestConditioning:
    def test_warning_above_threshold(self, triangular, monkeypatch):
        # equilibration keeps real condition numbers modest, so exercise
        # the warning path by lowering the threshold below a typical value
        import lindley_alt.solver as solver_module
        from lindley_alt.bernstein import bernstein_fit

        monkeypatch.setattr(solver_module, "ILL_CONDITIONED_THRESHOLD", 1.0)
        fit = bernstein_fit(triangular, 10)
        with pytest.warns(IllConditioned, match="condition number"):
            sol = solve(fit, ExponentialService(1.0))
        assert sol.condition_number > 1.0

    def test_no_warning_below_threshold(self, triangular, recwarn):
        from lindley_alt.bernstein import bernstein_fit

        fit = bernstein_fit(triangular, 10)
        sol = solve(fit, ExponentialService(1.0))
        assert sol.condition_number < 1e10
        assert not [w for w in recwarn if issubclass(w.category, IllConditioned)]

    def test_equilibration_tames_high_degree(self, triangular, recwarn):
        # before row/column scaling this system's raw condition number
        # exceeded 1e10; the equilibrated solve stays far below the warning
        # threshold and satisfies all postconditions
        from lindley_alt.bernstein import bernstein_fit

        fit = bernstein_fit(triangular, 14)
        sol = solve(fit, ExponentialService(1.0))
        assert sol.condition_number < 1e9
        assert not [w for w in recwarn if issubclass(w.category, IllConditioned)]


def test_degree_zero_rejected():
    with pytest.raises(InputError):
        solve(PolynomialCdf((1.0,)), ExponentialService(1.0))


def test_solution_is_deterministic():
    a = solve(validate([0.1, 0.4, 0.5]), ExponentialService(2.0))
    b = solve(validate([0.1, 0.4, 0.5]), ExponentialService(2.0))
    assert a.pi0 == b.pi0
    assert solution_summary(a) == solution_summary(b)


class TestExtendedPrecision:
    """Degrees above 12 run the assembly in exact/extended arithmetic.

    Double-precision assembly loses ~log10(n!) digits to cancellation in the
    derivative-weight sums and system rows; without the extended path,
    degree-17 fits fail the density-nonnegativity postcondition outright.
    """

    def test_weights_match_mpmath_oracle_at_high_degree(self):
        # independent evaluation of nu[m] = mu * sum ((i+gap)!/i!) c_{i+gap}
        # at 80 digits; a double-precision accumulation of these sums loses
        # most of its significance at this degree, the exact-arithmetic path
        # must round correctly
        import mpmath

        rng = np.random.default_rng(42)
        dist = random_polynomial_cdf(rng, max_degree=10)
        from lindley_alt.bernstein import bernstein_fit

        fit = bernstein_fit(dist, 18)
        svc = ExponentialService(1.375)
        got = nu_coefficients(fit, svc)
        n = fit.degree
        with mpmath.workdps(80):
            for m in range(n + 1):
                gap = n - m
                total = mpmath.mpf(0)
                for i in range(m + 1):
                    ratio = mpmath.mpf(math.factorial(i + gap)) / math.factorial(i)
                    total += ratio * mpmath.mpf(fit.coeffs[i + gap])
                expect = float(mpmath.mpf(svc.rate) * total) if m < n else svc.rate
                assert got[m] == pytest.approx(expect, rel=1e-14, abs=1e-300)

    def test_pipelines_agree_at_the_crossover_degree(self, triangular, monkeypatch):
        import lindley_alt.solver as solver_module
        from lindley_alt.bernstein import bernstein_fit

        fit = bernstein_fit(triangular, 12)
        svc = ExponentialService(0.8)
        sol_double = solve(fit, svc)  # degree 12 = last double-path degree
        monkeypatch.setattr(solver_module, "EXTENDED_DEGREE", 0)
        sol_extended = solve(fit, svc)
        assert sol_double.pi0 == pytest.approx(sol_extended.pi0, abs=1e-11)
        xs = np.linspace(1e-6, 1.0, 513)
        np.testing.assert_allclose(
            sol_double.density(xs), sol_extended.density(xs), atol=1e-9
        )
        np.testing.assert_allclose(
            sol_double.cdf(xs), sol_extended.cdf(xs), atol=1e-10
        )

    def test_degree_seventeen_density_stays_nonnegative(self, triangular):
        # double assembly produced min f ~ -8e-8 here (a postcondition
        # violation); the extended path must hold a much tighter floor
        from lindley_alt.bernstein import bernstein_fit

        fit = bernstein_fit(triangular, 17)
        svc = ExponentialService(1.3)
        sol = solve(fit, svc)
        xs = np.linspace(1e-9, 1.0, 4097)
        assert float(np.min(sol.density(xs))) >= -1e-12
        resid = integral_equation_residual(sol, fit, svc, np.linspace(0.0, 1.0, 33))
        assert resid < 1e-9

    def test_high_degree_solution_is_deterministic(self, triangular):
        from lindley_alt.bernstein import bernstein_fit

        fit = bernstein_fit(triangular, 16)
        a = solve(fit, ExponentialService(2.0))
        b = solve(fit, ExponentialService(2.0))
        assert a.pi0 == b.pi0
        assert solution_summary(a) == solution_summary(b)


#: Rates of the summary corpus. Double-path orders run at all three; the
#: extended-path orders 13-24 (about 0.3-1.2 s a solve) rotate through them.
_SUMMARY_RATES = (0.3, 1.0, 3.0)


@pytest.fixture(scope="module")
def summary_corpus():
    """(solution, summary) over triangular fits of orders 1-24, both
    precision paths, plus 60 seeded random polynomial CDFs."""
    from lindley_alt.bernstein import bernstein_fit
    from lindley_alt.distributions import triangular_cdf

    tri = triangular_cdf()
    problems = []
    for n in range(1, 25):
        rates = _SUMMARY_RATES if n <= 12 else (_SUMMARY_RATES[n % 3],)
        problems += [(bernstein_fit(tri, n), mu) for mu in rates]
    rng = np.random.default_rng(60)
    for _ in range(60):
        problems.append((random_polynomial_cdf(rng), float(rng.uniform(0.25, 4.0))))
    out = []
    for dist, mu in problems:
        sol = solve(dist, ExponentialService(mu))
        out.append((sol, solution_summary(sol)))
    return out


def _complexes(values):
    """Wire-format complex numbers, or None if any of them is null."""
    if any(v["re"] is None or v["im"] is None for v in values):
        return None
    return np.array([complex(v["re"], v["im"]) for v in values])


class TestSummaryWireFormat:
    def test_modes_reconstruct_the_density(self, summary_corpus):
        # documented property: sum d * zeta * exp(root * x) is the density
        xs = np.linspace(0.0, 1.0, 257)[1:]
        checked = 0
        for sol, summary in summary_corpus:
            roots, zetas, ds = (_complexes(summary[k]) for k in ("roots", "zetas", "ds"))
            if ds is None:  # a null weight would be an overflow
                continue
            mix = np.sum(ds[:, None] * zetas[:, None] * np.exp(np.outer(roots, xs)), axis=0)
            assert float(np.max(np.abs(mix - sol.density(xs)))) < 1e-10
            checked += 1
        assert checked >= len(summary_corpus) - 2
        assert any(sol.prep.degree > 12 for sol, _ in summary_corpus)

    def test_couplings_are_closed_form(self, summary_corpus):
        # q = exp(root) off the imaginary axis and exp(root) * zeta on it,
        # and no weight is null
        for sol, summary in summary_corpus:
            qs, ds = _complexes(summary["qs"]), _complexes(summary["ds"])
            assert qs is not None and ds is not None
            roots, zetas = _complexes(summary["roots"]), _complexes(summary["zetas"])
            for j, q in enumerate(qs):
                expect = np.exp(roots[j]) * (zetas[j] if roots[j].real == 0.0 else 1.0)
                assert q == pytest.approx(expect, rel=1e-12)

    def test_imaginary_axis_modes_normalize_theta(self, summary_corpus):
        # on r = iy, |S(r)| = |r^n (r - mu)| makes |zeta| = |theta| exactly,
        # so the normalization is a tie that rounding must not break: theta
        # is set to 1, i.e. zeta = S(r) / (r^n (r - mu)) from the first row
        # of the mode system. S is evaluated independently at 60+ digits.
        import mpmath

        seen = 0
        for sol, summary in summary_corpus:
            n = sol.prep.degree
            roots, zetas = _complexes(summary["roots"]), _complexes(summary["zetas"])
            with mpmath.workdps(60 + 3 * n):
                c = [mpmath.mpf(v) for v in sol.prep.coeffs]
                nu = [
                    sol.mu * mpmath.fsum(
                        mpmath.factorial(i + n - m) / mpmath.factorial(i) * c[i + n - m]
                        for i in range(m + 1)
                    )
                    for m in range(n)
                ]
                for r, zeta in zip(roots, zetas):
                    if r.real != 0.0:
                        continue
                    rm = mpmath.mpc(r)
                    expect = mpmath.polyval(nu[::-1], rm) / (rm**n * (rm - sol.mu))
                    assert zeta == pytest.approx(complex(expect), abs=1e-6)
                    seen += 1
        assert seen >= 100
