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

import mpmath
import numpy as np
import pytest

from conftest import mode_cdf, mode_density, random_piecewise_cdf, random_polynomial_cdf
from lindley_alt import solver as solver_module
from lindley_alt._exact import exact_char, exact_nu
from lindley_alt._moments import _moments
from lindley_alt._numeric import DOUBLE, _pow2_scale, lu_solve
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
    PostconditionViolation,
    RepeatedRoot,
)
from lindley_alt.solver import (
    _density_series,
    _scaled_bessel,
    _verify_structure,
    eval_waiting_cdf,
    eval_waiting_density,
    find_roots,
    integral_equation_residual,
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
        assert exact_nu(validate([0.0, 0.0, 1.0]).coeffs, svc.rate) == [4, 4, 2]

    def test_top_weight_is_service_rate(self):
        rng = np.random.default_rng(1)
        for mu in (0.25, 1.0, 3.5):
            dist = random_polynomial_cdf(rng)
            nu = exact_nu(dist.coeffs, mu)
            assert nu[dist.degree] == mu
            assert len(nu) == dist.degree + 1


class TestCharacteristicPolynomial:
    def test_uniform_closed_form(self):
        # r^4 - r^2 - 1, ascending coefficients
        assert exact_char([Fraction(1), Fraction(1)], 1.0) == [-1, 0, -1, 0, 1]

    def test_always_even(self):
        rng = np.random.default_rng(2)
        for mu in (0.5, 1.0, 2.0):
            dist = random_polynomial_cdf(rng)
            char = exact_char(exact_nu(dist.coeffs, mu), mu)
            assert len(char) == 2 * dist.degree + 3
            assert all(c == 0 for c in char[1::2])
            assert char[-1] == 1  # monic


class TestRoots:
    def test_uniform_golden_ratio_roots(self):
        char = (-1.0, 0.0, -1.0, 0.0, 1.0)
        roots = find_roots(char)
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
            mu = float(rng.uniform(0.25, 4.0))
            char = exact_char(exact_nu(dist.coeffs, mu), mu)
            roots = find_roots([float(c) for c in char])
            by_key = sorted(roots, key=lambda r: (round(r.real, 9), round(r.imag, 9)))
            negated = sorted(-roots, key=lambda r: (round(r.real, 9), round(r.imag, 9)))
            conjugated = sorted(np.conj(roots), key=lambda r: (round(r.real, 9), round(r.imag, 9)))
            np.testing.assert_allclose(by_key, negated, atol=1e-10)
            np.testing.assert_allclose(by_key, conjugated, atol=1e-10)

    def test_ordering_contract(self):
        # representatives first: Re > 0 (Im > 0 on the imaginary axis),
        # descending real then imaginary part; then their exact negations,
        # mirrored, so entry i's partner is entry 2n+1-i
        rng = np.random.default_rng(24)
        for _ in range(60):
            dist = random_polynomial_cdf(rng, max_degree=12)
            mu = float(np.exp(rng.uniform(math.log(0.25), math.log(4.0))))
            char = exact_char(exact_nu(dist.coeffs, mu), mu)
            roots = find_roots([float(c) for c in char])
            half = dist.degree + 1
            assert roots.shape == (2 * half,)
            reps = roots[:half]
            assert all(r.real > 0.0 or (r.real == 0.0 and r.imag > 0.0) for r in reps)
            keys = [(-r.real, -r.imag) for r in reps]
            assert keys == sorted(keys)
            assert roots[half:].tobytes() == (-reps[::-1]).tobytes()

    def test_repeated_root_detected(self):
        # (s - 2)^2 in s = r^2: r^4 - 4r^2 + 4
        with pytest.raises(RepeatedRoot):
            find_roots((4.0, 0.0, -4.0, 0.0, 1.0))


class TestStructuralChecks:
    """Each invariant that every solve asserts, broken on the uniform law."""

    @staticmethod
    def _uniform():
        nu = exact_nu((0.0, 1.0), 1.0)
        char = exact_char(nu, 1.0)
        roots = find_roots([float(c) for c in char])
        return nu, char, roots

    @pytest.mark.parametrize(
        "invariant",
        ["top_weight", "even_polynomial", "negation_closure", "conjugation_closure"],
    )
    def test_broken_invariant_raises(self, invariant):
        nu, char, roots = self._uniform()
        _verify_structure(nu, char, 1.0, roots)  # intact
        if invariant == "top_weight":
            nu = [*nu[:-1], nu[-1] * (1 + Fraction(1, 2**60))]
        elif invariant == "even_polynomial":
            char = [char[0], Fraction(1, 2**60), *char[2:]]
        elif invariant == "negation_closure":
            roots = roots.copy()
            roots[0] *= 1 + 1e-12
        else:  # rotated: still closed under negation, no longer under conjugation
            roots = roots * cmath.exp(0.1j)
        with pytest.raises(PostconditionViolation) as excinfo:
            _verify_structure(nu, char, 1.0, roots)
        assert excinfo.value.invariant == invariant


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

    def test_long_series_is_refused_before_the_node_rule(self, monkeypatch):
        # mu = 1e8 takes about 57,000 terms, and leggauss would ask for a
        # matrix of several GiB; the refusal must come before that call
        def no_nodes(count):
            raise AssertionError(f"leggauss({count}) called")

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", no_nodes)
        svc = ExponentialService(1e8)
        sol = solve(validate([0.0, 1.0]), svc)
        with pytest.raises(InputError, match=f"{sol.density_series.coef.size}"):
            integral_equation_residual(sol, validate([0.0, 1.0]), svc, [0.5])

    @pytest.mark.parametrize("bad", [1.5, -0.5, math.nan])
    def test_points_outside_the_unit_interval_are_refused(self, bad):
        # the two series extrapolate past [0, 1]: on this fit the points 1.5
        # and -0.5 would give "residuals" of 0.110 and 0.129, and NaN nan
        svc = ExponentialService(1.0)
        fit = bernstein_fit(triangular_cdf(), 5)
        sol = solve(fit, svc)
        with pytest.raises(ValueError, match=r"^residual points must lie in \[0, 1\]$"):
            integral_equation_residual(sol, fit, svc, [0.0, bad, 1.0])
        assert integral_equation_residual(sol, fit, svc, [0.0, 1.0]) < 1e-10

    def test_series_within_the_node_cap_is_checked(self):
        svc = ExponentialService(1e4)
        sol = solve(validate([0.0, 1.0]), svc)
        assert sol.density_series.coef.size > 500
        pts = np.linspace(0.001, 1.0, 50)
        assert integral_equation_residual(sol, validate([0.0, 1.0]), svc, pts) < 1e-7


def _residual_loop(sol, prep, svc, points):
    """The per-point, per-mode residual in closed form: shifted moment
    tables of every mode over [0, 1-x], no quadrature, no series."""
    c = prep.coeffs
    n = prep.degree
    mu = svc.rate
    total = complex(mode_cdf(sol, np.ones(1))[0]) - sol.pi0  # int_0^1 f(y) dy
    worst = 0.0
    for x in np.atleast_1d(np.asarray(points, dtype=float)):
        b = 1.0 - x
        fx = complex(mode_density(sol, np.array([x]))[0])
        capf = complex(mode_cdf(sol, np.array([x]))[0])
        fb = float(np.polyval(list(reversed(c)), x))
        partial = np.zeros(n + 1, dtype=complex)  # int_0^b y^k f(y) dy
        for m in sol.modes:
            if b <= 0.0:
                break
            r = m.root
            plus = _moments(n, r * b, anchored=True)
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


class TestDensitySeries:
    """The density series against the reference mode sums, and the extended
    orders where the double image of the mode sum cancelled (order 36 failed
    normalization by 4.1e-10 when the strengths were rounded first)."""

    XS = np.linspace(0.0, 1.0, 20001)

    @pytest.mark.filterwarnings("ignore::lindley_alt.errors.IllConditioned")
    @pytest.mark.parametrize("mu", [0.25, 1.0, 4.0, 10.0, 50.0, 1000.0])
    def test_matches_mode_sums(self, mu, monkeypatch):
        # at mu >= 20 some double-path strengths are wrong and their solves
        # fail postconditions; the series must still reproduce their sum,
        # so the postconditions are switched off here
        import lindley_alt.solver as solver_module

        monkeypatch.setattr(solver_module, "_verify_solution", lambda sol, pi0: None)
        svc = ExponentialService(mu)
        for order in range(1, 13):
            sol = solve(bernstein_fit(triangular_cdf(), order), svc)
            dens = sol.density_series(self.XS)
            assert float(np.max(np.abs(dens - mode_density(sol, self.XS)))) <= 1e-11
            cdf = eval_waiting_cdf(sol, self.XS)
            assert float(np.max(np.abs(cdf - mode_cdf(sol, self.XS)))) <= 1e-11

    def test_unresolved_series_is_refused(self, monkeypatch):
        # mu = 1000 needs about 180 terms, more than a cap of 16
        import lindley_alt.solver as solver_module

        monkeypatch.setattr(solver_module, "_SERIES_MAX", 1 << 4)
        with pytest.raises(PostconditionViolation, match="density_series"):
            solve(validate([0.0, 1.0]), ExponentialService(1000.0))

    @pytest.mark.parametrize("order, mu", [(36, 1.0), (40, 10.0)])
    def test_extended_orders_are_exact_to_rounding(self, order, mu):
        fit = bernstein_fit(triangular_cdf(), order)
        svc = ExponentialService(mu)
        sol = solve(fit, svc)
        assert abs(eval_waiting_cdf(sol, 1.0) - 1.0) <= 1e-15
        assert float(np.min(sol.density_series(np.linspace(0.0, 1.0, 4097)))) >= 0.0
        resid = integral_equation_residual(sol, fit, svc, np.linspace(0.0, 1.0, 1001))
        assert resid < 1e-12

    def test_imaginary_residue_is_refused(self):
        sol = solve(bernstein_fit(triangular_cdf(), 5), ExponentialService(1.0))
        basis = [(m.root, m.head, m.tail) for m in sol.modes]
        strengths = [m.strength for m in sol.modes]
        assert sol.modes[1].root.imag != 0.0
        assert _density_series(basis, strengths, DOUBLE).coef.size > 1
        strengths[1] *= cmath.exp(1e-6j)  # its conjugate partner keeps its own
        with pytest.raises(PostconditionViolation, match="density_real"):
            _density_series(basis, strengths, DOUBLE)


def _scaled_bessel_reference(z, top: int, dps: int) -> list:
    """exp(-z) I_k(z), k = 0..top, at ``dps`` digits: mpmath besseli at the
    two top orders, then I_{k-1} = (2k/z) I_k + I_{k+1} downward from those
    exact values, where I_k is the recurrence's minimal solution."""
    with mpmath.workdps(dps):
        z = mpmath.mpc(z)
        scale = mpmath.exp(-z)
        out = [scale * mpmath.besseli(top, z), scale * mpmath.besseli(top - 1, z)]
        for k in range(top - 1, 0, -1):
            out.append(2 * k / z * out[-1] + out[-2])
        return out[::-1]


class TestBesselCoefficients:
    """exp(-z) I_k(z) from Miller's zero-seeded recurrence, at every order
    up to its start, on real, imaginary and complex arguments. A start that
    reads only |z| begins too early on the imaginary axis (8e-3 off at
    z = 100j)."""

    ZS = [0.01, 1.0, 2.5 + 3j, 50j, 100j, 1000j, 300 + 300j, 5000.0]

    @pytest.mark.parametrize("z", ZS)
    def test_double_matches_besseli(self, z):
        got = _scaled_bessel(complex(z), DOUBLE)
        want = _scaled_bessel_reference(z, len(got) - 1, 40)
        assert max(abs(g - complex(w)) for g, w in zip(got, want)) <= 1e-14

    @pytest.mark.parametrize("z", ZS)
    def test_extended_matches_higher_precision(self, z):
        from lindley_alt._extended import EXTENDED

        dps = 60
        with mpmath.workdps(dps):
            got = _scaled_bessel(mpmath.mpc(z), EXTENDED)
        want = _scaled_bessel_reference(z, len(got) - 1, dps + 20)
        with mpmath.workdps(dps + 20):
            assert max(abs(g - w) for g, w in zip(got, want)) <= mpmath.mpf(10) ** (10 - dps)

    def test_reference_is_besseli(self):
        z = 100j
        want = _scaled_bessel_reference(z, 200, 40)
        with mpmath.workdps(40):
            for k in (0, 1, 50, 100):
                direct = mpmath.exp(-mpmath.mpc(z)) * mpmath.besseli(k, mpmath.mpc(z))
                assert abs(want[k] - direct) <= mpmath.mpf(10) ** -30


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
                reference = _exact_char_fractions([Fraction(w) for w in weights], mu)
                assert exact_char(weights, mu) == reference


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

    def test_no_warning_from_the_extended_context(self, triangular, recwarn):
        # the extended system is solved at 40 + 3n digits, so its condition
        # number (above 1e10 from about order 28) is recorded, not warned
        from lindley_alt.bernstein import bernstein_fit

        sol = solve(bernstein_fit(triangular, 28), ExponentialService(1.0))
        assert sol.condition_number > 1e10
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


def _double_scales_reference(mags):
    """The double rule the scaling started from: exp2(-round(log2 m)), 1 at m = 0."""
    return np.exp2(-np.round(np.log2(np.where(mags > 0.0, mags, 1.0))))


def _extended_scales_reference(mags):
    """The extended rule the scaling started from, at working precision."""
    pairs = map(mpmath.frexp, mags)
    return np.array([mpmath.ldexp(1, (2 * f * f < 1) - e) if f else 1 for f, e in pairs])


def _lu_solve_reference(mat, rhs, ctx):
    """The equilibrated solve as first written: four row-then-column passes,
    each context with its own scaling rule."""
    scales = _double_scales_reference if ctx is DOUBLE else _extended_scales_reference
    scaled, mags = mat.copy(), np.abs(mat)
    rows = cols = 1
    for _ in range(4):
        rf = scales(np.max(mags, axis=1))
        for a in (scaled, mags):
            a *= rf[:, None]
        rows = rows * rf
        cf = scales(np.max(mags, axis=0))
        for a in (scaled, mags):
            a *= cf[None, :]
        cols = cols * cf
    cond = float(np.linalg.cond(np.asarray(scaled, dtype=complex)))
    return ctx.factor_solve(scaled, rhs * rows) * cols, cond


class _Captured(Exception):
    pass


def _mode_systems(cases, monkeypatch):
    """(mat, rhs, ctx, digits) of each case's mode system: every (law, mu)
    is solved up to its linear system, which is kept and not solved."""
    systems = []

    def capture(mat, rhs, ctx):
        systems.append((mat, rhs, ctx, mpmath.mp.dps))
        raise _Captured

    monkeypatch.setattr(solver_module, "lu_solve", capture)
    for law, mu in cases:
        with pytest.raises(_Captured):
            solve(law, ExponentialService(mu))
    monkeypatch.undo()
    return systems


class _CountingContext:
    """A context that counts its ``frexp`` calls: one per row and column scale."""

    def __init__(self, ctx):
        self.ctx, self.calls = ctx, 0

    def __getattr__(self, name):
        return getattr(self.ctx, name)

    def frexp(self, m):
        self.calls += 1
        return self.ctx.frexp(m)


def _sweep_cases():
    """Double-path laws like the solve sweep's: the constructive generators at
    orders 1-12, mu log-uniform on [0.25, 4]."""
    rng = np.random.default_rng(32)
    cases = []
    for order in range(1, 13):
        for draw in range(8):
            if draw % 2:
                law = bernstein_fit(random_piecewise_cdf(rng, max_pieces=4), order)
            else:
                law = random_polynomial_cdf(rng, max_degree=order)
            cases.append((law, float(np.exp(rng.uniform(np.log(0.25), np.log(4.0))))))
    return cases


def _edge_cases():
    tri = triangular_cdf()
    cases = [(bernstein_fit(tri, n), 1.0) for n in (13, 16, 20, 24)]
    return cases + [(bernstein_fit(tri, 16), 1e-150), (bernstein_fit(tri, 12), 1e4)]


class TestEquilibration:
    """One scaling rule for both contexts, run until a pass changes no scale."""

    @pytest.mark.parametrize("cases", [_sweep_cases, _edge_cases], ids=["sweep", "edges"])
    def test_bit_equal_to_four_passes_of_two_rules(self, cases, monkeypatch):
        for mat, rhs, ctx, digits in _mode_systems(cases(), monkeypatch):
            with mpmath.workdps(digits):
                counting = _CountingContext(ctx)
                sol, cond = lu_solve(mat, rhs, counting)
                want, want_cond = _lu_solve_reference(mat, rhs, ctx)
            assert list(map(repr, sol.tolist())) == list(map(repr, want.tolist()))
            assert repr(cond) == repr(want_cond)
            # a pass that changes no scale ends the loop: at most two run
            assert 0 < counting.calls <= 2 * sum(mat.shape)

    def test_scale_rule_matches_the_double_rule(self):
        rng = np.random.default_rng(7)
        mags = 10.0 ** rng.uniform(-304.0, 304.0, 10**6)
        mags[:4] = [0.0, math.nan, math.inf, 1.0]
        got = np.array([_pow2_scale(m, DOUBLE) for m in mags.tolist()])
        assert np.array_equal(got, _double_scales_reference(mags), equal_nan=True)

    def test_scale_rule_matches_the_extended_rule_past_the_double_range(self):
        from lindley_alt._extended import EXTENDED

        rng = np.random.default_rng(8)
        with mpmath.workdps(60):
            mantissas = [mpmath.mpf(float(m)) for m in rng.uniform(1.0, 10.0, 2000)]
            powers = rng.integers(309, 5000, 2000) * rng.choice([-1, 1], 2000)
            mags = np.array([m * mpmath.mpf(10) ** int(p) for m, p in zip(mantissas, powers)]
                            + [mpmath.mpf(0)])
            got = np.array([_pow2_scale(m, EXTENDED) for m in mags])
            want = _extended_scales_reference(mags)
            assert all(g == w for g, w in zip(got.tolist(), want.tolist()))
            # each scale brings its magnitude within a factor sqrt(2) of 1
            assert all(mpmath.mpf(0.5) ** 0.5 <= g * m <= 2 ** 0.5
                       for g, m in zip(got[:-1].tolist(), mags[:-1].tolist()))


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
        got = [float(v) for v in exact_nu(fit.coeffs, svc.rate)]
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
        import lindley_alt._numeric as numeric_module
        from lindley_alt.bernstein import bernstein_fit

        fit = bernstein_fit(triangular, 12)
        svc = ExponentialService(0.8)
        sol_double = solve(fit, svc)  # degree 12 = last double-path degree
        monkeypatch.setattr(numeric_module, "EXTENDED_DEGREE", 0)
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

    def test_working_digits_are_scoped_to_the_solve(self, triangular):
        # the extended context raises mpmath's global precision only inside
        # a solve, whether the solve returns or raises
        fit = bernstein_fit(triangular, 16)
        before = mpmath.mp.dps
        solve(fit, ExponentialService(1.0))
        assert mpmath.mp.dps == before
        with pytest.raises(PostconditionViolation) as info:
            solve(fit, ExponentialService(1e12))
        assert info.value.invariant == "density_series"
        assert mpmath.mp.dps == before

    def test_tiny_rate_solves_once_equilibrated(self, triangular):
        # the system's entries span far past the double range here; solved
        # unscaled, mpmath's pivot test (relative to the matrix norm) called
        # it singular at working precision and raised DegenerateMode
        from lindley_alt.bernstein import bernstein_fit

        sol = solve(bernstein_fit(triangular, 16), ExponentialService(1e-150))
        assert sol.pi0 == pytest.approx(1.0, abs=1e-12)

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
