"""Distribution types: validation, evaluation, sampling, P[B > A]."""

import json
import math
from bisect import bisect_right
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from conftest import random_polynomial_cdf
from lindley_alt.bernstein import bernstein_fit
from lindley_alt.distributions import (
    ExponentialService,
    PiecewisePolynomialCdf,
    PolynomialCdf,
    _laplace,
    eval_cdf,
    eval_density,
    inverse_cdf,
    inverse_cdf_array,
    parse_distribution_spec,
    prob_B_greater_A,
    sample,
    triangular_cdf,
    uniform_cdf,
    validate,
)
from lindley_alt.errors import InputError, NotACdf
from lindley_alt.oracle import FixedPointProblem, simulate
from lindley_alt.solver import solve


class TestValidate:
    def test_uniform_is_valid(self):
        dist = validate([0.0, 1.0])
        assert dist.coeffs == (0.0, 1.0)
        assert dist.atom == 0.0
        assert dist.degree == 1

    def test_concave_quadratic_is_valid(self):
        dist = validate([0.0, 2.0, -1.0])
        assert dist.degree == 2

    def test_wrong_total_mass_rejected(self):
        with pytest.raises(NotACdf) as info:
            validate([0.5, 0.7])
        assert any("sum to 1" in v for v in info.value.violations)

    def test_decreasing_rejected(self):
        # F = 4x - 9x^2 + 6x^3 ends at 1 but F' < 0 on (1/3, 2/3)
        with pytest.raises(NotACdf) as info:
            validate([0.0, 4.0, -9.0, 6.0])
        assert any("decreas" in v or "monoton" in v for v in info.value.violations)

    def test_atom_must_be_below_one(self):
        with pytest.raises(NotACdf):
            validate([1.0])  # also degree 0
        with pytest.raises(NotACdf):
            validate([-0.2, 1.2])

    def test_tiny_negative_atom_clamps_to_zero(self):
        dist = validate([-1e-13, 1.0 + 1e-13])
        assert dist.atom == 0.0

    def test_trailing_noise_trimmed(self):
        dist = validate([0.0, 1.0, 1e-15])
        assert dist.degree == 1

    def test_nonfinite_rejected(self):
        with pytest.raises(NotACdf):
            validate([0.0, math.inf])


class TestEval:
    def test_uniform_midpoint(self, uniform):
        assert eval_cdf(uniform, 0.5) == 0.5

    def test_triangular_midpoint(self, triangular):
        assert eval_cdf(triangular, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_clamps_outside_support(self, triangular, uniform):
        assert eval_cdf(triangular, 1.7) == 1.0
        assert eval_cdf(uniform, -0.2) == 0.0
        assert eval_cdf(uniform, 1.0) == 1.0

    def test_value_at_one_is_exactly_one(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            dist = random_polynomial_cdf(rng)
            assert eval_cdf(dist, 1.0) == 1.0

    def test_exact_rational_path(self, triangular):
        got = eval_cdf(triangular, Fraction(1, 3))
        assert isinstance(got, Fraction)
        assert got == Fraction(2, 9)  # 2 * (1/3)^2
        assert eval_cdf(triangular, Fraction(3, 4)) == Fraction(7, 8)

    def test_array_evaluation_matches_scalar(self, triangular):
        xs = np.linspace(-0.5, 1.5, 101)
        arr = eval_cdf(triangular, xs)
        for x, v in zip(xs, arr):
            assert v == pytest.approx(eval_cdf(triangular, float(x)), abs=1e-15)

    def test_monotone_on_dense_grid(self):
        rng = np.random.default_rng(11)
        xs = np.linspace(0.0, 1.0, 10_001)
        for _ in range(10):
            dist = random_polynomial_cdf(rng)
            vals = eval_cdf(dist, xs)
            assert np.all(np.diff(vals) >= -1e-12)
            assert vals[0] == pytest.approx(dist.atom, abs=1e-15)

    def test_density_examples(self, uniform, triangular):
        assert eval_density(uniform, 0.3) == 1.0
        assert eval_density(triangular, 0.25) == pytest.approx(1.0, abs=1e-15)
        assert eval_density(triangular, 0.75) == pytest.approx(1.0, abs=1e-15)

    def test_density_domain(self, uniform):
        for bad in (0.0, -0.5, 1.0 + 1e-12):
            with pytest.raises(ValueError):
                eval_density(uniform, bad)


class TestPiecewise:
    def test_triangular_segments(self, triangular):
        assert triangular.breakpoints == (0.0, 0.5, 1.0)
        assert triangular.atom == 0.0

    def test_continuity_enforced(self):
        with pytest.raises(NotACdf) as info:
            PiecewisePolynomialCdf((0.0, 0.5, 1.0), ((0.0, 0.0, 2.0), (0.0, 4.0, -3.0)))
        assert any("continu" in v for v in info.value.violations)

    def test_breakpoints_must_span_unit_interval(self):
        with pytest.raises(NotACdf):
            PiecewisePolynomialCdf((0.0, 0.9), ((0.0, 10.0 / 9.0),))

    def test_segment_monotonicity_enforced(self):
        # continuous (0.6 at the break, 1 at the end) but the second
        # segment starts with slope -1
        with pytest.raises(NotACdf):
            PiecewisePolynomialCdf(
                (0.0, 0.5, 1.0),
                ((0.0, 1.2), (2.0, -4.6, 3.6)),
            )


class TestProbBGreaterA:
    def test_uniform_closed_form(self, uniform, svc1):
        # P[B > A] = 1 - E[e^{-B}] = 1 - (1 - e^{-1}) ... for uniform: E[e^{-B}] = 1 - e^{-1}
        assert prob_B_greater_A(uniform, svc1) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_triangular_value(self, triangular, svc1):
        assert prob_B_greater_A(triangular, svc1) == pytest.approx(0.380727513, abs=1e-9)

    def test_atom_halves_it(self, svc1):
        dist = validate([0.5, 0.5])
        assert prob_B_greater_A(dist, svc1) == pytest.approx(0.5 * math.exp(-1.0), rel=1e-13)

    def test_increasing_in_service_rate(self, triangular, uniform):
        # larger mu = shorter service, so preparation wins more often
        for dist in (triangular, uniform):
            probs = [prob_B_greater_A(dist, ExponentialService(mu)) for mu in (0.5, 1.0, 2.0, 4.0)]
            assert all(a < b for a, b in zip(probs, probs[1:]))
            assert all(0.0 < p < 1.0 for p in probs)

    def test_matches_quadrature(self, svc1):
        from scipy.integrate import quad

        rng = np.random.default_rng(3)
        for _ in range(5):
            dist = random_polynomial_cdf(rng)
            # P[B > A] = int_0^1 (1 - e^{-mu b}) dF(b), atom contributes 0
            val, _ = quad(lambda b: math.exp(-b) * eval_density(dist, b), 1e-12, 1.0, limit=200)
            want = 1.0 - dist.atom * 1.0 - val  # E[e^{-B}] = atom + integral
            assert prob_B_greater_A(dist, svc1) == pytest.approx(want, abs=1e-9)

    def test_one_segment_piecewise_law_agrees_exactly(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            dist = random_polynomial_cdf(rng)
            piece = PiecewisePolynomialCdf((0.0, 1.0), (dist.coeffs,))
            for mu in (0.01, 1.0, 17.0, 300.0):
                svc = ExponentialService(mu)
                assert prob_B_greater_A(dist, svc) == prob_B_greater_A(piece, svc)

    @pytest.mark.parametrize("degree", [70, 100])
    def test_high_degree_matches_gammainc(self, degree):
        # F = x^n: E[e^{-mu B}] = n * gamma(n, mu) / mu^n, past the 64-order
        # cap of the public moment entry point
        dist = validate([0.0] * degree + [1.0])
        for mu in (0.3, 1.0, 17.0, 300.0):
            with mpmath.workdps(40):
                m = mpmath.mpf(mu)
                want = degree * mpmath.gammainc(degree, 0, m) / m**degree
            assert _laplace(dist, mu) == pytest.approx(float(want), rel=1e-13)
            assert prob_B_greater_A(dist, ExponentialService(mu)) == pytest.approx(
                float(1 - want), rel=1e-13
            )


class TestPlainCallables:
    """Only the fitter and sup_distance (test_bernstein) take a plain callable."""

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda f, svc: prob_B_greater_A(f, svc), id="prob_B_greater_A"),
            pytest.param(lambda f, svc: inverse_cdf(f, 0.5), id="inverse_cdf"),
            pytest.param(
                lambda f, svc: inverse_cdf_array(f, np.array([0.25, 0.75])),
                id="inverse_cdf_array",
            ),
            pytest.param(lambda f, svc: simulate(f, svc, 10**4), id="simulate"),
            pytest.param(lambda f, svc: FixedPointProblem(f, svc), id="FixedPointProblem"),
            pytest.param(lambda f, svc: solve(f, svc), id="solve"),
        ],
    )
    def test_guarded_entry_points_raise_input_error(self, call, svc1):
        with pytest.raises(InputError, match="needs a PolynomialCdf"):
            call(lambda x: x, svc1)

    def test_solve_takes_only_polynomial_cdfs(self, triangular, svc1):
        with pytest.raises(InputError, match="got PiecewisePolynomialCdf"):
            solve(triangular, svc1)


class TestSampling:
    def test_uniform_inverse_is_identity(self, uniform):
        assert inverse_cdf(uniform, 0.42) == pytest.approx(0.42, abs=1e-12)

    def test_atom_maps_to_zero(self):
        dist = validate([0.3, 0.7])
        assert inverse_cdf(dist, 0.3) == 0.0
        assert inverse_cdf(dist, 0.299) == 0.0

    def test_unit_deviate_maps_to_one(self, triangular):
        # in floating point F(x) rounds to 1 already about 7e-9 below x = 1
        assert inverse_cdf(triangular, 1.0) == 1.0

    def test_triangular_median(self, triangular):
        assert inverse_cdf(triangular, 0.5) == pytest.approx(0.5, abs=1e-9)

    def test_array_matches_scalar(self, triangular):
        # both paths against the closed-form triangular inverse (the scalar
        # one runs through the array one, so comparing them checks nothing)
        u = np.linspace(0.01, 0.99, 23)
        arr = inverse_cdf_array(triangular, u)
        for ui, xi in zip(u, arr):
            exact = math.sqrt(ui / 2.0) if ui <= 0.5 else 1.0 - math.sqrt((1.0 - ui) / 2.0)
            assert xi == pytest.approx(exact, abs=1e-12)
            assert inverse_cdf(triangular, float(ui)) == pytest.approx(exact, abs=1e-12)

    def test_matches_mpmath_inverse(self, triangular):
        # Bernstein fits of orders 1-20 (monomial coefficients up to 4e4 at
        # order 20, where plain Horner loses 5e-12), the triangular law, a
        # cubic whose density vanishes at 1/2 and a law with an atom
        laws = [bernstein_fit(triangular, n) for n in range(1, 21)]
        laws += [triangular, validate([0.0, 3.0, -6.0, 4.0]), validate([0.25, 0.0, 0.75])]
        rng = np.random.default_rng(17)
        for dist in laws:
            atom = dist.atom
            u = np.concatenate(
                [
                    rng.random(12),
                    np.linspace(0.0, 1.0, 9),
                    [0.5 + 1e-10, 0.5 - 1e-10, 1.0 - 1e-15],
                    [atom, atom + 1e-12, max(atom - 1e-12, 0.0)],
                ]
            )
            x = inverse_cdf_array(dist, u)
            with mpmath.workdps(40):
                law = _mp_pieces(dist)
                for ui, xi in zip(u.tolist(), x.tolist()):
                    if ui <= atom or ui >= 1.0:
                        assert xi == (1.0 if ui >= 1.0 else 0.0)
                        continue
                    assert abs(_mp_eval(law, mpmath.mpf(xi)) - ui) <= 1e-14
                    root, slope = _mp_inverse(law, ui)
                    if slope > 1e-6:
                        assert abs(xi - root) <= 2e-13

    def test_sample_is_in_support(self, triangular):
        rng = np.random.default_rng(5)
        draws = [sample(triangular, rng) for _ in range(100)]
        assert all(0.0 <= w <= 1.0 for w in draws)

    def test_empirical_cdf_matches(self):
        rng = np.random.default_rng(2026)
        dist = validate([0.2, 0.3, 0.5])
        draws = inverse_cdf_array(dist, rng.random(10**6))
        xs = np.linspace(0.0, 1.0, 41)
        empirical = np.searchsorted(np.sort(draws), xs, side="right") / draws.size
        exact = eval_cdf(dist, xs)
        assert float(np.max(np.abs(empirical - exact))) < 0.005


def _mp_pieces(dist):
    """(breakpoints, per-piece [F, f] coefficients, highest power first) in mpmath."""
    if isinstance(dist, PolynomialCdf):
        breaks, polys = (0.0, 1.0), (dist.coeffs,)
    else:
        breaks, polys = dist.breakpoints, dist.polys
    pieces = []
    for poly in polys:
        coeffs = [mpmath.mpf(c) for c in poly]
        slope = [i * c for i, c in enumerate(coeffs)][1:]
        pieces.append((coeffs[::-1], slope[::-1]))
    return breaks, pieces


def _mp_eval(law, x, derivative=0):
    """F(x), or its derivative, from :func:`_mp_pieces` at the working precision."""
    breaks, pieces = law
    piece = min(max(bisect_right(breaks, float(x)) - 1, 0), len(pieces) - 1)
    return mpmath.polyval(pieces[piece][derivative], x)


def _mp_inverse(law, u):
    """Root of F(x) = u by 60 bisections at 40 digits, and F's slope there."""
    lo, hi = mpmath.mpf(0), mpmath.mpf(1)
    for _ in range(60):
        mid = (lo + hi) / 2
        if _mp_eval(law, mid) >= u:
            hi = mid
        else:
            lo = mid
    root = (lo + hi) / 2
    return float(root), float(_mp_eval(law, root, derivative=1))


class TestParseSpec:
    def test_named_shorthands(self):
        assert isinstance(parse_distribution_spec("uniform"), PolynomialCdf)
        assert isinstance(parse_distribution_spec("triangular"), PiecewisePolynomialCdf)

    def test_polynomial_json(self):
        dist = parse_distribution_spec('{"type":"polynomial","coeffs":[0.25,0.75]}')
        assert dist.atom == 0.25

    def test_piecewise_json(self, triangular):
        spec = json.dumps(
            {"type": "piecewise", "breaks": [0, 0.5, 1], "polys": [[0, 0, 2], [-1, 4, -2]]}
        )
        dist = parse_distribution_spec(spec)
        xs = np.linspace(0, 1, 17)
        np.testing.assert_allclose(eval_cdf(dist, xs), eval_cdf(triangular, xs), atol=1e-15)

    def test_bad_json_is_not_a_cdf(self):
        with pytest.raises(NotACdf):
            parse_distribution_spec("{broken")

    def test_unknown_type_rejected(self):
        with pytest.raises(NotACdf):
            parse_distribution_spec('{"type":"gaussian"}')

    def test_invalid_coeffs_rejected(self):
        with pytest.raises(NotACdf):
            parse_distribution_spec('{"type":"polynomial","coeffs":[0.5,0.7]}')


def test_service_requires_positive_rate():
    with pytest.raises(ValueError):
        ExponentialService(0.0)
    with pytest.raises(ValueError):
        ExponentialService(-1.0)
    with pytest.raises(ValueError):
        ExponentialService(math.nan)
