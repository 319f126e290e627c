"""Distribution types: validation, evaluation, sampling, P[B > A]."""

import json
import math
from bisect import bisect_right
from functools import partial

import mpmath
import numpy as np
import pytest

from conftest import gammainc_contraction, random_piecewise_cdf, random_polynomial_cdf
from lindley_alt import distributions
from lindley_alt.bernstein import _SUP_BLOCK, _SUP_XS, bernstein_fit
from lindley_alt.distributions import (
    ExponentialService,
    PiecewisePolynomialCdf,
    PolynomialCdf,
    _eval_sorted,
    _hermite_starts,
    _laplace,
    _piece_sum,
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
from lindley_alt.oracle import FixedPointProblem, GridCdf, simulate
from lindley_alt.solver import eval_waiting_cdf, eval_waiting_density, solve


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

    def test_high_order_fits_match_mpmath(self, triangular):
        # the float law itself, summed at 60 digits: the fits' monomial
        # coefficients reach 5e12 at order 40 and cancel, their Bernstein
        # weights do not
        laws = [bernstein_fit(triangular, n) for n in range(1, 41)]
        laws.append(random_piecewise_cdf(np.random.default_rng(29), pieces=4))
        rng = np.random.default_rng(41)
        for dist in laws:
            breaks = getattr(dist, "breakpoints", (0.0, 1.0))
            xs = np.concatenate(
                [rng.random(200), np.arange(1, 33) / 32, breaks[1:], [2.0**-40, 1.0 - 2.0**-40]]
            )
            cdf, density = eval_cdf(dist, xs), eval_density(dist, xs)
            assert [eval_cdf(dist, x) for x in xs.tolist()] == cdf.tolist()
            assert [eval_density(dist, x) for x in xs.tolist()] == density.tolist()
            with mpmath.workdps(60):
                breaks, pieces = _mp_pieces(dist)
                for x, value, slope in zip(xs.tolist(), cdf.tolist(), density.tolist()):
                    poly = pieces[min(bisect_right(breaks, x), len(pieces)) - 1][0]
                    want, want_slope = mpmath.polyval(poly, mpmath.mpf(x), derivative=True)
                    assert abs(value - want) <= 1e-14, (dist, x)
                    assert abs(slope - want_slope) <= 1e-13, (dist, x)


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

    def test_non_numeric_breaks(self):
        # the law's one number reader refuses these, whether from a spec or a direct call
        with pytest.raises(NotACdf) as info:
            PiecewisePolynomialCdf(("0", "half", 1.0), ((0.0, 2.0), (0.0, 1.0)))
        assert info.value.violations == ["breakpoints and polys must be arrays of numbers"]


TRIANGULAR_POLYS = ((0.0, 0.0, 2.0), (-1.0, 4.0, -2.0))


class TestNumberReader:
    """Both law types read their numbers through one reader and check their
    invariants when built; ``validate`` adds only trimming and the atom snap."""

    @pytest.mark.parametrize(
        "coeffs, text",
        [
            ((0.0, 0.5), "coefficients must sum to 1 (F(1) = 1); got 0.5"),
            ((0.0, -1.0, 2.0), "density dips to"),  # F' = 4x - 1 < 0 on [0, 1/4)
            ((1.0,), "degree must be >= 1 after trailing-coefficient trimming"),
        ],
        ids=["mass-half", "decreasing", "degree-0"],
    )
    def test_polynomial_law_checks_itself(self, coeffs, text):
        with pytest.raises(NotACdf) as direct:
            PolynomialCdf(coeffs)
        with pytest.raises(NotACdf) as validated:
            validate(coeffs)
        assert direct.value.violations == validated.value.violations
        assert direct.value.violations[0].startswith(text)

    def test_string_breakpoint_refused_when_built(self):
        with pytest.raises(NotACdf) as info:
            PiecewisePolynomialCdf(("0", 0.5, 1.0), TRIANGULAR_POLYS)
        assert info.value.violations == ["breakpoints and polys must be arrays of numbers"]

    @pytest.mark.parametrize(
        "coeffs", [True, "01", {"0": 0.0, "1": 1.0}, [False, True], ["0.3", "0.7"], [0, 10**400],
                   np.array([[0.0, 1.0]]), np.array(1.0), [0j, 1 + 0j]],
        ids=["bool", "string", "mapping", "bools", "strings", "int-past-float", "2-d", "0-d", "complex"],
    )
    def test_only_arrays_of_real_numbers_are_read(self, coeffs):
        for build in (PolynomialCdf, validate):
            with pytest.raises(NotACdf) as info:
                build(coeffs)
            assert info.value.violations == ["coefficients must be an array of numbers"]

    def test_float32_numbers_build_the_float_law(self):
        xs = np.linspace(0.0, 1.0, 1025)
        tri = triangular_cdf()
        f32 = partial(np.asarray, dtype=np.float32)
        laws = [
            (PiecewisePolynomialCdf(f32(tri.breakpoints), [f32(p) for p in tri.polys]), tri),
            (PolynomialCdf(f32([0.25, 0.75])), PolynomialCdf((0.25, 0.75))),
            (PolynomialCdf([np.float32(0.25), np.float32(0.75)]), PolynomialCdf((0.25, 0.75))),
        ]
        for law, want in laws:
            assert law == want
            assert eval_cdf(law, xs).tobytes() == eval_cdf(want, xs).tobytes()

    @pytest.mark.parametrize(
        "coeffs, want",
        [
            ([0.3, 0.7], (0.3, 0.7)),
            ((0.3, 0.7), (0.3, 0.7)),
            (np.array([0.3, 0.7]), (0.3, 0.7)),
            ([0, 1], (0.0, 1.0)),
        ],
        ids=["list", "tuple", "ndarray", "ints"],
    )
    def test_validate_keeps_arrays_of_numbers(self, coeffs, want):
        law = validate(coeffs)
        assert law == PolynomialCdf(want) and hash(law) == hash(PolynomialCdf(want))
        assert all(type(c) is float for c in law.coeffs) and type(law.coeffs) is tuple

    def test_laws_hold_tuples_of_floats(self):
        law = PolynomialCdf([0.3, 0.7])
        assert law == PolynomialCdf((0.3, 0.7)) and hash(law) == hash(PolynomialCdf((0.3, 0.7)))
        tri = triangular_cdf()
        mixed = PiecewisePolynomialCdf(np.array([0, 0.5, 1]), [[0, 0, 2], np.array([-1.0, 4.0, -2.0])])
        assert mixed == tri and hash(mixed) == hash(tri)
        assert mixed.breakpoints == (0.0, 0.5, 1.0) and mixed.polys == TRIANGULAR_POLYS
        assert all(type(c) is float for poly in mixed.polys for c in (*poly, *mixed.breakpoints))

    def test_parsed_spec_with_tuples(self):
        spec = {"type": "piecewise", "breaks": (0.0, 0.5, 1.0), "polys": TRIANGULAR_POLYS}
        law = parse_distribution_spec(spec)
        assert law == triangular_cdf() and hash(law) == hash(triangular_cdf())
        spec = {"type": "polynomial", "coeffs": (0.3, 0.7)}
        assert parse_distribution_spec(spec) == PolynomialCdf((0.3, 0.7))


class TestServiceRate:
    """The service rate is read as a law's numbers are and stored as a float."""

    @pytest.mark.parametrize(
        "rate, want",
        [(np.float32(1.0), 1.0), (np.int64(2), 2.0), (np.float64(1.5), 1.5), (3, 3.0), (0.5, 0.5)],
        ids=["float32", "int64", "float64", "int", "float"],
    )
    def test_numbers_are_stored_as_floats(self, rate, want):
        svc = ExponentialService(rate)
        assert type(svc.rate) is float and svc.rate == want
        assert svc == ExponentialService(want) and hash(svc) == hash(ExponentialService(want))

    @pytest.mark.parametrize(
        "rate",
        [True, False, np.True_, "1.0", None, 1j, 0.0, -1.0, math.inf, math.nan, 10**400],
        ids=["true", "false", "numpy-bool", "string", "none", "complex", "zero", "negative",
             "inf", "nan", "int-past-float"],
    )
    def test_anything_else_is_refused(self, rate):
        with pytest.raises(ValueError) as info:
            ExponentialService(rate)
        assert str(info.value) == f"service rate must be a positive finite real, got {rate!r}"


def _mixed_degree_laws():
    """A linear piece beside a quadratic one, and a constant piece between two
    linear ones: pieces whose Taylor tables have different lengths."""
    return [
        PiecewisePolynomialCdf((0.0, 0.5, 1.0), ((0.0, 0.5), (0.5, -1.5, 2.0))),
        PiecewisePolynomialCdf((0.0, 0.25, 0.75, 1.0), ((0.0, 2.0), (0.5,), (-1.0, 2.0))),
    ]


def _sorted_evaluator_laws() -> dict:
    """Laws of 1-4 pieces and fits of orders 1-40, by test id."""
    rng = np.random.default_rng(32)
    tri = triangular_cdf()
    laws = {"triangular": tri, "uniform": uniform_cdf()}
    laws.update(zip(("linear-quadratic", "constant-middle"), _mixed_degree_laws()))
    laws.update((f"pieces{p}-{i}", random_piecewise_cdf(rng, pieces=p))
                for p in (1, 2, 3, 4) for i in range(2))
    other = random_piecewise_cdf(rng, pieces=3)
    for name, law in (("triangular", tri), ("pieces3", other)):
        laws.update((f"fit-{name}-n{n}", bernstein_fit(law, n)) for n in range(1, 41))
    return laws


_EVALUATOR_LAWS = _sorted_evaluator_laws()
over_laws = pytest.mark.parametrize("law", list(_EVALUATOR_LAWS.values()), ids=list(_EVALUATOR_LAWS))


def _point_row(dist, k: int, x: float) -> float:
    """Row k of a law at one point, from the piece holding it (the last one
    at x = 1): :func:`_piece_sum` on a float, 0 past the piece's degree."""
    pieces = dist._taylor
    piece = pieces[min(bisect_right([a for a, _, _ in pieces], x), len(pieces)) - 1]
    if k == 0 and x >= 1.0:
        return 1.0
    return _piece_sum(piece, k, x) if k < len(piece[2]) else 0.0


def _checked_points(dist, xs):
    """Every 37th point, the last, and the points next to each breakpoint."""
    cuts = np.searchsorted(xs, [a for a, _, _ in dist._taylor])
    idx = np.concatenate([np.arange(0, xs.size, 37), [xs.size - 1], cuts - 1, cuts, cuts + 1])
    return np.unique(np.clip(idx, 0, xs.size - 1))


def _inverse_table_reference(dist):
    """The sampler table as first written: each Taylor row filled piece by
    piece through a mask of the grid points the piece holds."""
    starts, _ = dist._pieces
    grid = np.sort(np.concatenate([np.linspace(0.0, 1.0, distributions._SAMPLER_CELLS + 1), starts]))
    grid = grid[np.append(True, grid[1:] != grid[:-1])]
    piece = np.searchsorted(starts, grid, side="right") - 1
    taylor = np.zeros((max(len(rows) for *_, rows in dist._taylor), grid.size))
    for j, (a, b, rows) in enumerate(dist._taylor):
        at = piece == j
        for k in range(len(rows)):
            taylor[k, at] = _piece_sum((a, b, rows), k, grid[at])
    taylor[0, -1] = 1.0
    buckets = distributions._GUIDE_BUCKETS
    guide = np.searchsorted(taylor[0], np.arange(buckets + 1) / buckets)
    return grid, taylor, guide, _hermite_starts(grid, taylor)


class TestSortedEvaluator:
    """One evaluator routes nondecreasing points to a law's pieces, for the
    sup scan's blocks and for every row of the sampler table."""

    @over_laws
    def test_bit_equal_to_each_points_own_sum(self, law):
        blocks = [_SUP_XS[start : start + _SUP_BLOCK] for start in range(0, _SUP_XS.size, _SUP_BLOCK)]
        grid = law._sampler_table[0]
        rows = max(len(rows) for *_, rows in law._taylor)
        for xs, ks in [*((block, (0, 1)) for block in blocks), (grid, range(rows + 1))]:
            idx = _checked_points(law, xs)
            for k in ks:
                got = _eval_sorted(law, k, xs, np.full(xs.size, np.nan))
                want = [_point_row(law, k, x) for x in xs[idx].tolist()]
                assert got[idx].tobytes() == np.array(want).tobytes()

    @over_laws
    def test_sampler_table_is_unchanged(self, law):
        for got, want in zip(law._sampler_table, _inverse_table_reference(law)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_low_rows_build_no_taylor_table(self, triangular):
        fit = bernstein_fit(triangular, 9)
        _eval_sorted(fit, 1, _SUP_XS, np.empty(_SUP_XS.size))
        assert "_taylor" not in vars(fit)


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


    @pytest.mark.parametrize("order, rel", [(16, 1e-6), (24, 1e-6), (32, 1e-6), (40, 1e-3)])
    def test_high_order_fits_match_gammainc(self, order, rel):
        # the fits' monomial coefficients cancel (|c_k| reaches 5e12 at order 40)
        fit = bernstein_fit(triangular_cdf(), order)
        for mu in (1e-3, 3e-3, 0.1, 1.0, 4.0, 30.0, 1e3):
            want = gammainc_contraction(fit.coeffs, mu)
            assert prob_B_greater_A(fit, ExponentialService(mu)) == pytest.approx(want, rel=rel)


@pytest.fixture(scope="module")
def evaluators():
    """Every pointwise evaluator and method of a law, a solution, a
    fixed-point CDF and a Monte Carlo sample."""
    tri = triangular_cdf()
    svc = ExponentialService(1.0)
    sol = solve(bernstein_fit(tri, 5), svc)
    grid = GridCdf(4, np.array([0.5, 0.6, 0.7, 0.8, 1.0]))
    sim = simulate(tri, svc, 10**4, seed=3)
    return {
        "eval_cdf": partial(eval_cdf, tri),
        "eval_density": partial(eval_density, tri),
        "eval_waiting_cdf": partial(eval_waiting_cdf, sol),
        "eval_waiting_density": partial(eval_waiting_density, sol),
        "law.cdf": tri.cdf,
        "law.density": tri.density,
        "solution.cdf": sol.cdf,
        "solution.density": sol.density,
        "uniform.density": uniform_cdf().density,
        "GridCdf.cdf": grid.cdf,
        "SimulationResult.empirical_cdf": sim.empirical_cdf,
    }


class TestShapeRule:
    """Every evaluator and method gives a float array of the shape of an
    ndarray (0-d too), a list or a tuple, and a float for a Python or numpy
    scalar, bit-equal to the array's entry."""

    @pytest.mark.parametrize(
        "name",
        ["eval_cdf", "eval_density", "eval_waiting_cdf", "eval_waiting_density",
         "law.cdf", "law.density", "solution.cdf", "solution.density",
         "GridCdf.cdf", "SimulationResult.empirical_cdf"],
    )
    def test_one_shape_rule(self, evaluators, name):
        f = evaluators[name]
        points = [[0.2, 0.5], [0.9, 1.0]]
        want = f(np.array(points))
        assert isinstance(want, np.ndarray) and want.shape == (2, 2)
        flat = [0.2, 0.5, 0.9, 1.0]
        for same in (points, tuple(map(tuple, points)), flat, tuple(flat)):
            got = f(same)
            assert isinstance(got, np.ndarray) and got.dtype == np.float64
            assert got.shape == np.shape(same)
            assert got.tolist() == np.reshape(want, got.shape).tolist()
        zero_d = f(np.array(0.5))
        assert isinstance(zero_d, np.ndarray) and zero_d.shape == ()
        for x, value in zip(flat, want.reshape(-1).tolist()):
            for scalar in (x, np.float64(x)):
                got = f(scalar)
                assert type(got) is float and got == value
        assert type(f(1)) is float and f(1) == f(np.int64(1)) == want[1, 1]


class TestDomainRules:
    """Each rule about the points an evaluator accepts has one home: a
    density takes points of (0, 1], the sampler deviates of [0, 1]; NaN
    lies in neither. A CDF takes every real and gives NaN at NaN."""

    DENSITY_MESSAGE = "a density is defined on (0, 1] only; the mass at 0 is the atom"

    @pytest.mark.parametrize(
        "name",
        ["eval_density", "eval_waiting_density", "law.density", "solution.density",
         "uniform.density"],
    )
    @pytest.mark.parametrize("bad", [math.nan, -0.5, 1.5, 0.0])
    def test_densities_refuse_points_outside_zero_one(self, evaluators, name, bad):
        # the uniform law's density row is a constant, so without the check
        # eval_density(uniform, [0.5, nan]) would read [1.0, 1.0]
        f = evaluators[name]
        for x in (bad, np.float64(bad), np.array(bad), [0.5, bad], np.array([[0.5], [bad]])):
            with pytest.raises(ValueError) as info:
                f(x)
            assert str(info.value) == self.DENSITY_MESSAGE

    def test_every_cdf_is_nan_at_nan(self, evaluators):
        # np.searchsorted sorts NaN past every sample, which would read 1.0
        for name in ("eval_cdf", "eval_waiting_cdf", "law.cdf", "solution.cdf", "GridCdf.cdf",
                     "SimulationResult.empirical_cdf"):
            f = evaluators[name]
            assert math.isnan(f(math.nan)), name
            got = f([0.5, math.nan])
            assert got[0] == f(0.5) and math.isnan(got[1]), name

    @pytest.mark.parametrize("bad", [math.nan, -0.5, 1.5, -math.inf, math.inf])
    def test_deviates_outside_the_unit_interval_are_refused(self, triangular, bad):
        # the sampler's masks alone would map NaN and -0.5 to 0.0, 1.5 to 1.0
        for call in (
            lambda: inverse_cdf_array(triangular, np.array([0.5, bad])),
            lambda: inverse_cdf_array(triangular, [[bad]]),
            lambda: inverse_cdf(triangular, bad),
        ):
            with pytest.raises(ValueError, match=r"^deviates must lie in \[0, 1\]$"):
                call()
        # the ends of the interval and the atom keep their values
        law = validate([0.3, 0.7])
        got = inverse_cdf_array(law, np.array([0.0, 0.3, 1.0]))
        assert got.tolist() == [0.0, 0.0, 1.0]
        assert [inverse_cdf(law, u) for u in (0.0, 0.3, 1.0)] == [0.0, 0.0, 1.0]
        assert inverse_cdf_array(law, np.empty((0, 2))).shape == (0, 2)


class TestPlainCallables:
    """Only the fitter, sup_distance (test_bernstein) and ks_distance
    (test_oracle) read a plain callable."""

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
        # Bernstein fits of orders 1-40 (monomial coefficients up to 4e4 at
        # order 20 and 5e12 at order 40, where plain Horner loses 5e-12 and
        # 6e-4), the triangular law, a cubic whose density vanishes at 1/2
        # and a law with an atom
        laws = [bernstein_fit(triangular, n) for n in range(1, 41)]
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
                    root, slope = _mp_inverse(law, ui, xi)
                    if slope > 1e-6:
                        assert abs(xi - root) <= 2e-13

    def test_scalar_calls_build_one_table_per_law(self, monkeypatch, triangular):
        builds = []
        build = distributions._inverse_table
        monkeypatch.setattr(
            distributions, "_inverse_table", lambda dist: builds.append(dist) or build(dist)
        )
        law = bernstein_fit(triangular, 5)
        u = np.linspace(0.01, 0.99, 23)
        scalar = [inverse_cdf(law, float(ui)) for ui in u]
        rng = np.random.default_rng(5)
        draws = [sample(law, rng) for _ in range(10)]
        assert len(builds) == 1
        # an equal law builds its own table and draws the same values
        fresh = bernstein_fit(triangular, 5)
        assert np.array_equal(inverse_cdf_array(fresh, u), scalar)
        rng = np.random.default_rng(5)
        assert [sample(fresh, rng) for _ in range(10)] == draws
        assert len(builds) == 2

    @pytest.mark.parametrize("block", [7, 1000, 1 << 16])
    def test_block_size_does_not_change_draws(self, monkeypatch, triangular, block):
        law = bernstein_fit(triangular, 12)
        u = np.random.default_rng(9).random(5000)
        want = inverse_cdf_array(law, u)
        monkeypatch.setattr(distributions, "_SAMPLER_BLOCK", block)
        assert np.array_equal(inverse_cdf_array(law, u), want)

    @pytest.mark.parametrize("name", ["triangular", "N3"])
    def test_one_newton_pass_finishes_a_draw(self, monkeypatch, triangular, name):
        # Newton starts from the Hermite interpolant of the inverse CDF, so a
        # second pass moves no draw. N3 is CI's three-piece law, whose middle
        # piece is 0.07 wide.
        law = triangular
        if name == "N3":
            law = random_piecewise_cdf(np.random.default_rng(31), pieces=3)
        law = bernstein_fit(law, 5)
        u = np.random.default_rng(23).random(10**4)
        want = inverse_cdf_array(law, u)
        monkeypatch.setattr(distributions, "_NEWTON_ITERS", 1)
        assert np.array_equal(inverse_cdf_array(law, u), want)

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


def _mp_inverse(law, u, guess):
    """Root of F(x) = u by bisection at the working precision to a width
    below 1e-18, and F's slope there. The bisection starts from
    [guess - 1e-12, guess + 1e-12] when F brackets u there, else from [0, 1]."""
    lo, hi = (mpmath.mpf(min(max(guess + d, 0.0), 1.0)) for d in (-1e-12, 1e-12))
    if not _mp_eval(law, lo) < u <= _mp_eval(law, hi):
        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
    while hi - lo > 1e-18:
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

    @pytest.mark.parametrize("name", ["uniform", "triangular"])
    def test_both_spellings_name_one_law(self, name):
        law = parse_distribution_spec(f" {name.title()} ")
        assert law == parse_distribution_spec({"type": name})
        assert law == parse_distribution_spec(json.dumps({"type": name.upper()}))

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
