"""Fixed-point and Monte Carlo oracles: kernel, contraction, simulation, KS.

Frozen values asserted here were computed at higher precision or by
independent means: the kernel column H(u) = E[F_B(u + A)] is compared
against adaptive quadrature of its defining integral; H(0) for the uniform
law is 1 - 1/e in closed form; the fixed-point atoms are cross-checked
against the exact solver elsewhere (the acceptance suite), so this module
freezes them only for regression.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from lindley_alt import oracle
from lindley_alt.bernstein import bernstein_fit
from lindley_alt.distributions import (
    ExponentialService,
    PiecewisePolynomialCdf,
    eval_cdf,
    inverse_cdf_array,
    prob_B_greater_A,
    triangular_cdf,
    uniform_cdf,
    validate,
)
from lindley_alt.errors import InputError, NonConvergence
from lindley_alt.oracle import (
    FixedPointProblem,
    GridCdf,
    _fast_len,
    apply_map,
    density_estimate,
    fixed_point_solve,
    ks_distance,
    precompute_kernel,
    simulate,
    stieltjes_weights,
)
from lindley_alt.solver import eval_waiting_cdf, eval_waiting_density, solve


class TestKernel:
    def test_value_at_one_is_exactly_one(self, svc1, uniform, triangular):
        for dist in (uniform, triangular):
            kernel = precompute_kernel(dist, svc1, 256)
            assert kernel[-1] == 1.0

    def test_uniform_value_at_zero_closed_form(self, svc1, uniform):
        # H(0) = E[F_B(A)] = integral_0^1 a e^-a da + e^-1 = 1 - 1/e
        kernel = precompute_kernel(uniform, svc1, 256)
        assert kernel[0] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-14)

    @pytest.mark.parametrize("name", ["uniform", "triangular"])
    def test_against_quadrature(self, name, svc1, uniform, triangular):
        dist = uniform if name == "uniform" else triangular
        kernel = precompute_kernel(dist, svc1, 256)
        for u in (0.0, 0.125, 0.5, 0.875):
            expected, _ = quad(
                lambda a: eval_cdf(dist, u + a) * math.exp(-a), 0.0, 1.0 - u, limit=200
            )
            expected += math.exp(-(1.0 - u))
            assert kernel[int(u * 256)] == pytest.approx(expected, abs=1e-9)

    def test_monotone_in_u(self, svc1, triangular):
        kernel = precompute_kernel(triangular, svc1, 512)
        assert np.all(np.diff(kernel) >= -1e-15)


class TestFixedPoint:
    def test_first_iterate_is_the_kernel(self, svc1, uniform):
        # starting from F = 1 (W identically 0), the Stieltjes weights are a
        # point mass at 0, so one map application returns H itself
        kernel = precompute_kernel(uniform, svc1, 1024)
        first = apply_map(kernel, np.ones(1025))
        assert np.max(np.abs(first - np.minimum(kernel, 1.0))) <= 1e-14

    def test_map_matches_scipy_fftconvolve(self, svc1, triangular):
        from scipy.fft import next_fast_len
        from scipy.signal import fftconvolve

        rng = np.random.default_rng(5)
        for power in range(1, 17):
            g = 2**power
            assert _fast_len(3 * g + 1) == next_fast_len(3 * g + 1, real=True)
            kernel = precompute_kernel(triangular, svc1, g)
            values = np.cumsum(rng.random(g + 1))
            values /= values[-1]
            w = stieltjes_weights(values)
            full = fftconvolve(w[::-1], np.concatenate([kernel, np.ones(g)]))[g : 2 * g + 1]
            expected = np.minimum(np.maximum.accumulate(np.maximum(full, 0.0)), 1.0)
            assert np.max(np.abs(apply_map(kernel, values) - expected)) <= 1e-13, g

    def test_uniform_fixed_point_frozen(self, svc1, uniform):
        grid, iterations = fixed_point_solve(FixedPointProblem(uniform, svc1))
        assert grid.atom == pytest.approx(0.6875600078168812, abs=1e-11)
        assert iterations == 16

    def test_triangular_fixed_point_frozen(self, svc1, triangular):
        grid, iterations = fixed_point_solve(FixedPointProblem(triangular, svc1))
        assert grid.atom == pytest.approx(0.6778271715720522, abs=1e-11)
        assert iterations == 16

    def test_grid_refinement_consistency(self, svc1, uniform):
        coarse, _ = fixed_point_solve(FixedPointProblem(uniform, svc1, grid_size=2**13))
        fine, _ = fixed_point_solve(FixedPointProblem(uniform, svc1, grid_size=2**14))
        assert np.max(np.abs(coarse.values - fine.values[::2])) <= 1e-8

    def test_map_contracts_at_the_guaranteed_rate(self, svc1, uniform):
        rng = np.random.default_rng(5)
        kernel = precompute_kernel(uniform, svc1, 256)
        rate = prob_B_greater_A(uniform, svc1)

        def random_grid_cdf():
            v = np.maximum.accumulate(np.sort(rng.random(257)))
            return v / v[-1]

        for _ in range(4):
            one, two = random_grid_cdf(), random_grid_cdf()
            before = float(np.max(np.abs(one - two)))
            after = float(np.max(np.abs(apply_map(kernel, one) - apply_map(kernel, two))))
            assert after <= rate * before + 1e-6

    def test_nonconvergence_below_roundoff_floor(self, svc1, uniform):
        # FFT roundoff keeps the sup change near 1e-16, so a 1e-30 target
        # must exhaust the a-priori iteration cap and raise
        with pytest.raises(NonConvergence):
            fixed_point_solve(
                FixedPointProblem(uniform, svc1, grid_size=256, tolerance=1e-30)
            )

    def test_contraction_rounding_to_one_still_converges(self):
        # x^20 at mu = 100: P[B > A] rounds to 1, E[e^{-mu B}] is 2.4e-22
        x20 = validate([0.0] * 20 + [1.0])
        svc = ExponentialService(100.0)
        assert prob_B_greater_A(x20, svc) == 1.0
        grid, iterations = fixed_point_solve(FixedPointProblem(x20, svc, grid_size=256))
        assert iterations > 1000
        assert np.max(np.abs(eval_waiting_cdf(solve(x20, svc), grid.x) - grid.values)) < 2e-4

    def test_underflowing_laplace_transform_is_input_error(self):
        # no mass below 0.9: E[e^{-mu B}] < e^{-900} underflows at mu = 1000
        late = PiecewisePolynomialCdf((0.0, 0.9, 1.0), ((0.0,), (-9.0, 10.0)))
        with pytest.raises(InputError, match="mu = 1000"):
            fixed_point_solve(FixedPointProblem(late, ExponentialService(1000.0), grid_size=256))

    @pytest.mark.parametrize("mu", [0.3, 1.0, 4.0, 17.0])
    def test_solve_matches_per_iteration_map_bitwise(self, triangular, mu):
        # the solve transforms the kernel once; the public map, once per call
        svc = ExponentialService(mu)
        problem = FixedPointProblem(triangular, svc)
        grid, iterations = fixed_point_solve(problem)
        kernel = precompute_kernel(triangular, svc, problem.grid_size)
        values = np.ones(problem.grid_size + 1)
        for _ in range(iterations):
            values = apply_map(kernel, values)
        assert np.array_equal(grid.values, values)

    def test_problem_validation(self, svc1, uniform):
        with pytest.raises(ValueError):
            FixedPointProblem(uniform, svc1, grid_size=1000)  # not a power of two
        with pytest.raises(ValueError):
            FixedPointProblem(uniform, svc1, tolerance=1.5)


class TestGridCdf:
    def test_shape_enforced(self):
        with pytest.raises(ValueError):
            GridCdf(4, np.linspace(0.0, 1.0, 4))  # needs 5 entries

    def test_monotonicity_enforced(self):
        with pytest.raises(ValueError):
            GridCdf(4, np.array([0.0, 0.5, 0.4, 0.9, 1.0]))

    def test_endpoint_enforced(self):
        with pytest.raises(ValueError):
            GridCdf(4, np.array([0.0, 0.2, 0.4, 0.6, 0.8]))

    def test_interpolation_and_atom(self):
        grid = GridCdf(4, np.array([0.5, 0.6, 0.7, 0.8, 1.0]))
        assert grid.atom == 0.5
        assert grid.cdf(0.125) == pytest.approx(0.55)
        assert grid.cdf(-1.0) == 0.0
        assert grid.cdf(2.0) == 1.0

    def test_stieltjes_weights_sum_to_total_mass(self):
        values = np.maximum.accumulate(np.random.default_rng(3).random(65))
        values /= values[-1]
        assert math.fsum(stieltjes_weights(values)) == pytest.approx(1.0, abs=1e-12)


def _density_estimate_loop(grid):
    """Per-point reference: differences, then a centered mean of up to 5."""
    v, h = grid.values, 1.0 / grid.grid_size
    raw = np.empty_like(v)
    raw[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    raw[0] = (v[1] - v[0]) / h
    raw[-1] = (v[-1] - v[-2]) / h
    n = raw.size
    smooth = np.empty_like(raw)
    for i in range(n):
        radius = min(2, i, n - 1 - i)
        smooth[i] = float(np.mean(raw[i - radius : i + radius + 1]))
    return smooth


class TestDensityEstimate:
    def test_matches_per_point_loop_bitwise(self, triangular):
        rng = np.random.default_rng(9)
        grids = []
        for power in (1, 2, 3, 5, 14):
            values = np.cumsum(rng.random(2**power + 1))
            grids.append(GridCdf(2**power, values / values[-1]))
            # spans twelve decades, so summation order shows in the last bit
            grids.append(GridCdf(2**power, np.geomspace(1e-12, 1.0, 2**power + 1)))
        for mu in (0.3, 1.0, 3.0, 17.0):
            problem = FixedPointProblem(triangular, ExponentialService(mu), grid_size=2**10)
            grids.append(fixed_point_solve(problem)[0])
        for grid in grids:
            assert np.array_equal(density_estimate(grid), _density_estimate_loop(grid))

    def test_matches_exact_density_in_the_interior(self, svc1, uniform):
        solution = solve(uniform, svc1)
        grid, _ = fixed_point_solve(FixedPointProblem(uniform, svc1, grid_size=2**12))
        estimated = density_estimate(grid)
        inner = slice(8, -8)
        exact = eval_waiting_density(solution, grid.x[inner])
        assert np.max(np.abs(exact - estimated[inner])) <= 1e-6


class _SolutionCdf:
    """Minimal cdf-callable adapter for ks_distance."""

    def __init__(self, solution):
        self.solution = solution

    def cdf(self, x):
        return eval_waiting_cdf(self.solution, x)


class TestSimulation:
    def test_deterministic_per_seed(self, svc1, uniform):
        one = simulate(uniform, svc1, 2 * 10**4, seed=11)
        two = simulate(uniform, svc1, 2 * 10**4, seed=11)
        assert np.array_equal(one.samples, two.samples)
        assert one.pi0_hat == two.pi0_hat
        other = simulate(uniform, svc1, 2 * 10**4, seed=12)
        assert not np.array_equal(one.samples, other.samples)

    def test_stream_frozen(self, svc1, uniform):
        # recorded from the first child stream of SeedSequence(11) by an
        # independent reference: for the uniform law F^-1(u) = u, so a plain
        # Python loop W <- max(0, u - a - W) over the same Philox draws
        # (21,000 deviates, then 21,000 exponentials) gives the exact path.
        # The sum gets a relative slack for numpy's platform-dependent
        # summation order.
        result = simulate(uniform, svc1, 2 * 10**4, seed=11)
        assert result.samples[0] == 0.0
        assert result.samples[-1] == 0.9743994358364003
        assert float(result.samples.sum()) == pytest.approx(2189.47689200391, rel=1e-13)

    def test_thread_variable_has_no_effect(self, monkeypatch, svc1, uniform):
        monkeypatch.delenv("LINDLEY_ALT_THREADS", raising=False)
        unset = simulate(uniform, svc1, 2 * 10**4, seed=11)
        monkeypatch.setenv("LINDLEY_ALT_THREADS", "8")
        assert np.array_equal(simulate(uniform, svc1, 2 * 10**4, seed=11).samples, unset.samples)

    def test_matches_exact_law(self, svc1, uniform):
        solution = solve(uniform, svc1)
        result = simulate(uniform, svc1, 10**5, seed=11)
        assert abs(result.pi0_hat - solution.pi0) <= 0.01
        assert ks_distance(result.samples, _SolutionCdf(solution)) <= 0.01

    def test_empirical_cdf_at_zero_is_the_atom_share(self, svc1, uniform):
        result = simulate(uniform, svc1, 10**4, seed=2)
        assert result.empirical_cdf(0.0) == result.pi0_hat

    @pytest.mark.parametrize("mu", [1e-3, 0.25, 4.0, 1e3])
    def test_path_matches_plain_loop(self, monkeypatch, triangular, mu):
        # 3,000-step chunks of five 512-step blocks and a 440-step tail, so
        # the 12,000 steps cross block, tail and chunk boundaries
        monkeypatch.setattr(oracle, "_CHUNK", 3000)
        dist = bernstein_fit(triangular, 5)
        svc = ExponentialService(mu)
        result = simulate(dist, svc, 11_000, warmup=1000, seed=5)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(5, spawn_key=(0,))))
        path, wait = [], 0.0
        for _ in range(4):
            prep = inverse_cdf_array(dist, rng.random(size=3000))
            service = rng.exponential(scale=1.0 / mu, size=3000)
            for b, a in zip(prep.tolist(), service.tolist()):
                wait = max(0.0, b - a - wait)
                path.append(wait)
        assert np.array_equal(result.samples, np.sort(path[1000:]))

    def test_scan_runs_unmerged_blocks_from_their_exact_start(self):
        # x = 1 alternates the state between 1 and 0 from any start in
        # [0, 1], so the bounding trajectories of a block never meet
        rng = np.random.default_rng(8)
        x = np.concatenate([np.ones(1500), rng.random(1200) - rng.exponential(0.5, 1200)])
        for start in (0.0, 0.25):
            want = np.empty_like(x)
            got = np.empty_like(x)
            end = oracle._recurse_loop(x, start, want)
            assert oracle._recurse(x, start, got) == end
            assert np.array_equal(got, want)

    def test_too_few_steps_rejected(self, svc1, uniform):
        with pytest.raises(ValueError):
            simulate(uniform, svc1, 10**3)

    def test_negative_warmup_rejected(self, svc1, uniform):
        with pytest.raises(ValueError):
            simulate(uniform, svc1, 10**4, warmup=-5)


class TestKsDistance:
    def test_hand_case_without_atom(self):
        # empirical CDF of [0, 0, 1] vs F(x) = x: gap 2/3 at x = 0
        assert ks_distance(np.array([0.0, 0.0, 1.0]), uniform_cdf().cdf) == pytest.approx(
            2.0 / 3.0
        )

    def test_hand_case_atom_aware(self):
        # reference atom 0.5 at 0; the two exact zeros carry empirical mass
        # 0.5, so the distance is 1/8 (attained at the interior points) —
        # a tie-blind one-sided formula would report the atom mass 0.5
        ref = validate([0.5, 0.5])
        samples = np.array([0.0, 0.0, 0.25, 0.75])
        assert ks_distance(samples, ref) == pytest.approx(0.125)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            ks_distance(np.array([]), uniform_cdf())

    def test_perfect_grid_sample_small_distance(self):
        # quantile-spaced samples of the uniform law keep D at 1/(2n)
        n = 50
        samples = (np.arange(n) + 0.5) / n
        assert ks_distance(samples, uniform_cdf()) == pytest.approx(0.5 / n, abs=1e-12)
