"""Fixed-point and Monte Carlo oracles: kernel, contraction, simulation, KS.

Frozen values asserted here were computed at higher precision or by
independent means: the kernel column H(u) = E[F_B(u + A)] is compared
against adaptive quadrature of its defining integral; H(0) for the uniform
law is 1 - 1/e in closed form; the fixed-point atoms are cross-checked
against the exact solver elsewhere (the acceptance suite), so this module
freezes them only for regression.
"""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import random_piecewise_cdf
from lindley_alt import oracle
from lindley_alt.bernstein import bernstein_fit
from lindley_alt.distributions import (
    ExponentialService,
    PiecewisePolynomialCdf,
    _laplace,
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

    @pytest.mark.parametrize("mu", [1e-3, 0.3, 1.0, 17.0, 1e3])
    def test_value_at_zero_is_the_laplace_transform_bitwise(self, mu, uniform, triangular):
        # L = E[e^{-mu B}] is H(0) of the one closed form, whatever the grid
        svc = ExponentialService(mu)
        laws = (
            triangular,
            uniform,
            random_piecewise_cdf(np.random.default_rng(4), pieces=3),
            bernstein_fit(triangular, 12),
        )
        for dist in laws:
            for g in (2, 2**10, 2**14):
                assert _laplace(dist, mu) == precompute_kernel(dist, svc, g)[0]


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
            for size in (2 * g + 1, 3 * g + 1):
                assert _fast_len(size) == next_fast_len(size, real=True)
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

    @pytest.mark.parametrize("mu", [0.3, 4.0])
    def test_solve_matches_allocating_loop_bitwise(self, triangular, mu):
        # the solve iterates in buffers allocated once; the reference loop
        # builds every array afresh, with the same stopping rule
        svc = ExponentialService(mu)
        problem = FixedPointProblem(triangular, svc, grid_size=2**10)
        grid, iterations = fixed_point_solve(problem)
        kernel = precompute_kernel(triangular, svc, problem.grid_size)
        values = np.ones(problem.grid_size + 1)
        for count in range(1, 1000):
            updated = _allocating_map(kernel, values)
            change = float(np.max(np.abs(updated - values)))
            values = updated
            if change < problem.tolerance:
                break
        assert count == iterations
        assert np.array_equal(grid.values, values)
        assert np.array_equal(apply_map(kernel, values), _allocating_map(kernel, values))

    def test_problem_validation(self, svc1, uniform):
        with pytest.raises(ValueError):
            FixedPointProblem(uniform, svc1, grid_size=1000)  # not a power of two
        with pytest.raises(ValueError):
            FixedPointProblem(uniform, svc1, tolerance=1.5)


def _allocating_map(kernel, values):
    """The contraction map as a chain of fresh arrays, weights included."""
    g = values.size - 1
    n = _fast_len(2 * g + 1)
    delta = np.diff(values)
    w = np.empty_like(values)
    w[0] = values[0] + delta[0] / 2.0
    w[1:-1] = (delta[:-1] + delta[1:]) / 2.0
    w[-1] = delta[-1] / 2.0
    spectrum = np.fft.rfft(np.concatenate([kernel, np.ones(g)]), n)
    out = np.fft.irfft(np.fft.rfft(w[::-1], n) * spectrum, n)[g : 2 * g + 1]
    return np.minimum(np.maximum.accumulate(np.maximum(out, 0.0)), 1.0)


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

    def test_stream_matches_one_shot_reference(self, triangular):
        # each 2^20-step chunk drawn whole, all its uniforms then all its
        # exponentials, as the stream is laid out; 2^20 + 70,000 steps make
        # a full chunk and a partial one
        dist, svc = bernstein_fit(triangular, 5), ExponentialService(4.0)
        n, warmup = (1 << 20) + 69_000, 1000
        result = simulate(dist, svc, n, warmup=warmup, seed=3)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(3, spawn_key=(0,))))
        path, wait = np.empty(warmup + n), 0.0
        for start in range(0, path.size, 1 << 20):
            size = min(1 << 20, path.size - start)
            x = inverse_cdf_array(dist, rng.random(size=size))
            x -= rng.exponential(scale=1.0 / svc.rate, size=size)
            wait = oracle._recurse(x, wait, path[start : start + size])
        assert np.array_equal(result.samples, np.sort(path[warmup:]))

    @pytest.mark.parametrize("mu", [1e-3, 0.25, 4.0, 1e3])
    def test_path_matches_plain_loop(self, monkeypatch, triangular, mu):
        # 3,000-step chunks of two 1,400-step work buffers and a 200-step
        # one; a full buffer scans ten 128-step blocks and a 120-step tail,
        # so the 12,000 steps cross block, tail, buffer and chunk
        # boundaries, and each buffer is drawn in 700-step passes
        monkeypatch.setattr(oracle, "_CHUNK", 3000)
        monkeypatch.setattr(oracle, "_WORK", 1400)
        monkeypatch.setattr(oracle, "_DRAW_BLOCK", 700)
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

    @pytest.mark.parametrize("law", ["uniform", "order-5 fit"])
    @pytest.mark.parametrize("mu", [1e-3, 4.0, 1e3])
    @pytest.mark.parametrize("warmup", [0, 1000])
    @pytest.mark.parametrize("n", [2 * 10**4, 10**6, (1 << 20) + 70_000])
    def test_samples_match_the_path_simulation(self, triangular, law, mu, warmup, n):
        # the sizes end inside the first work buffer, inside the first chunk
        # and inside the second chunk, each off the scan blocks' edges
        dist = uniform_cdf() if law == "uniform" else bernstein_fit(triangular, 5)
        svc = ExponentialService(mu)
        result = simulate(dist, svc, n, warmup=warmup, seed=7)
        samples, pi0_hat = _path_simulate(dist, svc, n, warmup, seed=7)
        assert np.array_equal(result.samples, samples)
        assert result.pi0_hat == pi0_hat

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

    @pytest.mark.parametrize("block", [100, 1 << 13])
    def test_matches_unique_formula(self, monkeypatch, block):
        # unsorted, with ties and an atom at 0; 17k distinct values cross
        # blocks of either size
        monkeypatch.setattr(oracle, "_KS_BLOCK", block)
        rng = np.random.default_rng(21)
        samples = np.round(rng.random(40_000), 5)
        samples[rng.random(samples.size) < 0.3] = 0.0
        ref = validate([0.3, 0.7])
        want = _ks_unique(samples, ref.cdf)
        assert ks_distance(samples, ref) == want
        assert ks_distance(np.sort(samples), ref) == want

    @pytest.mark.parametrize("block", [7, 100])
    def test_tie_runs_spanning_blocks(self, monkeypatch, block):
        # runs of 250 and 301 equal values inside the sample and 120 at its
        # end each span two or more blocks, so a run's start is carried
        # across block edges
        monkeypatch.setattr(oracle, "_KS_BLOCK", block)
        rng = np.random.default_rng(4)
        samples = np.sort(
            np.concatenate(
                [np.zeros(250), np.full(301, 0.375), rng.random(700) * 0.9, np.ones(120)]
            )
        )
        ref = validate([0.2, 0.8])
        assert ks_distance(samples, ref) == _ks_unique(samples, ref.cdf)

    def test_perfect_grid_sample_small_distance(self):
        # quantile-spaced samples of the uniform law keep D at 1/(2n)
        n = 50
        samples = (np.arange(n) + 0.5) / n
        assert ks_distance(samples, uniform_cdf()) == pytest.approx(0.5 / n, abs=1e-12)


def _path_simulate(dist, svc, n, warmup, seed):
    """The path-based simulation that :func:`simulate` replaced: a float64
    path of warmup + n states, each chunk drawn into it in place and run
    through the recursion there, then the whole tail sorted.

    Returns (samples, pi0_hat)."""
    stream = np.random.SeedSequence(seed, spawn_key=(0,))
    uniforms, services = (np.random.Generator(np.random.Philox(stream)) for _ in range(2))
    scale = 1.0 / svc.rate
    draws = np.empty(oracle._DRAW_BLOCK)
    path = np.empty(warmup + n)
    wait = 0.0
    for start in range(0, path.size, oracle._CHUNK):
        chunk = path[start : start + oracle._CHUNK]
        services.bit_generator.state = uniforms.bit_generator.state
        services.bit_generator.random_raw(chunk.size, output=False)
        for first in range(0, chunk.size, draws.size):
            x = chunk[first : first + draws.size]
            u = draws[: x.size]
            x[:] = inverse_cdf_array(dist, uniforms.random(out=u))
            services.standard_exponential(out=u)
            u *= scale
            x -= u
        wait = oracle._recurse(chunk, wait, chunk)
        uniforms.bit_generator.state = services.bit_generator.state
    samples = path[warmup:]
    samples.sort()
    return samples, int(np.searchsorted(samples, 0.0, side="right")) / n


def _ks_unique(samples, cdf):
    """The atom-aware KS distance through np.unique: the reference formula."""
    samples = np.sort(samples)
    vals, counts = np.unique(samples, return_counts=True)
    hi = np.cumsum(counts) / samples.size
    lo = hi - counts / samples.size
    at = cdf(vals)
    left = np.where(vals > 0.0, at, 0.0)
    return float(max(np.max(np.abs(hi - at)), np.max(np.abs(lo - left))))


#: Prints how much the resident set of a fresh process grows while it holds
#: the samples of 4e6 steps of the uniform law at mu = 1 (pi0 ~ 0.69).
_RESIDENT_GROWTH = """
import os
from lindley_alt.distributions import ExponentialService, uniform_cdf
from lindley_alt.oracle import simulate

def resident():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

law, svc = uniform_cdf(), ExponentialService(1.0)
simulate(law, svc, 10**4)  # loads the generators and builds the sampler table
before = resident()
result = simulate(law, svc, {n})
print(resident() - before)
"""


class TestMemory:
    """A simulation holds its positive samples and one work buffer; the KS
    scan, one block."""

    def test_simulate_peak_is_the_path_plus_a_work_block(self, triangular):
        dist, svc = bernstein_fit(triangular, 5), ExponentialService(4.0)
        n, warmup = 10**6, 1000
        tracemalloc.start()
        try:
            simulate(dist, svc, n, warmup=warmup)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (n + warmup) + 4 * 2**20

    def test_ks_scan_peak_beyond_the_samples(self, triangular):
        dist, svc = bernstein_fit(triangular, 5), ExponentialService(4.0)
        solution = solve(dist, svc)
        samples = simulate(dist, svc, 10**6).samples
        tracemalloc.start()
        try:
            ks_distance(samples, solution.cdf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
    def test_atom_zeros_stay_off_the_resident_set(self):
        # the path-based simulation grew by its whole 8n-byte path
        n = 4 * 10**6
        src = os.path.dirname(os.path.dirname(oracle.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-c", _RESIDENT_GROWTH.format(n=n)],
            capture_output=True, text=True, timeout=300, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 0.6 * 8 * n
