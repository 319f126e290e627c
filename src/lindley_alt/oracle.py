"""Two independent reference computations for the waiting-time law.

Neither path shares any math with the exact solver, which is what makes
them usable as oracles:

* :func:`fixed_point_solve` iterates the contraction map underlying the
  stationarity equation — F <- TF with (TF)(x) = integral H(x+y) dF(y),
  H(u) = E[F_B(u + A)] — on a uniform grid, with the kernel H in closed
  form and the Riemann–Stieltjes sum evaluated as a numpy rfft correlation.
* :func:`simulate` runs the recursion W <- max(0, B - A - W) directly with
  a counter-based generator (Philox), reproducible per seed, as a blocked
  scan that reproduces the step-by-step loop bit for bit.

The map contracts at rate P[B > A] < 1, so the iteration converges
geometrically from any start; starting from F = 1 (W degenerate at zero)
makes the first iterate equal H itself, an analytically checkable step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import (
    _SAMPLER_BLOCK,
    ExponentialService,
    _as_callable,
    _pointwise,
    _require_law,
    _service_kernel,
    inverse_cdf_array,
)
from .errors import InputError, NonConvergence

__all__ = [
    "GridCdf",
    "FixedPointProblem",
    "SimulationResult",
    "precompute_kernel",
    "apply_map",
    "fixed_point_solve",
    "simulate",
    "ks_distance",
    "density_estimate",
]

#: Default grid resolution (power of two) of the fixed-point oracle.
DEFAULT_GRID = 2**14

#: Default sup-norm stopping tolerance of the fixed-point iteration.
DEFAULT_TOL = 1e-10

#: Fewest recursion steps :func:`simulate` accepts (a stable estimate).
MIN_SIMULATION_STEPS = 10**4

#: Recursion steps per stream chunk: the stream holds a chunk's uniforms,
#: then its exponentials. It fixes which draws feed which step, not memory.
_CHUNK = 1 << 20

#: Steps per work buffer: a chunk's draws and its recursion run through one
#: buffer of this many steps (512 KiB), allocated once per simulation.
_WORK = 1 << 16

#: Steps drawn per pass: one pass of the sampler, so the deviates and
#: service times are as small as its temporaries.
_DRAW_BLOCK = _SAMPLER_BLOCK

#: Steps per block of the recursion's blocked scan: a work buffer is
#: scanned as 512 blocks side by side.
_SCAN_BLOCK = 128

#: Sorted samples per block of :func:`ks_distance`'s scan. A block has at
#: most this many distinct values, so its temporaries are at most 64 KiB,
#: below glibc's default 128 KiB mmap threshold, and the blocks reuse heap
#: memory; one pass over a 10^6-step sample would fault in tens of MB
#: afresh.
_KS_BLOCK = 1 << 13


@dataclass(frozen=True)
class GridCdf:
    """A CDF tabulated at grid_size + 1 equally spaced points of [0, 1].

    ``values`` are nondecreasing with ``values[-1]`` = 1 within 1e-9;
    ``values[0]`` is the probability mass at 0.
    """

    grid_size: int
    values: np.ndarray

    def __post_init__(self):
        v = self.values
        if v.shape != (self.grid_size + 1,):
            raise ValueError("values must have grid_size + 1 entries")
        if np.any(np.diff(v) < 0.0):
            raise ValueError("grid CDF values must be nondecreasing")
        if abs(float(v[-1]) - 1.0) > 1e-9:
            raise ValueError(f"grid CDF must end at 1, got {float(v[-1])!r}")

    @property
    def atom(self) -> float:
        """Probability mass at exactly 0."""
        return float(self.values[0])

    @property
    def x(self) -> np.ndarray:
        """The grid abscissae."""
        return np.arange(self.grid_size + 1) / self.grid_size

    def cdf(self, x):
        """Piecewise-linear interpolation (0 below 0, 1 above 1), at x as
        :func:`~lindley_alt.distributions._pointwise` reads it."""
        return _pointwise(x, lambda xs: np.interp(xs, self.x, self.values, left=0.0, right=1.0))


@dataclass(frozen=True)
class FixedPointProblem:
    """One fixed-point computation: distribution, service law, resolution."""

    dist: object
    service: ExponentialService
    grid_size: int = DEFAULT_GRID
    tolerance: float = DEFAULT_TOL

    def __post_init__(self):
        _require_law(self.dist, "FixedPointProblem")
        g = self.grid_size
        if g < 2 or g & (g - 1):
            raise ValueError(f"grid_size must be a power of two >= 2, got {g}")
        if not 0.0 < self.tolerance < 1.0:
            raise ValueError("tolerance must lie in (0, 1)")


def precompute_kernel(dist, svc: ExponentialService, grid_size: int = DEFAULT_GRID) -> np.ndarray:
    """Closed-form table of H(u) = E[F_B(u + A)] at u = 0, 1/g, ..., 1.

    Evaluates the package's one closed form for the law against the
    exponential service (:func:`~lindley_alt.distributions._service_kernel`)
    on the grid. Its first entry H(0) = E[F_B(A)] is L = E[e^{-mu B}] =
    1 - P[B > A], the same bits :func:`prob_B_greater_A` reads.
    """
    return _service_kernel(dist, svc.rate, np.arange(grid_size + 1) / grid_size)


def stieltjes_weights(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Trapezoidal Riemann–Stieltjes weights of a grid CDF, into ``out`` if given.

    The atom at 0 (values[0]) integrates at full weight; the continuous
    increments are shared trapezoidally between neighboring nodes. The
    increments are taken in ``out[1:]`` and paired there in place.
    """
    w = np.empty_like(values) if out is None else out
    if values.size == 1:
        w[0] = values[0]
        return w
    np.subtract(values[1:], values[:-1], out=w[1:])
    w[0] = values[0] + w[1] / 2.0
    last = w[-1] / 2.0
    np.add(w[1:-1], w[2:], out=w[1:-1])
    np.divide(w[1:-1], 2.0, out=w[1:-1])
    w[-1] = last
    return w


def _fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n: the real-FFT length scipy's fftconvolve picks."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            m = p35
            while m < n:
                m *= 2
            best = min(best, m)
            p35 *= 3
        p5 *= 5
    return best


class _ContractionMap:
    """:func:`apply_map` for one kernel, applied in buffers allocated once.

    The kernel is transformed once. Any FFT length >= 2g + 1 keeps the
    slice that is kept free of wrap-around, so the map uses the shortest
    fast one (:func:`_fast_len`), not that of the full (3g + 1)-entry
    convolution: 32,805 points at g = 2^14 instead of 50,000. Its sums then
    round differently from scipy's fftconvolve of the full convolution, and
    agree with it to FFT roundoff (1e-13), not bitwise. Every application
    writes into the same arrays: at g = 2^14 they are 131,080 B or more,
    over glibc's default 128 KiB mmap threshold, so fresh ones would be
    mapped, faulted in and unmapped on every iteration (the FFTs' ``out=``
    needs numpy 2.0).
    """

    def __init__(self, kernel: np.ndarray):
        g = kernel.size - 1
        n = _fast_len(2 * g + 1)
        self.spectrum = np.fft.rfft(np.concatenate([kernel, np.ones(g)]), n)
        self.reversed_weights = np.empty(g + 1)
        self.product = np.empty_like(self.spectrum)
        self.full = np.empty(n)

    def __call__(self, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """T applied to grid values, re-monotonized and clipped to [0, 1]
        (absorbing FFT roundoff, ~1e-15), written into ``out``."""
        g = values.size - 1
        stieltjes_weights(values, out=self.reversed_weights[::-1])
        np.fft.rfft(self.reversed_weights, self.full.size, out=self.product)
        self.product *= self.spectrum
        np.fft.irfft(self.product, self.full.size, out=self.full)
        np.maximum(self.full[g : 2 * g + 1], 0.0, out=out)
        np.maximum.accumulate(out, out=out)
        return np.minimum(out, 1.0, out=out)


def apply_map(kernel: np.ndarray, values: np.ndarray) -> np.ndarray:
    """One application of the contraction map to a grid CDF.

    (TF)(x_i) = sum_j w_j * H(x_i + y_j), with H extended by 1 beyond the
    unit interval and the sum evaluated as one numpy rfft correlation. The
    output is re-monotonized and clipped to [0, 1], absorbing FFT roundoff
    (~1e-15).
    """
    return _ContractionMap(kernel)(values, np.empty_like(values))


def fixed_point_solve(problem: FixedPointProblem) -> tuple[GridCdf, int]:
    """Iterate the contraction map to its fixed point on the grid.

    Starts from F = 1 and stops when the sup change drops below the
    problem's tolerance. The kernel is transformed once per solve, and the
    iterates live in buffers allocated once (:class:`_ContractionMap`). The
    geometric rate P[B > A] = 1 - L, with L = E[e^{-mu B}] read off the
    kernel as H(0), caps the iteration count a priori at
    log(tol) / log1p(-L), finite even where P[B > A] rounds to 1 (an L of
    0.0 is an :class:`InputError`); exceeding the cap (plus slack) raises
    :class:`NonConvergence`.
    """
    kernel = precompute_kernel(problem.dist, problem.service, problem.grid_size)
    laplace = float(kernel[0])  # H(0) = E[F_B(A)] = L
    if laplace == 0.0:
        raise InputError(f"E[exp(-mu B)] underflows to 0 at mu = {problem.service.rate!r}")
    cap = math.ceil(math.log(problem.tolerance) / math.log1p(-laplace)) + 10
    step = _ContractionMap(kernel)
    values = np.ones(problem.grid_size + 1)
    updated, gap = np.empty((2, values.size))
    for iteration in range(1, cap + 1):
        step(values, updated)
        np.abs(np.subtract(updated, values, out=gap), out=gap)
        change = float(np.max(gap))
        values, updated = updated, values
        if change < problem.tolerance:
            return GridCdf(problem.grid_size, values), iteration
    raise NonConvergence(
        f"fixed point not reached in {cap} iterations "
        f"(contraction {1.0 - laplace:.4f}, tolerance {problem.tolerance:g})"
    )


def density_estimate(grid: GridCdf) -> np.ndarray:
    """Numerical density of a grid CDF (atom excluded).

    Central differences in the interior, one-sided at the edges, then a
    5-point moving average (window shrinking symmetrically near the edges).
    The atom at 0 is a constant offset of the CDF and drops out of every
    difference.
    """
    v = grid.values
    h = 1.0 / grid.grid_size
    raw = np.empty_like(v)
    raw[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    raw[0] = (v[1] - v[0]) / h
    raw[-1] = (v[-1] - v[-2]) / h
    # Windows of 5, of 3 one point in from either edge, of 1 at the edge.
    # Each sum adds left to right, the order np.mean uses for so few terms,
    # so the result equals a per-point np.mean bit for bit.
    smooth = raw.copy()
    smooth[1:-1] = ((raw[:-2] + raw[1:-1]) + raw[2:]) / 3.0
    smooth[2:-2] = ((((raw[:-4] + raw[1:-3]) + raw[2:-2]) + raw[3:-1]) + raw[4:]) / 5.0
    return smooth


@dataclass(frozen=True)
class SimulationResult:
    """Sorted samples of the recursion with the exact-zero fraction.

    ``samples`` comes from ``np.zeros(n)``, and :func:`simulate` writes only
    its positive states, at the end. A fresh mapping keeps the atom's zeros
    in untouched zero pages, so the array holds about 8 (1 - pi0) n bytes
    of resident memory. In a process that has already freed a larger block,
    the allocator may hand back heap memory instead: the same values, but
    resident.
    """

    samples: np.ndarray = field(repr=False)
    pi0_hat: float
    n: int
    warmup: int
    seed: int

    def empirical_cdf(self, x):
        """Right-continuous empirical CDF of the samples, NaN at NaN, at x as
        :func:`~lindley_alt.distributions._pointwise` reads it."""
        def share(xs):  # searchsorted sorts NaN last, past every sample
            at_or_below = np.searchsorted(self.samples, xs, side="right") / self.samples.size
            return np.where(np.isnan(xs), xs, at_or_below)
        return _pointwise(x, share)


def _recurse_loop(x: np.ndarray, wait: float, path: np.ndarray) -> float:
    """The recursion w <- max(0, x[i] - w) from w = wait, one step at a time.

    Writes each state to path[i] and returns the last one.
    """
    for i in range(x.size):
        wait = x[i] - wait
        if wait < 0.0:
            wait = 0.0
        path[i] = wait
    return wait


def _recurse(x: np.ndarray, wait: float, path: np.ndarray) -> float:
    """:func:`_recurse_loop` as a blocked scan, bit for bit; returns the end state.

    The shape is Blelloch's blocked scan (*Prefix sums and their
    applications*, CMU-CS-90-190, 1990): summarize each block, carry the
    summaries across blocks in sequence, then rerun each block from its
    carried start. The step w -> max(0, x - w) is monotone nonincreasing in
    w, in floating point too, so trajectories started at 0 and +inf bound
    the one from any start. Pass 1 runs both bounds through all blocks of
    ``_SCAN_BLOCK`` steps at once; where they meet, the block's end state is
    exact whatever its start. Pass 2 carries the end states from block to
    block, running any block whose bounds never met from its exact start.
    Pass 3 reruns every block from its exact start, writing ``path`` in
    place; ``path`` may be ``x`` itself, since every step reads x[i] before
    it writes path[i]. Every state comes from the loop's own arithmetic,
    never from composed affine maps, which would round differently.
    """
    blocks = x.size // _SCAN_BLOCK
    full = blocks * _SCAN_BLOCK
    if blocks:
        xb = x[:full].reshape(blocks, _SCAN_BLOCK)
        lo, hi = np.zeros(blocks), np.full(blocks, np.inf)
        for t in range(_SCAN_BLOCK):
            lo, hi = np.maximum(xb[:, t] - hi, 0.0), np.maximum(xb[:, t] - lo, 0.0)
        starts = np.empty(blocks)
        starts[0] = wait
        starts[1:] = lo[:-1]
        discard = np.empty(_SCAN_BLOCK)
        for b in np.flatnonzero(lo[:-1] != hi[:-1]):
            starts[b + 1] = _recurse_loop(xb[b], starts[b], discard)
        pb = path[:full].reshape(blocks, _SCAN_BLOCK)
        w = starts
        for t in range(_SCAN_BLOCK):
            np.subtract(xb[:, t], w, out=w)
            np.maximum(w, 0.0, out=w)
            pb[:, t] = w
        wait = float(w[-1])
    return _recurse_loop(x[full:], wait, path[full:])


def simulate(
    dist,
    svc: ExponentialService,
    n: int,
    warmup: int = 1000,
    seed: int = 0,
) -> SimulationResult:
    """Drive W <- max(0, B - A - W) for n post-warmup steps.

    One Philox stream, keyed by the seed, feeds every draw, so the samples
    are deterministic per seed. For each chunk of ``_CHUNK`` steps the
    stream holds the chunk's uniforms (inverse-CDF preparation times) and
    then its exponentials (service times). Two cursors read a chunk
    ``_DRAW_BLOCK`` steps at a time: the service cursor starts as many raw
    draws past the uniform one as the chunk has steps (``Generator.random``
    takes one raw draw per double), and B - A goes into a work buffer of
    ``_WORK`` steps. :func:`_recurse` turns the buffer into waiting times in
    place, as a blocked scan that equals the step-by-step loop bit for bit,
    and the buffer's post-warmup states that are positive are copied to the
    end of the samples; the next chunk's uniforms start where its
    exponentials ended. The zeros are only counted, so memory is about
    8 (1 - pi0) n bytes plus the work buffer (see :class:`SimulationResult`).
    """
    if n < MIN_SIMULATION_STEPS:
        raise ValueError(
            f"need at least {MIN_SIMULATION_STEPS} recursion steps for a stable estimate"
        )
    if warmup < 0:
        raise ValueError(f"warmup must be nonnegative, got {warmup}")
    # spawn_key (0,) selects the first child stream of SeedSequence(seed),
    # the stream every recorded simulation output was drawn from.
    stream = np.random.SeedSequence(seed, spawn_key=(0,))
    uniforms, services = (np.random.Generator(np.random.Philox(stream)) for _ in range(2))
    scale = 1.0 / svc.rate
    total = warmup + n
    draws = np.empty(_DRAW_BLOCK)
    work = np.empty(min(_WORK, total))
    samples = np.zeros(n)
    top = n  # samples[top:] holds the positive states found so far
    wait = 0.0
    for start in range(0, total, _CHUNK):
        end = min(start + _CHUNK, total)
        services.bit_generator.state = uniforms.bit_generator.state
        services.bit_generator.random_raw(end - start, output=False)
        for first in range(start, end, work.size):
            x = work[: min(work.size, end - first)]
            for at in range(0, x.size, draws.size):
                block = x[at : at + draws.size]
                u = draws[: block.size]
                block[:] = inverse_cdf_array(dist, uniforms.random(out=u))
                services.standard_exponential(out=u)
                u *= scale  # exponential(scale) rounds scale * standard_exponential
                block -= u
            wait = _recurse(x, wait, x)
            kept = x[max(warmup - first, 0) :]
            positive = kept > 0.0
            count = np.count_nonzero(positive)
            np.compress(positive, kept, out=samples[top - count : top])
            top -= count
        uniforms.bit_generator.state = services.bit_generator.state
    samples[top:].sort()
    return SimulationResult(
        samples=samples,
        pi0_hat=top / n,
        n=n,
        warmup=warmup,
        seed=seed,
    )


def _is_sorted(samples: np.ndarray) -> bool:
    """Whether ``samples`` are nondecreasing, checked ``_KS_BLOCK`` at a time."""
    for first in range(0, samples.size - 1, _KS_BLOCK):
        block = samples[first : first + _KS_BLOCK + 1]
        if not np.all(block[:-1] <= block[1:]):
            return False
    return True


def ks_distance(samples: np.ndarray, reference) -> float:
    """sup_x |empirical CDF - reference CDF|, atom-aware.

    Evaluates both one-sided gaps at every distinct sample value: the
    empirical CDF jumps by the tie multiplicity there, and the reference is
    allowed its own atom at 0 (the waiting-time law has one), where its
    left limit is 0. The classical tie-blind formula would report the atom
    mass itself as the distance. Sorted samples (as :func:`simulate`
    returns them) are read in place, ``_KS_BLOCK`` at a time: each block
    finds the runs of equal values that end in it, and the end of the last
    run carries over to the next block, so a run may span any number of
    blocks.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("need a nonempty sample")
    if not _is_sorted(samples):
        samples = np.sort(samples)
    ref = _as_callable(reference)
    size = samples.size
    gaps = []
    last = -1  # the last index of the run before the block
    for first in range(0, size, _KS_BLOCK):
        # the last index of each run of equal values that ends in the block
        following = samples[first + 1 : first + _KS_BLOCK + 1]
        ends = first + np.flatnonzero(samples[first : first + following.size] != following)
        if first + _KS_BLOCK >= size:
            ends = np.append(ends, size - 1)
        if not ends.size:
            continue
        counts = np.diff(ends, prepend=last)
        last = ends[-1]
        vals = samples[ends]
        hi = (ends + 1) / size
        lo = hi - counts / size
        at = np.asarray(ref(vals), dtype=float)
        left = np.where(vals > 0.0, at, 0.0)
        gaps += [np.max(np.abs(hi - at)), np.max(np.abs(lo - left))]
    return float(np.max(gaps))
