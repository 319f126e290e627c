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

from .distributions import ExponentialService, _laplace, _require_law, inverse_cdf_array
from ._moments import moment_grid
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

#: Recursion steps simulated per chunk (bounds memory at ~24 MB/chunk).
_CHUNK = 1 << 20

#: Steps per block of the recursion's blocked scan.
_SCAN_BLOCK = 512


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
        """Piecewise-linear interpolation (0 below 0, 1 above 1)."""
        return np.interp(x, self.x, self.values, left=0.0, right=1.0)


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


def _recentered_coeffs(coeffs, k: int):
    """Coefficients of s^k in p(lo + s): gamma_k(lo) = sum_{i>=k} c_i C(i,k) lo^{i-k}.

    Returned as a descending-power coefficient list in lo, ready for polyval.
    """
    deg = len(coeffs) - 1
    return [coeffs[i] * math.comb(i, k) for i in range(deg, k - 1, -1)]


def precompute_kernel(dist, svc: ExponentialService, grid_size: int = DEFAULT_GRID) -> np.ndarray:
    """Closed-form table of H(u) = E[F_B(u + A)] at u = 0, 1/g, ..., 1.

    Splits the expectation at each polynomial breakpoint of the preparation
    CDF and at the point where u + A leaves [0, 1]; each piece reduces to
    the stable exponential-moment recurrence. No quadrature.
    """
    mu = svc.rate
    u = np.arange(grid_size + 1) / grid_size
    total = np.exp(-mu * (1.0 - u))  # mass where u + A lands past 1
    for a, b, coeffs in dist.segments():
        mask = u < b
        if not np.any(mask):
            continue
        um = u[mask]
        lo = np.maximum(um, a)
        width = b - lo
        deg = len(coeffs) - 1
        mom = moment_grid(deg, -mu * width)
        inner = np.zeros_like(um)
        wpow = width
        for k in range(deg + 1):
            gamma = np.polyval(_recentered_coeffs(coeffs, k), lo)
            inner += gamma * wpow * mom[k]
            wpow = wpow * width
        total[mask] += mu * np.exp(-mu * (lo - um)) * inner
    return total


def stieltjes_weights(values: np.ndarray) -> np.ndarray:
    """Trapezoidal Riemann–Stieltjes weights of a grid CDF.

    The atom at 0 (values[0]) integrates at full weight; the continuous
    increments are shared trapezoidally between neighboring nodes.
    """
    delta = np.diff(values)
    w = np.empty_like(values)
    w[0] = values[0] + (delta[0] / 2.0 if delta.size else 0.0)
    if delta.size:
        w[1:-1] = (delta[:-1] + delta[1:]) / 2.0
        w[-1] = delta[-1] / 2.0
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


def _kernel_spectrum(kernel: np.ndarray) -> np.ndarray:
    """Real FFT of the kernel extended by 1 beyond the unit interval.

    Any length >= 2g + 1 keeps :func:`_apply_spectrum`'s slice free of
    wrap-around. At the length scipy's fftconvolve picks for the full
    (3g + 1)-entry convolution the sums round as that reference's do, so
    frozen oracle values hold bitwise.
    """
    g = kernel.size - 1
    return np.fft.rfft(np.concatenate([kernel, np.ones(g)]), _fast_len(3 * g + 1))


def _apply_spectrum(spectrum: np.ndarray, values: np.ndarray) -> np.ndarray:
    """:func:`apply_map` with the kernel's transform already taken."""
    g = values.size - 1
    n = _fast_len(3 * g + 1)
    w = stieltjes_weights(values)
    out = np.fft.irfft(np.fft.rfft(w[::-1], n) * spectrum, n)[g : 2 * g + 1]
    return np.minimum(np.maximum.accumulate(np.maximum(out, 0.0)), 1.0)


def apply_map(kernel: np.ndarray, values: np.ndarray) -> np.ndarray:
    """One application of the contraction map to a grid CDF.

    (TF)(x_i) = sum_j w_j * H(x_i + y_j), with H extended by 1 beyond the
    unit interval and the sum evaluated as one numpy rfft correlation. The
    output is re-monotonized and clipped to [0, 1], absorbing FFT roundoff
    (~1e-15).
    """
    return _apply_spectrum(_kernel_spectrum(kernel), values)


def fixed_point_solve(problem: FixedPointProblem) -> tuple[GridCdf, int]:
    """Iterate the contraction map to its fixed point on the grid.

    Starts from F = 1 and stops when the sup change drops below the
    problem's tolerance. The kernel is transformed once per solve. The
    geometric rate P[B > A] = 1 - L, L = E[e^{-mu B}], caps the iteration
    count a priori at log(tol) / log1p(-L), finite even where P[B > A] rounds
    to 1 (an L of 0.0 is an :class:`InputError`); exceeding the cap (plus
    slack) raises :class:`NonConvergence`.
    """
    laplace = _laplace(problem.dist, problem.service.rate)
    if laplace == 0.0:
        raise InputError(f"E[exp(-mu B)] underflows to 0 at mu = {problem.service.rate!r}")
    cap = math.ceil(math.log(problem.tolerance) / math.log1p(-laplace)) + 10
    kernel = precompute_kernel(problem.dist, problem.service, problem.grid_size)
    spectrum = _kernel_spectrum(kernel)
    values = np.ones(problem.grid_size + 1)
    for iteration in range(1, cap + 1):
        updated = _apply_spectrum(spectrum, values)
        change = float(np.max(np.abs(updated - values)))
        values = updated
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
    """Sorted samples of the recursion with the exact-zero fraction."""

    samples: np.ndarray = field(repr=False)
    pi0_hat: float
    n: int
    warmup: int
    seed: int

    def empirical_cdf(self, x) -> np.ndarray:
        """Right-continuous empirical CDF of the samples."""
        return np.searchsorted(self.samples, x, side="right") / self.samples.size


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
    place. Every state comes from the loop's own arithmetic, never from
    composed affine maps, which would round differently.
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

    Draws are vectorized in chunks (inverse-CDF preparation times, inverse
    exponential service times), and so is the recursion: :func:`_recurse`
    runs it as a blocked scan whose path equals the step-by-step loop's bit
    for bit. One Philox stream, keyed by the seed, feeds every draw, so the
    samples are deterministic per seed.
    """
    if n < MIN_SIMULATION_STEPS:
        raise ValueError(
            f"need at least {MIN_SIMULATION_STEPS} recursion steps for a stable estimate"
        )
    if warmup < 0:
        raise ValueError(f"warmup must be nonnegative, got {warmup}")
    # spawn_key (0,) selects the first child stream of SeedSequence(seed),
    # the stream every recorded simulation output was drawn from.
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(0,))))
    path = np.empty(warmup + n)
    wait = 0.0
    for start in range(0, path.size, _CHUNK):
        block = min(_CHUNK, path.size - start)
        x = inverse_cdf_array(dist, rng.random(size=block))
        x -= rng.exponential(scale=1.0 / svc.rate, size=block)
        wait = _recurse(x, wait, path[start : start + block])
    samples = np.sort(path[warmup:])
    zeros = int(np.searchsorted(samples, 0.0, side="right"))
    return SimulationResult(
        samples=samples,
        pi0_hat=zeros / n,
        n=n,
        warmup=warmup,
        seed=seed,
    )


def ks_distance(samples: np.ndarray, reference) -> float:
    """sup_x |empirical CDF - reference CDF|, atom-aware.

    Evaluates both one-sided gaps at every distinct sample value: the
    empirical CDF jumps by the tie multiplicity there, and the reference is
    allowed its own atom at 0 (the waiting-time law has one), where its
    left limit is 0. The classical tie-blind formula would report the atom
    mass itself as the distance.
    """
    samples = np.sort(np.asarray(samples, dtype=float))
    if samples.size == 0:
        raise ValueError("need a nonempty sample")
    ref = reference.cdf if hasattr(reference, "cdf") else reference
    vals, counts = np.unique(samples, return_counts=True)
    hi = np.cumsum(counts) / samples.size
    lo = hi - counts / samples.size
    at = np.asarray(ref(vals), dtype=float)
    left = np.where(vals > 0.0, at, 0.0)
    return float(max(np.max(np.abs(hi - at)), np.max(np.abs(lo - left))))
