"""Command-line front end.

Subcommands
-----------
solve
    Exact waiting-time law for a polynomial preparation CDF: solution JSON
    on stdout, optional 1025-point density/CDF CSV via --out.
fit
    Bernstein approximant of any distribution spec: coefficient JSON.
bound
    Full certification run: fit, exact solve, fixed-point reference,
    certified and alternate bounds as JSON.
verify
    With --dist: residual, fixed-point, and Monte Carlo cross-checks as a
    pass/fail table. Without --dist: reads `table1` CSV from stdin and
    recomputes it through the same code path, comparing at 1e-9.
table1
    The fixed benchmark scenario (triangular preparation, mu=1,
    n in {1, 5, 10}) as CSV.
figure1
    Grid data behind the benchmark figure, from table1's certifications:
    fitted CDFs and waiting-time densities, two CSV files of 1025 points.

Exit codes: 0 success, 2 input/validation error, 3 numerical failure.
Errors are emitted as one-line JSON on stderr. Every command is
deterministic given its full flag set.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import _HOME, _LAZY, __version__
from .errors import InputError, NotACdf, NumericalError

__all__ = ["RunConfig", "main"]


def __getattr__(name):
    """Bind a name of the package's lazy table (``_LAZY``) on first access
    (PEP 562). Names are bound on this module when a command runs
    (:func:`_bind`, for the layers listed in ``_COMMANDS``) or on first
    access from outside, never at import, so a process loads only the layers
    its command calls."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(sys.modules[__package__], name)
    return value


def _bind(layers) -> None:
    """Bind the names of ``layers`` that are not bound yet; a value already
    bound (a test's patch, a tracer's wrapper) is what the command calls."""
    for layer in layers:
        for name in _LAZY[layer]:
            if name not in globals():
                __getattr__(name)


#: Sample points in solve/figure CSV tables (2**10 + 1).
_TABLE_POINTS = 1025

#: Fixed-point oracle grid used by the benchmark commands.
_BENCH_GRID = 2**14

_BENCH_ORDERS = (1, 5, 10)

_TABLE1_HEADER = (
    "n",
    "fit_error",
    "density_excess",
    "cdf_gap",
    "alternate_bound",
    "certified_bound",
    "density_sup",
)


class RunConfig:
    """Validated flag set of one command invocation.

    The class attributes are the defaults; keyword arguments override them.
    A plain class rather than a dataclass, since ``dataclasses`` would load
    ``inspect`` (and ``ast``, ``dis``, ``tokenize``) on every CLI import.
    """

    dist: str | None = None
    mu: float = 1.0
    order: int | None = None
    grid: int = _BENCH_GRID
    samples: int = 10**6
    seed: int = 0
    out: str | None = None
    fmt: str = "json"

    def __init__(self, command: str, **flags):
        unknown = flags.keys() - RunConfig.__annotations__.keys()
        if unknown:
            raise TypeError(f"RunConfig got unknown fields: {', '.join(sorted(unknown))}")
        self.command = command
        self.__dict__.update(flags)
        problems = []
        if not (self.mu > 0.0 and math.isfinite(self.mu)):
            problems.append(f"mu must be positive and finite, got {self.mu!r}")
        if self.order is not None and self.order < 1:
            problems.append(f"order must be >= 1, got {self.order}")
        g = self.grid
        if g < 2 or g & (g - 1) or g > 2**20:
            problems.append(f"grid must be a power of two in [2, 2^20], got {g}")
        # the default lies in range, so only a --samples value loads the
        # oracle for its floor
        if self.samples != RunConfig.samples:
            from .oracle import MIN_SIMULATION_STEPS

            if not MIN_SIMULATION_STEPS <= self.samples <= 10**8:
                problems.append(
                    f"samples must lie in [{MIN_SIMULATION_STEPS}, 1e8], got {self.samples}"
                )
        if self.seed < 0:
            problems.append(f"seed must be nonnegative, got {self.seed}")
        if self.fmt not in ("json", "csv"):
            problems.append(f"format must be json or csv, got {self.fmt!r}")
        if problems:
            raise InputError("; ".join(problems))

    @property
    def service(self) -> ExponentialService:
        from .distributions import ExponentialService

        return ExponentialService(self.mu)

    def distribution(self):
        if self.dist is None:
            raise InputError(f"command {self.command!r} requires --dist")
        from .distributions import parse_distribution_spec

        return parse_distribution_spec(self.dist)


def _fmt(x: float) -> str:
    """CSV number format: 9 significant digits, '.' decimal."""
    return f"{x:.9g}"


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path!r}: {exc.strerror or exc}") from exc


def _csv(rows, header=None) -> str:
    lines = []
    if header is not None:
        lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(c if isinstance(c, str) else _fmt(c) for c in row))
    return "\n".join(lines) + "\n"


def _polynomial_law(config: RunConfig) -> PolynomialCdf:
    """The --dist law itself, or its Bernstein fit when --order is given."""
    dist = config.distribution()
    if config.order is not None:
        return bernstein_fit(dist, config.order)
    if not isinstance(dist, PolynomialCdf):
        raise InputError(
            f"{config.command} requires a polynomial CDF; fit non-polynomial "
            f"distributions first (or pass --order to work on the fit)"
        )
    return dist


def _sample_table(solution) -> list[tuple[float, float, float]]:
    """(x, f_W, F_W) rows at 1025 equally spaced points of [0, 1]; the
    density series gives f_W(0+) at x = 0."""
    import numpy as np

    xs = np.arange(_TABLE_POINTS) / (_TABLE_POINTS - 1)
    dens = solution.density_series(xs)
    cdf = eval_waiting_cdf(solution, xs)
    return list(zip(xs.tolist(), dens.tolist(), cdf.tolist()))


def cmd_solve(config: RunConfig) -> int:
    solution = solve(_polynomial_law(config), config.service)
    # the table goes first, so a --out that cannot be written leaves stdout empty
    if config.fmt == "csv" or config.out is not None:
        _emit(_csv(_sample_table(solution), header=("x", "f_W", "F_W")), config.out)
    if config.fmt == "json":
        json.dump(solution_summary(solution), sys.stdout)
        sys.stdout.write("\n")
    return 0


def cmd_fit(config: RunConfig) -> int:
    if config.order is None:
        raise InputError("fit requires --order")
    report = fit_report(config.distribution(), config.order)
    payload = {
        "order": config.order,
        "coeffs": list(report.fitted.coeffs),
        "epsilon": report.sup_error,
        "sup_location": report.sup_location,
    }
    if config.fmt == "csv":
        _emit(_csv([(float(c),) for c in report.fitted.coeffs], header=("coeff",)), config.out)
    else:
        text = json.dumps(payload) + "\n"
        _emit(text, config.out)
    return 0


def cmd_bound(config: RunConfig) -> int:
    if config.order is None:
        raise InputError("bound requires --order")
    cert = certify_approximation(
        config.distribution(), config.order, config.service, grid_size=config.grid
    )
    payload = cert.report.as_dict()
    payload.update(
        {
            "measured_cdf_gap": cert.cdf_distance,
            "measured_density_excess": cert.density_excess,
            "measured_density_sup": cert.density_sup,
            "pi0": cert.solution.pi0,
            "order": config.order,
            "mu": config.mu,
        }
    )
    _emit(json.dumps(payload) + "\n", config.out)
    return 0


def _verify_checks(config: RunConfig):
    """The cross-checks behind `verify --dist`, as (passed, text) pairs; a
    check passes when its measured value is below its threshold."""
    import numpy as np

    def check(name, measured, threshold):
        limit = f"{threshold:.0e}"
        if float(limit) != threshold:  # a scaled Monte Carlo tolerance
            limit = f"{threshold:.3e}"
        return measured < threshold, f"{name:<32} {measured:.3e} < {limit}"

    dist = _polynomial_law(config)
    svc = config.service
    solution = solve(dist, svc)

    from .solver import integral_equation_residual

    pts = np.linspace(1.0 / 1000, 1.0, 1000)
    residual = integral_equation_residual(solution, dist, svc, pts)
    yield check("integral_equation_residual", residual, 1e-7)

    # the Monte Carlo check runs first, so its samples are freed before the
    # fixed point allocates its grids
    sim = simulate(dist, svc, config.samples, seed=config.seed)
    ks = ks_distance(sim.samples, solution.cdf)
    pi0_gap = abs(sim.pi0_hat - solution.pi0)
    del sim

    grid, _ = fixed_point_solve(FixedPointProblem(dist, svc, grid_size=config.grid))
    gap = float(np.max(np.abs(eval_waiting_cdf(solution, grid.x) - grid.values)))
    yield check("fixed_point_cdf_gap", gap, 2e-4)

    # sampling noise shrinks like 1/sqrt(samples): 5e-3 at the default 10^6
    mc_tol = 5e-3 * math.sqrt(10**6 / config.samples)
    yield check("monte_carlo_ks", ks, mc_tol)
    yield check("monte_carlo_pi0_gap", pi0_gap, mc_tol)


def cmd_verify(config: RunConfig) -> int:
    """One PASS or FAIL line per check of either mode; exit 0 if all pass, else 3."""
    checks = list(_verify_checks(config) if config.dist is not None else _table1_checks())
    _emit("".join(f"{'PASS' if ok else 'FAIL'}  {text}\n" for ok, text in checks), config.out)
    return 0 if all(ok for ok, _ in checks) else 3


def _table1_checks():
    """Recompute table1 through the same code path and compare at 1e-9: each
    row once, with the header's cells; a gap that is not finite fails."""
    import numpy as np

    reader = sys.stdin.read().strip().splitlines()
    if not reader:
        raise InputError("verify: no --dist given and nothing on stdin")
    if tuple(reader[0].split(",")) != _TABLE1_HEADER:
        raise InputError(f"verify: stdin is not table1 output (header {reader[0]!r})")
    expected = {}
    for line in reader[1:]:
        cells = line.split(",")
        if len(cells) != len(_TABLE1_HEADER) or int(cells[0]) in expected:
            raise InputError(f"verify: malformed or repeated table1 row {line!r}")
        expected[int(cells[0])] = [float(c) for c in cells[1:]]
    if sorted(expected) != list(_BENCH_ORDERS):
        raise InputError(
            f"verify: table1 rows are n = {sorted(expected)}, not n = {list(_BENCH_ORDERS)}"
        )
    for n, *want in _table1_rows():
        worst = float(np.max(np.abs(np.subtract(expected[n], want))))  # NaN propagates
        yield worst <= 1e-9, f"table1 row n={n:<3} max gap {worst:.3e}"


def _benchmark():
    """The benchmark scenario, built once per command: the triangular law
    and its certifications at mu = 1 by n in ``_BENCH_ORDERS``, which share
    the fixed-point reference the first one makes on ``_BENCH_GRID`` cells."""
    tri, svc, certs, reference = triangular_cdf(), ExponentialService(1.0), {}, None
    for n in _BENCH_ORDERS:
        certs[n] = certify_approximation(tri, n, svc, grid_size=_BENCH_GRID, reference=reference)
        reference = certs[n].reference
    return tri, certs


def _table1_rows():
    """The rows of `table1` and `verify`, read off :func:`_benchmark`'s certifications."""
    _, certs = _benchmark()
    return [(n, c.report.epsilon, c.density_excess, c.cdf_distance, c.report.alternate_bound,
             c.report.certified_bound, c.density_sup) for n, c in certs.items()]


def cmd_table1(config: RunConfig) -> int:
    _emit(_csv(_table1_rows(), header=_TABLE1_HEADER), config.out)  # n prints as an integer
    return 0


def cmd_figure1(config: RunConfig) -> int:
    """The benchmark figure's CDFs and densities at 1025 points, read off
    the certifications `table1` reads (:func:`_benchmark`)."""
    import numpy as np

    tri, certs = _benchmark()
    xs = np.arange(_TABLE_POINTS) / (_TABLE_POINTS - 1)
    cdf = {"x": xs, "F_B": eval_cdf(tri, xs)}
    cdf.update((f"F_B_fit_n{n}", eval_cdf(c.fit.fitted, xs)) for n, c in certs.items())
    density = {"x": xs}
    density.update((f"f_W_fit_n{n}", c.solution.density_series(xs)) for n, c in certs.items())
    reference = certs[_BENCH_ORDERS[0]].reference  # the one all certifications share
    density["f_W_reference"] = density_estimate(reference)[:: _BENCH_GRID // (_TABLE_POINTS - 1)]
    prefix = config.out or "figure1"
    for name, cols in (("cdf", cdf), ("density", density)):
        table = _csv(zip(*[c.tolist() for c in cols.values()]), header=tuple(cols))
        _emit(table, f"{prefix}_{name}.csv")
    sys.stdout.write(f"wrote {prefix}_cdf.csv and {prefix}_density.csv\n")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as :class:`InputError`, so they take the exit-2
    JSON channel instead of argparse's usage text."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


#: add_argument options of every flag; the defaults live in RunConfig alone.
_FLAGS = {
    "dist": {"help": "distribution: uniform | triangular | JSON spec"},
    "mu": {"type": float, "help": f"service rate (default {RunConfig.mu:g})"},
    "order": {"type": int, "help": "Bernstein fit order"},
    "grid": {"type": int, "help": f"fixed-point grid size, power of two (default {RunConfig.grid})"},
    "samples": {"type": int, "help": f"Monte Carlo recursion steps (default {RunConfig.samples})"},
    "seed": {"type": int, "help": f"Monte Carlo seed (default {RunConfig.seed})"},
    "out": {"help": "output path (figure1: path prefix)"},
    "format": {"dest": "fmt", "choices": ("json", "csv"),
               "help": f"stdout payload format (default {RunConfig.fmt})"},
}

#: Each subcommand: its handler, help line, the only flags it reads, and the
#: layers (keys of the package's _LAZY) whose names it calls.
_COMMANDS = {
    "solve": (cmd_solve, "exact solution for a polynomial preparation CDF",
              ("dist", "mu", "order", "out", "format"), ("distributions", "bernstein", "solver")),
    "fit": (cmd_fit, "Bernstein approximant of a distribution spec",
            ("dist", "order", "out", "format"), ("bernstein",)),
    "bound": (cmd_bound, "certified approximation error bound",
              ("dist", "mu", "order", "grid", "out"), ("bounds",)),
    "verify": (cmd_verify, "cross-check a spec (or table1 CSV on stdin)",
               ("dist", "mu", "order", "grid", "samples", "seed", "out"),
               ("distributions", "bernstein", "solver", "oracle", "bounds")),
    "table1": (cmd_table1, "benchmark table: triangular, mu=1, n=1,5,10", ("out",),
               ("distributions", "bounds")),
    "figure1": (cmd_figure1, "benchmark figure data as two CSV files", ("out",),
                ("distributions", "oracle", "bounds")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lindley-alt",
        description="Exact waiting-time laws of W = max(0, B - A - W) "
        "with certified polynomial approximation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


#: The variables through which a user picks OpenBLAS's thread count.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _single_blas_thread() -> None:
    """Run numpy's BLAS on one thread in a process that has not loaded numpy.

    The commands' BLAS work (solves of at most 42 x 42, ``np.roots``, one
    1000 x ~20 product) is too small to split, yet OpenBLAS starts its worker
    threads at import, which costs import time and then competes for the
    cores. A thread count the user set is kept, and so is any numpy that an
    embedding process loaded before calling :func:`main`.
    """
    if "numpy" in sys.modules or any(v in os.environ for v in _BLAS_THREAD_VARIABLES):
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"


def main(argv=None) -> int:
    _single_blas_thread()
    try:
        args = vars(build_parser().parse_args(argv))
        # without --dist, verify re-checks table1 CSV and reads nothing else
        extra = args.keys() - {"command", "out"}
        if args["command"] == "verify" and "dist" not in args and extra:
            raise InputError(
                "verify without --dist reads table1 CSV on stdin and takes only "
                f"--out; got {', '.join('--' + k for k in sorted(extra))}"
            )
        config = RunConfig(**args)
        handler, _, _, layers = _COMMANDS[config.command]
        _bind(layers)
        return handler(config)
    except NotACdf as exc:
        _print_error(exc, extra={"violations": list(exc.violations)})
        return 2
    except (InputError, ValueError) as exc:
        _print_error(exc)
        return 2
    except NumericalError as exc:
        _print_error(exc)
        return 3


def _print_error(exc: Exception, extra: dict | None = None) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    if extra:
        payload.update(extra)
    sys.stderr.write(json.dumps(payload) + "\n")


if __name__ == "__main__":
    sys.exit(main())
