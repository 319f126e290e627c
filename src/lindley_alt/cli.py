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
    Grid data behind the benchmark figure: fitted preparation CDFs and
    waiting-time densities, two CSV files of 1025 points.

Exit codes: 0 success, 2 input/validation error, 3 numerical failure.
Errors are emitted as one-line JSON on stderr. Every command is
deterministic given its full flag set.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .bernstein import fit_report
from .bounds import certify_approximation
from .distributions import (
    ExponentialService,
    PolynomialCdf,
    eval_cdf,
    parse_distribution_spec,
    triangular_cdf,
)
from .errors import InputError, NotACdf, NumericalError
from .oracle import (
    MIN_SIMULATION_STEPS,
    FixedPointProblem,
    density_estimate,
    fixed_point_solve,
    ks_distance,
    simulate,
)
from .solver import eval_waiting_cdf, solution_summary, solve

__all__ = ["RunConfig", "main"]

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


@dataclass(frozen=True)
class RunConfig:
    """Validated flag set of one command invocation."""

    command: str
    dist: str | None = None
    mu: float = 1.0
    order: int | None = None
    grid: int = _BENCH_GRID
    samples: int = 10**6
    seed: int = 0
    out: str | None = None
    fmt: str = "json"

    def __post_init__(self):
        problems = []
        if not (self.mu > 0.0 and math.isfinite(self.mu)):
            problems.append(f"mu must be positive and finite, got {self.mu!r}")
        if self.order is not None and self.order < 1:
            problems.append(f"order must be >= 1, got {self.order}")
        g = self.grid
        if g < 2 or g & (g - 1) or g > 2**20:
            problems.append(f"grid must be a power of two in [2, 2^20], got {g}")
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
        return ExponentialService(self.mu)

    def distribution(self):
        if self.dist is None:
            raise InputError(f"command {self.command!r} requires --dist")
        return parse_distribution_spec(self.dist)


def _fmt(x: float) -> str:
    """CSV number format: 9 significant digits, '.' decimal."""
    return f"{x:.9g}"


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


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
        return fit_report(dist, config.order).fitted
    if not isinstance(dist, PolynomialCdf):
        raise InputError(
            f"{config.command} requires a polynomial CDF; fit non-polynomial "
            f"distributions first (or pass --order to work on the fit)"
        )
    return dist


def _sample_table(solution) -> list[tuple[float, float, float]]:
    """(x, f_W, F_W) rows at 1025 equally spaced points of [0, 1]; the
    density series gives f_W(0+) at x = 0."""
    xs = np.arange(_TABLE_POINTS) / (_TABLE_POINTS - 1)
    dens = solution.density_series(xs)
    cdf = eval_waiting_cdf(solution, xs)
    return list(zip(xs.tolist(), dens.tolist(), cdf.tolist()))


def cmd_solve(config: RunConfig) -> int:
    solution = solve(_polynomial_law(config), config.service)
    table = _sample_table(solution)
    csv_text = _csv(table, header=("x", "f_W", "F_W"))
    if config.fmt == "csv":
        _emit(csv_text, config.out)
    else:
        json.dump(solution_summary(solution), sys.stdout)
        sys.stdout.write("\n")
        if config.out is not None:
            _emit(csv_text, config.out)
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
    """The three cross-checks behind `verify --dist`.

    Yields (name, measured, threshold) triples; a check passes when
    measured < threshold.
    """
    dist = _polynomial_law(config)
    svc = config.service
    solution = solve(dist, svc)

    from .solver import integral_equation_residual

    pts = np.linspace(1.0 / 1000, 1.0, 1000)
    residual = integral_equation_residual(solution, dist, svc, pts)
    yield ("integral_equation_residual", residual, 1e-7)

    grid, _ = fixed_point_solve(FixedPointProblem(dist, svc, grid_size=config.grid))
    gap = float(np.max(np.abs(eval_waiting_cdf(solution, grid.x) - grid.values)))
    yield ("fixed_point_cdf_gap", gap, 2e-4)

    sim = simulate(dist, svc, config.samples, seed=config.seed)
    ks = ks_distance(sim.samples, solution.cdf)
    # sampling noise shrinks like 1/sqrt(samples): 5e-3 at the default 10^6
    mc_tol = 5e-3 * math.sqrt(10**6 / config.samples)
    yield ("monte_carlo_ks", ks, mc_tol)
    yield ("monte_carlo_pi0_gap", abs(sim.pi0_hat - solution.pi0), mc_tol)


def cmd_verify(config: RunConfig) -> int:
    if config.dist is None:
        return _verify_table1_stream(config)
    failures = 0
    lines = []
    for name, measured, threshold in _verify_checks(config):
        ok = measured < threshold
        failures += 0 if ok else 1
        limit = f"{threshold:.0e}"
        if float(limit) != threshold:  # a scaled Monte Carlo tolerance
            limit = f"{threshold:.3e}"
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name:<32} {measured:.3e} < {limit}")
    _emit("\n".join(lines) + "\n", config.out)
    return 0 if failures == 0 else 3


def _verify_table1_stream(config: RunConfig) -> int:
    """Recompute table1 through the same code path and compare at 1e-9."""
    reader = sys.stdin.read().strip().splitlines()
    if not reader:
        raise InputError("verify: no --dist given and nothing on stdin")
    header = reader[0].split(",")
    if tuple(header) != _TABLE1_HEADER:
        raise InputError(
            f"verify: stdin is not table1 output (header {reader[0]!r})"
        )
    expected = {}
    for line in reader[1:]:
        cells = line.split(",")
        expected[int(cells[0])] = [float(c) for c in cells[1:]]
    rows = {row[0]: list(row[1:]) for row in _table1_rows()}
    lines = []
    failures = 0
    for n, got in sorted(expected.items()):
        if n not in rows:
            raise InputError(f"verify: unexpected table1 row n={n}")
        worst = max(abs(a - b) for a, b in zip(got, rows[n]))
        ok = worst <= 1e-9
        failures += 0 if ok else 1
        lines.append(f"{'PASS' if ok else 'FAIL'}  table1 row n={n:<3} max gap {worst:.3e}")
    _emit("\n".join(lines) + "\n", config.out)
    return 0 if failures == 0 else 3


def _table1_rows():
    """The benchmark rows; shared verbatim by `table1` and `verify`."""
    tri = triangular_cdf()
    svc = ExponentialService(1.0)
    reference = None
    rows = []
    for n in _BENCH_ORDERS:
        cert = certify_approximation(tri, n, svc, grid_size=_BENCH_GRID, reference=reference)
        reference = cert.reference
        rows.append(
            (
                n,
                cert.report.epsilon,
                cert.density_excess,
                cert.cdf_distance,
                cert.report.alternate_bound,
                cert.report.certified_bound,
                cert.density_sup,
            )
        )
    return rows


def cmd_table1(config: RunConfig) -> int:
    rows = [(str(n),) + tuple(vals) for n, *vals in _table1_rows()]
    _emit(_csv(rows, header=_TABLE1_HEADER), config.out)
    return 0


def cmd_figure1(config: RunConfig) -> int:
    tri = triangular_cdf()
    svc = ExponentialService(1.0)
    xs = np.arange(_TABLE_POINTS) / (_TABLE_POINTS - 1)

    fits = {n: fit_report(tri, n).fitted for n in _BENCH_ORDERS}
    solutions = {n: solve(fits[n], svc) for n in _BENCH_ORDERS}

    cdf_cols = [xs, eval_cdf(tri, xs)]
    cdf_cols += [eval_cdf(fits[n], xs) for n in _BENCH_ORDERS]
    cdf_header = ("x", "F_B") + tuple(f"F_B_fit_n{n}" for n in _BENCH_ORDERS)

    grid, _ = fixed_point_solve(FixedPointProblem(tri, svc, grid_size=_BENCH_GRID))
    step = _BENCH_GRID // (_TABLE_POINTS - 1)
    f_ref = density_estimate(grid)[::step]
    dens_cols = [xs] + [solutions[n].density_series(xs) for n in _BENCH_ORDERS] + [f_ref]
    dens_header = ("x",) + tuple(f"f_W_fit_n{n}" for n in _BENCH_ORDERS) + ("f_W_reference",)

    prefix = config.out or "figure1"
    _emit(_csv(zip(*[c.tolist() for c in cdf_cols]), header=cdf_header), f"{prefix}_cdf.csv")
    _emit(
        _csv(zip(*[c.tolist() for c in dens_cols]), header=dens_header),
        f"{prefix}_density.csv",
    )
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

#: Each subcommand: its handler, help line, and the only flags it reads.
_COMMANDS = {
    "solve": (cmd_solve, "exact solution for a polynomial preparation CDF",
              ("dist", "mu", "order", "out", "format")),
    "fit": (cmd_fit, "Bernstein approximant of a distribution spec",
            ("dist", "order", "out", "format")),
    "bound": (cmd_bound, "certified approximation error bound",
              ("dist", "mu", "order", "grid", "out")),
    "verify": (cmd_verify, "cross-check a spec (or table1 CSV on stdin)",
               ("dist", "mu", "order", "grid", "samples", "seed", "out")),
    "table1": (cmd_table1, "benchmark table: triangular, mu=1, n=1,5,10", ("out",)),
    "figure1": (cmd_figure1, "benchmark figure data as two CSV files", ("out",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lindley-alt",
        description="Exact waiting-time laws of W = max(0, B - A - W) "
        "with certified polynomial approximation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
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
        return _COMMANDS[config.command][0](config)
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
