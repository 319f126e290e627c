"""The three benchmark workloads and their output checks.

Load is one caller in a closed loop: the next operation starts only after
the previous one has returned, and subprocesses run one at a time. Inputs
are generated, checks are made and results are parsed between operations,
outside the timed region. A run holds whole blocks (solve workloads) or
rounds (CLI pipeline): it stops after the one whose end lies nearest to the
requested seconds of timed work.

``ops_per_s`` is the median, over up to :data:`RATE_WINDOWS` consecutive
windows of whole blocks or rounds, of the ops each window completed per
timed second, so a slow spell of the shared host that covers less than
half the run does not move it. Spells as long as a run still do.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import gen
import tracing

#: Grid on which every solve operation evaluates the CDF and density.
GRID = np.arange(1025) / 1024

#: Points of the (untimed) integral-equation residual check, and its limit.
RESIDUAL_POINTS = np.linspace(1.0 / 64, 1.0, 64)
RESIDUAL_LIMIT = 1e-7

#: Windows of whole blocks or rounds whose median rate is ops_per_s.
RATE_WINDOWS = 9

#: Fresh-interpreter imports per setup_s measurement (median reported).
SETUP_REPEATS = 3

#: Fallback for the program's double/extended crossover degree.
EXTENDED_DEGREE = 12

#: Monte Carlo steps of `verify --dist`: the CLI default. Its KS check
#: needs them, so --tiny runs keep them too.
VERIFY_SAMPLES = 10**6


@dataclass
class Tally:
    """Operations attempted and failed, with the first failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)


@dataclass
class Outcome:
    """What a run reports: counts, the bounded metrics and the detail line."""

    tally: Tally
    metrics: dict  # name -> (value, unit)
    detail: dict


@dataclass(frozen=True)
class Settings:
    seed: int
    seconds: float
    tiny: bool
    python: str
    env: dict  # environment of every child interpreter


def setup_seconds(settings: Settings, module: str) -> tuple[float, list[float]]:
    """Median wall time of a fresh interpreter importing ``module``."""
    walls = []
    for _ in range(1 if settings.tiny else SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [settings.python, "-c", f"import {module}"],
            env=settings.env, check=True, timeout=120,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls), walls


def latency_summary(latencies_s: list[float]) -> dict:
    """Median and p90 in ms; p90 only where at least 10 samples lie beyond it."""
    ms = sorted(x * 1e3 for x in latencies_s)
    p90 = statistics.quantiles(ms, n=10)[8] if len(ms) >= 2 else math.inf
    beyond = sum(1 for x in ms if x > p90)
    return {
        "samples": len(ms),
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": p90 if beyond >= 10 else None,
        "op_p90_samples_beyond": beyond,
    }


def reached(group_seconds: list[float], seconds: float) -> bool:
    """Whether stopping now ends nearer to ``seconds`` of timed work than
    one more block or round of the mean length so far would."""
    total = sum(group_seconds)
    return total + total / len(group_seconds) / 2 >= seconds


def windowed_rate(groups: list[tuple[int, float]]) -> tuple[float, int]:
    """Median ops per timed second over consecutive windows of whole groups.

    ``groups`` holds (ops completed, timed seconds) per block or round; they
    are split into at most :data:`RATE_WINDOWS` windows of near-equal group
    counts. Returns the median rate and the number of windows.
    """
    windows = [w for w in np.array_split(np.arange(len(groups)), min(len(groups), RATE_WINDOWS))
               if sum(groups[i][1] for i in w) > 0]
    rates = [sum(groups[i][0] for i in w) / sum(groups[i][1] for i in w) for w in windows]
    return statistics.median(rates), len(rates)


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


@contextlib.contextmanager
def _no_span(name):
    yield None


# --------------------------------------------------------------------------
# solve-sweep and solve-highorder: library operations in-process


def _solve_op(lib, case: gen.Case, dist, tracer=None):
    """fit_report -> solve -> CDF and density on GRID: the timed operation."""
    span = tracer.span if tracer is not None else _no_span
    with span("op"):
        with span("bernstein.fit_report"):
            fit = lib.fit_report(dist, case.order)
        svc = lib.ExponentialService(case.mu)
        with span("solver.solve") as rec:
            if rec is not None:
                rec[5] = fit.fitted.degree
            sol = lib.solve(fit.fitted, svc)
        with span("solver.eval"):
            cdf = lib.eval_waiting_cdf(sol, GRID)
            dens = lib.eval_waiting_density(sol, GRID[1:])
    return fit, svc, sol, cdf, dens


def _check_solution(sol, cdf, dens) -> str | None:
    """Why a solved law's grid values are wrong, or None when they are fine."""
    if not (np.all(np.isfinite(cdf)) and np.all(np.isfinite(dens))):
        return "non-finite CDF or density"
    if abs(cdf[0] - sol.pi0) > 1e-12 or not -1e-10 <= sol.pi0 <= 1.0 + 1e-10:
        return f"atom {sol.pi0!r} does not match F(0) = {cdf[0]!r}"
    if abs(cdf[-1] - 1.0) > 1e-9:
        return f"F(1) = {cdf[-1]!r}"
    if float(np.min(np.diff(cdf))) < -1e-9:
        return "CDF decreases"
    if float(np.min(dens)) < -1e-8:
        return f"density dips to {float(np.min(dens)):.3e}"
    return None


def solve_cases(orders, settings: Settings, residual_blocks: int):
    """Blocks of (case, distribution) pairs; specs are parsed untimed."""
    from lindley_alt import parse_distribution_spec

    for block in gen.solve_blocks(orders, settings.seed, residual_blocks):
        if settings.tiny:
            block = block[:3]
        yield [(case, parse_distribution_spec(case.spec)) for case in block]


def attempt(lib, tally: Tally, case, dist, tracer=None):
    """One counted, checked operation: (seconds, (solution, fit, service)),
    or (None, None) when it raised."""
    tally.attempted += 1
    t0 = time.perf_counter()
    try:
        fit, svc, sol, cdf, dens = _solve_op(lib, case, dist, tracer)
    except lib.LindleyAltError as exc:
        tally.fail(f"order {case.order} mu {case.mu:.4g}: {type(exc).__name__}: {exc}")
        return None, None
    elapsed = time.perf_counter() - t0
    problem = _check_solution(sol, cdf, dens)
    if problem is not None:
        tally.fail(f"order {case.order} mu {case.mu:.4g}: {problem}")
    return elapsed, (sol, fit.fitted, svc)


def _warm_up(lib, orders) -> None:
    attempt(lib, Tally(), gen.Case({"type": "triangular"}, orders[0], 1.0, False),
            lib.triangular_cdf())


def _residual_checks(lib, tally: Tally, kept) -> float:
    worst = 0.0
    for case, (sol, fitted, svc) in kept:
        resid = float(lib.integral_equation_residual(sol, fitted, svc, RESIDUAL_POINTS))
        worst = max(worst, resid)
        if not resid < RESIDUAL_LIMIT:
            tally.fail(f"order {case.order} mu {case.mu:.4g}: residual {resid:.3e}")
    return worst


def extended_degree() -> int:
    """The program's double/extended crossover degree, where it still has one."""
    exact = sys.modules.get("lindley_alt._exact")
    return int(getattr(exact, "EXTENDED_DEGREE", EXTENDED_DEGREE))


def run_solve(orders, residual_blocks: int, settings: Settings) -> Outcome:
    import lindley_alt as lib

    setup, setup_walls = setup_seconds(settings, "lindley_alt")
    _warm_up(lib, orders)
    tally = Tally()
    latencies = []
    blocks = []  # (ops completed, timed seconds) per block
    kept = []
    for block in solve_cases(orders, settings, residual_blocks):
        done = len(latencies)
        for case, dist in block:
            elapsed, solved = attempt(lib, tally, case, dist)
            if elapsed is None:
                continue
            latencies.append(elapsed)
            if case.check_residual:
                kept.append((case, solved))
        blocks.append((len(latencies) - done, sum(latencies[done:])))
        if reached([b for _, b in blocks], settings.seconds):
            break
    worst = _residual_checks(lib, tally, kept)
    busy = sum(latencies)
    lat = latency_summary(latencies)
    rate, windows = windowed_rate(blocks)
    metrics = {
        "setup_s": (setup, "s"),
        "ops_per_s": (rate, "1/s"),
        "op_p50_ms": (lat["op_p50_ms"], "ms"),
        "peak_rss_mb": (_peak_rss_mb(resource.RUSAGE_SELF), "MB"),
    }
    detail = {
        "op": "fit_report -> solve -> CDF and density on 1025 points",
        "loop": "closed, one caller, in-process",
        "busy_s": busy,
        "blocks": len(blocks),
        "rate_windows": windows,
        "mean_ops_per_s": len(latencies) / busy,
        **lat,
        "fail_frac": tally.failed / tally.attempted,
        "setup_walls_s": setup_walls,
        "residual_checks": len(kept),
        "worst_residual": worst,
    }
    return Outcome(tally, metrics, detail)


def trace_solve(orders, residual_blocks: int, settings: Settings, tracer) -> Outcome:
    """Each op runs twice, untraced and traced, alternating which goes first."""
    import lindley_alt as lib

    _warm_up(lib, orders)
    tally = Tally()
    took = {False: 0.0, True: 0.0}
    kept = []
    for block in solve_cases(orders, settings, residual_blocks):
        for case, dist in block:
            tracer.op += 1
            for traced in (False, True) if tracer.op % 2 else (True, False):
                with tracing.instrument(tracer) if traced else contextlib.nullcontext():
                    elapsed, solved = attempt(lib, tally, case, dist, tracer if traced else None)
                took[traced] += elapsed or 0.0
            if elapsed is not None and case.check_residual:
                kept.append((case, solved))
        if took[False] >= settings.seconds / 2:
            break
    worst = _residual_checks(lib, tally, kept)
    loop = {"ops": tracer.op + 1, "untraced_s": took[False], "traced_s": took[True],
            "residual_checks": len(kept), "worst_residual": worst}
    return Outcome(tally, {}, loop)


# --------------------------------------------------------------------------
# cli-pipeline: the command-line tool as a user runs it


def _round_commands(rnd: gen.Round):
    """(key, argv, reads table1 output) for the six processes of one round."""
    return [
        ("fit", ["fit", "--dist", json.dumps(rnd.fit_spec), "--order", str(rnd.fit_order)], False),
        ("solve", ["solve", "--dist", json.dumps(rnd.solve_spec), "--mu", repr(rnd.solve_mu)], False),
        ("bound", ["bound", "--dist", json.dumps(rnd.bound_spec), "--order",
                   str(rnd.bound_order), "--mu", repr(rnd.bound_mu)], False),
        ("table1", ["table1"], False),
        ("verify_table1", ["verify"], True),
        ("verify", ["verify", "--dist", json.dumps(rnd.verify_spec), "--order", "5",
                    "--mu", repr(gen.MU_HI), "--seed", str(rnd.verify_seed),
                    "--samples", str(VERIFY_SAMPLES)], False),
    ]


def _check_cli(key: str, code: int, out: str) -> str | None:
    """Why a command's exit code or output is wrong, or None when fine."""
    if code != 0:
        return f"{key}: exit {code}"
    try:
        if key == "fit":
            payload = json.loads(out)
            if abs(math.fsum(payload["coeffs"]) - 1.0) > 1e-9 or not payload["epsilon"] >= 0.0:
                return "fit: coefficients do not sum to 1 or epsilon < 0"
        elif key == "solve":
            payload = json.loads(out)
            if not (0.0 <= payload["pi0"] <= 1.0 and len(payload["roots"]) == 2 * len(payload["qs"])):
                return "solve: atom outside [0, 1] or unpaired roots"
        elif key == "bound":
            payload = json.loads(out)
            if not payload["measured_cdf_gap"] <= payload["certified_bound"]:
                return (f"bound: measured gap {payload['measured_cdf_gap']:.3e} exceeds "
                        f"certified bound {payload['certified_bound']:.3e}")
        elif key == "table1":
            if len(out.strip().splitlines()) != 4:
                return "table1: expected a header and three rows"
        else:
            lines = out.strip().splitlines()
            expected = 3 if key == "verify_table1" else 4
            if len(lines) != expected or not all(line.startswith("PASS") for line in lines):
                return f"{key}: {out.strip()!r}"
    except (ValueError, KeyError, TypeError) as exc:
        return f"{key}: unreadable output ({exc})"
    return None


def run_cli(settings: Settings) -> Outcome:
    """One op is one round: the six processes a user runs for one spec.

    Per-round times keep the median inside one population; per process,
    the median would sit on the edge between the import-bound commands and
    the two that compute for seconds, and jump between them with noise.
    """
    setup, setup_walls = setup_seconds(settings, "lindley_alt.cli")
    tally = Tally()
    walls: dict[str, list[float]] = {}
    rounds = []
    for rnd in gen.cli_rounds(settings.seed):
        table1_out = ""
        took = 0.0
        for key, argv, reads_table1 in _round_commands(rnd):
            tally.attempted += 1
            t0 = time.perf_counter()
            proc = subprocess.run(
                [settings.python, "-m", "lindley_alt.cli", *argv],
                input=table1_out if reads_table1 else None,
                env=settings.env, capture_output=True, text=True, timeout=150,
            )
            elapsed = time.perf_counter() - t0
            took += elapsed
            walls.setdefault(key, []).append(elapsed)
            problem = _check_cli(key, proc.returncode, proc.stdout)
            if problem is not None:
                tally.fail(f"{problem} [{proc.stderr.strip()}]")
            if key == "table1":
                table1_out = proc.stdout
        rounds.append(took)
        if reached(rounds, settings.seconds):
            break
    busy = sum(rounds)
    lat = latency_summary(rounds)
    rate, windows = windowed_rate([(1, took) for took in rounds])
    per_command = {
        "cli_fit_s": walls["fit"],
        "cli_solve_s": walls["solve"],
        "cli_bound_s": walls["bound"],
        "cli_table1_verify_s": [a + b for a, b in zip(walls["table1"], walls["verify_table1"])],
        "cli_verify_s": walls["verify"],
    }
    metrics = {
        "setup_s": (setup, "s"),
        "ops_per_s": (rate, "1/s"),
        "op_p50_ms": (lat["op_p50_ms"], "ms"),
        "peak_rss_mb": (_peak_rss_mb(resource.RUSAGE_CHILDREN), "MB"),
    }
    detail = {
        "op": "one round: fit, solve, bound, table1 | verify, verify as `python -m lindley_alt.cli`",
        "loop": "closed, one caller, one subprocess at a time",
        "busy_s": busy,
        "rate_windows": windows,
        "mean_ops_per_s": len(rounds) / busy,
        **lat,
        "process_p50_ms": statistics.median(w for ws in walls.values() for w in ws) * 1e3,
        **{k: {"value": statistics.median(v), "unit": "s", "samples": len(v)}
           for k, v in per_command.items()},
        "process_walls_s": walls,
        "fail_frac": tally.failed / tally.attempted,
        "setup_walls_s": setup_walls,
    }
    return Outcome(tally, metrics, detail)


def cli_main_round(cli, rnd: gen.Round, tally: Tally, tracer=None) -> float:
    """One round through ``cli.main`` in-process; returns the timed seconds."""
    span = tracer.span if tracer is not None else _no_span
    busy = 0.0
    table1_out = ""
    for key, argv, _ in _round_commands(rnd):
        tally.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        saved_stdin, sys.stdin = sys.stdin, io.StringIO(table1_out)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                with span(f"cli.main.{key}"):
                    code = cli.main(argv)
                busy += time.perf_counter() - t0
        finally:
            sys.stdin = saved_stdin
        problem = _check_cli(key, code, out.getvalue())
        if problem is not None:
            tally.fail(f"{problem} [{err.getvalue().strip()}]")
        if key == "table1":
            table1_out = out.getvalue()
    return busy


def trace_cli(settings: Settings, tracer) -> Outcome:
    """Rounds through ``cli.main`` in-process, each untraced and traced,
    alternating which goes first."""
    from lindley_alt import cli

    cli_main_round(cli, next(gen.cli_rounds(settings.seed + 1)), Tally())  # warm-up
    tally = Tally()
    took = {False: 0.0, True: 0.0}
    for rnd in gen.cli_rounds(settings.seed):
        tracer.op += 1
        for traced in (False, True) if tracer.op % 2 else (True, False):
            with tracing.instrument(tracer) if traced else contextlib.nullcontext():
                took[traced] += cli_main_round(cli, rnd, tally, tracer if traced else None)
        if took[False] >= settings.seconds / 2:
            break
    loop = {"ops": tracer.op + 1, "untraced_s": took[False], "traced_s": took[True]}
    return Outcome(tally, {}, loop)
