"""Per-layer metrics of a traced run (``--trace 1``).

A layer is a module of ``lindley_alt``. Each metric is the median over the
spans of one call site (or of a per-call quantity derived from spans); the
comment beside each names the end-to-end metric it should move, and on
which workload.

A traced run first runs its workload's own loop. Layers that loop never
reaches (the oracles on a solve workload, the extended path on
``solve-sweep`` and ``cli-pipeline``) are then measured by one short seeded
probe each, so every traced run reports every layer; the result's detail
line names the probes that ran. The extended-path probe is one block of
orders 13-24 (about 7 s), so the ``exact.*`` medians span the extended
orders. Samples from the workload's own loop take precedence over probe
samples.
"""

from __future__ import annotations

import statistics

import gen
import tracing
import workloads
from tracing import child_sums, durations, op_sums, sums_by_parent, values


def _per_million_draws(spans):
    return [(s[4], (s[2] - s[1]) * 1e9 / s[5]) for s in spans
            if s[0] == "distributions.inverse_cdf" and s[5]]


def _recursion(spans):
    """Simulation time outside inverse-CDF sampling, per simulate call."""
    sampled = sums_by_parent(spans, "oracle.simulate", {"distributions.inverse_cdf"})
    return [(s[4], (s[2] - s[1]) * 1e3 - sampled.get(i, 0.0))
            for i, s in enumerate(spans) if s[0] == "oracle.simulate"]


#: name -> (unit, samples(spans)). The comment names the end-to-end metric
#: and workload each should move.
TIMED = {
    # cli: setup_s and ops on cli-pipeline, nothing on the solve workloads
    "cli.main.fit_ms": ("ms", lambda sp: durations(sp, "cli.main.fit")),
    "cli.main.solve_ms": ("ms", lambda sp: durations(sp, "cli.main.solve")),
    "cli.main.bound_ms": ("ms", lambda sp: durations(sp, "cli.main.bound")),
    "cli.main.table1_verify_ms": (
        "ms", lambda sp: op_sums(sp, {"cli.main.table1", "cli.main.verify_table1"})),
    "cli.main.verify_ms": ("ms", lambda sp: durations(sp, "cli.main.verify")),
    # bernstein: ops_per_s and op_p50_ms on solve-sweep (about 1 ms of a 4 ms op)
    "bernstein.fit_report_ms": ("ms", lambda sp: durations(sp, "bernstein.fit_report")),
    # solver, double path: ops on solve-sweep; the residual moves cli verify
    "solver.nu_char_ms": ("ms", lambda sp: child_sums(sp, "solver.solve", {"solver.nu", "solver.char"})),
    "solver.roots_ms": ("ms", lambda sp: child_sums(
        sp, "solver.solve", {"solver.find_roots", "solver.pair_roots"})),
    "solver.assemble_ms": ("ms", lambda sp: child_sums(sp, "solver.solve", {"solver.assemble"})),
    "solver.solve_ms": ("ms", lambda sp: durations(sp, "solver.solve")),
    "solver.eval_ms": ("ms", lambda sp: durations(sp, "solver.eval")),
    "solver.residual_ms": ("ms", lambda sp: durations(sp, "solver.residual")),
    # _exact: ops on solve-highorder (run by hand, see run.py) only
    "exact.nu_char_ms": ("ms", lambda sp: child_sums(sp, "exact.assembly", {"exact.nu", "exact.char"})),
    "exact.assembly_ms": ("ms", lambda sp: durations(sp, "exact.assembly")),
    # oracle and bounds: bound and table1 | verify on cli-pipeline
    "oracle.kernel_ms": ("ms", lambda sp: durations(sp, "oracle.kernel")),
    "oracle.fixed_point_ms": ("ms", lambda sp: durations(sp, "oracle.fixed_point")),
    "oracle.fixed_point_iters": ("count", lambda sp: values(sp, "oracle.fixed_point")),
    "oracle.density_estimate_ms": ("ms", lambda sp: durations(sp, "oracle.density_estimate")),
    "bounds.certify_ms": ("ms", lambda sp: durations(sp, "bounds.certify")),
    # sampler: verify and peak memory on cli-pipeline, nothing else
    "distributions.inverse_cdf_ms": ("ms", _per_million_draws),
    "oracle.simulate_ms": ("ms", lambda sp: durations(sp, "oracle.simulate")),
    "oracle.recursion_ms": ("ms", _recursion),
    "oracle.ks_ms": ("ms", lambda sp: durations(sp, "oracle.ks")),
}

#: `python -X importtime -c "import lindley_alt.cli"` modules per metric.
IMPORTS = {
    "cli.import_ms": "lindley_alt.cli",
    "cli.import_scipy_signal_ms": "scipy.signal",
    "cli.import_numpy_ms": "numpy",
    "cli.import_mpmath_ms": "mpmath",
}


def _pick(samples):
    """Median of the loop's samples, or of the probes' when the loop has none."""
    own = [v for op, v in samples if op >= 0]
    chosen = own or [v for _, v in samples]
    return statistics.median(chosen) if chosen else None


def probe_missing(tracer, settings, tally) -> list[str]:
    """Measure, once each, the layers the workload's loop did not reach."""
    import lindley_alt as lib

    seen = {s[0] for s in tracer.spans}
    tracer.op = -1
    probed = []
    with tracing.instrument(tracer):
        if "solver.nu" not in seen:
            block = next(workloads.solve_cases(gen.SWEEP_ORDERS, settings, 0))
            for case, dist in block:
                workloads.attempt(lib, tally, case, dist, tracer)
            probed.append("solve-sweep block")
        if "exact.assembly" not in seen:
            for case, dist in next(workloads.solve_cases(gen.HIGH_ORDERS, settings, 0)):
                workloads.attempt(lib, tally, case, dist, tracer)
            probed.append("solve-highorder block")
        if "cli.main.fit" not in seen:
            from lindley_alt import cli

            workloads.cli_main_round(cli, next(gen.cli_rounds(settings.seed)), tally, tracer)
            probed.append("cli-pipeline round in-process")
    return probed


def layer_metrics(tracer, settings, loop: dict) -> tuple[dict, dict]:
    """Every per-layer metric, and the detail behind them."""
    spans = tracer.spans
    metrics = {}
    unmeasured = []
    imports = tracing.import_times(
        [settings.python, "-c", "import lindley_alt.cli"], settings.env,
        repeats=1 if settings.tiny else 3,
    )
    for name, module in IMPORTS.items():
        metrics[name] = (imports[module], "ms")
    for name, (unit, samples) in TIMED.items():
        value = _pick(samples(spans))
        if value is None:
            unmeasured.append(name)
            value = 0.0
        metrics[name] = (value, unit)
    solves = [s for s in spans if s[0] == "solver.solve" and s[4] >= 0]
    crossover = workloads.extended_degree()
    metrics["solver.attempts"] = (len(solves), "count")
    metrics["solver.failures"] = (sum(1 for s in solves if s[6] is not None), "count")
    metrics["solver.extended_share"] = (
        sum(1 for s in solves if (s[5] or 0) > crossover) / max(len(solves), 1), "share")
    ops = loop["ops"]
    metrics["trace.overhead_ms"] = ((loop["traced_s"] - loop["untraced_s"]) * 1e3 / ops, "ms")
    detail = {
        **loop,
        "tracing_overhead_share": (loop["traced_s"] - loop["untraced_s"]) / loop["untraced_s"],
        "self_ms_per_op": {k: v / ops for k, v in
                           sorted(tracing.self_time_by_layer(spans).items())},
        "unmeasured": unmeasured,
        "spans": len(spans),
    }
    return metrics, detail

