"""Seeded benchmark of lindley_alt.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve-sweep --seed 1 --seconds 50 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``solve-sweep``: the library in a parameter sweep. One op is
  ``fit_report`` -> ``solve`` -> CDF and density on 1025 points, orders
  1-12 (the double-precision solver).
* ``cli-pipeline``: ``python -m lindley_alt.cli`` as a user runs it, import
  included: ``fit``, ``solve``, ``bound``, ``table1`` then ``verify`` reading
  it, and ``verify --dist ... --order 5`` with 1e6 Monte Carlo steps. One op
  is one such round of six processes.
* ``solve-highorder``: the solve-sweep op at orders 13-24, where ``solve``
  takes the extended-precision (mpmath) path. Not in BENCHMARK.json: a
  round of the CLI pipeline takes about 13 s, so it needs long runs to give
  a steady median, and three workloads of such runs do not fit the time the
  gated runs may take. Run it by hand to see the extended path end to end;
  traced runs of the other two still measure its layers with a probe.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the traced
variant and prints the per-layer metrics (see layers.py), writing its spans
to ``perfbench/out/``. Before the result line, one JSON line carries the
environment fingerprint and the run's detail: sample counts, op_p90_ms
where at least ten samples lie beyond it, per-command CLI medians
(cli_fit_s, cli_solve_s, cli_bound_s, cli_table1_verify_s, cli_verify_s),
the failure fraction and the reasons for any failure. The last line is
``{"correct", "attempted", "failed", "metrics"}``.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import subprocess
import sys
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("solve-sweep", "solve-highorder", "cli-pipeline")

#: Blocks of solve-sweep whose checked case also gets the residual check.
SWEEP_RESIDUAL_BLOCKS = 8


def _blas_threads(numpy_module):
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    libs = Path(numpy_module.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def fingerprint() -> dict:
    """Interpreter, library versions, mpmath backend, BLAS and core count."""
    import mpmath.libmp
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "mpmath": metadata.version("mpmath"),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
        "nproc": len(os.sched_getaffinity(0)),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test size: three-case blocks, one setup and import sample")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lindley_alt" / "__init__.py").is_file():
        print(f"perfbench: no lindley_alt package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    import tracing
    import workloads
    from gen import HIGH_ORDERS, SWEEP_ORDERS

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    settings = workloads.Settings(args.seed, args.seconds, args.tiny, sys.executable, env)
    # untimed warm-up: byte-compiles the sources so setup_s never includes it
    subprocess.run([sys.executable, "-c", "import lindley_alt.cli"], env=env, check=True,
                   timeout=300, stdout=subprocess.DEVNULL)

    orders, residual_blocks = {
        "solve-sweep": (SWEEP_ORDERS, SWEEP_RESIDUAL_BLOCKS),
        "solve-highorder": (HIGH_ORDERS, 0),
    }.get(args.workload, (None, 0))
    if not args.trace:
        if orders is None:
            outcome = workloads.run_cli(settings)
        else:
            outcome = workloads.run_solve(orders, residual_blocks, settings)
    else:
        tracer = tracing.Tracer()
        if orders is None:
            outcome = workloads.trace_cli(settings, tracer)
        else:
            outcome = workloads.trace_solve(orders, residual_blocks, settings, tracer)
        probed = layers.probe_missing(tracer, settings, outcome.tally)
        outcome.metrics, outcome.detail = layers.layer_metrics(tracer, settings, outcome.detail)
        outcome.detail["probed"] = probed
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl"
        tracer.dump(spans_path)
        outcome.detail["spans_file"] = str(spans_path.relative_to(ROOT))

    tally = outcome.tally
    outcome.detail["failures"] = tally.reasons
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "env": fingerprint(), "detail": outcome.detail}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
