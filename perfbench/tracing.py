"""Spans recorded by the benchmark around calls into ``lindley_alt``.

Tracing lives entirely in the benchmark: :func:`instrument` swaps the
public functions named in :data:`PROBES` for wrappers that record a span
per call, in the module namespaces the program looks them up from, and
restores the originals afterwards. ``src/`` is never edited.

A span is ``[name, start, end, parent, op, value, error]``: ``parent`` is
the index of the enclosing span (-1 at the top), ``op`` the operation the
span belongs to (-1 outside the workload's own loop), ``value`` an optional
number taken from the call (solved degree, fixed-point iterations, Monte
Carlo draws) and ``error`` the name of the exception the call raised, if
any. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import re
import statistics
import subprocess
import time
from collections import defaultdict

#: (module, attribute, span name, value of the call or None). Each entry is
#: a place the program looks a layer's function up at call time, so the
#: wrapper sees every call made through it.
PROBES = (
    ("lindley_alt.cli", "fit_report", "bernstein.fit_report", None),
    ("lindley_alt.bounds", "fit_report", "bernstein.fit_report", None),
    ("lindley_alt.cli", "solve", "solver.solve", lambda a, r: a[0].degree),
    ("lindley_alt.bounds", "solve", "solver.solve", lambda a, r: a[0].degree),
    ("lindley_alt.solver", "nu_coefficients", "solver.nu", None),
    ("lindley_alt.solver", "characteristic_polynomial", "solver.char", None),
    ("lindley_alt.solver", "find_roots", "solver.find_roots", None),
    ("lindley_alt.solver", "pair_roots", "solver.pair_roots", None),
    ("lindley_alt.solver", "assemble_linear_system", "solver.assemble", None),
    ("lindley_alt.solver", "extended_assembly", "exact.assembly", None),
    ("lindley_alt._exact", "exact_nu", "exact.nu", None),
    ("lindley_alt._exact", "exact_char", "exact.char", None),
    ("lindley_alt.solver", "integral_equation_residual", "solver.residual", None),
    ("lindley_alt.cli", "_sample_table", "solver.eval", None),
    ("lindley_alt.cli", "certify_approximation", "bounds.certify", None),
    ("lindley_alt.cli", "fixed_point_solve", "oracle.fixed_point", lambda a, r: r[1]),
    ("lindley_alt.bounds", "fixed_point_solve", "oracle.fixed_point", lambda a, r: r[1]),
    ("lindley_alt.oracle", "precompute_kernel", "oracle.kernel", None),
    ("lindley_alt.bounds", "density_estimate", "oracle.density_estimate", None),
    ("lindley_alt.cli", "simulate", "oracle.simulate", None),
    ("lindley_alt.oracle", "inverse_cdf_array", "distributions.inverse_cdf", lambda a, r: len(a[1])),
    ("lindley_alt.cli", "ks_distance", "oracle.ks", None),
)


class Tracer:
    """In-memory span recorder for one run."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, self.op, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        except Exception as exc:
            rec[6] = type(exc).__name__
            raise
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, value=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if value is not None:
                    rec[5] = value(args, result)
            return result

        return traced

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op", "value", "error")
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every call listed in :data:`PROBES` through ``tracer``.

    A probe whose function the program no longer has is skipped; its layer
    metrics then have no spans and read as unmeasured.
    """
    saved = []
    try:
        for module_name, attr, name, value in PROBES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name, value))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _ms(rec) -> float:
    return (rec[2] - rec[1]) * 1e3


def durations(spans, name: str) -> list[tuple[int, float]]:
    """(op, ms) of every span with this name."""
    return [(s[4], _ms(s)) for s in spans if s[0] == name]


def values(spans, name: str) -> list[tuple[int, float]]:
    """(op, value) of every span with this name that carries a value."""
    return [(s[4], s[5]) for s in spans if s[0] == name and s[5] is not None]


def sums_by_parent(spans, parent_name: str, child_names) -> dict[int, float]:
    """Span index of each ``parent_name`` span -> the summed ms of its direct
    children named in ``child_names``. Parents without them are left out."""
    sums: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[0] in child_names and s[3] >= 0 and spans[s[3]][0] == parent_name:
            sums[s[3]] += _ms(s)
    return sums


def child_sums(spans, parent_name: str, child_names) -> list[tuple[int, float]]:
    """(op, ms) per ``parent_name`` span, as in :func:`sums_by_parent`."""
    return [(spans[i][4], ms) for i, ms in sums_by_parent(spans, parent_name, child_names).items()]


def op_sums(spans, names) -> list[tuple[int, float]]:
    """(op, ms) per operation: the summed time of its spans named in
    ``names`` (all spans outside the workload's loop share op -1)."""
    sums: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[0] in names:
            sums[s[4]] += _ms(s)
    return list(sums.items())


def self_time_by_layer(spans) -> dict[str, float]:
    """Total self time in ms per layer (the span name up to its first dot),
    over the spans of the workload's own operations.

    A span's self time is its duration minus the time its direct children
    cover; the benchmark's own per-operation spans form the ``op`` layer.
    """
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[3] >= 0:
            covered[s[3]] += _ms(s)
    out: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        if s[4] >= 0:
            out[s[0].split(".", 1)[0]] += _ms(s) - covered[i]
    return dict(out)


_IMPORT_LINE = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S.*)$")


def import_times(cmd, env, repeats: int) -> dict[str, float]:
    """Median cumulative import ms per module from ``python -X importtime``.

    ``cmd`` is the interpreter followed by its arguments; ``-X importtime``
    is inserted after the interpreter. Modules that were not imported read 0.
    """
    wanted = ("lindley_alt.cli", "scipy.signal", "numpy", "mpmath")
    samples = defaultdict(list)
    for _ in range(repeats):
        proc = subprocess.run(
            [cmd[0], "-X", "importtime", *cmd[1:]],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        seen = {}
        for line in proc.stderr.splitlines():
            m = _IMPORT_LINE.match(line)
            if m and m.group(3).strip() not in seen:
                seen[m.group(3).strip()] = int(m.group(2)) / 1e3
        for mod in wanted:
            samples[mod].append(seen.get(mod, 0.0))
    return {mod: statistics.median(v) for mod, v in samples.items()}
