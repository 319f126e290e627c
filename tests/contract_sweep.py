"""Tally of the solver's contract over a sweep of laws and rates.

The contract: a solve returns a law that satisfies the stationary integral
equation, or else raises a typed error. Each case fits a law, solves it and
is counted in one column:

* clean: the solve returns and the integral-equation residual at 65
  Chebyshev-Lobatto points of [0, 1] is at most 1e-10 max(1, mu);
* typed exit 2 / typed exit 3: the solve raises an error the CLI reports
  with that exit code (InputError or ValueError / NumericalError);
* silently wrong: the solve returns, but the residual exceeds that gate;
* unchecked: the solve returns, but the residual refuses its density series;
* untyped: the solve raises anything else.

Double path: the uniform law, triangular fits of orders 1, 3, 5, 8 and 12,
and two random 3-piece laws (seeds 1 and 2) fitted at orders 4 and 10, each
at 25 log-spaced rates on [1e-3, 1e9]. Extended path: triangular fits of
orders 16, 24, 32 and 40 and seed 1 at orders 20 and 32, each at 5
log-spaced rates on [1e-3, 1e3]. It exits 1 if any case ends in an untyped
error, and asserts nothing about the other columns; pytest does not collect
it, and CI runs it. Run it from the repository root (about a minute):

    PYTHONPATH=src python tests/contract_sweep.py
"""

from __future__ import annotations

import sys
import time
import warnings

import numpy as np
from conftest import random_piecewise_cdf

from lindley_alt.bernstein import bernstein_fit
from lindley_alt.distributions import ExponentialService, triangular_cdf, uniform_cdf
from lindley_alt.errors import InputError, NumericalError
from lindley_alt.solver import integral_equation_residual, solve

COLUMNS = ("clean", "typed exit 2", "typed exit 3", "silently wrong", "unchecked", "untyped")
POINTS = 0.5 - 0.5 * np.cos(np.pi * np.arange(65) / 64)  # Chebyshev-Lobatto on [0, 1]


def outcome(prep, mu: float) -> str:
    svc = ExponentialService(mu)
    try:
        sol = solve(prep, svc)
    except (InputError, ValueError):
        return "typed exit 2"
    except NumericalError:
        return "typed exit 3"
    except Exception:
        return "untyped"
    try:
        resid = integral_equation_residual(sol, prep, svc, POINTS)
    except InputError:
        return "unchecked"
    return "clean" if resid <= 1e-10 * max(1.0, mu) else "silently wrong"


def tally(fits, rates) -> dict[str, int]:
    counts = dict.fromkeys(COLUMNS, 0)
    for prep in fits:
        for mu in rates:
            counts[outcome(prep, float(mu))] += 1
    return counts


def main() -> int:
    warnings.simplefilter("ignore")  # IllConditioned is advisory
    tri = triangular_cdf()
    seeds = {s: random_piecewise_cdf(np.random.default_rng(s), pieces=3) for s in (1, 2)}
    double = [uniform_cdf()] + [bernstein_fit(tri, n) for n in (1, 3, 5, 8, 12)]
    double += [bernstein_fit(law, n) for law in seeds.values() for n in (4, 10)]
    extended = [bernstein_fit(tri, n) for n in (16, 24, 32, 40)]
    extended += [bernstein_fit(seeds[1], n) for n in (20, 32)]
    print(f"{'path':<10}{'cases':>6}" + "".join(f"{c:>16}" for c in COLUMNS))
    start, untyped = time.perf_counter(), 0
    for path, fits, rates in (
        ("double", double, np.logspace(-3, 9, 25)),
        ("extended", extended, np.logspace(-3, 3, 5)),
    ):
        counts = tally(fits, rates)
        untyped += counts["untyped"]
        row = "".join(f"{counts[c]:>16}" for c in COLUMNS)
        print(f"{path:<10}{len(fits) * len(rates):>6}{row}")
    print(f"{time.perf_counter() - start:.0f} s")
    return 1 if untyped else 0


if __name__ == "__main__":
    sys.exit(main())
