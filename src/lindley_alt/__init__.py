"""Exact steady-state waiting-time laws for W = max{0, B - A - W}.

The recursion alternates a preparation phase B (any distribution on [0, 1])
with an exponential service phase A. For polynomial preparation CDFs the
steady-state law of W is available in closed form — an atom at zero plus a
mixture of exponential modes — and this package computes it exactly,
approximates arbitrary preparation laws by Bernstein polynomial CDFs with
certified sup-norm error bounds, and cross-validates everything against
two independent oracles (a fixed-point grid iteration and direct Monte
Carlo simulation of the recursion).

Public surface:

* :mod:`lindley_alt.distributions` — CDF types, validation, sampling;
* :mod:`lindley_alt.solver` — the exact solver;
* :mod:`lindley_alt.bernstein` — polynomial fitting and sup distances;
* :mod:`lindley_alt.oracle` — fixed-point and Monte Carlo references;
* :mod:`lindley_alt.bounds` — certified error bounds;
* :mod:`lindley_alt.cli` — the `lindley-alt` command-line tool.

Every name in ``__all__`` can be imported from the package itself. Only the
error types (pure Python) and ``__version__`` load with it; every other name
is imported from its home module on first use (PEP 562), so
``import lindley_alt`` loads no numpy. The CLI loads layers per command in
the same way: ``fit`` loads distributions and bernstein, ``solve`` adds the
solver, ``figure1`` adds the oracles as well, and ``bound``, ``table1`` and
``verify`` load every layer, the bounds included. ``--version``, ``--help``
and usage errors load none of them and no numpy.
"""

from importlib import import_module

from . import errors
from .errors import (
    ConvergenceFailure,
    DegenerateMode,
    IllConditioned,
    InputError,
    LindleyAltError,
    NonConvergence,
    NotACdf,
    NumericalError,
    OrderTooHigh,
    PostconditionViolation,
    RepeatedRoot,
)

__version__ = "1.0.0"

#: Home module of every public name other than the error types; the CLI
#: binds the names its commands call from this table too.
_LAZY = {
    "distributions": (
        "ExponentialService",
        "PolynomialCdf",
        "PiecewisePolynomialCdf",
        "validate",
        "eval_cdf",
        "eval_density",
        "inverse_cdf",
        "sample",
        "prob_B_greater_A",
        "uniform_cdf",
        "triangular_cdf",
        "parse_distribution_spec",
    ),
    "solver": (
        "WaitingTimeSolution",
        "solve",
        "eval_waiting_cdf",
        "eval_waiting_density",
        "integral_equation_residual",
        "solution_summary",
    ),
    "bernstein": ("FitReport", "bernstein_fit", "fit_report", "sup_distance"),
    "oracle": (
        "GridCdf",
        "FixedPointProblem",
        "precompute_kernel",
        "fixed_point_solve",
        "density_estimate",
        "simulate",
        "SimulationResult",
        "ks_distance",
    ),
    "bounds": (
        "BoundReport",
        "CertificationResult",
        "waiting_error_bound",
        "certify_approximation",
    ),
    "_moments": ("exp_weighted_moment",),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = ["__version__", *errors.__all__, *_HOME]


def __getattr__(name):
    """Import a public name from its home module on first access (PEP 562)."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
