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
"""

from .errors import (
    AsymmetryDetected,
    ConvergenceFailure,
    DegenerateMode,
    IllConditioned,
    InputError,
    LindleyAltError,
    NonConvergence,
    NotACdf,
    NumericalError,
    OrderTooHigh,
    PairingFailure,
    PostconditionViolation,
    RepeatedRoot,
)
from .distributions import (
    ExponentialService,
    PiecewisePolynomialCdf,
    PolynomialCdf,
    eval_cdf,
    eval_density,
    inverse_cdf,
    parse_distribution_spec,
    prob_B_greater_A,
    sample,
    triangular_cdf,
    uniform_cdf,
    validate,
)
from .solver import (
    WaitingTimeSolution,
    eval_waiting_cdf,
    eval_waiting_density,
    integral_equation_residual,
    solution_summary,
    solve,
)
from .bernstein import FitReport, bernstein_fit, fit_report, sup_distance
from .oracle import (
    FixedPointProblem,
    GridCdf,
    SimulationResult,
    density_estimate,
    fixed_point_solve,
    ks_distance,
    precompute_kernel,
    simulate,
)
from .bounds import (
    BoundReport,
    CertificationResult,
    certify_approximation,
    waiting_error_bound,
)
from ._moments import exp_weighted_moment

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "LindleyAltError",
    "InputError",
    "NotACdf",
    "OrderTooHigh",
    "NumericalError",
    "AsymmetryDetected",
    "RepeatedRoot",
    "ConvergenceFailure",
    "PairingFailure",
    "DegenerateMode",
    "PostconditionViolation",
    "NonConvergence",
    "IllConditioned",
    # distributions
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
    # solver
    "WaitingTimeSolution",
    "solve",
    "eval_waiting_cdf",
    "eval_waiting_density",
    "integral_equation_residual",
    "solution_summary",
    # fitting
    "FitReport",
    "bernstein_fit",
    "fit_report",
    "sup_distance",
    # oracle
    "GridCdf",
    "FixedPointProblem",
    "precompute_kernel",
    "fixed_point_solve",
    "density_estimate",
    "simulate",
    "SimulationResult",
    "ks_distance",
    # bounds
    "BoundReport",
    "CertificationResult",
    "waiting_error_bound",
    "certify_approximation",
    # moments
    "exp_weighted_moment",
]
