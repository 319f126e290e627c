"""Certified error bounds for polynomial-fit waiting-time approximations.

The contraction argument gives a computable certificate: if the fitted
preparation CDF is within epsilon of the true one in sup norm, then the
exact waiting-time law of the *fit* is within

    epsilon / (1 - P[B > A])

of the true waiting-time law. :func:`certify_approximation` assembles the
whole pipeline — fit, exact solve on the fit, independent fixed-point
reference on the true input — and reports the certified bound next to the
measured distances.

Two bound conventions are always reported side by side:

* ``certified_bound`` — epsilon / (1 - P[B > A]), the proven certificate;
* ``alternate_bound`` — epsilon / (1 - E[exp(-mu * B)]), a historically
  used variant whose constant E[exp(-mu*B)] equals 1 - P[B > A], i.e. the
  complementary probability slips into the denominator. It is tighter-
  looking but not backed by the contraction argument; it is reported for
  comparability and labeled as such.

Similarly, two density distances are reported: ``density_sup`` is the
genuine sup of |f_hat - f_ref| on the grid, while ``density_excess`` is the
one-sided max(f_hat - f_ref), a convention that ignores undershoot; both
appear because published comparisons have used the one-sided variant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bernstein import FitReport, fit_report
from .distributions import ExponentialService, _require_law, prob_B_greater_A
from .errors import PostconditionViolation
from .oracle import (
    DEFAULT_GRID,
    DEFAULT_TOL,
    FixedPointProblem,
    GridCdf,
    density_estimate,
    fixed_point_solve,
)
from .solver import (
    WaitingTimeSolution,
    eval_waiting_cdf,
    eval_waiting_density,
    solve,
)

__all__ = [
    "BoundReport",
    "CertificationResult",
    "waiting_error_bound",
    "certify_approximation",
]

#: Numerical slack allowed on the runtime check `measured <= certified`:
#: covers fixed-point stopping error, grid discretization of the sup, and
#: FFT roundoff, all orders of magnitude below this value.
CERTIFICATE_SLACK = 5e-4


def waiting_error_bound(epsilon: float, contraction: float) -> float:
    """The sup-norm waiting-time error certified by a fit error epsilon.

    Parameters
    ----------
    epsilon:
        Sup-norm distance between the true and fitted preparation CDFs.
    contraction:
        The contraction rate of the stationarity map, P[B > A]; must lie
        in [0, 1).

    Returns
    -------
    float
        epsilon / (1 - contraction).
    """
    if not 0.0 <= contraction < 1.0:
        raise ValueError(
            f"contraction must lie in [0, 1), got {contraction!r}"
        )
    if epsilon < 0.0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon!r}")
    return epsilon / (1.0 - contraction)


@dataclass(frozen=True)
class BoundReport:
    """Certified and alternate bounds for one fit."""

    epsilon: float
    contraction: float
    certified_bound: float
    alternate_constant: float
    alternate_bound: float

    def as_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "contraction": self.contraction,
            "certified_bound": self.certified_bound,
            "alternate_constant": self.alternate_constant,
            "alternate_bound": self.alternate_bound,
        }


@dataclass(frozen=True)
class CertificationResult:
    """Everything one certification run produces.

    ``cdf_distance`` is measured between the exact solution for the fit and
    the fixed-point reference for the true input, on the reference grid.
    """

    report: BoundReport
    solution: WaitingTimeSolution
    fit: FitReport
    reference: GridCdf
    cdf_distance: float
    density_excess: float
    density_sup: float

    @property
    def satisfied(self) -> bool:
        """Whether the measured CDF distance respects the certificate."""
        return self.cdf_distance <= self.report.certified_bound + CERTIFICATE_SLACK


def certify_approximation(
    dist,
    order: int,
    svc: ExponentialService,
    *,
    grid_size: int = DEFAULT_GRID,
    tolerance: float = DEFAULT_TOL,
    reference: GridCdf | None = None,
) -> CertificationResult:
    """Fit, solve, cross-validate, and bound — the full certification run.

    Fits ``dist`` at the given order, solves the fitted problem exactly,
    computes the independent fixed-point reference for ``dist`` itself
    (reused if ``reference`` is supplied for the same grid), and measures
    the sup distances between the two. The measured CDF distance must
    respect the certified bound up to :data:`CERTIFICATE_SLACK`; a breach
    raises :class:`PostconditionViolation` since it would falsify either
    the solver or the oracle. ``dist`` must be a polynomial or piecewise-
    polynomial law; a plain callable raises :class:`InputError` before any
    fit or solve work.
    """
    _require_law(dist, "certify_approximation")
    fit = fit_report(dist, order)
    solution = solve(fit.fitted, svc)
    if reference is None:
        reference, _ = fixed_point_solve(
            FixedPointProblem(dist, svc, grid_size=grid_size, tolerance=tolerance)
        )
    elif reference.grid_size != grid_size:
        raise ValueError(
            f"supplied reference has grid {reference.grid_size}, expected {grid_size}"
        )
    contraction = prob_B_greater_A(dist, svc)
    epsilon = fit.sup_error
    certified = waiting_error_bound(epsilon, contraction)
    alternate_constant = 1.0 - contraction  # E[exp(-mu B)]
    alternate = waiting_error_bound(epsilon, alternate_constant)
    report = BoundReport(
        epsilon=epsilon,
        contraction=contraction,
        certified_bound=certified,
        alternate_constant=alternate_constant,
        alternate_bound=alternate,
    )

    xs = reference.x
    cdf_gap = np.abs(eval_waiting_cdf(solution, xs) - reference.values)
    cdf_distance = float(np.max(cdf_gap))
    f_ref = density_estimate(reference)
    f_hat = eval_waiting_density(solution, xs[1:])
    diff = f_hat - f_ref[1:]
    density_excess = float(np.max(diff))
    density_sup = float(np.max(np.abs(diff)))

    result = CertificationResult(
        report=report,
        solution=solution,
        fit=fit,
        reference=reference,
        cdf_distance=cdf_distance,
        density_excess=density_excess,
        density_sup=density_sup,
    )
    if not result.satisfied:
        raise PostconditionViolation(
            "certified bound",
            f"measured CDF distance {cdf_distance:.6g} exceeds certificate "
            f"{certified:.6g} + {CERTIFICATE_SLACK:g}",
        )
    return result
