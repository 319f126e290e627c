"""Exception and warning types shared across the package.

Every failure mode gets its own type so callers (and the CLI's exit-code
mapping) can distinguish bad *inputs* from *numerical* breakdowns:

* input/validation errors (exit 2): everything deriving from
  :class:`InputError`, among them :class:`NotACdf`, :class:`OrderTooHigh`
  and a rate mu out of the double context's range
* numerical failures (exit 3): everything deriving from
  :class:`NumericalError`
* advisory only: :class:`IllConditioned` (a warning — the solve still returns)

An invariant that holds by construction, such as the evenness of the
characteristic polynomial, has no type of its own: the solver checks it
among its postconditions (:class:`PostconditionViolation`).
"""

__all__ = [
    "LindleyAltError",
    "InputError",
    "NotACdf",
    "OrderTooHigh",
    "NumericalError",
    "RepeatedRoot",
    "ConvergenceFailure",
    "DegenerateMode",
    "PostconditionViolation",
    "NonConvergence",
    "IllConditioned",
]


class LindleyAltError(Exception):
    """Base class for all package-specific errors."""


class InputError(LindleyAltError):
    """Base class for errors caused by invalid user input."""


class NotACdf(InputError):
    """A coefficient sequence does not describe a valid CDF on [0, 1].

    Parameters
    ----------
    violations:
        Human-readable description of every violated requirement.
    """

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class OrderTooHigh(InputError):
    """Requested polynomial-fit order exceeds what double precision supports."""

    def __init__(self, order: int, limit: int):
        self.order = order
        self.limit = limit
        super().__init__(
            f"fit order {order} exceeds the supported maximum {limit}: the "
            f"power-basis expansion is not representable at double precision"
        )


class NumericalError(LindleyAltError):
    """Base class for numerical failures in the solver or the oracles."""


class RepeatedRoot(NumericalError):
    """Two characteristic roots (in the squared variable) nearly coincide.

    The closed-form solution assumes simple roots; repeated roots would need
    polynomial-times-exponential modes, which this package deliberately does
    not construct.
    """


class ConvergenceFailure(NumericalError):
    """Root polishing failed to reach the required residual."""


class DegenerateMode(NumericalError):
    """A pair's mode column vanished (a repeated root leaked through), or
    the mode system, equilibrated by powers of two, is singular at working
    precision."""


class PostconditionViolation(NumericalError):
    """A solved instance failed one of its structural invariants.

    Parameters
    ----------
    invariant:
        Short name of the failed invariant.
    detail:
        Measured value vs. tolerance.
    """

    def __init__(self, invariant: str, detail: str = ""):
        self.invariant = invariant
        msg = f"solution violates invariant '{invariant}'"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class NonConvergence(NumericalError):
    """Fixed-point iteration exceeded its guaranteed iteration budget."""


class IllConditioned(UserWarning):
    """A double-precision solve's mode system has condition number > 1e10.

    Results are still returned (uniqueness is guaranteed analytically); this
    warning surfaces the risk to the double-precision strengths. The
    extended context solves at working precision and does not warn.
    """
