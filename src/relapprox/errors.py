"""Exception types shared across the package."""


class RelApproxError(Exception):
    """Base class for errors raised by this package."""


class ConstructionError(RelApproxError, ValueError):
    """Invalid inputs when building a set system, sample, or parameter object."""


class PreconditionFailed(RelApproxError, RuntimeError):
    """A checked precondition of a conditional operation does not hold.

    Raised instead of returning False: the caller asked a question whose
    hypothesis is not satisfied, so neither True nor False would be honest.
    """


class RetriesExhausted(RelApproxError, RuntimeError):
    """A Las Vegas construction failed verification on every attempt."""

    def __init__(self, msg: str, best_worst_ratio: float):
        super().__init__(msg)
        self.best_worst_ratio = best_worst_ratio


class AuditFailure(RelApproxError, RuntimeError):
    """A numeric audit of a derivation chain found a violated step."""


class CalibrationError(RelApproxError, RuntimeError):
    """No constant in the calibration grid satisfied the target."""
