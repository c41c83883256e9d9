"""Exception types shared across the package."""


class ThermopsError(Exception):
    """Base class for all package-specific errors."""


class OverflowRisk(ThermopsError):
    """beta * |energy| exceeds the safe range for exponentiation."""


class ZeroProbability(ThermopsError):
    """A per-level quantity is undefined on a zero-probability level."""


class SupportMismatch(ThermopsError):
    """Reference state lacks support where the state has mass."""


class SpectrumMismatch(ThermopsError):
    """Operation requires identical spectra."""


class DimensionMismatch(ThermopsError):
    """Array shapes inconsistent with the declared spectra."""


class NonUniformBattery(ThermopsError):
    """Operation requires a uniformly spaced battery spectrum."""


class IndexOutOfRange(ThermopsError):
    """Level index outside the spectrum."""


class SolverFailure(ThermopsError):
    """LP solver did not reach a conclusive verdict."""


class Infeasible(ThermopsError):
    """No feasible transformation exists in the searched range."""


class InvalidSubchannels(ThermopsError):
    """Wit subchannels violate stochasticity or the Gibbs pair conditions."""


class NonConvergentSeries(ThermopsError):
    """Spectral radius too close to 1 for the geometric series."""


class ETIViolated(ThermopsError):
    """Channel fails effective translational invariance at the requested threshold."""


class PreconditionViolated(ThermopsError):
    """Inputs outside the regime a theorem speaks about."""


class DomainError(ThermopsError, ValueError):
    """Parameter outside its valid domain.

    Also a ValueError, so callers that guard bad arguments with the builtin
    keep working.
    """


class PoleError(ThermopsError):
    """Closed-form expression evaluated at its pole."""
