"""Exception types shared across the package."""


class EPEError(Exception):
    """Base class for all package-specific errors."""


class InvalidStateError(EPEError):
    """A density matrix violates hermiticity, trace or positivity tolerances."""


class UnphysicalCovarianceError(EPEError):
    """A covariance matrix violates the uncertainty-principle constraint."""


class DomainError(EPEError, ValueError):
    """A parameter lies outside the domain of a closed-form family or curve."""


class TruncationError(EPEError):
    """A Fock-space truncation is too small for the requested input state.

    Attributes
    ----------
    required_n_max : int
        Smallest truncation that keeps the input tail below tolerance.
    """

    def __init__(self, message, required_n_max):
        super().__init__(message)
        self.required_n_max = required_n_max


class ConfigurationError(EPEError):
    """A sampler or CLI configuration is inconsistent or unusable."""


class InvariantViolation(EPEError):
    """A result breaks an invariant every valid one obeys: a sampled record's
    containment implication, or the shape a `jc` field support must give."""
