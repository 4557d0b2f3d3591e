"""Exception types shared across the solver suite."""


class BdsdeError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(BdsdeError, ValueError):
    """An argument violates a documented precondition."""


class StepSizeError(BdsdeError):
    """The time step is too large for the scheme to be stable/contracting."""

    def __init__(self, message, suggested_dt=None):
        super().__init__(message)
        self.suggested_dt = suggested_dt


class ConvergenceError(BdsdeError):
    """An inner fixed-point iteration failed to reach tolerance."""


class NonFiniteError(BdsdeError):
    """A backward step met a NaN or infinite value (path: its row in a batched solve)."""

    def __init__(self, message, step=None, volatility=None, node=None, path=None):
        super().__init__(message)
        self.step = step
        self.volatility = volatility
        self.node = node
        self.path = path


class RegressionError(BdsdeError):
    """Least-squares projection failed (ill-conditioned normal equations)."""

    def __init__(self, message, condition_number=None):
        super().__init__(message)
        self.condition_number = condition_number


class RangeError(BdsdeError):
    """Query point lies outside the tabulated lattice range."""


class SingularFlowError(BdsdeError):
    """The flow's y-derivative dropped below the invertibility threshold."""


class VerificationError(BdsdeError):
    """A supplied candidate solution failed verification."""


class InvalidBarrierError(BdsdeError):
    """Barrier incompatible with the terminal condition (S_T > xi somewhere)."""


class StabilityError(BdsdeError):
    """Explicit finite-difference step violates the stability bound."""

    def __init__(self, message, suggested_dt=None):
        super().__init__(message)
        self.suggested_dt = suggested_dt


class UnsupportedOracleError(BdsdeError):
    """No closed-form oracle covers the requested data (fall back to FD)."""


class ConfigError(BdsdeError):
    """Experiment configuration is malformed or inconsistent."""
