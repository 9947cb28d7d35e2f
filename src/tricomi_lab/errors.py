"""Exception types shared across the package."""


class TricomiLabError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(TricomiLabError, ValueError):
    """A parameter or exponent window precondition is violated.

    The message always names the violated constraint.
    """


class WindowError(ParameterError):
    """A parameter lies outside its admissible window; ``name`` is the parameter's name."""

    def __init__(self, name: str, message: str):
        super().__init__(message)
        self.name = name


class EmptyIntervalError(TricomiLabError):
    """An admissible interval came out empty where theory guarantees it is not."""


class GridError(TricomiLabError, ValueError):
    """Grid/horizon combination invalid (boundary contamination, CFL, ...)."""


class SupportError(TricomiLabError, ValueError):
    """Data or source violates its required spatial support."""


class AccuracyError(TricomiLabError):
    """Requested accuracy is unattainable (series/asymptotic overlap, tails)."""


class InstabilityError(TricomiLabError):
    """A time integration lost stability (norm explosion, step underflow)."""


class PicardDivergenceError(TricomiLabError):
    """Picard iteration diverged; carries the diagnostics gathered so far."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class TruncatedBoxError(TricomiLabError):
    """A space-time norm would cover a shorter time box than requested (a march stopped early)."""
