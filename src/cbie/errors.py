"""Exception types shared across the package."""


class CbieError(Exception):
    """Base class for all package errors."""


class DomainError(CbieError):
    """Evaluation point outside the admissible region."""


class GeometryError(CbieError):
    """Curve data invalid or evaluates to non-finite values."""


class ConfigurationError(CbieError):
    """Invalid construction parameters (rule sizes, boundary constants, config files)."""


class ShapeError(CbieError):
    """Array length mismatch."""


class DataError(CbieError):
    """Required trace data missing."""


class KernelSingularityError(CbieError):
    """Kernel evaluated in a singular configuration.

    Carries the offending point as ``point`` (a KernelPoint or tuple).
    """

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class AssemblyError(CbieError):
    """System assembly failed; message names the offending node pair."""


class NumericError(CbieError):
    """Non-finite values encountered in numeric data."""
