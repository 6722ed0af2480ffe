"""Exception types raised across the package."""


class QkdMismatchError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(QkdMismatchError):
    """Operands have incompatible shapes."""


class NotHermitian(QkdMismatchError):
    """Matrix is not Hermitian within tolerance."""


class NotPSD(QkdMismatchError):
    """Matrix has an eigenvalue below the PSD tolerance."""


class NumericalFailure(QkdMismatchError):
    """An iterative numerical routine did not converge."""


class InvalidEfficiency(QkdMismatchError):
    """Efficiency matrix has entries too large, is not Hermitian, or has eigenvalues outside [0, 1]."""


class SingularDetector(QkdMismatchError):
    """Operation requires full-rank detector responses."""


class ZeroDenominator(QkdMismatchError):
    """Adversary state produces no conclusive events in the relevant basis."""


class Infeasible(QkdMismatchError):
    """No adversary state meets the observed-rate constraints."""


class DomainError(QkdMismatchError):
    """Scalar argument outside its mathematical domain."""


class InvalidGate(QkdMismatchError):
    """Gate window or bandwidth parameters are invalid."""


class CoverageError(QkdMismatchError):
    """Tabulated response does not cover the requested gate window."""


class DegenerateScenario(QkdMismatchError):
    """Attack strategy selects a sample where both detectors are blind."""
