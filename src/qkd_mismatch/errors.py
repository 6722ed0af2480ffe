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
    """A numerical routine failed or lost its accuracy: an eigendecomposition
    did not converge or does not reconstruct its matrix, LAPACK returned a
    nonzero `info`, a Cholesky factorization failed or does not reconstruct
    its matrix, the filter's validity certificate failed (a pair too close to
    singular), a rate fell outside [0, 1] beyond rounding, or a dual bound
    fell outside [0, 1] on the side that feasibility rules out (every
    observed target is feasible, see `adversary`)."""


class InvalidEfficiency(QkdMismatchError):
    """Efficiency matrix has entries too large, is not Hermitian, or has eigenvalues outside [0, 1]."""


class SingularDetector(QkdMismatchError):
    """Operation requires full-rank detector responses."""


class ZeroDenominator(QkdMismatchError):
    """Adversary state produces no conclusive events in the relevant basis."""


class DomainError(QkdMismatchError):
    """Argument outside its mathematical domain: a scalar, or a matrix entry too large to measure."""


class InvalidGate(QkdMismatchError):
    """Gate window or bandwidth parameters are invalid."""


class CoverageError(QkdMismatchError):
    """Tabulated response does not cover the requested gate window."""


class DegenerateScenario(QkdMismatchError):
    """Attack strategy selects a sample where both detectors are blind."""
