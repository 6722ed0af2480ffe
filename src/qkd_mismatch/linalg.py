"""Dense Hermitian matrix utilities, in real or complex arithmetic.

Everything downstream (detector responses, filter construction, adversary
optimization) runs on small dense matrices, so this module wraps LAPACK via
numpy: matrices stay real (float64) unless an entry has a nonzero imaginary
part, eigenvalues come in descending order, and explicit tolerances govern
the symmetry and positive-semidefiniteness checks. Eigenvector columns carry
whatever phases LAPACK returns; callers use only products that do not depend
on them (square roots, projectors, Gram matrices).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotHermitian, NotPSD, NumericalFailure

# Relative tolerances, sized for dense double-precision problems with d <~ 64.
SYMMETRY_RTOL = 1e-10
PSD_RTOL = 1e-12
RECONSTRUCTION_RTOL = 1e-10


def as_matrix(a) -> np.ndarray:
    """Validate a 2-D matrix with finite entries. It comes back float64 when
    no entry has a nonzero imaginary part and complex128 otherwise."""
    m = np.asarray(a)
    m = np.asarray(m, dtype=complex if m.dtype.kind in "cO" else float)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise DimensionMismatch(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m.real.copy() if m.dtype.kind == "c" and not m.imag.any() else m


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, "fro"))


def require_hermitian(a) -> np.ndarray:
    """Return the symmetrized matrix, raising NotHermitian beyond tolerance.
    It is float64 when its imaginary parts symmetrize to zero."""
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"square matrix required, got shape {m.shape}")
    tol = SYMMETRY_RTOL * max(1.0, frobenius(m))
    defect = frobenius(m - m.conj().T)
    if defect > tol:
        raise NotHermitian(f"symmetry defect {defect:.3e} exceeds {tol:.3e}")
    h = 0.5 * (m + m.conj().T)
    return h.real.copy() if h.dtype.kind == "c" and not h.imag.any() else h


@dataclass(frozen=True)
class HermitianEigenSystem:
    """The symmetrized matrix, its eigenvalues in descending order and the
    matching unitary column basis."""

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(a) -> HermitianEigenSystem:
    """Check and symmetrize a Hermitian matrix (`require_hermitian`), then
    eigendecompose it, in real arithmetic when it is real.

    Returns eigenvalues in descending order and a unitary basis checked to
    reconstruct the matrix. Column phases, and the basis inside a group of
    equal eigenvalues, are whatever LAPACK returns.
    """
    m = require_hermitian(a)
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition failed: {exc}") from exc
    order = np.argsort(-w, kind="stable")
    w = w[order]
    v = v[:, order]

    scale = 1.0 + frobenius(m)
    recon = (v * w[np.newaxis, :]) @ v.conj().T
    if frobenius(recon - m) > RECONSTRUCTION_RTOL * scale:
        raise NumericalFailure("eigendecomposition reconstruction error too large")
    if frobenius(v.conj().T @ v - np.eye(m.shape[0])) > RECONSTRUCTION_RTOL:
        raise NumericalFailure("eigenvector basis is not unitary to tolerance")
    return HermitianEigenSystem(matrix=m, eigenvalues=w, eigenvectors=v)


def principal_sqrt(a) -> np.ndarray:
    """Principal (Hermitian PSD) square root, from `hermitian_eig`.

    Eigenvalues in [-tol, 0), tol = PSD_RTOL * max(1, ||a||_F), are clamped
    to zero; anything lower raises NotPSD.
    """
    eig = hermitian_eig(a)
    w, tol = eig.eigenvalues, PSD_RTOL * max(1.0, frobenius(eig.matrix))
    if np.min(w) < -tol:
        raise NotPSD(f"eigenvalue {np.min(w):.3e} below -{tol:.3e}")
    root = np.sqrt(np.clip(w, 0.0, None))
    s = (eig.eigenvectors * root[np.newaxis, :]) @ eig.eigenvectors.conj().T
    return 0.5 * (s + s.conj().T)
