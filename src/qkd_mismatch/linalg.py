"""Dense complex Hermitian matrix utilities.

Everything downstream (detector responses, filter construction, adversary
optimization) runs on small dense matrices, so this module wraps LAPACK via
numpy with the conventions the rest of the package relies on: eigenvalues in
descending order, a fixed eigenvector phase/tie-break convention so repeated
runs produce identical bases, and explicit tolerances for symmetry and
positive-semidefiniteness checks.
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
    """Validate and return a 2-D complex matrix with finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise DimensionMismatch(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    return m


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, "fro"))


def require_hermitian(a, rtol: float = SYMMETRY_RTOL) -> np.ndarray:
    """Return the symmetrized matrix, raising NotHermitian beyond tolerance."""
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"square matrix required, got shape {m.shape}")
    scale = max(1.0, frobenius(m))
    defect = frobenius(m - m.conj().T)
    if defect > rtol * scale:
        raise NotHermitian(f"symmetry defect {defect:.3e} exceeds {rtol * scale:.3e}")
    return 0.5 * (m + m.conj().T)


@dataclass(frozen=True)
class HermitianEigenSystem:
    """Eigenvalues in descending order and the matching unitary column basis."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _fix_column_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real nonnegative.

    Ties on the magnitude pick the lowest row index (np.argmax convention).
    """
    v = vectors.copy()
    pivot_rows = np.argmax(np.abs(v), axis=0)
    pivots = v[pivot_rows, np.arange(v.shape[1])]
    mags = np.abs(pivots)
    # A unit column always has a nonzero pivot; guard anyway.
    phases = np.where(mags > 0, pivots / np.where(mags > 0, mags, 1.0), 1.0)
    return v * phases.conj()[np.newaxis, :]


def _order_degenerate_groups(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Within groups of exactly equal eigenvalues, order columns so the
    phase-fixed eigenvectors are in descending lexicographic order of
    (Re, Im) interleaved entries. Makes degenerate bases deterministic."""
    out = vectors.copy()
    start = 0
    n = len(values)
    while start < n:
        stop = start + 1
        while stop < n and values[stop] == values[start]:
            stop += 1
        if stop - start > 1:
            cols = range(start, stop)
            keys = {
                j: tuple(np.column_stack((out[:, j].real, out[:, j].imag)).ravel())
                for j in cols
            }
            order = sorted(cols, key=lambda j: keys[j], reverse=True)
            out[:, start:stop] = out[:, order]
        start = stop
    return out


def hermitian_eig(a) -> HermitianEigenSystem:
    """Eigendecompose a Hermitian matrix with deterministic conventions.

    Returns eigenvalues in descending order; eigenvector columns carry the
    phase convention of `_fix_column_phases`, with exact-degeneracy ties broken
    lexicographically.
    """
    m = require_hermitian(a)
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition failed: {exc}") from exc
    order = np.argsort(-w, kind="stable")
    w = w[order]
    v = v[:, order]
    v = _fix_column_phases(v)
    v = _order_degenerate_groups(w, v)

    scale = 1.0 + frobenius(m)
    recon = (v * w[np.newaxis, :]) @ v.conj().T
    if frobenius(recon - m) > RECONSTRUCTION_RTOL * scale:
        raise NumericalFailure("eigendecomposition reconstruction error too large")
    if frobenius(v.conj().T @ v - np.eye(m.shape[0])) > RECONSTRUCTION_RTOL:
        raise NumericalFailure("eigenvector basis is not unitary to tolerance")
    return HermitianEigenSystem(eigenvalues=w, eigenvectors=v)


def sqrt_from_eig(eig: HermitianEigenSystem, tol: float) -> np.ndarray:
    """Principal square root of the matrix with eigensystem `eig`.

    Eigenvalues in [-tol, 0) are clamped to zero; anything lower raises NotPSD.
    """
    w = eig.eigenvalues
    if np.min(w) < -tol:
        raise NotPSD(f"eigenvalue {np.min(w):.3e} below -{tol:.3e}")
    root = np.sqrt(np.clip(w, 0.0, None))
    s = (eig.eigenvectors * root[np.newaxis, :]) @ eig.eigenvectors.conj().T
    return 0.5 * (s + s.conj().T)


def principal_sqrt(a) -> np.ndarray:
    """Principal (Hermitian PSD) square root, as in `sqrt_from_eig`."""
    m = require_hermitian(a)
    return sqrt_from_eig(hermitian_eig(m), PSD_RTOL * max(1.0, frobenius(m)))
