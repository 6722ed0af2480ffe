"""Two-detector receiver model.

A detector with a matrix-valued efficiency response clicks on an auxiliary
input state rho with probability Tr(rho E), where E is a d x d Hermitian
matrix with 0 <= E <= I. The pair of responses (E0, E1) for the bit-0 and
bit-1 detectors, factored as E_i = F_i^dag F_i, determines the mismatch
spectrum: the eigenvalues D_1..D_d of F0 (F1^dag F1)^-1 F0^dag, which are the
per-mode efficiency ratios between the detectors and drive every key-rate
formula in this package.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatch, InvalidEfficiency, NotHermitian, SingularDetector

# Eigenvalues below this relative cutoff count as zero when flagging rank.
RANK_RTOL = 1e-10
# Nullspace projectors closer than this are treated as identical (Frobenius).
NULLSPACE_TOL = 1e-8


@dataclass(frozen=True)
class EfficiencyResponse:
    """Validated d x d efficiency matrix E with 0 <= E <= I."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def diagonal(self) -> np.ndarray:
        """Per-sample efficiencies (real diagonal of E)."""
        return self.matrix.diagonal().real.copy()


def _hermitian(raw) -> np.ndarray:
    try:
        return linalg.require_hermitian(raw)
    except NotHermitian as exc:
        raise InvalidEfficiency(str(exc)) from exc


def _checked_response(m: np.ndarray, w: np.ndarray, scale: float) -> EfficiencyResponse:
    """Response for Hermitian `m` with eigenvalues `w`, if they lie in [0, 1]
    to within PSD_RTOL * scale, where scale = max(1, ||m||_F)."""
    tol = linalg.PSD_RTOL * scale
    if w.min() < -tol or w.max() > 1.0 + tol:
        raise InvalidEfficiency(
            f"efficiency eigenvalues [{w.min():.6g}, {w.max():.6g}] outside [0, 1]"
        )
    m = m.copy()
    m.setflags(write=False)
    return EfficiencyResponse(matrix=m)


def validate_efficiency(raw) -> EfficiencyResponse:
    """Check Hermiticity and the spectrum window [0, 1]; return the response."""
    m = _hermitian(raw)
    return _checked_response(m, np.linalg.eigvalsh(m), max(1.0, linalg.frobenius(m)))


def _above_rank_cutoff(e: EfficiencyResponse, eig: linalg.HermitianEigenSystem) -> np.ndarray:
    """Mask of the eigenvalues of `e` that count as nonzero."""
    return eig.eigenvalues > RANK_RTOL * max(1.0, linalg.frobenius(e.matrix))


@dataclass(frozen=True)
class DetectorPair:
    """Responses of both detectors, their principal-square-root factors and
    the eigensystems both were computed from."""

    e0: EfficiencyResponse
    e1: EfficiencyResponse
    f0: np.ndarray
    f1: np.ndarray
    eig0: linalg.HermitianEigenSystem
    eig1: linalg.HermitianEigenSystem

    @property
    def dim(self) -> int:
        return self.e0.dim

    @functools.cached_property
    def full_rank0(self) -> bool:
        return bool(_above_rank_cutoff(self.e0, self.eig0).all())

    @functools.cached_property
    def full_rank1(self) -> bool:
        return bool(_above_rank_cutoff(self.e1, self.eig1).all())

    @property
    def full_rank(self) -> bool:
        return self.full_rank0 and self.full_rank1


@dataclass(frozen=True)
class MismatchSpectrum:
    """Eigen-decomposition U diag(D) U^dag of F0 (F1^dag F1)^-1 F0^dag.

    `ratios` holds D_1 >= ... >= D_d > 0, the mode-wise efficiency ratios.
    """

    ratios: np.ndarray
    basis: np.ndarray


def _factor(raw) -> tuple[EfficiencyResponse, np.ndarray, linalg.HermitianEigenSystem]:
    """Validated response, principal square root and eigensystem of one raw
    matrix, all from a single eigendecomposition."""
    m = _hermitian(raw)
    eig = linalg.hermitian_eig(m)
    scale = max(1.0, linalg.frobenius(m))
    response = _checked_response(m, eig.eigenvalues, scale)
    f = linalg.sqrt_from_eig(eig, linalg.PSD_RTOL * scale)
    f.setflags(write=False)
    return response, f, eig


def load_pair(e0_raw, e1_raw) -> DetectorPair:
    """Validate two raw efficiency matrices and factor them."""
    (e0, f0, eig0), (e1, f1, eig1) = _factor(e0_raw), _factor(e1_raw)
    if e0.dim != e1.dim:
        raise DimensionMismatch(f"detector dimensions differ: {e0.dim} vs {e1.dim}")
    return DetectorPair(e0=e0, e1=e1, f0=f0, f1=f1, eig0=eig0, eig1=eig1)


def swap_detectors(pair: DetectorPair) -> DetectorPair:
    """Exchange the roles of the bit-0 and bit-1 detectors."""
    return DetectorPair(e0=pair.e1, e1=pair.e0, f0=pair.f1, f1=pair.f0, eig0=pair.eig1, eig1=pair.eig0)


def mismatch_spectrum(pair: DetectorPair) -> MismatchSpectrum:
    """Efficiency-ratio spectrum of the pair; requires both detectors full rank."""
    if not pair.full_rank:
        raise SingularDetector("mismatch spectrum needs full-rank responses")
    e1_inv = np.linalg.inv(pair.e1.matrix)
    m = pair.f0 @ e1_inv @ pair.f0.conj().T
    eig = linalg.hermitian_eig(m)
    ratios = eig.eigenvalues.copy()
    if ratios.min() <= 0.0:
        raise SingularDetector("nonpositive efficiency ratio; responses too singular")
    ratios.setflags(write=False)
    basis = eig.eigenvectors.copy()
    basis.setflags(write=False)
    return MismatchSpectrum(ratios=ratios, basis=basis)


def _nullspace_projector(
    e: EfficiencyResponse, eig: linalg.HermitianEigenSystem
) -> tuple[np.ndarray, np.ndarray]:
    """Return (null projector, range basis columns) of `e`, whose eigensystem
    is `eig`, at the rank cutoff."""
    keep = _above_rank_cutoff(e, eig)
    v_range = eig.eigenvectors[:, keep]
    v_null = eig.eigenvectors[:, ~keep]
    return v_null @ v_null.conj().T, v_range


def deflate_common_nullspace(pair: DetectorPair) -> DetectorPair:
    """Reduce a rank-deficient pair to the shared range of both responses.

    Valid only when both responses are singular with matching nullspaces;
    any other rank-deficient configuration admits no key and raises
    SingularDetector.
    """
    if pair.full_rank:
        return pair
    if pair.full_rank0 != pair.full_rank1:
        raise SingularDetector("nullspaces differ: only one detector is singular")
    p0, v_range = _nullspace_projector(pair.e0, pair.eig0)
    p1, _ = _nullspace_projector(pair.e1, pair.eig1)
    if linalg.frobenius(p0 - p1) > NULLSPACE_TOL:
        raise SingularDetector("detectors are singular with different nullspaces")
    if v_range.shape[1] == 0:
        raise SingularDetector("both responses vanish entirely")
    e0_red = v_range.conj().T @ pair.e0.matrix @ v_range
    e1_red = v_range.conj().T @ pair.e1.matrix @ v_range
    return load_pair(e0_red, e1_red)


# --- detector spec files -----------------------------------------------------
#
# JSON schema: {"dimension": d, "E0": [[[re, im], ...], ...], "E1": ...,
#               "label0": str, "label1": str}; matrices row-major. The writer
# puts each matrix row on one line; any JSON layout reads.


@dataclass(frozen=True)
class DetectorSpecFile:
    e0_raw: np.ndarray
    e1_raw: np.ndarray
    label0: str
    label1: str

    @property
    def dim(self) -> int:
        return self.e0_raw.shape[0]


def _matrix_from_pairs(rows, dim: int, name: str) -> np.ndarray:
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name}: entries must be [re, im] pairs of numbers ({exc})") from exc
    if arr.shape != (dim, dim, 2):
        raise ValueError(f"{name}: expected {dim}x{dim} [re, im] entries, got {arr.shape}")
    return arr.view(complex)[..., 0]  # exact: re + 1j * im would turn -0.0 into 0.0


def _rows_json(m: np.ndarray) -> str:
    """Rows of `m` as JSON arrays of [re, im] pairs, one row per line.

    Each float is written as its repr, as the json encoder writes it, so
    values read back bit for bit. The repr is the cost, and a symmetric or
    real matrix holds few distinct numbers: each distinct bit pattern (0.0
    and -0.0 count apart) is formatted once, and the rows are assembled from
    the inverse index.
    """
    pairs = np.stack((m.real, m.imag), -1)
    bits, inverse = np.unique(pairs.view(np.int64), return_inverse=True)
    text = np.array(list(map(float.__repr__, bits.view(np.float64).tolist())), dtype=object)
    parts = text[inverse.reshape(pairs.shape)]
    entries = parts[..., 0] + ", " + parts[..., 1]
    return ",\n    ".join("[[" + "], [".join(row) + "]]" for row in entries.tolist())


def read_spec_file(path) -> DetectorSpecFile:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError as exc:
            raise ValueError("detector spec nests arrays or objects too deeply") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"detector spec must be a JSON object, got {type(doc).__name__}")
    try:
        dim = doc["dimension"]
        # A JSON integer: bool is an int subclass, and 1.9 or 1e400 are floats.
        if type(dim) is not int or dim < 1:
            raise ValueError(f"detector spec dimension must be an integer >= 1, got {json.dumps(dim)}")
        e0 = _matrix_from_pairs(doc["E0"], dim, "E0")
        e1 = _matrix_from_pairs(doc["E1"], dim, "E1")
    except KeyError as exc:
        raise ValueError(f"detector spec missing key: {exc}") from exc
    return DetectorSpecFile(
        e0_raw=e0,
        e1_raw=e1,
        label0=str(doc.get("label0", "detector0")),
        label1=str(doc.get("label1", "detector1")),
    )


def write_spec_file(path, e0, e1, label0: str = "detector0", label1: str = "detector1") -> None:
    m0 = linalg.as_matrix(e0)
    m1 = linalg.as_matrix(e1)
    if m0.shape != m1.shape or m0.shape[0] != m0.shape[1]:
        raise DimensionMismatch("detector spec needs two square matrices of equal size")
    text = (
        "{\n"
        f'  "dimension": {m0.shape[0]},\n'
        f'  "E0": [\n    {_rows_json(m0)}\n  ],\n'
        f'  "E1": [\n    {_rows_json(m1)}\n  ],\n'
        f'  "label0": {json.dumps(label0)},\n'
        f'  "label1": {json.dumps(label1)}\n'
        "}\n"
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
