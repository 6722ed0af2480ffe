"""Two-detector receiver model.

A detector with a matrix-valued efficiency response clicks on an auxiliary
input state rho with probability Tr(rho E), where E is a d x d Hermitian
matrix with 0 <= E <= I. The pair of responses (E0, E1) for the bit-0 and
bit-1 detectors determines the mismatch spectrum: the eigenvalues D_1..D_d
of E1^-1 E0, which are the per-mode efficiency ratios between the detectors
and drive every key-rate formula in this package. With Cholesky factors
E_i = L_i L_i^dag they are the squared singular values of L1^-1 L0.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (DimensionMismatch, DomainError, InvalidEfficiency, NotHermitian, NumericalFailure,
                     QkdMismatchError, SingularDetector)

# Eigenvalues below this relative cutoff count as zero when flagging rank.
RANK_RTOL = 1e-10
# Nullspace projectors closer than this are treated as identical (Frobenius).
NULLSPACE_TOL = 1e-8


@dataclass(frozen=True)
class EfficiencyResponse:
    """Validated d x d efficiency matrix E with 0 <= E <= I, its eigenvalues
    in descending order, and its lower Cholesky factor L (E = L L^dag), which
    is None exactly when E is rank deficient."""

    matrix: np.ndarray
    eigenvalues: np.ndarray
    factor: np.ndarray | None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def diagonal(self) -> np.ndarray:
        """Per-sample efficiencies (real diagonal of E)."""
        return self.matrix.diagonal().real.copy()

    @property
    def full_rank(self) -> bool:
        return self.factor is not None


def validate_efficiency(raw) -> EfficiencyResponse:
    """Check the entries' size (`linalg.MAX_ENTRY_MODULUS`) and Hermiticity,
    then the spectrum window [0, 1] to within PSD_RTOL * max(1, ||E||_F) from
    the eigenvalues alone; factor a full-rank response by Cholesky, checked to
    reconstruct E as `linalg.hermitian_eig` checks an eigensystem. The matrix
    is symmetrized and checked once."""
    try:
        m = linalg.require_hermitian(raw)
    except NotHermitian as exc:
        raise InvalidEfficiency(str(exc)) from exc
    except DomainError as exc:  # an entry past the bound
        raise InvalidEfficiency(f"efficiency {exc}: a response with eigenvalues in [0, 1] "
                                "has entries of modulus at most 1") from exc
    try:
        w = np.linalg.eigvalsh(m)[::-1]
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigenvalue computation failed: {exc}") from exc
    norm = linalg.frobenius(m)
    scale = max(1.0, norm)
    tol = linalg.PSD_RTOL * scale
    if w[-1] < -tol or w[0] > 1.0 + tol:
        raise InvalidEfficiency(f"efficiency eigenvalues [{w[-1]:.6g}, {w[0]:.6g}] outside [0, 1]")
    factor = None
    if w[-1] > RANK_RTOL * scale:
        try:
            factor = np.linalg.cholesky(m)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"Cholesky factorization failed: {exc}") from exc
        if linalg.frobenius(factor @ factor.conj().T - m) > linalg.RECONSTRUCTION_RTOL * (1.0 + norm):
            raise NumericalFailure("Cholesky factor reconstruction error too large")
        factor.setflags(write=False)
    m.setflags(write=False)
    w.setflags(write=False)
    return EfficiencyResponse(matrix=m, eigenvalues=w, factor=factor)


@dataclass(frozen=True)
class DetectorPair:
    """The validated responses of the bit-0 and bit-1 detectors."""

    e0: EfficiencyResponse
    e1: EfficiencyResponse

    @property
    def dim(self) -> int:
        return self.e0.dim

    @property
    def full_rank(self) -> bool:
        return self.e0.full_rank and self.e1.full_rank


@dataclass(frozen=True)
class MismatchSpectrum:
    """The spectrum D of E1^-1 E0 and a factor K of it.

    `ratios` holds D_1 >= ... >= D_d > 0, the mode-wise efficiency ratios,
    which are all a key rate reads. `factor` is K = (L1^-1 L0)^dag, with
    K K^dag = L0^dag E1^-1 L0 similar to E1^-1 E0. The one step that needs
    the basis U of L0^dag E1^-1 L0 = U diag(D) U^dag, the virtual filter
    (`filtering.compute_filter`), takes the full SVD of K itself.
    """

    ratios: np.ndarray
    factor: np.ndarray


def load_pair(e0_raw, e1_raw) -> DetectorPair:
    """Validate two efficiency matrices. Either may already be an
    EfficiencyResponse, which is then used as it is. A validation error
    names its detector, `E0: ` or `E1: `, as a spec file's parse errors do."""
    responses = []
    for name, raw in (("E0", e0_raw), ("E1", e1_raw)):
        try:
            responses.append(raw if isinstance(raw, EfficiencyResponse) else validate_efficiency(raw))
        except (QkdMismatchError, ValueError) as exc:
            raise type(exc)(f"{name}: {exc}") from exc
    e0, e1 = responses
    if e0.dim != e1.dim:
        raise DimensionMismatch(f"detector dimensions differ: {e0.dim} vs {e1.dim}")
    return DetectorPair(e0=e0, e1=e1)


def swap_detectors(pair: DetectorPair) -> DetectorPair:
    """Exchange the roles of the bit-0 and bit-1 detectors."""
    return DetectorPair(e0=pair.e1, e1=pair.e0)


def mismatch_spectrum(pair: DetectorPair) -> MismatchSpectrum:
    """Efficiency-ratio spectrum of the pair; requires both detectors full rank.

    K = (L1^-1 L0)^dag, from the Cholesky factors E_i = L_i L_i^dag, has
    K K^dag = L0^dag E1^-1 L0, so its singular values sigma give D = sigma^2.
    Only they are computed here; `filtering.compute_filter` forms the basis U.
    The rank cutoff keeps sigma far above the SVD's rounding.
    """
    if not pair.full_rank:
        raise SingularDetector("mismatch spectrum needs full-rank responses")
    factor = np.linalg.solve(pair.e1.factor, pair.e0.factor).conj().T
    sigma = np.linalg.svd(factor, compute_uv=False)
    ratios = sigma * sigma
    ratios.setflags(write=False)
    factor.setflags(write=False)
    return MismatchSpectrum(ratios=ratios, factor=factor)


def _nullspace_projector(e: EfficiencyResponse) -> tuple[np.ndarray, np.ndarray]:
    """Return (null projector, range basis columns) of `e` at the rank cutoff
    that `validate_efficiency` flagged its rank with. Only deflating a
    singular pair forms eigenvectors."""
    keep = e.eigenvalues > RANK_RTOL * max(1.0, linalg.frobenius(e.matrix))
    vectors = linalg.hermitian_eig(e.matrix).eigenvectors
    v_range = vectors[:, keep]
    v_null = vectors[:, ~keep]
    return v_null @ v_null.conj().T, v_range


def deflate_common_nullspace(pair: DetectorPair) -> DetectorPair:
    """Reduce a rank-deficient pair to the shared range of both responses.

    Valid only when both responses are singular with matching nullspaces;
    any other rank-deficient configuration admits no key and raises
    SingularDetector.
    """
    if pair.full_rank:
        return pair
    if pair.e0.full_rank != pair.e1.full_rank:
        raise SingularDetector("nullspaces differ: only one detector is singular")
    p0, v_range = _nullspace_projector(pair.e0)
    p1, _ = _nullspace_projector(pair.e1)
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
    """The complex dim x dim matrix held by parsed rows of [re, im] cells."""
    if type(rows) is not list or len(rows) != dim or any(type(r) is not list or len(r) != dim for r in rows):
        raise ValueError(f"{name}: expected {dim} rows of {dim} [re, im] entries")
    cells = list(itertools.chain.from_iterable(rows))
    # Whole-list passes at C speed. A cell of length 2 that is no list (a
    # string, an object) puts strings in `flat`; JSON strings, booleans and
    # null are not numbers.
    try:
        flat = list(itertools.chain.from_iterable(cells)) if set(map(len, cells)) == {2} else None
    except TypeError:  # a number or null has no length
        flat = None
    if flat is None or not set(map(type, flat)) <= {float, int}:
        raise ValueError(f"{name}: entries must be [re, im] pairs of numbers")
    arr = np.fromiter(flat, float, 2 * dim * dim)
    return arr.view(complex).reshape(dim, dim)  # exact: re + 1j * im would turn -0.0 into 0.0


def _rows_json(m: np.ndarray) -> bytes:
    """Rows of `m` as JSON arrays of [re, im] pairs, one row per line.

    orjson writes each float as the shortest text that reads back to the
    same double; two replaces spread its compact output one row per line.
    """
    import orjson

    # orjson takes only C-contiguous arrays, and `as_matrix` keeps a transpose's layout.
    pairs = np.ascontiguousarray(m, dtype=complex).view(float).reshape(*m.shape, 2)
    text = orjson.dumps(pairs, option=orjson.OPT_SERIALIZE_NUMPY)
    return text[1:-1].replace(b",", b", ").replace(b"]], [[", b"]],\n    [[")


def _shown(value) -> str:
    """A parsed JSON value for an error message: a scalar as JSON, an array
    or object by its type (it may nest too deeply for the encoder)."""
    return type(value).__name__ if isinstance(value, (list, dict)) else json.dumps(value)


def _label(doc: dict, key: str, default: str) -> str:
    label = doc.get(key, default)
    if type(label) is not str:
        raise ValueError(f"detector spec {key} must be a string, got {_shown(label)}")
    return label


def read_spec_file(path) -> DetectorSpecFile:
    """Read a detector spec (schema above); a malformed one raises ValueError.

    Matrix entries must be JSON numbers. The cyclic garbage collector is
    paused while the parse tree (a list per matrix entry) is alive, and
    left as it was found: collections would only traverse the tree, which
    holds no cycles, and promote it to older generations.
    """
    import gc  # builtin; imported here so that `import qkd_mismatch.cli` loads the same modules

    enabled = gc.isenabled()
    gc.disable()
    try:
        return _read_spec(path)
    finally:
        if enabled:
            gc.enable()


def _read_spec(path) -> DetectorSpecFile:
    # Imported on first use, here, in the writer and in `cli._emit_json`: it
    # pulls in `uuid` and `zoneinfo`, which a plain `characterize` (no spec
    # file, no --json) should not pay for at start-up.
    import orjson

    with open(path, "rb") as fh:
        data = fh.read()
    try:
        # Strict RFC 8259: NaN / Infinity literals and numbers too large for
        # a double do not parse. Deeply nested arrays do, and fail the checks below.
        doc = orjson.loads(data)
    except orjson.JSONDecodeError as exc:
        raise ValueError(f"detector spec is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"detector spec must be a JSON object, got {type(doc).__name__}")
    try:
        dim = doc["dimension"]
        # A JSON integer: bool is an int subclass, and 1.9 or 1e300 are floats.
        if type(dim) is not int or dim < 1:
            raise ValueError(f"detector spec dimension must be an integer >= 1, got {_shown(dim)}")
        e0 = _matrix_from_pairs(doc["E0"], dim, "E0")
        e1 = _matrix_from_pairs(doc["E1"], dim, "E1")
    except KeyError as exc:
        raise ValueError(f"detector spec missing key: {exc}") from exc
    return DetectorSpecFile(
        e0_raw=e0,
        e1_raw=e1,
        label0=_label(doc, "label0", "detector0"),
        label1=_label(doc, "label1", "detector1"),
    )


def _utf8_text(label) -> bool:
    """Whether `label` is a str with a UTF-8 form. A lone surrogate (how argv
    decodes a byte that is not UTF-8) has none, and its JSON escape does not parse."""
    if not isinstance(label, str):
        return False
    try:
        label.encode()
    except UnicodeEncodeError:
        return False
    return True


def write_spec_file(path, e0, e1, label0: str = "detector0", label1: str = "detector1") -> None:
    # Validated but written as given, since `as_matrix` would drop -0.0 imaginary parts.
    m0, m1 = np.asarray(e0), np.asarray(e1)
    if linalg.as_matrix(m0).shape != linalg.as_matrix(m1).shape or m0.shape[0] != m0.shape[1]:
        raise DimensionMismatch("detector spec needs two square matrices of equal size")
    # Checked before the file opens, so a label `read_spec_file` would reject leaves no file.
    for key, label in (("label0", label0), ("label1", label1)):
        if not _utf8_text(label):
            raise ValueError(f"detector spec {key} must be a string that encodes to UTF-8, got {label!r}")
    data = (
        b'{\n  "dimension": %d,\n'
        b'  "E0": [\n    %s\n  ],\n'
        b'  "E1": [\n    %s\n  ],\n'
        b'  "label0": %s,\n'
        b'  "label1": %s\n'
        b"}\n"
    ) % (m0.shape[0], _rows_json(m0), _rows_json(m1), json.dumps(label0).encode(), json.dumps(label1).encode())
    with open(path, "wb") as fh:
        fh.write(data)
