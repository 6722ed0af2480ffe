import gc
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from qkd_mismatch import (
    Knowledge,
    ZeroRateReason,
    analyze_pair,
    compute_filter,
    deflate_common_nullspace,
    discretize_response,
    load_pair,
    mismatch_spectrum,
    read_response_csv,
    read_spec_file,
    sample_grid,
    swap_detectors,
    write_spec_file,
)
from qkd_mismatch import detectors, linalg
from qkd_mismatch.detectors import RANK_RTOL, validate_efficiency
from qkd_mismatch.errors import DimensionMismatch, InvalidEfficiency, NumericalFailure, SingularDetector
from qkd_mismatch.linalg import MAX_ENTRY_MODULUS, frobenius, principal_sqrt

from conftest import (
    DEMO_E0,
    DEMO_E1,
    assert_differs_only_in_float_spelling,
    count_eigensolves,
    random_efficiency,
    random_pair,
    random_unitary,
)

DATA = Path(__file__).resolve().parents[1] / "data"


def test_load_pair_uniform_quarter():
    pair = load_pair(0.25 * np.eye(2), 0.25 * np.eye(2))
    assert pair.full_rank0 and pair.full_rank1
    for e in (pair.e0, pair.e1):
        np.testing.assert_allclose(e.factor @ e.factor.conj().T, 0.25 * np.eye(2), atol=1e-12)


def test_load_pair_demo_matrices(demo_pair):
    assert demo_pair.full_rank
    for f, e in ((demo_pair.e0.factor, DEMO_E0), (demo_pair.e1.factor, DEMO_E1)):
        assert np.linalg.norm(f @ f.conj().T - e) <= 1e-9


def test_load_pair_rejects_bad_inputs():
    with pytest.raises(InvalidEfficiency):
        load_pair(np.diag([1.3, 0.5]), np.eye(2))
    with pytest.raises(InvalidEfficiency):
        load_pair(np.array([[0.5, 0.4], [0.1, 0.5]]), np.eye(2))
    with pytest.raises(DimensionMismatch):
        load_pair(np.eye(2), np.eye(3))


def test_demo_spectrum_matches_reported_ratios(demo_spectrum):
    np.testing.assert_allclose(demo_spectrum.ratios, [3.03, 0.356], atol=0.01)
    # the filter's decomposition U diag(sigma^2) U^dag reconstructs L0^dag E1^-1 L0
    u, sigma = demo_spectrum.svd
    np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(sigma * sigma, demo_spectrum.ratios, rtol=1e-14, atol=0)
    l0 = np.linalg.cholesky(DEMO_E0)
    np.testing.assert_allclose((u * sigma**2) @ u.conj().T, l0.conj().T @ np.linalg.inv(DEMO_E1) @ l0, atol=1e-12)


def test_equal_detectors_have_unit_ratios():
    rng = np.random.default_rng(2)
    e = random_efficiency(rng, 3)
    spec = mismatch_spectrum(load_pair(e, e))
    np.testing.assert_allclose(spec.ratios, np.ones(3), atol=1e-10)


def test_scalar_ratio():
    spec = mismatch_spectrum(load_pair([[0.2]], [[0.4]]))
    np.testing.assert_allclose(spec.ratios, [0.5], atol=1e-14)


def test_spectrum_requires_full_rank():
    with pytest.raises(SingularDetector):
        mismatch_spectrum(load_pair(np.diag([0.5, 0.0]), np.diag([0.5, 0.5])))


def test_swap_inverts_ratio_multiset(demo_pair, demo_spectrum):
    swapped = mismatch_spectrum(swap_detectors(demo_pair))
    np.testing.assert_allclose(
        np.sort(swapped.ratios), np.sort(1.0 / demo_spectrum.ratios), atol=1e-8
    )


def test_swap_is_involution(demo_pair, demo_spectrum):
    back = mismatch_spectrum(swap_detectors(swap_detectors(demo_pair)))
    np.testing.assert_allclose(back.ratios, demo_spectrum.ratios, atol=1e-9)


def test_symmetric_pair_unchanged_by_swap():
    rng = np.random.default_rng(8)
    e = random_efficiency(rng, 2)
    pair = load_pair(e, e)
    np.testing.assert_allclose(
        mismatch_spectrum(swap_detectors(pair)).ratios,
        mismatch_spectrum(pair).ratios,
        atol=1e-10,
    )


def test_ratios_invariant_under_factor_refactoring():
    # replacing F_i by V_i F_i for unitary V_i leaves the ratio multiset alone
    rng = np.random.default_rng(13)
    for _ in range(10):
        d = int(rng.integers(1, 4))
        pair = random_pair(rng, d)
        v0 = random_unitary(rng, d)
        v1 = random_unitary(rng, d)
        g0 = v0 @ principal_sqrt(pair.e0.matrix)
        g1 = v1 @ principal_sqrt(pair.e1.matrix)
        m = g0 @ np.linalg.inv(g1.conj().T @ g1) @ g0.conj().T
        ratios = np.sort(np.linalg.eigvalsh(m))
        np.testing.assert_allclose(
            ratios, np.sort(mismatch_spectrum(pair).ratios), atol=1e-8
        )


@pytest.mark.parametrize("complex_basis", [False, True], ids=["real", "complex"])
def test_commuting_pair_ratios_are_the_eigenvalue_quotients(complex_basis):
    # Q diag(w0) Q^dag and Q diag(w1) Q^dag have D = w0 / w1 to rounding, here
    # with eigenvalues near 1e-6 in both detectors, on shared and on separate modes.
    rng = np.random.default_rng(0)
    d = 32
    q = random_unitary(rng, d) if complex_basis else np.linalg.qr(rng.standard_normal((d, d)))[0]
    w0, w1 = rng.uniform(0.05, 0.95, d), rng.uniform(0.05, 0.95, d)
    w0[:4] = rng.uniform(1e-6, 1e-5, 4)
    w1[2:6] = rng.uniform(1e-6, 1e-5, 4)
    pair = load_pair(*((q * w) @ q.conj().T for w in (w0, w1)))
    np.testing.assert_allclose(mismatch_spectrum(pair).ratios, np.sort(w0 / w1)[::-1], rtol=1e-8, atol=0)


def _hadamard(d):
    h = np.ones((1, 1))
    while h.shape[0] < d:
        h = np.block([[h, h], [h, -h]])
    return h


def test_dyadic_hadamard_pair_ratios_are_the_eigenvalue_quotients():
    # E_i = (H / sqrt d) diag(x_i) (H / sqrt d)^T with x_i multiples of 2^-26:
    # every entry is a multiple of 2^-32 below 1, so E_i is exact in double
    # and D = x0 / x1 exactly, with modes of 2^-26 in one detector and 2^-22
    # in both. The worst relative error is 4.1e-9 at d = 4 (d = 16: 1.8e-9,
    # d = 64: 1.3e-9); through the principal root and E1's eigensystem it
    # was 2.8e-8 (at d = 64, and 2.5e-8 at d = 16).
    worst = 0.0
    for d in (4, 16, 64):
        h = _hadamard(d)
        for seed in range(3):
            k = np.random.default_rng(seed).integers(2**22, 2**26, size=(2, d))
            k[0, 0] = k[1, 1] = 1
            k[:, 2] = 16
            x = k / 2.0**26
            raws = [(h * xi) @ h.T / d for xi in x]
            assert all(np.array_equal(r * 2.0**32, np.round(r * 2.0**32)) for r in raws)
            want = np.sort(x[0] / x[1])[::-1]
            got = mismatch_spectrum(load_pair(*raws)).ratios
            worst = max(worst, float(np.max(np.abs(got - want) / want)))
    assert worst <= 1.25e-8


def test_diagonal_pair_ratios_are_pointwise():
    eta0 = np.array([0.8, 0.4, 0.33])
    eta1 = np.array([0.3, 0.9, 0.41])
    spec = mismatch_spectrum(load_pair(np.diag(eta0), np.diag(eta1)))
    np.testing.assert_allclose(np.sort(spec.ratios), np.sort(eta0 / eta1), atol=1e-12)


def test_deflate_common_nullspace_reduces():
    rng = np.random.default_rng(21)
    u = random_unitary(rng, 3)
    e0 = (u * np.array([0.5, 0.3, 0.0])) @ u.conj().T
    e1 = (u * np.array([0.2, 0.8, 0.0])) @ u.conj().T
    pair = load_pair(e0, e1)
    assert not pair.full_rank
    reduced = deflate_common_nullspace(pair)
    assert reduced.dim == 2 and reduced.full_rank
    np.testing.assert_allclose(
        np.sort(mismatch_spectrum(reduced).ratios), [0.375, 2.5], atol=1e-8
    )


def test_deflate_rejects_differing_nullspaces():
    with pytest.raises(SingularDetector):
        deflate_common_nullspace(load_pair(np.diag([0.5, 0.0]), np.diag([0.5, 0.5])))
    with pytest.raises(SingularDetector):
        deflate_common_nullspace(load_pair(np.diag([0.5, 0.0]), np.diag([0.0, 0.5])))


def test_deflate_rejects_two_vanishing_responses():
    # The nullspaces match, but they are the whole space: no range is left to keep.
    with pytest.raises(SingularDetector, match="^both responses vanish entirely$"):
        deflate_common_nullspace(load_pair(np.zeros((3, 3)), np.zeros((3, 3))))


def test_spec_file_roundtrip(tmp_path):
    path = tmp_path / "pair.json"
    write_spec_file(path, DEMO_E0, DEMO_E1, "early", "late")
    spec = read_spec_file(path)
    assert spec.dim == 2
    assert (spec.label0, spec.label1) == ("early", "late")
    np.testing.assert_array_equal(spec.e0_raw, DEMO_E0.astype(complex))
    np.testing.assert_array_equal(spec.e1_raw, DEMO_E1.astype(complex))


@pytest.mark.parametrize("d", [1, 2, 17, 64])
def test_spec_file_roundtrip_is_bitwise(tmp_path, d):
    rng = np.random.default_rng(d)
    m0, m1 = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(2))
    m0.flat[:3] = [-0.0, complex(5e-324, -0.0), complex(1e300, -5e-324)][: d * d]
    m1.flat[-1] = complex(-1e300, 1e-300)
    labels = ('say "hi"', "back\\slash \u00e9t\u00e9 \u2192 \U0001f600")
    path = tmp_path / "pair.json"
    write_spec_file(path, m0, m1, *labels)
    spec = read_spec_file(path)
    assert (spec.label0, spec.label1) == labels
    assert spec.e0_raw.tobytes() == m0.tobytes()
    assert spec.e1_raw.tobytes() == m1.tobytes()


def test_spec_file_keeps_negative_zero_imaginary_parts(tmp_path):
    # No imaginary part is nonzero, so both inputs validate as real; each
    # file still holds its input's signs of zero.
    signed = np.array([[complex(0.5, -0.0), 0.1], [complex(0.1, -0.0), complex(0.4, -0.0)]])
    assert np.signbit(signed.imag).sum() == 3
    for m in (signed, signed.real):
        path = tmp_path / "pair.json"
        write_spec_file(path, m, m)
        spec = read_spec_file(path)
        assert spec.e0_raw.tobytes() == spec.e1_raw.tobytes() == np.asarray(m, dtype=complex).tobytes()


_ONE_DIM_SPEC = '{{"dimension": {}, "E0": [[[{}, 0.0]]], "E1": [[[0.5, 0.0]]]}}'
_TWO_DIM_SPEC = '{{"dimension": 2, "E0": {e0}, "E1": {e1}}}'


@pytest.mark.parametrize(
    "doc, message",
    [
        ("[]", "must be a JSON object, got list"),
        ('"E0"', "must be a JSON object, got str"),
        (_ONE_DIM_SPEC.format("null", 0.5), "integer >= 1, got null"),
        (_ONE_DIM_SPEC.format("1e400", 0.5), "not valid JSON: number is infinity when parsed as double"),
        (_ONE_DIM_SPEC.format("1.9", 0.5), "integer >= 1, got 1.9"),
        (_ONE_DIM_SPEC.format("true", 0.5), "integer >= 1, got true"),
        (_ONE_DIM_SPEC.format('"1"', 0.5), 'integer >= 1, got "1"'),
        (_ONE_DIM_SPEC.format("0", 0.5), "integer >= 1, got 0"),
        (_ONE_DIM_SPEC.format("1", '{"re": 0.5}'), "E0: entries must be [re, im] pairs of numbers"),
        (_ONE_DIM_SPEC.format("1", "1" + "0" * 400), "not valid JSON: number is infinity when parsed as double"),
        ("[" * 100_000 + "]" * 100_000, "must be a JSON object, got list"),
        (_ONE_DIM_SPEC.format("1", "[" * 100_000 + "]" * 100_000), "E0: entries must be [re, im] pairs of numbers"),
        (_ONE_DIM_SPEC.format("[" * 100_000 + "]" * 100_000, 0.5), "integer >= 1, got list"),
        (_ONE_DIM_SPEC.format("1", "NaN"), "detector spec is not valid JSON"),
        (_ONE_DIM_SPEC.format("1", "Infinity"), "detector spec is not valid JSON"),
        (_ONE_DIM_SPEC.format("1", "-Infinity"), "detector spec is not valid JSON"),
        (_ONE_DIM_SPEC.format("1", "0.5") + "]", "detector spec is not valid JSON"),
        ("\ufeff" + _ONE_DIM_SPEC.format("1", "0.5"), "detector spec is not valid JSON"),
        (_TWO_DIM_SPEC.format(e0="[[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]", e1="[[[0.5, 0], [0, 0]], [[0.5, 0]]]"),
         "E1: expected 2 rows of 2 [re, im] entries"),
        (_ONE_DIM_SPEC.format("1", "0.5, 0.0"), "E0: entries must be [re, im] pairs of numbers"),
        (_TWO_DIM_SPEC.format(e0="[[[0.5, 0], [0, 0]], [[0, 0], 0.5]]", e1="[[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]"),
         "E0: entries must be [re, im] pairs of numbers"),
        (_ONE_DIM_SPEC.format("2", "0.5"), "E0: expected 2 rows of 2 [re, im] entries"),
        (_ONE_DIM_SPEC.format("1", '"0.5"'), "E0: entries must be [re, im] pairs of numbers"),
        (_ONE_DIM_SPEC.format("1", "true"), "E0: entries must be [re, im] pairs of numbers"),
        (_ONE_DIM_SPEC.format("1", "null"), "E0: entries must be [re, im] pairs of numbers"),
        # eight numbers in all, as four [re, im] pairs would hold
        (_TWO_DIM_SPEC.format(e0="[[[0.5, 0], [0, 0]], [[1], [2, 3, 4]]]", e1="[[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]"),
         "E0: entries must be [re, im] pairs of numbers"),
        # cells of length 2 that are no [re, im] pair
        ('{"dimension": 1, "E0": [[{"re": 0.5, "im": 0.0}]], "E1": [[[0.5, 0.0]]]}',
         "E0: entries must be [re, im] pairs of numbers"),
        ('{"dimension": 1, "E0": [["05"]], "E1": [[[0.5, 0.0]]]}', "E0: entries must be [re, im] pairs of numbers"),
    ],
    ids=["array", "string", "dim-null", "dim-1e400", "dim-1.9", "dim-true", "dim-string", "dim-0",
         "entry-object", "entry-overflow", "deep-nesting", "deep-nesting-entry", "deep-nesting-dim",
         "entry-nan-literal", "entry-infinity-literal", "entry-minus-infinity-literal", "trailing-bracket",
         "byte-order-mark", "ragged-row", "three-element-entry", "bare-number-entry", "wrong-dimension",
         "entry-string", "entry-true", "entry-null", "entries-1-and-3", "two-key-object-cell", "two-char-string-cell"],
)
def test_malformed_spec_file_raises_value_error(tmp_path, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(doc, encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(message)) as info:
        read_spec_file(path)
    assert type(info.value) is ValueError


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("doc", [_ONE_DIM_SPEC.format("1", 0.5), _ONE_DIM_SPEC.format("1", "true"), "{"],
                         ids=["good", "bad-entry", "bad-json"])
def test_spec_reader_leaves_the_collector_as_it_found_it(tmp_path, doc, enabled):
    path = tmp_path / "spec.json"
    path.write_text(doc, encoding="utf-8")
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        try:
            read_spec_file(path)
        except ValueError:
            pass
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_spec_reader_runs_no_collection(tmp_path):
    path = tmp_path / "spec.json"
    e = random_efficiency(np.random.default_rng(5), 40)
    write_spec_file(path, e, e)
    starts = []

    def record(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()
    gc.callbacks.append(record)
    try:
        read_spec_file(path)
    finally:
        gc.callbacks.remove(record)
    assert starts == []


@pytest.mark.parametrize("label, shown", [("null", "null"), ("[1, 2]", "list"), ('{"a": "b"}', "dict"), ("7", "7")])
def test_spec_labels_must_be_strings(tmp_path, label, shown):
    path = tmp_path / "bad.json"
    path.write_text(_ONE_DIM_SPEC.format("1", 0.5)[:-1] + f', "label1": {label}}}', encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"detector spec label1 must be a string, got {shown}")):
        read_spec_file(path)


def _agreement_values():
    """Float64 values at the edges of the format, random bit patterns and
    random magnitudes."""
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 1e-308, 1e308,
             -1e308, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3, 2.0**53, -(2.0**53) - 2]
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2**64, 300, dtype=np.uint64).view(np.float64)
    scaled = rng.standard_normal(100) * 10.0 ** rng.integers(-320, 300, 100)
    return np.concatenate([edges, bits[np.isfinite(bits)], scaled])


# Integer literals on both sides of the int64 and uint64 limits (beyond them a
# parser must round to a double), round-to-nearest-even ties, and the largest
# magnitudes a double holds.
_INTEGER_LITERALS = ["-0", str(2**53 + 1), str(2**63), str(2**64 - 1), str(2**64 + 1), str(-(2**63) - 1),
                     str(2**70 + 2**17), str(2**70 + 2**17 + 1), str(10**308), str(int(1.7976931348623157e308))]


def _render(node, newline, pad, level=0):
    if isinstance(node, str):
        return node
    inner = newline + pad * (level + 1)
    items = ("," + inner).join(_render(x, newline, pad, level + 1) for x in node)
    return "[" + inner + items + newline + pad * level + "]"


@pytest.mark.parametrize("layout", [("", ""), ("\n", "  "), ("\r\n", "\t")], ids=["compact", "indented", "crlf-tabs"])
@pytest.mark.parametrize("fmt", ["%r", "%.17g", "%.17E", "integer"])
def test_spec_reader_agrees_with_the_json_decoder(tmp_path, fmt, layout):
    values = _agreement_values()
    if fmt == "integer":
        literals = [str(int(x)) for x in values.tolist() if x.is_integer()] + _INTEGER_LITERALS
    else:
        literals = [fmt % x for x in values.tolist()]
    d = 7
    literals = (literals * (4 * d * d))[: 4 * d * d]
    e0, e1 = np.array(literals, dtype=object).reshape(2, d, d, 2).tolist()
    newline, pad = layout
    text = (
        "{" + newline + f'"dimension": {d},' + newline
        + '"E0": ' + _render(e0, newline, pad) + "," + newline
        + '"E1": ' + _render(e1, newline, pad) + newline + "}" + newline
    )
    path = tmp_path / "foreign.json"
    path.write_bytes(text.encode("utf-8"))
    spec = read_spec_file(path)
    doc = json.loads(text)
    for got, key in ((spec.e0_raw, "E0"), (spec.e1_raw, "E1")):
        want = np.asarray(doc[key], dtype=float)
        assert got.tobytes() == want.tobytes(), key
    if fmt in ("%r", "%.17E"):  # each names its double exactly ("%.17g" writes -0.0 as the integer -0)
        read = np.stack((spec.e0_raw, spec.e1_raw)).view(np.float64).ravel()
        assert read.tobytes() == np.resize(values, read.size).tobytes()


def test_spec_file_writes_one_matrix_row_per_line(tmp_path):
    path = tmp_path / "pair.json"
    write_spec_file(path, [[0.5]], [[0.25 + 0.125j]], "a", "b")
    assert path.read_text(encoding="utf-8") == (
        '{\n  "dimension": 1,\n'
        '  "E0": [\n    [[0.5, 0.0]]\n  ],\n'
        '  "E1": [\n    [[0.25, 0.125]]\n  ],\n'
        '  "label0": "a",\n  "label1": "b"\n}\n'
    )
    rng = np.random.default_rng(5)
    m = rng.standard_normal((17, 17)) + 1j * rng.standard_normal((17, 17))
    write_spec_file(path, m, m)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2 * 17 + 9
    for i in range(17):
        row = json.loads(lines[3 + i].rstrip(","))
        assert row == [[z.real, z.imag] for z in m[i]]


def _json_encoder_rows(m):
    """The spec writer's rows as the json encoder writes them, one per line."""
    encode = json.JSONEncoder().encode
    return ",\n    ".join(encode(row) for row in np.stack((m.real, m.imag), -1).tolist()).encode()


def _characterized(bandwidth_ghz, d):
    gate = sample_grid(bandwidth_ghz * 1e9, 0.0, 2e-9)
    assert gate.d == d
    return [discretize_response(read_response_csv(DATA / f"response_det{k}.csv"), gate).matrix for k in (0, 1)]


def _hermitian_with_edge_values():
    rng = np.random.default_rng(7)
    upper = rng.standard_normal(15) + 1j * rng.standard_normal(15)
    upper[:4] = [complex(5e-324, -0.0), complex(1e300, -1e300), complex(-0.0, 2.5e-310), complex(-1e300, 0.0)]
    m = np.empty((6, 6), dtype=complex)
    rows, cols = np.triu_indices(6, 1)
    m[rows, cols] = upper
    m[cols, rows] = upper.conj()
    m[np.diag_indices(6)] = [complex(x, z) for x, z in zip((0.5, -0.0, 1e300, -1e300, 5e-324, 0.0), (0.0, -0.0) * 3)]
    return m, -m.T


def _general_pair():
    rng = np.random.default_rng(4)
    return rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)), rng.standard_normal((9, 9))


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: _characterized(0.25, 2), id="characterized-d2"),
        pytest.param(lambda: _characterized(4.0, 17), id="characterized-d17"),
        pytest.param(lambda: _characterized(15.5, 63), id="characterized-d63"),
        pytest.param(_hermitian_with_edge_values, id="hermitian-edge-values"),
        pytest.param(_general_pair, id="general"),
        pytest.param(lambda: ([[complex(-0.0, 1e-300)]], [[0.25]]), id="1x1"),
    ],
)
def test_spec_writer_matches_the_json_encoder(tmp_path, monkeypatch, build):
    """The writer's bytes are the json encoder's but for float spellings
    (orjson writes `1e-6` for `1e-06`); the stdlib parser reads the input
    doubles back bit for bit, one matrix row per line."""
    m0, m1 = build()
    write_spec_file(tmp_path / "new.json", m0, m1, "a", "b")
    monkeypatch.setattr(detectors, "_rows_json", _json_encoder_rows)
    write_spec_file(tmp_path / "reference.json", m0, m1, "a", "b")
    text = (tmp_path / "new.json").read_text(encoding="utf-8")
    assert_differs_only_in_float_spelling(text, (tmp_path / "reference.json").read_text(encoding="utf-8"))
    doc = json.loads(text)
    lines = text.splitlines()
    d = doc["dimension"]
    assert len(lines) == 2 * d + 9
    for key, m, first in (("E0", m0, 3), ("E1", m1, d + 5)):
        want = np.asarray(m, dtype=complex)
        assert np.asarray(doc[key], dtype=float).tobytes() == want.tobytes(), key
        for i in range(d):
            assert json.loads(lines[first + i].rstrip(",")) == doc[key][i]


def test_spec_file_roundtrip_of_format_edge_values_is_bitwise(tmp_path):
    values = _agreement_values()
    d = int(np.ceil(np.sqrt(values.size / 2)))
    m0 = np.resize(values, 2 * d * d).view(complex).reshape(d, d)
    m1 = np.resize(values[::-1], 2 * d * d).view(complex).reshape(d, d)
    path = tmp_path / "edges.json"
    write_spec_file(path, m0, m1)
    spec = read_spec_file(path)
    assert spec.e0_raw.tobytes() == m0.tobytes()
    assert spec.e1_raw.tobytes() == m1.tobytes()


def test_read_shipped_indented_spec_file():
    spec = read_spec_file(Path(__file__).resolve().parents[1] / "data" / "demo_detectors.json")
    assert spec.e0_raw.tobytes() == DEMO_E0.astype(complex).tobytes()
    assert spec.e1_raw.tobytes() == DEMO_E1.astype(complex).tobytes()


def test_validation_runs_one_eigvalsh_per_response_and_no_eigh(monkeypatch):
    calls = count_eigensolves(monkeypatch)
    rng = np.random.default_rng(3)
    e0, e1 = random_efficiency(rng, 4), random_efficiency(rng, 4)
    load_pair(e0, e1)
    assert calls == ["eigvalsh"] * 2


def test_load_pair_reuses_a_validated_response(monkeypatch):
    rng = np.random.default_rng(3)
    e0, e1 = (validate_efficiency(random_efficiency(rng, 4)) for _ in range(2))
    calls = count_eigensolves(monkeypatch)
    pair = load_pair(e0, e1)
    assert calls == []
    assert pair.e0 is e0 and pair.e1 is e1
    again = load_pair(e0.matrix, e1.matrix)
    assert [e.factor.tobytes() for e in (e0, e1)] == [again.e0.factor.tobytes(), again.e1.factor.tobytes()]


@pytest.mark.parametrize("d", [1, 2, 7, 32, 64])
def test_factor_is_lower_triangular_and_reconstructs_the_response(d):
    rng = np.random.default_rng(d)
    q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    for raw in (random_efficiency(rng, d), (q * rng.uniform(0.1, 0.95, d)) @ q.T):
        e = validate_efficiency(raw)
        assert e.full_rank and not e.factor.flags.writeable
        np.testing.assert_array_equal(e.factor, np.tril(e.factor))
        assert frobenius(e.factor @ e.factor.conj().T - e.matrix) <= 1e-14 * frobenius(e.matrix)
        np.testing.assert_array_equal(e.eigenvalues, np.linalg.eigvalsh(e.matrix)[::-1])


def test_deflation_forms_eigenvectors_only_for_singular_responses(monkeypatch):
    calls = count_eigensolves(monkeypatch)
    analysis = analyze_pair(load_pair(np.diag([0.8, 0.5, 0.0]), np.diag([0.3, 0.6, 0.0])), Knowledge.FULL_MATRICES)
    # Two in load_pair, one eigensystem per singular response, two in the
    # reduced load_pair and one SVD for the spectrum.
    assert calls == ["eigvalsh"] * 2 + ["eigh"] * 2 + ["eigvalsh"] * 2 + ["svd"]
    assert analysis.pair.dim == 2
    np.testing.assert_allclose(np.sort(analysis.spectrum.ratios), [0.5 / 0.6, 0.8 / 0.3], rtol=1e-14)
    calls.clear()
    # One singular response cannot share a nullspace: no eigensystem is formed.
    analysis = analyze_pair(load_pair(np.diag([0.8, 0.5, 0.0]), np.diag([0.3, 0.6, 0.2])), Knowledge.FULL_MATRICES)
    assert calls == ["eigvalsh"] * 2
    assert analysis.noiseless.zero_reason is ZeroRateReason.SINGULAR_DETECTOR


@pytest.mark.parametrize("fault", ["raises", "perturbed"])
def test_a_failed_cholesky_factor_ends_in_numerical_failure(monkeypatch, fault):
    original = np.linalg.cholesky

    def faulty(a):
        if fault == "raises":
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        return original(a) + 1e-6 * np.eye(a.shape[0])

    monkeypatch.setattr(np.linalg, "cholesky", faulty)
    with pytest.raises(NumericalFailure, match="Cholesky factor"):
        load_pair(DEMO_E0, DEMO_E1)


def test_real_pair_stays_real_and_matches_its_complex_image():
    rng = np.random.default_rng(12)
    for d in (2, 5, 12):
        raws = []
        for _ in range(2):
            q = np.linalg.qr(rng.standard_normal((d, d)))[0]
            raws.append((q * rng.uniform(0.1, 0.95, d)[np.newaxis, :]) @ q.T)
        u = random_unitary(rng, d)
        images = [u @ r @ u.conj().T for r in raws]
        results = []
        # A complex array whose imaginary parts are all zero counts as real.
        for inputs, dtype in ((raws, np.float64), ([r.astype(complex) for r in raws], np.float64),
                              (images, np.complex128)):
            pair = load_pair(*inputs)
            spectrum = mismatch_spectrum(pair)
            filt = compute_filter(spectrum, pair)
            for a in (pair.e0.matrix, pair.e1.matrix, pair.e0.factor, pair.e1.factor, spectrum.svd[0], filt.gram):
                assert a.dtype == dtype
            results.append((spectrum.ratios, filt.validity_margin))
        for ratios, margin in results[1:]:
            np.testing.assert_allclose(ratios, results[0][0], rtol=1e-12, atol=0)
            assert margin == pytest.approx(results[0][1], abs=1e-12)


def _eigvalsh_full_rank(m):
    return bool(np.linalg.eigvalsh(m).min() > RANK_RTOL * max(1.0, frobenius(m)))


def test_load_pair_matches_separate_validation_root_and_rank():
    rng = np.random.default_rng(17)
    for _ in range(30):
        d = int(rng.integers(1, 17))
        raws = [random_efficiency(rng, d) for _ in range(2)]
        if rng.random() < 0.5:  # a rank-deficient detector
            u = random_unitary(rng, d)
            raws[int(rng.integers(2))] = (u * np.r_[rng.uniform(0.1, 0.9, d - 1), 0.0]) @ u.conj().T
        pair = load_pair(*raws)
        for raw, e, full in ((raws[0], pair.e0, pair.full_rank0), (raws[1], pair.e1, pair.full_rank1)):
            np.testing.assert_array_equal(e.matrix, validate_efficiency(raw).matrix)
            assert principal_sqrt(e.matrix).tobytes() == principal_sqrt(raw).tobytes()
            assert e.full_rank is full
            if full:
                assert e.factor.tobytes() == np.linalg.cholesky(e.matrix).tobytes()
            assert full == _eigvalsh_full_rank(e.matrix)


def test_validation_checks_each_matrix_once(monkeypatch):
    calls = []
    original = linalg.require_hermitian

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "require_hermitian", counting)
    rng = np.random.default_rng(6)
    validate_efficiency(random_efficiency(rng, 4))
    assert calls == [(4, 4)]
    calls.clear()
    load_pair(random_efficiency(rng, 3), random_efficiency(rng, 3))
    assert calls == [(3, 3)] * 2


@pytest.mark.parametrize("factor, full", [(0.99, False), (1.01, True)])
def test_load_pair_rank_flag_at_cutoff(factor, full):
    rng = np.random.default_rng(9)
    u = random_unitary(rng, 3)
    e = (u * np.array([0.5, 0.3, factor * RANK_RTOL])) @ u.conj().T  # ||e||_F < 1: cutoff RANK_RTOL
    pair = load_pair(e, 0.5 * np.eye(3))
    assert pair.full_rank0 is full
    assert _eigvalsh_full_rank(pair.e0.matrix) is full


@pytest.mark.parametrize(
    "bad",
    [
        np.array([[0.5, 0.4], [0.1, 0.5]]),  # not Hermitian
        np.diag([1.3, 0.5]),  # eigenvalue above 1
        np.array([[0.15, 0.35], [0.35, 0.15]]),  # eigenvalue -0.2
    ],
)
def test_load_pair_errors_match_validate_efficiency(bad):
    # load_pair names the detector whose response failed.
    with pytest.raises(InvalidEfficiency) as expected:
        validate_efficiency(bad)
    for name, args in (("E0", (bad, np.eye(2))), ("E1", (np.eye(2), bad))):
        with pytest.raises(InvalidEfficiency) as got:
            load_pair(*args)
        assert str(got.value) == f"{name}: {expected.value}"


@pytest.mark.parametrize(
    "bad",
    [
        [[0.3, 1e200], [-1e200, 0.3]],  # antisymmetric part that a Frobenius norm of inf would hide
        [[0.5, 1e200], [1e200, 0.5]],  # Hermitian, eigenvalues +-1e200
        [[1e160]],
        [[1e150]],
        [[0.5, 1e308 + 1e308j], [1e308 - 1e308j, 0.5]],
        [[1.7e308 + 1.7e308j]],  # a modulus past the float range
    ],
)
def test_entries_too_large_for_a_response_are_rejected_before_any_norm(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidEfficiency, match="entries of modulus at most 1"):
            validate_efficiency(bad)
        for args in ((bad, np.eye(len(bad))), (np.eye(len(bad)), bad)):
            with pytest.raises(InvalidEfficiency, match="entries of modulus at most 1"):
                load_pair(*args)


def test_entries_below_the_bound_keep_the_spectrum_message():
    # A response with eigenvalues in [-tol, 1 + tol] has entries of modulus at most 1 + 2 tol.
    assert MAX_ENTRY_MODULUS >= 2.0
    with pytest.raises(InvalidEfficiency, match=r"eigenvalues \[-1e\+99, 1e\+99\] outside \[0, 1\]"):
        validate_efficiency([[0.5, 1e99], [1e99, 0.5]])
