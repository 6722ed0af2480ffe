import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

from qkd_mismatch import (
    ContinuousResponse,
    diagonal_only_response,
    discretize_response,
    read_response_csv,
    sample_grid,
    write_response_csv,
)
from qkd_mismatch.characterize import _KNOTS_PER_BLOCK, MAX_GRID_SAMPLES, _gaussian_smoothed
from qkd_mismatch.errors import CoverageError, InvalidGate


DATA = Path(__file__).resolve().parent.parent / "data"


def flat_response(level, start=-1e-9, end=3e-9):
    return ContinuousResponse(times_s=np.array([start, end]), values=np.array([level, level]))


def test_sample_grid_one_gigahertz_two_ns():
    gate = sample_grid(1e9, 0.0, 2e-9)
    assert gate.d == 5
    np.testing.assert_allclose(gate.sample_times_s, np.arange(5) * 0.5e-9, atol=1e-21)
    assert gate.spacing_s == pytest.approx(0.5e-9)


def test_sample_grid_half_gigahertz():
    gate = sample_grid(0.5e9, 0.0, 1e-9)
    assert gate.d == 2
    np.testing.assert_allclose(gate.sample_times_s, [0.0, 1e-9], atol=1e-21)


def test_sample_grid_invalid():
    with pytest.raises(InvalidGate):
        sample_grid(1e9, 2e-9, 1e-9)
    with pytest.raises(InvalidGate):
        sample_grid(0.0, 0.0, 1e-9)


@pytest.mark.parametrize(
    "bandwidth_hz, start_s, end_s",
    [(np.inf, 0.0, 2e-9), (1e9, 0.0, np.inf), (1e9, -np.inf, 2e-9), (1e9, 0.0, np.nan)],
)
def test_sample_grid_rejects_non_finite(bandwidth_hz, start_s, end_s):
    with pytest.raises(InvalidGate, match="finite"):
        sample_grid(bandwidth_hz, start_s, end_s)


@pytest.mark.parametrize(
    "bandwidth_hz, end_s",
    # 2B overflows; 1e5 and 1e12 GHz over 2 ns; 1 GHz over 1000 s; 1e290 GHz;
    # one sample more than supported.
    [(1e308, 2e-9), (1e14, 2e-9), (1e21, 2e-9), (1e9, 1e3), (1e299, 2e-9), (1024e9, 2e-9)],
)
def test_sample_grid_rejects_more_samples_than_supported(bandwidth_hz, end_s):
    with pytest.raises(InvalidGate, match=f"samples, more than the {MAX_GRID_SAMPLES} supported$"):
        sample_grid(bandwidth_hz, 0.0, end_s)


def test_sample_grid_accepts_the_largest_supported_grid():
    gate = sample_grid(1023.75e9, 0.0, 2e-9)
    assert gate.d == MAX_GRID_SAMPLES and gate.sample_times_s[-1] == pytest.approx(2e-9)


def _assert_flat_quarter_scaled_identity(bandwidth_hz):
    gate = sample_grid(bandwidth_hz, 0.0, 2e-9)
    e = discretize_response(flat_response(0.25), gate)
    np.testing.assert_allclose(e.diagonal, 0.25, atol=1e-13)
    np.testing.assert_allclose(e.matrix, 0.25 * np.eye(gate.d), atol=1e-13)
    assert np.linalg.eigvalsh(e.matrix).max() <= 0.25 * (1 + 1e-9)


def test_flat_quarter_discretizes_to_scaled_identity():
    _assert_flat_quarter_scaled_identity(1e9)


@pytest.mark.parametrize("bandwidth_ghz", [4.0, 15.75])
def test_flat_quarter_scaled_identity_at_higher_bandwidth(bandwidth_ghz):
    _assert_flat_quarter_scaled_identity(bandwidth_ghz * 1e9)


def test_constant_response_proportionality():
    gate = sample_grid(1e9, 0.0, 2e-9)
    unit = discretize_response(flat_response(1.0), gate).matrix
    scaled = discretize_response(flat_response(0.37), gate).matrix
    np.testing.assert_allclose(scaled, 0.37 * unit, atol=1e-12)
    np.testing.assert_allclose(unit, np.eye(5), atol=1e-13)


def test_zero_response_gives_zero_matrix():
    gate = sample_grid(1e9, 0.0, 2e-9)
    e = discretize_response(flat_response(0.0), gate)
    assert np.abs(e.matrix).max() == 0.0


def _oversampled_oracle(resp, gate, points_per_spacing=200, simpson=False):
    # independent quadrature (trapezoid or composite Simpson) over the samples
    # padded by 2 spacings, summed in chunks of the time grid to bound memory
    pad = 2
    step = gate.spacing_s / points_per_spacing
    n_steps = (gate.d - 1 + 2 * pad) * points_per_spacing
    s = gate.sample_times_s[0] - pad * gate.spacing_s + step * np.arange(n_steps + 1)
    w = np.full(s.size, step)
    if simpson:  # n_steps is even for an even points_per_spacing
        w[1:-1:2] *= 4 / 3
        w[2:-1:2] *= 2 / 3
        w[[0, -1]] /= 3
    else:
        w[[0, -1]] /= 2
    sigma = gate.pulse_sigma_s
    eta = resp(s)
    gram = np.zeros((gate.d, gate.d))
    weighted = np.zeros((gate.d, gate.d))
    for chunk in np.array_split(np.arange(s.size), 1 + s.size // 20000):
        pulses = np.exp(-((s[chunk][None, :] - gate.sample_times_s[:, None]) ** 2) / (2 * sigma**2))
        gram += (pulses * w[chunk]) @ pulses.T
        weighted += (pulses * (w * eta)[chunk]) @ pulses.T
    gw, gv = np.linalg.eigh(gram)
    inv_root = (gv / np.sqrt(gw)) @ gv.T
    return inv_root @ weighted @ inv_root


def test_bump_response_against_oversampled_oracle():
    gate = sample_grid(1e9, 0.0, 2e-9)
    t = np.linspace(-1e-9, 3e-9, 600)
    resp = ContinuousResponse(times_s=t, values=0.7 * np.exp(-(((t - 1e-9) / 0.4e-9) ** 2)))
    e = discretize_response(resp, gate)
    oracle = _oversampled_oracle(resp, gate)
    # trapezoid oracle carries ~4e-5 relative error of its own
    assert np.abs(e.matrix - oracle).max() < 1e-6
    # peaked response: largest diagonal at the center sample, decaying off-diagonals
    assert int(np.argmax(e.diagonal)) == 2
    band = [np.abs(np.diagonal(e.matrix, k)).max() for k in range(1, gate.d)]
    assert all(b1 >= b2 - 1e-12 for b1, b2 in zip(band, band[1:]))


@pytest.mark.parametrize("detector", [0, 1])
@pytest.mark.parametrize("bandwidth_ghz", [1.0, 4.0, 15.75])
def test_shipped_responses_match_refined_simpson(bandwidth_ghz, detector):
    gate = sample_grid(bandwidth_ghz * 1e9, 0.0, 2e-9)
    resp = read_response_csv(DATA / f"response_det{detector}.csv")
    e = discretize_response(resp, gate)
    oracle = _oversampled_oracle(resp, gate, points_per_spacing=2000, simpson=True)
    assert np.abs(e.matrix - oracle).max() < 1e-12


@pytest.mark.parametrize(
    "bandwidth_ghz, width_spacings, low, high",
    [(4.0, 1e-4, 0.9, 0.1), (16.0, 1e-9, 0.0, 1.0)],
    ids=["ramp", "near-vertical"],
)
def test_step_response_is_gaussian_smoothed_step(bandwidth_ghz, width_spacings, low, high):
    # eta steps from `low` to `high` at tau, tabulated as a ramp centred on tau;
    # smoothing by the pulse product exp(-(t - m)^2 / sigma^2) gives
    # S(m) = low + (high - low) Phi((m - tau) / h), h = sigma / sqrt(2).
    gate = sample_grid(bandwidth_ghz * 1e9, 0.0, 2e-9)
    tau, half_width = 0.83e-9, 0.5 * width_spacings * gate.spacing_s
    resp = ContinuousResponse(
        times_s=np.array([-1e-9, tau - half_width, tau + half_width, 3e-9]),
        values=np.array([low, low, high, high]),
    )
    e = discretize_response(resp, gate)
    t = gate.sample_times_s
    sigma = gate.pulse_sigma_s
    overlap = np.exp(-((t[:, None] - t[None, :]) ** 2) / (4 * sigma**2))
    midpoints = 0.5 * (t[:, None] + t[None, :])
    smoothed = low + (high - low) * ndtr((midpoints - tau) / (sigma / np.sqrt(2)))
    gw, gv = np.linalg.eigh(overlap)
    inv_root = (gv / np.sqrt(gw)) @ gv.T
    assert np.abs(e.matrix - inv_root @ (overlap * smoothed) @ inv_root).max() < 1e-8


def _one_shot_smoothed(resp, m, h):
    # `_gaussian_smoothed` with every knot's hinge tail in one array.
    t, v = resp.times_s, resp.values
    kinks = np.diff(np.diff(v) / np.diff(t), prepend=0.0, append=0.0)
    z = -np.abs(m[:, np.newaxis] - t[np.newaxis, :]) / h
    tails = z * ndtr(z) + np.exp(-0.5 * z**2) / np.sqrt(2.0 * np.pi)
    return resp(m) + h * (tails @ kinks)


def _wiggly_response(knots, seed=0):
    t = np.linspace(-1e-9, 3e-9, knots)
    wiggle = 0.02 * np.random.default_rng(seed).standard_normal(knots)
    return ContinuousResponse(times_s=t, values=0.5 + 0.3 * np.sin(2 * np.pi * t / 1.7e-9) + wiggle)


def _half_grid(gate):
    return gate.sample_times_s[0] + 0.5 * gate.spacing_s * np.arange(2 * gate.d - 1)


@pytest.mark.parametrize("detector", [0, 1])
def test_one_block_table_smooths_as_one_shot(detector):
    gate = sample_grid(15.75e9, 0.0, 2e-9)
    resp = read_response_csv(DATA / f"response_det{detector}.csv")
    assert resp.times_s.size <= _KNOTS_PER_BLOCK
    m, h = _half_grid(gate), gate.pulse_sigma_s / np.sqrt(2.0)
    np.testing.assert_array_equal(_gaussian_smoothed(resp, m, h), _one_shot_smoothed(resp, m, h))


def test_several_block_table_matches_one_shot():
    gate = sample_grid(15.75e9, 0.0, 2e-9)
    resp = _wiggly_response(3 * _KNOTS_PER_BLOCK + 77)
    m, h = _half_grid(gate), gate.pulse_sigma_s / np.sqrt(2.0)
    assert np.abs(_gaussian_smoothed(resp, m, h) - _one_shot_smoothed(resp, m, h)).max() < 1e-13


def test_long_table_memory_is_bounded():
    gate = sample_grid(15.75e9, 0.0, 2e-9)
    assert gate.d == 64
    resp = _wiggly_response(30_000)
    tracemalloc.start()
    try:
        e = discretize_response(resp, gate)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert e.matrix.shape == (64, 64)
    # one (2d - 1) x knots array alone would take 30 MB
    assert peak < 16e6


def test_knots_far_outside_the_gate_smooth_without_overflow():
    # a table spanning +-1e300 ns squares its outer tails to inf; exp(-inf) = 0 is
    # their exact weight, so it discretizes as the same table spanning +-1e100 ns
    gate = sample_grid(1e9, 0.0, 2e-9)

    def spanning(far_s):
        return ContinuousResponse(times_s=np.array([-far_s, 0.0, 2e-9, far_s]), values=np.array([0.5, 0.6, 0.4, 0.5]))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e = discretize_response(spanning(1e291), gate)
    np.testing.assert_array_equal(e.matrix, discretize_response(spanning(1e91), gate).matrix)
    assert e.full_rank


def test_diagonal_convergence_with_bandwidth_doubling():
    t = np.linspace(-2e-9, 6e-9, 1200)
    resp = ContinuousResponse(times_s=t, values=0.5 + 0.3 * np.sin(2 * np.pi * t / 5e-9))
    errors = []
    for b in (2e9, 4e9):
        gate = sample_grid(b, 0.0, 2e-9)
        diag = discretize_response(resp, gate).diagonal
        target = resp(gate.sample_times_s)
        errors.append(np.abs(diag - target).max() / target.min())
    assert errors[0] < 0.01
    assert errors[1] <= errors[0] + 1e-9


def test_output_always_valid_efficiency():
    rng = np.random.default_rng(44)
    gate = sample_grid(1.5e9, 0.0, 2e-9)
    t = np.linspace(-1e-9, 3e-9, 500)
    for _ in range(10):
        knots = np.clip(rng.uniform(0, 1, size=6), 0, 1)
        values = np.interp(t, np.linspace(t[0], t[-1], 6), knots)
        e = discretize_response(ContinuousResponse(times_s=t, values=values), gate)
        w = np.linalg.eigvalsh(e.matrix)
        assert w.min() >= -1e-12 and w.max() <= 1 + 1e-12


def test_diagonal_only_response():
    gate = sample_grid(1e9, 0.0, 2e-9)
    e = diagonal_only_response(flat_response(0.25), gate)
    np.testing.assert_allclose(e.matrix, 0.25 * np.eye(5), atol=1e-15)
    t = np.linspace(-1e-9, 3e-9, 300)
    resp = ContinuousResponse(times_s=t, values=0.1 + 0.5 * np.exp(-(((t - 0.5e-9) / 0.6e-9) ** 2)))
    e = diagonal_only_response(resp, gate)
    assert np.abs(e.matrix - np.diag(e.diagonal)).max() == 0.0
    np.testing.assert_allclose(e.diagonal, resp(gate.sample_times_s), atol=1e-12)


def test_response_validation():
    with pytest.raises(ValueError):
        ContinuousResponse(times_s=np.array([0.0, 1.0]), values=np.array([0.2, 1.2]))
    with pytest.raises(ValueError):
        ContinuousResponse(times_s=np.array([1.0, 0.0]), values=np.array([0.2, 0.2]))
    with pytest.raises(ValueError, match="efficiencies must be finite"):
        ContinuousResponse(times_s=np.array([0.0, 1.0]), values=np.array([0.2, np.nan]))
    for times in ([0.0, np.inf], [-np.inf, 1.0]):
        with pytest.raises(ValueError, match="times must be finite"):
            ContinuousResponse(times_s=np.array(times), values=np.array([0.2, 0.2]))


def test_coverage_error():
    gate = sample_grid(1e9, 0.0, 2e-9)
    short = ContinuousResponse(times_s=np.array([0.0, 1e-9]), values=np.array([0.2, 0.2]))
    with pytest.raises(CoverageError):
        discretize_response(short, gate)
    with pytest.raises(CoverageError):
        diagonal_only_response(short, gate)


def test_extreme_tables_discretize_inside_the_window():
    # The closed-form E = T^(-1/2) (T o S) T^(-1/2) stays in [0, I] to rounding
    # (T is well conditioned at every bandwidth), so it is returned as computed.
    square_t = np.linspace(-1e-9, 3e-9, 401)
    random_t = np.linspace(-1e-9, 3e-9, 200_000)
    all_bandwidths = (0.5, 1, 7.75, 15.75)
    tables = {
        "square-wave": (square_t, (np.arange(square_t.size) // 20 % 2).astype(float), all_bandwidths),
        "all-ones": (np.array([-1e-9, 3e-9]), np.ones(2), all_bandwidths),
        "step": (np.array([-1e-9, 1e-9 - 1e-15, 1e-9, 3e-9]), np.array([0.0, 0.0, 1.0, 1.0]), all_bandwidths),
        "random-200k": (random_t, np.random.default_rng(7).integers(0, 2, random_t.size).astype(float), (1,)),
    }
    for name, (t, v, bandwidths_ghz) in tables.items():
        resp = ContinuousResponse(times_s=t, values=v)
        for bandwidth in bandwidths_ghz:
            e = discretize_response(resp, sample_grid(bandwidth * 1e9, 0.0, 2e-9))
            w = np.linalg.eigvalsh(e.matrix)
            assert -1e-13 <= w.min() and w.max() <= 1.0 + 1e-13, (name, bandwidth)


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "resp.csv"
    times_ns = np.array([-0.5, 0.0, 0.5, 1.0, 2.5])
    values = np.array([0.0, 0.3, 0.8, 0.31, 0.05])
    write_response_csv(path, times_ns, values)
    resp = read_response_csv(path)
    np.testing.assert_allclose(resp.times_s, times_ns * 1e-9, rtol=1e-15)
    np.testing.assert_allclose(resp.values, values, rtol=1e-15)


def test_csv_requires_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.0,0.5\n1.0,0.5\n")
    with pytest.raises(ValueError):
        read_response_csv(path)


@pytest.mark.parametrize(
    "body, message",
    [
        ("0.0,0.5\n1.0,1.5\n", "efficiencies must lie in [0, 1], got [0.5, 1.5]"),
        ("0.0,0.5\n1.0,nan\n", "efficiencies must be finite, got nan"),
        ("1.0,0.5\n0.0,0.5\n", "response times must be strictly increasing"),
    ],
    ids=["range", "nan", "order"],
)
def test_csv_names_the_file_of_a_bad_table(tmp_path, body, message):
    path = tmp_path / "bad.csv"
    path.write_text("time_ns,efficiency\n" + body)
    with pytest.raises(ValueError) as excinfo:
        read_response_csv(path)
    assert str(excinfo.value) == f"{path}: {message}"


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "{path}: expected a two-column CSV with a header line"),
        ("time_ns\n0.0\n", "{path}: expected a two-column CSV with a header line"),
        ("time_ns,efficiency\n0.0,0.5\n1.0\n", "{path}:3: expected two columns"),
    ],
    ids=["empty", "one-column-header", "one-column-row"],
)
def test_csv_rejects_a_missing_column(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as excinfo:
        read_response_csv(path)
    assert str(excinfo.value) == message.format(path=path)


def test_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "resp.csv"
    path.write_text("time_ns,efficiency\n\n0.0,0.5\n\n\n1.0,0.25\n\n")
    resp = read_response_csv(path)
    np.testing.assert_array_equal(resp.times_s, [0.0, 1e-9])
    np.testing.assert_array_equal(resp.values, [0.5, 0.25])


def test_csv_names_the_line_of_a_cell_that_is_not_a_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time_ns,efficiency\n0.0,0.5\n1.0,abc\n")
    with pytest.raises(ValueError, match="'abc'") as excinfo:
        read_response_csv(path)
    assert str(excinfo.value).startswith(f"{path}:3: ")
