"""Turn continuous time-dependent detector responses into finite efficiency
matrices.

A narrow-band Gaussian frequency filter of bandwidth B in front of the
receiver means any input reaching the detector is a train of Gaussian pulses
on a grid spaced 1/(2B); sampling the gate window on that grid makes the
response finite-dimensional. The detector itself is modeled as a positive
multiplication operator eta(t) on the time axis, and its matrix on the pulse
subspace, in the orthonormalized pulse basis, has closed-form entries for
pulses g(t) = exp(-t^2 / (2 sigma^2)):

    E = G^(-1/2) W G^(-1/2) = T^(-1/2) (T o S) T^(-1/2),
    G_jk = integral g(t - t_j) g(t - t_k) dt = sigma sqrt(pi) T_jk,
    W_jk = integral g(t - t_j) eta(t) g(t - t_k) dt = sigma sqrt(pi) T_jk S(m_jk),

where T_jk = exp(-(t_j - t_k)^2 / (4 sigma^2)), m_jk = (t_j + t_k) / 2, o is
the elementwise product and S(m) = E[eta(m + Z sigma / sqrt(2))] for a
standard normal Z. E satisfies 0 <= E <= I for any eta in [0, 1] and reduces
to eta * I for a constant response. Pulse width sigma = 1/(2 pi B sqrt(2)) so
the pulse bandwidth matches the filter.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy  # `scipy.special` loads on first use: only `characterize` calls it

from .detectors import EfficiencyResponse, validate_efficiency
from .errors import CoverageError, InvalidGate

# Response-table knots per block of the smoothing sum: at d = 64 a block's
# arrays take about 1 MB each, whatever the length of the table.
_KNOTS_PER_BLOCK = 1024
# Samples per gate window: at 4096 the d x d pulse overlap and its inverse
# root take 128 MB each, and a grid finer than that is a typo, not a detector.
MAX_GRID_SAMPLES = 4096


@dataclass(frozen=True)
class FilteredGate:
    """Nyquist sample grid of a gate window under bandwidth B."""

    bandwidth_hz: float
    gate_start_s: float
    gate_end_s: float
    sample_times_s: np.ndarray

    @property
    def d(self) -> int:
        return self.sample_times_s.size

    @property
    def spacing_s(self) -> float:
        return 1.0 / (2.0 * self.bandwidth_hz)

    @property
    def pulse_sigma_s(self) -> float:
        return 1.0 / (2.0 * np.pi * self.bandwidth_hz * np.sqrt(2.0))

    @functools.cached_property
    def pulse_overlap(self) -> tuple[np.ndarray, np.ndarray]:
        """The normalized pulse overlap T and T^(-1/2), computed once per gate
        since they do not depend on the response."""
        lags = self.sample_times_s[:, np.newaxis] - self.sample_times_s[np.newaxis, :]
        overlap = np.exp(-(lags**2) / (4.0 * self.pulse_sigma_s**2))
        gw, gv = np.linalg.eigh(overlap)
        inv_root = (gv / np.sqrt(gw)[np.newaxis, :]) @ gv.T
        overlap.setflags(write=False)
        inv_root.setflags(write=False)
        return overlap, inv_root


def sample_grid(bandwidth_hz: float, gate_start_s: float, gate_end_s: float) -> FilteredGate:
    """Samples spaced 1/(2B) from gate_start, covering the gate window."""
    if not (bandwidth_hz > 0.0):
        raise InvalidGate(f"bandwidth must be positive, got {bandwidth_hz}")
    if not all(math.isfinite(x) for x in (bandwidth_hz, gate_start_s, gate_end_s)):
        raise InvalidGate(
            f"bandwidth and gate ends must be finite, got {bandwidth_hz} Hz, [{gate_start_s}, {gate_end_s}] s"
        )
    if not (gate_end_s > gate_start_s):
        raise InvalidGate(f"gate end {gate_end_s} must exceed start {gate_start_s}")
    # Before any division or allocation: 2B may overflow, and d may not fit in memory.
    n_samples = (gate_end_s - gate_start_s) * (2.0 * bandwidth_hz) + 1.0
    if not n_samples <= MAX_GRID_SAMPLES:
        raise InvalidGate(
            f"gate [{gate_start_s}, {gate_end_s}] s at bandwidth {bandwidth_hz} Hz needs {n_samples:.4g} samples, "
            f"more than the {MAX_GRID_SAMPLES} supported"
        )
    spacing = 1.0 / (2.0 * bandwidth_hz)
    n_spacings = (gate_end_s - gate_start_s) / spacing
    d = int(np.floor(n_spacings + 1e-9)) + 1
    times = gate_start_s + spacing * np.arange(d)
    times.setflags(write=False)
    return FilteredGate(
        bandwidth_hz=bandwidth_hz,
        gate_start_s=gate_start_s,
        gate_end_s=gate_end_s,
        sample_times_s=times,
    )


@dataclass(frozen=True)
class ContinuousResponse:
    """Tabulated instantaneous efficiency eta(t), linearly interpolated.

    Outside the tabulated range the edge values extend flat.
    """

    times_s: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times_s, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or t.size < 2 or t.shape != v.shape:
            raise ValueError("response needs matching 1-D arrays with >= 2 points")
        if not np.all(np.isfinite(t)):
            raise ValueError(f"response times must be finite, got {t[~np.isfinite(t)][0]}")
        if not np.all(np.isfinite(v)):
            raise ValueError(f"efficiencies must be finite, got {v[~np.isfinite(v)][0]}")
        if not np.all(np.diff(t) > 0):
            raise ValueError("response times must be strictly increasing")
        if v.min() < 0.0 or v.max() > 1.0:
            raise ValueError(f"efficiencies must lie in [0, 1], got [{v.min()}, {v.max()}]")
        t.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "times_s", t)
        object.__setattr__(self, "values", v)

    def __call__(self, t) -> np.ndarray:
        return np.interp(t, self.times_s, self.values)

    def covers(self, start_s: float, end_s: float) -> bool:
        return bool(self.times_s[0] <= start_s and self.times_s[-1] >= end_s)


def _require_coverage(resp: ContinuousResponse, gate: FilteredGate) -> None:
    if not resp.covers(gate.gate_start_s, gate.gate_end_s):
        raise CoverageError(
            f"response covers [{resp.times_s[0]:.3e}, {resp.times_s[-1]:.3e}] s, "
            f"gate needs [{gate.gate_start_s:.3e}, {gate.gate_end_s:.3e}] s"
        )


def _gaussian_smoothed(resp: ContinuousResponse, m: np.ndarray, h: float) -> np.ndarray:
    # E[eta(m + hZ)] for the piecewise-linear eta: each change c of slope at a
    # knot tau adds c * E[max(m + hZ - tau, 0)] = c * (max(m - tau, 0) + h H(-|m - tau| / h)),
    # H(z) = z Phi(z) + phi(z); the max terms sum back to eta(m) without cancellation.
    # The tails are summed over blocks of knots, so memory does not grow with the table.
    t, v = resp.times_s, resp.values
    kinks = np.diff(np.diff(v) / np.diff(t), prepend=0.0, append=0.0)
    total = 0.0
    for lo in range(0, t.size, _KNOTS_PER_BLOCK):
        block = slice(lo, lo + _KNOTS_PER_BLOCK)
        z = -np.abs(m[:, np.newaxis] - t[np.newaxis, block]) / h
        # A knot far from the grid squares to inf, and exp(-inf) = 0 is the exact limit.
        with np.errstate(over="ignore"):
            tails = z * scipy.special.ndtr(z) + np.exp(-0.5 * z**2) / np.sqrt(2.0 * np.pi)
        total = total + tails @ kinks[block]
    return resp(m) + h * total


def discretize_response(resp: ContinuousResponse, gate: FilteredGate) -> EfficiencyResponse:
    """Full d x d efficiency matrix of eta(t) on the gate's pulse grid."""
    _require_coverage(resp, gate)
    overlap, inv_root = gate.pulse_overlap
    # midpoints of the Nyquist grid lie on the half-spaced grid: S is Hankel
    half_grid = gate.sample_times_s[0] + 0.5 * gate.spacing_s * np.arange(2 * gate.d - 1)
    smoothed = _gaussian_smoothed(resp, half_grid, gate.pulse_sigma_s / np.sqrt(2.0))
    index = np.add.outer(np.arange(gate.d), np.arange(gate.d))
    return validate_efficiency(inv_root @ (overlap * smoothed[index]) @ inv_root)


def diagonal_only_response(resp: ContinuousResponse, gate: FilteredGate) -> EfficiencyResponse:
    """Idealized no-correlation model: diag(eta(t_1) ... eta(t_d))."""
    _require_coverage(resp, gate)
    return validate_efficiency(np.diag(resp(gate.sample_times_s)))


# --- response tabulation files ------------------------------------------------
#
# CSV schema: header line, then two columns time_ns, efficiency.


def read_response_csv(path) -> ContinuousResponse:
    times_ns = []
    values = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 2:
            raise ValueError(f"{path}: expected a two-column CSV with a header line")
        try:
            float(header[0])
        except ValueError:
            pass
        else:
            raise ValueError(f"{path}: missing header line")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < 2:
                raise ValueError(f"{path}:{lineno}: expected two columns")
            try:
                t, v = float(row[0]), float(row[1])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: expected two numbers, got {row[0]!r}, {row[1]!r}") from None
            times_ns.append(t)
            values.append(v)
    try:
        return ContinuousResponse(times_s=np.asarray(times_ns) * 1e-9, values=np.asarray(values))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_response_csv(path, times_ns, values) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_ns", "efficiency"])
        for t, v in zip(times_ns, values):
            writer.writerow([repr(float(t)), repr(float(v))])
