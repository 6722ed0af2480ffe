"""Virtual-filter construction and the noiseless key rate.

The security argument equips the receiver with a *virtual* filter that
inverts the two detector responses and then applies a contraction C chosen so
the combined operation stays a valid filter while succeeding as often as
possible. With U diag(D) U^dag the mismatch decomposition, the optimal choice
is

    C = diag(sqrt(min(1/D_i, 1))) U^dag F0,

which makes the worst-case success probability over adversarial auxiliary
states

    R = 2 / (1 + max_i max(D_i, 1/D_i)),

the noiseless secret-key rate per detected signal. The brute-force routine
verifies that closed form by directly minimizing the success-probability
Rayleigh quotient 2 <g|C^dag C|g> / <g|(E0 + E1)|g> over pure states |g>.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .detectors import DetectorPair, MismatchSpectrum, deflate_common_nullspace, mismatch_spectrum
from .errors import DomainError, NumericalFailure, SingularDetector

VALIDITY_TOL = 1e-9


@dataclass(frozen=True)
class VirtualFilterC:
    """The contraction's Gram matrix C^dag C and a filter-validity certificate.

    `validity_margin` is 1 minus the largest eigenvalue of the two blocks
    C (F_i^dag F_i)^-1 C^dag; a valid filter keeps it >= -1e-9 (one block
    always saturates at exactly 1 by construction).
    """

    gram: np.ndarray
    validity_margin: float


class ZeroRateReason(enum.Enum):
    SINGULAR_DETECTOR = "SingularDetector"
    DIAGONAL_ONLY_KNOWLEDGE = "DiagonalOnlyKnowledge"


class Knowledge(enum.Enum):
    FULL_MATRICES = "full"
    DIAGONAL_ONLY = "diagonal"


@dataclass(frozen=True)
class NoiselessRate:
    """Secret bits per detected signal with no bit/phase noise.

    When `zero_reason` is None, rate == 2 / (1 + limiting_ratio) where
    limiting_ratio = max_i max(D_i, 1/D_i). Zero-rate cases carry the reason
    and an infinite limiting ratio.
    """

    rate: float
    limiting_ratio: float
    zero_reason: ZeroRateReason | None = None


def compute_filter(spectrum: MismatchSpectrum, pair: DetectorPair) -> VirtualFilterC:
    """Build the optimal contraction C for a full-rank pair."""
    if not pair.full_rank:
        raise SingularDetector("virtual filter needs full-rank responses")
    d = spectrum.ratios
    scale = np.sqrt(np.minimum(1.0 / d, 1.0))
    c = (scale[:, np.newaxis] * spectrum.basis.conj().T) @ pair.f0
    gram = c.conj().T @ c
    gram = 0.5 * (gram + gram.conj().T)

    block0 = c @ np.linalg.inv(pair.e0.matrix) @ c.conj().T
    block1 = c @ np.linalg.inv(pair.e1.matrix) @ c.conj().T
    top = max(
        np.linalg.eigvalsh(0.5 * (block0 + block0.conj().T)).max(),
        np.linalg.eigvalsh(0.5 * (block1 + block1.conj().T)).max(),
    )
    margin = 1.0 - float(top)
    if margin < -VALIDITY_TOL:
        raise NumericalFailure(f"filter validity margin {margin:.3e} below -{VALIDITY_TOL}")
    gram.setflags(write=False)
    return VirtualFilterC(gram=gram, validity_margin=margin)


def noiseless_rate(spectrum: MismatchSpectrum) -> NoiselessRate:
    """Closed-form worst-case rate 2 / (1 + max_i max(D_i, 1/D_i))."""
    d = spectrum.ratios
    limiting = float(max(d.max(), (1.0 / d).max()))
    return NoiselessRate(rate=2.0 / (1.0 + limiting), limiting_ratio=limiting)


def _line_search_ratio(num_coeffs, den_coeffs) -> float:
    """Argmin over real t of (a2 t^2 + a1 t + a0) / (b2 t^2 + b1 t + b0)."""
    a2, a1, a0 = num_coeffs
    b2, b1, b0 = den_coeffs
    c2 = a2 * b1 - a1 * b2
    c1 = 2.0 * (a2 * b0 - a0 * b2)
    c0 = a1 * b0 - a0 * b1
    candidates = [0.0]
    if abs(c2) > 0.0:
        disc = c1 * c1 - 4.0 * c2 * c0
        if disc >= 0.0:
            root = math.sqrt(disc)
            candidates.extend([(-c1 + root) / (2.0 * c2), (-c1 - root) / (2.0 * c2)])
    elif abs(c1) > 0.0:
        candidates.append(-c0 / c1)
    best_t, best_val = 0.0, a0 / b0
    for t in candidates:
        if not math.isfinite(t):
            continue
        den = (b2 * t + b1) * t + b0
        if den <= 0.0:
            continue
        val = ((a2 * t + a1) * t + a0) / den
        if val < best_val:
            best_t, best_val = t, val
    return best_t


def _coordinate_descent(gamma: np.ndarray, a: np.ndarray, b: np.ndarray, sweeps: int = 60) -> float:
    """Exact 1-D line searches along the real/imag coordinate directions."""
    d = gamma.shape[0]
    ag = a @ gamma
    bg = b @ gamma
    num = float(np.real(gamma.conj() @ ag))
    den = float(np.real(gamma.conj() @ bg))
    directions = [np.eye(d, dtype=complex)[:, j] * p for j in range(d) for p in (1.0, 1j)]
    dir_a = [float(np.real(u.conj() @ (a @ u))) for u in directions]
    dir_b = [float(np.real(u.conj() @ (b @ u))) for u in directions]
    for _ in range(sweeps):
        before = num / den
        for k, u in enumerate(directions):
            a1 = 2.0 * float(np.real(u.conj() @ ag))
            b1 = 2.0 * float(np.real(u.conj() @ bg))
            t = _line_search_ratio((dir_a[k], a1, num), (dir_b[k], b1, den))
            if t != 0.0:
                gamma = gamma + t * u
                ag = ag + t * (a @ u)
                bg = bg + t * (b @ u)
                num = float(np.real(gamma.conj() @ ag))
                den = float(np.real(gamma.conj() @ bg))
        after = num / den
        if before - after <= 1e-13 * max(1.0, abs(before)):
            break
    return num / den


def noiseless_rate_bruteforce(
    pair: DetectorPair,
    filter_c: VirtualFilterC,
    samples: int = 1000,
    seed: int = 0,
    refine_top: int = 24,
) -> float:
    """Independent check of the closed-form rate by direct minimization.

    Samples `samples` uniform pure states, evaluates the success-probability
    quotient on each, then runs coordinate-wise exact line-search descent from
    the best candidates. Returns the smallest quotient found.
    """
    if samples < 1000:
        raise DomainError("brute-force oracle needs at least 1000 samples")
    if not pair.full_rank:
        raise SingularDetector("brute-force oracle needs full-rank responses")
    d = pair.dim
    a = 2.0 * filter_c.gram
    b = pair.e0.matrix + pair.e1.matrix
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((samples, d)) + 1j * rng.standard_normal((samples, d))
    nums = np.real(np.einsum("sd,de,se->s", states.conj(), a, states))
    dens = np.real(np.einsum("sd,de,se->s", states.conj(), b, states))
    quotients = nums / dens
    best = float(quotients.min())
    for idx in np.argsort(quotients)[: min(refine_top, samples)]:
        best = min(best, _coordinate_descent(states[idx], a, b))
    return best


@dataclass(frozen=True)
class Analysis:
    """What every bound on a pair starts from.

    `pair` is the effective pair: deflated to the common range when the two
    detectors share a nullspace. `spectrum` is its mismatch spectrum, and None
    exactly when `noiseless.zero_reason` is set.
    """

    pair: DetectorPair
    noiseless: NoiselessRate
    spectrum: MismatchSpectrum | None


def analyze_pair(pair: DetectorPair, knowledge: Knowledge) -> Analysis:
    """Spectrum and noiseless rate, with the provably-zero special cases handled.

    Diagonal-only knowledge admits no key for d >= 2 (an adversarial
    off-diagonal completion can make one response singular); a singular
    response with a nullspace the other detector does not share admits no key
    either. Matching nullspaces deflate to the common range and proceed.
    """
    reason = None
    if knowledge is Knowledge.DIAGONAL_ONLY and pair.dim >= 2:
        reason = ZeroRateReason.DIAGONAL_ONLY_KNOWLEDGE
    elif not pair.full_rank:
        try:
            pair = deflate_common_nullspace(pair)
        except SingularDetector:
            reason = ZeroRateReason.SINGULAR_DETECTOR
    if reason is not None:
        return Analysis(pair, NoiselessRate(rate=0.0, limiting_ratio=math.inf, zero_reason=reason), None)
    spectrum = mismatch_spectrum(pair)
    return Analysis(pair, noiseless_rate(spectrum), spectrum)


def special_case_rate(pair: DetectorPair, knowledge: Knowledge) -> NoiselessRate:
    """The noiseless rate of `analyze_pair`."""
    return analyze_pair(pair, knowledge).noiseless
