"""Virtual-filter construction and the noiseless key rate.

The security argument equips the receiver with a *virtual* filter that
inverts the two detector responses and then applies a contraction C chosen so
the combined operation stays a valid filter while succeeding as often as
possible. With E0 = L0 L0^dag its Cholesky factorization and
L0^dag E1^-1 L0 = U diag(D) U^dag the mismatch decomposition, the optimal
choice is

    C = diag(sqrt(min(1/D_i, 1))) U^dag L0^dag,

which makes the worst-case success probability over adversarial auxiliary
states

    R = 2 / (1 + max_i max(D_i, 1/D_i)),

the noiseless secret-key rate per detected signal. Any other factor of E0
is X = L0 Q with Q unitary; it turns U into Q^dag U and leaves C, and so the
Gram C^dag C, unchanged (the principal root F0 is one such X).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .detectors import DetectorPair, MismatchSpectrum, deflate_common_nullspace, mismatch_spectrum
from .errors import NumericalFailure, SingularDetector

VALIDITY_TOL = 1e-9


@dataclass(frozen=True)
class VirtualFilterC:
    """The contraction's Gram matrix C^dag C and a filter-validity certificate.

    `validity_margin` is 1 minus the largest eigenvalue of the two blocks
    C E_i^-1 C^dag; a valid filter keeps it >= -1e-9 (one block always
    saturates at exactly 1 by construction).
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
    """Build the optimal contraction C for a full-rank pair from E0's Cholesky
    factor L0, taking U and D both from the one full SVD `spectrum.svd`.
    The validity blocks use explicit inverses of E0 and E1, so the
    certificate does not rest on the factor."""
    if not pair.full_rank:
        raise SingularDetector("virtual filter needs full-rank responses")
    basis, sigma = spectrum.svd
    d = sigma * sigma
    scale = np.sqrt(np.minimum(1.0 / d, 1.0))
    c = (scale[:, np.newaxis] * basis.conj().T) @ pair.e0.factor.conj().T
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
        w0, w1 = pair.e0.eigenvalues[-1], pair.e1.eigenvalues[-1]
        raise NumericalFailure(f"filter validity margin {margin:.3e} below -{VALIDITY_TOL}: the pair is too close "
                               f"to singular for a certified filter (smallest eigenvalues {w0:.3e} and {w1:.3e})")
    gram.setflags(write=False)
    return VirtualFilterC(gram=gram, validity_margin=margin)


def mismatch_ratio_bounds(spectrum: MismatchSpectrum) -> tuple[float, float]:
    """The extreme efficiency ratios min(D, 1/D) and max(D, 1/D) over all
    modes: the analytic success-probability floor and phase-error
    amplification ceiling.

    Rounded division is monotone, so 1/max(D) and 1/min(D) are exactly the
    extremes of 1/D. The two results are reciprocals to rounding: 1/lo and
    hi may differ in the last bit.
    """
    d = spectrum.ratios
    low, high = float(d.min()), float(d.max())
    return min(low, 1.0 / high), max(high, 1.0 / low)


def noiseless_rate(spectrum: MismatchSpectrum) -> NoiselessRate:
    """Closed-form worst-case rate 2 / (1 + max_i max(D_i, 1/D_i))."""
    _, limiting = mismatch_ratio_bounds(spectrum)
    return NoiselessRate(rate=2.0 / (1.0 + limiting), limiting_ratio=limiting)


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
