"""Time-shift attack illustration.

An eavesdropper who shifts each signal's arrival time onto a grid index where
the two detectors' efficiencies differ learns about announced detections: a
detected bit b was measured by detector b, so conditioned on a detection at
index j the bit equals argmax_b eta_b(t_j) with probability
max(eta_0, eta_1) / (eta_0 + eta_1). The simulation draws uniform bits,
detects them through the per-index efficiencies, and compares the analytic
guessing probability with the empirical frequency, alongside the key rates a
mismatch-naive and a mismatch-aware receiver would claim. It draws per-index
counts, not signals, from their exact joint law, so its cost does not depend
on the number of signals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detectors import DetectorPair
from .errors import DegenerateScenario, DomainError
from .filtering import Knowledge, special_case_rate
from .rates import binary_entropy


@dataclass(frozen=True)
class TimeShiftScenario:
    """Eve's (possibly mixed) choice of arrival-time index per signal."""

    pair: DetectorPair
    shift_indices: np.ndarray
    shift_probs: np.ndarray
    n_signals: int = 100_000
    seed: int = 0

    def __post_init__(self):
        idx = np.asarray(self.shift_indices, dtype=int).ravel()
        p = np.asarray(self.shift_probs, dtype=float).ravel()
        if idx.size == 0 or idx.shape != p.shape:
            raise DomainError("shift indices and probabilities must match and be nonempty")
        if idx.min() < 0 or idx.max() >= self.pair.dim:
            raise DomainError(f"shift indices must lie in [0, {self.pair.dim})")
        if not (np.all(p >= 0) and abs(p.sum() - 1.0) <= 1e-9):  # nan fails both
            raise DomainError("shift probabilities must be nonnegative and sum to 1")
        if not 1 <= self.n_signals <= np.iinfo(np.int64).max:
            raise DomainError("n_signals must be positive and fit in int64")
        # The sampler needs an exact law; sums within the tolerance are one.
        p = p / p.sum()
        idx.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "shift_indices", idx)
        object.__setattr__(self, "shift_probs", p)

    @classmethod
    def pure(cls, pair: DetectorPair, index: int, n_signals: int = 100_000, seed: int = 0):
        return cls(pair=pair, shift_indices=np.array([index]), shift_probs=np.array([1.0]),
                   n_signals=n_signals, seed=seed)


@dataclass(frozen=True)
class AttackOutcome:
    """Simulation summary.

    `eve_guess_prob` is the analytic strategy-weighted probability of guessing
    a detected bit; `eve_guess_prob_empirical` re-estimates it per stratum
    from the Monte-Carlo counts (strata with no detections fall back to the
    analytic value), with `empirical_sigma` the combined binomial deviation.
    """

    detected_fraction: float
    eve_guess_prob: float
    eve_guess_prob_empirical: float
    empirical_sigma: float
    naive_rate: float
    aware_rate: float
    eve_leak_bits: float


def _sample_counts(rng, n, probs, eta0, eta1):
    """Detections and Eve's correct guesses per stratum, for n signals sent to
    stratum k with probability probs[k], uniform bits detected with
    probability eta0[k] or eta1[k], and Eve guessing 0 where eta0 >= eta1."""
    sent = rng.multinomial(n, probs)
    sent0 = rng.binomial(sent, 0.5)
    det0 = rng.binomial(sent0, eta0)
    det1 = rng.binomial(sent - sent0, eta1)
    return det0 + det1, np.where(eta0 >= eta1, det0, det1)


def simulate_time_shift(scenario: TimeShiftScenario) -> AttackOutcome:
    """Seeded Monte-Carlo of the time-shift attack on the scenario's pair."""
    pair = scenario.pair
    eta0 = np.clip(pair.e0.diagonal, 0.0, 1.0)
    eta1 = np.clip(pair.e1.diagonal, 0.0, 1.0)
    idx = scenario.shift_indices
    probs = scenario.shift_probs
    support = probs > 0
    totals = eta0[idx] + eta1[idx]
    if np.any(totals[support] <= 0.0):
        raise DegenerateScenario("both detectors are blind at a selected shift index")

    # Both efficiencies vanish only off the support, where the guess is 0.
    cond_correct = np.maximum(eta0[idx], eta1[idx]) / np.where(totals > 0, totals, 1.0)
    guess_prob = float(np.sum(probs * cond_correct))

    n = scenario.n_signals
    detected, correct = _sample_counts(np.random.default_rng(scenario.seed), n, probs, eta0[idx], eta1[idx])

    seen = detected > 0
    counts = np.maximum(detected, 1)
    # Dividing Python ints rounds the exact quotient once; int64 counts past
    # 2**53 would first round to doubles.
    q_hat = np.where(seen, (correct.astype(object) / counts).astype(float), cond_correct)
    # float_power squares by libm's pow, as `**` on a float scalar does;
    # `probs**2` multiplies, which can differ from it in the last bit.
    variance = np.sum(np.where(seen, np.float_power(probs, 2) * q_hat * (1.0 - q_hat) / counts, 0.0))

    aware = special_case_rate(pair, Knowledge.FULL_MATRICES).rate
    return AttackOutcome(
        detected_fraction=int(detected.sum()) / n,
        eve_guess_prob=guess_prob,
        eve_guess_prob_empirical=float(np.sum(probs * q_hat)),
        empirical_sigma=float(np.sqrt(variance)),
        naive_rate=1.0,
        aware_rate=aware,
        eve_leak_bits=1.0 - binary_entropy(guess_prob),
    )
