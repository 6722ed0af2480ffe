import time

import numpy as np
import pytest

from qkd_mismatch import (
    Knowledge,
    TimeShiftScenario,
    load_pair,
    simulate_time_shift,
    special_case_rate,
)
from qkd_mismatch.errors import DegenerateScenario, DomainError
from qkd_mismatch.timeshift import _sample_counts


def diag_pair(eta0, eta1):
    return load_pair(np.diag(eta0), np.diag(eta1))


def test_blind_detector_reveals_bit_exactly():
    pair = diag_pair([0.5, 0.5], [0.0, 0.5])
    outcome = simulate_time_shift(TimeShiftScenario.pure(pair, 0, n_signals=20_000, seed=3))
    assert outcome.eve_guess_prob == 1.0
    assert outcome.eve_guess_prob_empirical == 1.0
    assert outcome.eve_leak_bits == 1.0
    assert outcome.aware_rate == 0.0  # singular response admits no key


def test_matched_detectors_leak_nothing():
    pair = diag_pair([0.4, 0.6], [0.4, 0.6])
    outcome = simulate_time_shift(TimeShiftScenario.pure(pair, 1, n_signals=50_000, seed=5))
    assert outcome.eve_guess_prob == 0.5
    assert outcome.eve_leak_bits == pytest.approx(0.0, abs=1e-12)
    assert outcome.aware_rate == pytest.approx(outcome.naive_rate, abs=1e-9)


def test_partial_mismatch_scenario():
    pair = diag_pair([0.8, 0.5], [0.2, 0.5])
    outcome = simulate_time_shift(TimeShiftScenario.pure(pair, 0, n_signals=100_000, seed=7))
    assert outcome.eve_guess_prob == pytest.approx(0.8, abs=1e-12)
    assert outcome.aware_rate == pytest.approx(0.4, abs=1e-12)
    assert outcome.detected_fraction == pytest.approx(0.5, abs=0.01)


def test_empirical_within_three_sigma():
    pair = diag_pair([0.8, 0.5], [0.2, 0.5])
    for seed in range(5):
        outcome = simulate_time_shift(
            TimeShiftScenario.pure(pair, 0, n_signals=100_000, seed=seed)
        )
        assert outcome.empirical_sigma > 0.0
        assert (
            abs(outcome.eve_guess_prob_empirical - outcome.eve_guess_prob)
            <= 3.0 * outcome.empirical_sigma
        )


def test_mixed_strategy_weights_conditionals():
    pair = diag_pair([0.8, 0.5], [0.2, 0.5])
    scenario = TimeShiftScenario(
        pair=pair,
        shift_indices=np.array([0, 1]),
        shift_probs=np.array([0.25, 0.75]),
        n_signals=200_000,
        seed=11,
    )
    outcome = simulate_time_shift(scenario)
    assert outcome.eve_guess_prob == pytest.approx(0.25 * 0.8 + 0.75 * 0.5, abs=1e-12)
    assert (
        abs(outcome.eve_guess_prob_empirical - outcome.eve_guess_prob)
        <= 3.0 * outcome.empirical_sigma
    )


def test_aware_rate_matches_filtering_module():
    pair = diag_pair([0.7, 0.45, 0.6], [0.5, 0.65, 0.6])
    outcome = simulate_time_shift(TimeShiftScenario.pure(pair, 0, n_signals=10_000, seed=2))
    expected = special_case_rate(pair, Knowledge.FULL_MATRICES).rate
    assert outcome.aware_rate == pytest.approx(expected, abs=1e-9)
    assert outcome.aware_rate <= outcome.naive_rate + 1e-9


def test_leak_zero_iff_matched_on_support():
    matched = diag_pair([0.8, 0.3], [0.2, 0.3])
    outcome = simulate_time_shift(TimeShiftScenario.pure(matched, 1, n_signals=1000, seed=1))
    assert outcome.eve_leak_bits == pytest.approx(0.0, abs=1e-12)
    outcome = simulate_time_shift(TimeShiftScenario.pure(matched, 0, n_signals=1000, seed=1))
    assert outcome.eve_leak_bits > 0.0


def test_deterministic_given_seed():
    pair = diag_pair([0.8, 0.5], [0.2, 0.5])
    s1 = simulate_time_shift(TimeShiftScenario.pure(pair, 0, n_signals=5000, seed=42))
    s2 = simulate_time_shift(TimeShiftScenario.pure(pair, 0, n_signals=5000, seed=42))
    assert s1 == s2


def test_degenerate_and_invalid_scenarios():
    pair = diag_pair([0.0, 0.5], [0.0, 0.5])
    with pytest.raises(DegenerateScenario):
        simulate_time_shift(TimeShiftScenario.pure(pair, 0, n_signals=100, seed=0))
    good = diag_pair([0.5, 0.5], [0.5, 0.5])
    with pytest.raises(DomainError):
        TimeShiftScenario(
            pair=good,
            shift_indices=np.array([0, 1]),
            shift_probs=np.array([0.6, 0.6]),
            n_signals=10,
        )
    for probs in ([np.nan, 1.0], [np.nan, np.nan]):
        with pytest.raises(DomainError, match="nonnegative and sum to 1"):
            TimeShiftScenario(pair=good, shift_indices=np.array([0, 1]), shift_probs=np.array(probs), n_signals=10)
    with pytest.raises(DomainError):
        TimeShiftScenario.pure(good, 5, n_signals=10)
    with pytest.raises(DomainError):
        TimeShiftScenario.pure(good, 0, n_signals=0)


def per_signal_counts(rng, n, probs, eta0, eta1):
    """Reference: the per-signal draw that `_sample_counts` replaced.

    Draws a stratum, a uniform bit and a detection for every signal, and Eve's
    guess is 0 where eta0 >= eta1. Returns the same per-stratum counts.
    """
    which = rng.choice(probs.size, size=n, p=probs)
    bits = rng.integers(0, 2, size=n)
    detected = rng.random(n) < np.where(bits == 0, eta0[which], eta1[which])
    guesses = np.where(eta0[which] >= eta1[which], 0, 1)
    correct = detected & (guesses == bits)
    return (np.bincount(which[detected], minlength=probs.size),
            np.bincount(which[correct], minlength=probs.size))


def test_count_sampler_has_the_per_signal_law():
    # Strata 0 and 3 share one index's efficiencies (a duplicate), stratum 1
    # ties, stratum 2 has eta1 > eta0 and stratum 4 has probability 0.
    probs = np.array([0.3, 0.2, 0.25, 0.25, 0.0])
    eta0 = np.array([0.8, 0.5, 0.3, 0.8, 0.3])
    eta1 = np.array([0.2, 0.5, 0.6, 0.2, 0.6])
    n, runs = 200, 400
    # Exact law: the detected fraction is Binomial(n, q) / n, and the correct
    # count of stratum k is Binomial(n, probs[k] * eta_guess[k] / 2).
    q = np.sum(probs * (eta0 + eta1) / 2)
    r = probs[:4] * np.where(eta0 >= eta1, eta0, eta1)[:4] / 2
    mean = np.concatenate([[q], n * r])
    var = np.concatenate([[q * (1 - q) / n], n * r * (1 - r)])
    kurt = np.concatenate([[q * (1 - q)], r * (1 - r)])
    kurt = (1 - 6 * kurt) / (n * kurt)  # excess kurtosis of each binomial
    # CLT: a mean over `runs` seeds has variance var / runs, a sample
    # variance has variance var**2 * (2 / (runs - 1) + kurt / runs).
    mean_se = np.sqrt(var / runs)
    var_se = var * np.sqrt(2 / (runs - 1) + kurt / runs)

    moments = []
    for draw in (_sample_counts, per_signal_counts):
        stats = []
        for seed in range(runs):
            det, cor = draw(np.random.default_rng(seed), n, probs, eta0, eta1)
            assert np.all(cor <= det) and det[4] == 0 and cor[4] == 0
            stats.append(np.concatenate([[det.sum() / n], cor[:4]]))
        stats = np.array(stats)
        m, v = stats.mean(axis=0), stats.var(axis=0, ddof=1)
        assert np.all(np.abs(m - mean) <= 4 * mean_se)
        assert np.all(np.abs(v - var) <= 4 * var_se)
        moments.append((m, v))
    (m_counts, v_counts), (m_ref, v_ref) = moments
    assert np.all(np.abs(m_counts - m_ref) <= 4 * np.sqrt(2) * mean_se)
    assert np.all(np.abs(v_counts - v_ref) <= 4 * np.sqrt(2) * var_se)


def test_huge_n_runs_in_constant_time():
    pair = diag_pair([0.8, 0.5], [0.2, 0.5])
    scenario = TimeShiftScenario(
        pair=pair,
        shift_indices=np.array([0, 1]),
        shift_probs=np.array([0.5, 0.5]),
        n_signals=10**12,
        seed=3,
    )
    start = time.perf_counter()
    outcome = simulate_time_shift(scenario)
    assert time.perf_counter() - start < 1.0  # one draw per signal would take hours
    assert 0.0 < outcome.empirical_sigma < 1e-5
    assert abs(outcome.eve_guess_prob_empirical - outcome.eve_guess_prob) <= 4.0 * outcome.empirical_sigma
    assert outcome.detected_fraction == pytest.approx(0.5, abs=1e-5)


def test_zero_probability_stratum_is_ignored():
    # Index 1 is blind on both detectors, which is degenerate only if selected.
    pair = diag_pair([0.8, 0.0], [0.2, 0.0])
    scenario = TimeShiftScenario(
        pair=pair, shift_indices=np.array([0, 1]), shift_probs=np.array([1.0, 0.0]),
        n_signals=50_000, seed=4,
    )
    outcome = simulate_time_shift(scenario)
    assert outcome.eve_guess_prob == pytest.approx(0.8, abs=1e-15)
    assert abs(outcome.eve_guess_prob_empirical - 0.8) <= 4.0 * outcome.empirical_sigma
    assert outcome.detected_fraction == pytest.approx(0.5, abs=0.02)


def test_a_stratum_without_detections_falls_back_to_the_analytic_guess():
    # Index 1 is all but blind: none of its ~500 signals is detected, so its
    # empirical guess is the analytic 1/2 and it adds no variance.
    eta0, eta1 = np.array([0.8, 1e-9]), np.array([0.2, 1e-9])
    scenario = TimeShiftScenario(
        pair=diag_pair(eta0, eta1), shift_indices=np.array([0, 1]), shift_probs=np.array([0.5, 0.5]),
        n_signals=1000, seed=3,
    )
    detected, correct = _sample_counts(np.random.default_rng(3), 1000, scenario.shift_probs, eta0, eta1)
    assert detected[0] > 0 and detected[1] == 0
    q0 = correct[0] / detected[0]
    outcome = simulate_time_shift(scenario)
    assert outcome.eve_guess_prob_empirical == pytest.approx(0.5 * q0 + 0.5 * 0.5, rel=1e-15)
    assert outcome.empirical_sigma == pytest.approx(np.sqrt(0.25 * q0 * (1.0 - q0) / detected[0]), rel=1e-15)


def test_duplicate_shift_indices_are_separate_strata():
    pair = diag_pair([0.8, 0.5], [0.2, 0.5])
    outcome = simulate_time_shift(TimeShiftScenario(
        pair=pair, shift_indices=np.array([0, 0]), shift_probs=np.array([0.5, 0.5]),
        n_signals=100_000, seed=6,
    ))
    assert outcome.eve_guess_prob == pytest.approx(0.8, abs=1e-15)
    assert abs(outcome.eve_guess_prob_empirical - 0.8) <= 4.0 * outcome.empirical_sigma
    assert outcome.detected_fraction == pytest.approx(0.5, abs=0.01)


def test_tie_is_guessed_as_bit_zero():
    # With eta0 = 1 every bit-0 signal is detected, so guessing 0 is right
    # exactly sent0 times, whether eta1 ties eta0 or lies below it; guessing
    # 1 would be right n - sent0 times, which differs for odd n.
    n = 1001
    for seed in range(5):
        det, tie = _sample_counts(np.random.default_rng(seed), n, np.array([1.0]), np.array([1.0]), np.array([1.0]))
        _, below = _sample_counts(np.random.default_rng(seed), n, np.array([1.0]), np.array([1.0]), np.array([0.5]))
        assert det[0] == n and tie[0] == below[0]


def test_probabilities_are_normalised_and_n_fits_int64():
    pair = diag_pair([0.8, 0.5], [0.2, 0.5])
    scenario = TimeShiftScenario(
        pair=pair, shift_indices=np.array([0, 1]), shift_probs=np.array([1.0000000005, 0.0]),
        n_signals=1000, seed=0,
    )
    assert scenario.shift_probs.sum() == 1.0
    assert simulate_time_shift(scenario).eve_guess_prob == 0.8
    with pytest.raises(DomainError):
        TimeShiftScenario.pure(pair, 0, n_signals=2**63)
    outcome = simulate_time_shift(TimeShiftScenario.pure(pair, 0, n_signals=2**63 - 1, seed=1))
    assert outcome.detected_fraction == pytest.approx(0.5, abs=1e-6)


def loop_estimate(scenario):
    """Reference: the per-stratum loop that the array expressions replaced.

    Returns (empirical guess probability, its sigma), summed left to right
    over the strata with nonzero probability.
    """
    eta0 = np.clip(scenario.pair.e0.diagonal, 0.0, 1.0)[scenario.shift_indices]
    eta1 = np.clip(scenario.pair.e1.diagonal, 0.0, 1.0)[scenario.shift_indices]
    probs = scenario.shift_probs
    detected, correct = _sample_counts(np.random.default_rng(scenario.seed), scenario.n_signals, probs, eta0, eta1)
    empirical = variance = 0.0
    for k in range(probs.size):
        if probs[k] == 0.0:
            continue
        det_k = int(detected[k])
        if det_k == 0:
            q_hat = float(max(eta0[k], eta1[k]) / (eta0[k] + eta1[k]))
        else:
            q_hat = int(correct[k]) / det_k
            variance += probs[k] ** 2 * q_hat * (1.0 - q_hat) / det_k
        empirical += probs[k] * q_hat
    return empirical, float(np.sqrt(variance))


def test_empirical_estimate_matches_the_per_stratum_loop():
    # Below 8 strata np.sum adds left to right, so the arithmetic is the
    # loop's to the bit, counts past 2**53 included. From 8 on, np.sum adds
    # pairwise, which may move the last bits.
    rng = np.random.default_rng(29)
    ulps = 4.0 * np.finfo(float).eps
    for _ in range(300):
        d = int(rng.integers(2, 8))
        eta0, eta1 = rng.uniform(0.0, 1.0, d), rng.uniform(0.0, 1.0, d)
        eta0[0] = eta1[0] = 0.0  # blind at index 0, which only zero-probability strata select
        k = int(rng.integers(1, 13))
        idx = rng.integers(0, d, k)
        probs = rng.dirichlet(np.ones(k)) * (idx > 0)
        if probs.sum() == 0.0:
            continue
        n = int(rng.choice([1, 10, 1000, 10**6, 2**53, 2**63 - 1]))
        scenario = TimeShiftScenario(pair=diag_pair(eta0, eta1), shift_indices=idx, shift_probs=probs / probs.sum(),
                                     n_signals=n, seed=int(rng.integers(2**32)))
        outcome = simulate_time_shift(scenario)
        empirical, sigma = loop_estimate(scenario)
        if k < 8:
            assert (outcome.eve_guess_prob_empirical, outcome.empirical_sigma) == (empirical, sigma)
        else:
            assert outcome.eve_guess_prob_empirical == pytest.approx(empirical, rel=ulps, abs=0.0)
            assert outcome.empirical_sigma == pytest.approx(sigma, rel=ulps, abs=0.0)


def test_scenario_needs_matching_nonempty_arrays():
    pair = diag_pair([0.8, 0.5], [0.2, 0.5])
    for indices, probs in (([], []), ([0, 1], [1.0]), ([0], [0.5, 0.5])):
        with pytest.raises(DomainError, match="must match and be nonempty"):
            TimeShiftScenario(pair=pair, shift_indices=np.array(indices, dtype=int), shift_probs=np.array(probs))
