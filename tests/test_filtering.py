import math

import numpy as np
import pytest

from qkd_mismatch import (
    Knowledge,
    NoiselessRate,
    ZeroRateReason,
    analyze_pair,
    compute_filter,
    load_pair,
    mismatch_spectrum,
    noiseless_rate,
    special_case_rate,
    swap_detectors,
)
from qkd_mismatch.errors import DomainError, NumericalFailure, SingularDetector
from qkd_mismatch.filtering import VALIDITY_TOL
from qkd_mismatch.linalg import principal_sqrt

from conftest import near_singular_pair, random_efficiency, random_pair
from oracles import noiseless_rate_bruteforce

# Gram matrix of the reported contraction [[0.51, -0.17], [0.12, 0.56]]
# (the printed matrix is factor-convention dependent; its Gram is not).
REPORTED_GRAM = np.array([[0.2745, -0.0195], [-0.0195, 0.3425]])


def test_demo_filter_gram_matches_reported(demo_filter):
    assert np.abs(demo_filter.gram.real - REPORTED_GRAM).max() < 0.02
    assert np.abs(demo_filter.gram.imag).max() < 1e-12
    assert demo_filter.validity_margin >= -1e-9


def test_equal_detectors_gram_is_the_response():
    rng = np.random.default_rng(4)
    e = random_efficiency(rng, 3)
    pair = load_pair(e, e)
    filt = compute_filter(mismatch_spectrum(pair), pair)
    np.testing.assert_allclose(filt.gram, e, atol=1e-12)


def test_scalar_gram_is_min_efficiency():
    pair = load_pair([[0.8]], [[0.2]])
    filt = compute_filter(mismatch_spectrum(pair), pair)
    np.testing.assert_allclose(filt.gram, [[0.2]], atol=1e-12)


def test_filter_eigenvalue_identities():
    # eigenvalues of F_i^-dag C^dag C F_i^-1 are min(1/D, 1) and min(D, 1)
    rng = np.random.default_rng(17)
    for _ in range(10):
        pair = random_pair(rng, int(rng.integers(1, 4)))
        spec = mismatch_spectrum(pair)
        filt = compute_filter(spec, pair)
        for f, expected in (
            (principal_sqrt(pair.e0.matrix), np.minimum(1.0 / spec.ratios, 1.0)),
            (principal_sqrt(pair.e1.matrix), np.minimum(spec.ratios, 1.0)),
        ):
            fi = np.linalg.inv(f)
            block = fi.conj().T @ filt.gram @ fi
            np.testing.assert_allclose(
                np.sort(np.linalg.eigvalsh(block)), np.sort(expected), atol=1e-8
            )
        assert filt.validity_margin >= -1e-9


def test_noiseless_rate_demo(demo_spectrum):
    rate = noiseless_rate(demo_spectrum)
    assert abs(rate.rate - 0.496) < 0.001
    assert rate.zero_reason is None
    assert rate.rate == pytest.approx(2.0 / (1.0 + rate.limiting_ratio))


def test_noiseless_rate_no_mismatch_is_one():
    rng = np.random.default_rng(6)
    e = random_efficiency(rng, 2)
    rate = noiseless_rate(mismatch_spectrum(load_pair(e, e)))
    assert rate.rate == pytest.approx(1.0, abs=1e-9)


def test_noiseless_rate_diagonal_case_hand_value():
    # eta0 = (0.8, 0.4), eta1 = (0.3, 0.9): min(2*0.3/1.1, 2*0.4/1.3) = 6/11
    pair = load_pair(np.diag([0.8, 0.4]), np.diag([0.3, 0.9]))
    rate = noiseless_rate(mismatch_spectrum(pair))
    assert rate.rate == pytest.approx(6.0 / 11.0, abs=1e-12)


def test_bruteforce_demo(demo_pair, demo_filter):
    value = noiseless_rate_bruteforce(demo_pair, demo_filter, samples=1000, seed=1)
    assert abs(value - 0.496) < 0.002


def test_bruteforce_no_mismatch_is_constant_one():
    rng = np.random.default_rng(9)
    e = random_efficiency(rng, 2)
    pair = load_pair(e, e)
    filt = compute_filter(mismatch_spectrum(pair), pair)
    value = noiseless_rate_bruteforce(pair, filt, samples=1000, seed=2)
    assert value == pytest.approx(1.0, abs=1e-12)


def test_bruteforce_scalar():
    pair = load_pair([[0.8]], [[0.2]])
    filt = compute_filter(mismatch_spectrum(pair), pair)
    value = noiseless_rate_bruteforce(pair, filt, samples=1000, seed=3)
    assert value == pytest.approx(0.4, abs=1e-12)


def test_bruteforce_rejects_small_sample_budget(demo_pair, demo_filter):
    with pytest.raises(DomainError):
        noiseless_rate_bruteforce(demo_pair, demo_filter, samples=100)


def test_oracle_matches_closed_form_on_random_pairs():
    rng = np.random.default_rng(23)
    for _ in range(12):
        d = int(rng.integers(1, 4))
        pair = random_pair(rng, d)
        spec = mismatch_spectrum(pair)
        closed = noiseless_rate(spec).rate
        brute = noiseless_rate_bruteforce(pair, compute_filter(spec, pair), samples=1000,
                                          seed=int(rng.integers(1 << 31)))
        assert abs(closed - brute) <= 0.005


def test_rate_invariant_under_swap(demo_pair, demo_spectrum):
    swapped = mismatch_spectrum(swap_detectors(demo_pair))
    assert noiseless_rate(swapped).rate == pytest.approx(
        noiseless_rate(demo_spectrum).rate, abs=1e-10
    )


def test_rate_monotone_as_ratios_leave_one():
    rng = np.random.default_rng(31)
    e0 = random_efficiency(rng, 3, lo=0.4, hi=0.9)
    previous = math.inf
    for c in (1.0, 0.8, 0.6, 0.4):
        pair = load_pair(e0, c * e0)  # all ratios equal 1/c >= 1
        rate = noiseless_rate(mismatch_spectrum(pair)).rate
        assert rate <= previous + 1e-12
        previous = rate


def _assert_zero_rate(pair, knowledge, reason):
    result = special_case_rate(pair, knowledge)
    assert result == NoiselessRate(rate=0.0, limiting_ratio=math.inf, zero_reason=reason)
    analysis = analyze_pair(pair, knowledge)
    assert analysis.noiseless == result and analysis.spectrum is None and analysis.pair is pair


def test_special_case_singular_detector():
    pair = load_pair(np.diag([0.5, 0.0]), np.diag([0.5, 0.5]))
    _assert_zero_rate(pair, Knowledge.FULL_MATRICES, ZeroRateReason.SINGULAR_DETECTOR)


def test_special_case_diagonal_only_is_zero_for_d_at_least_two(demo_pair):
    _assert_zero_rate(demo_pair, Knowledge.DIAGONAL_ONLY, ZeroRateReason.DIAGONAL_ONLY_KNOWLEDGE)


def test_special_case_diagonal_only_scalar_still_keys():
    pair = load_pair([[0.8]], [[0.2]])
    result = special_case_rate(pair, Knowledge.DIAGONAL_ONLY)
    assert result.zero_reason is None
    assert result.rate == pytest.approx(0.4, abs=1e-12)


def test_special_case_full_knowledge_delegates(demo_pair, demo_spectrum):
    result = special_case_rate(demo_pair, Knowledge.FULL_MATRICES)
    assert result.rate == pytest.approx(noiseless_rate(demo_spectrum).rate, abs=1e-12)
    analysis = analyze_pair(demo_pair, Knowledge.FULL_MATRICES)
    assert analysis.pair is demo_pair and analysis.noiseless == result
    np.testing.assert_array_equal(analysis.spectrum.ratios, demo_spectrum.ratios)


def test_special_case_deflates_matching_nullspaces():
    from conftest import random_unitary

    rng = np.random.default_rng(41)
    u = random_unitary(rng, 3)
    e0 = (u * np.array([0.5, 0.3, 0.0])) @ u.conj().T
    e1 = (u * np.array([0.2, 0.8, 0.0])) @ u.conj().T
    result = special_case_rate(load_pair(e0, e1), Knowledge.FULL_MATRICES)
    assert result.zero_reason is None
    assert result.rate == pytest.approx(6.0 / 11.0, abs=1e-8)
    analysis = analyze_pair(load_pair(e0, e1), Knowledge.FULL_MATRICES)
    assert analysis.pair.dim == 2 and analysis.pair.full_rank and analysis.noiseless == result
    np.testing.assert_allclose(np.sort(analysis.spectrum.ratios), [0.375, 2.5], atol=1e-8)


def test_compute_filter_requires_full_rank():
    singular = load_pair(np.diag([0.5, 0.0]), np.diag([0.5, 0.5]))
    spectrum = mismatch_spectrum(load_pair(0.5 * np.eye(2), 0.5 * np.eye(2)))
    with pytest.raises(SingularDetector):
        compute_filter(spectrum, singular)


@pytest.mark.parametrize("eps", [1e-6, 1e-7, 1e-8, 1e-9])
def test_near_singular_pairs_end_in_a_filter_or_a_conditioning_error(eps):
    # Hermitian inputs: no pair may end in a symmetry error. A filter that
    # cannot be certified must say that the responses are near singular.
    certified = 0
    for d in (8, 16, 32):
        for seed in range(6):
            analysis = analyze_pair(load_pair(*near_singular_pair(seed, d, eps)), Knowledge.FULL_MATRICES)
            assert analysis.pair.full_rank and analysis.spectrum.ratios.min() > 0.0
            try:
                filt = compute_filter(analysis.spectrum, analysis.pair)
            except NumericalFailure as exc:
                assert "too close to singular for a certified filter" in str(exc)
                assert f"smallest eigenvalues {eps:.3e} and {eps:.3e}" in str(exc)
            else:
                assert filt.validity_margin >= -VALIDITY_TOL
                certified += 1
    if eps == 1e-6:
        assert certified == 18


@pytest.mark.parametrize("d", [8, 16, 32])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pairs_with_eigenvalues_of_1e_7_get_a_certified_filter(seed, d):
    # The worst margin over these nine pairs is -5.4e-10. Built from the
    # principal root F0 and E1's eigensystem, eight of them ended in the
    # "too close to singular" error.
    analysis = analyze_pair(load_pair(*near_singular_pair(seed, d, 1e-7)), Knowledge.FULL_MATRICES)
    assert compute_filter(analysis.spectrum, analysis.pair).validity_margin >= -VALIDITY_TOL
