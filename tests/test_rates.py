import numpy as np
import pytest

from qkd_mismatch import (
    binary_entropy,
    four_phase_rate,
    noisy_rate,
    scalar_reference_rates,
)
from qkd_mismatch.errors import DomainError


def test_entropy_reference_points():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.11) == pytest.approx(0.4999159581645280, abs=1e-12)
    assert binary_entropy(0.05) == pytest.approx(0.2863969571159561, abs=1e-12)


def test_entropy_symmetric():
    for x in np.linspace(0.0, 1.0, 21):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)


def test_entropy_domain():
    with pytest.raises(DomainError):
        binary_entropy(-0.01)
    with pytest.raises(DomainError):
        binary_entropy(1.01)


def test_noisy_rate_perfect_detectors():
    report = noisy_rate(1.0, 0.0, 0.0)
    assert report.rate == 1.0
    assert report.k_pa_fraction == 1.0 and report.k_ec_fraction == 0.0
    # Shor-Preskill shape at p_succ = 1
    r = noisy_rate(1.0, 0.05, 0.05)
    assert r.rate == pytest.approx(1.0 - 2.0 * binary_entropy(0.05), abs=1e-12)


def test_noisy_rate_bound_point():
    # bound values at observed error 0.02 with ratios (0.330, 3.03)
    report = noisy_rate(0.330, 3.03 * 0.02, 0.02)
    assert report.rate == pytest.approx(0.0797181628360238, abs=1e-12)
    assert report.rate_raw == pytest.approx(
        0.330 * (1.0 - binary_entropy(0.0606)) - binary_entropy(0.02), abs=1e-14
    )


def test_noisy_rate_noiseless_limit_value():
    assert noisy_rate(0.496, 0.0, 0.0).rate == pytest.approx(0.496, abs=1e-12)


def test_noisy_rate_clamps_and_keeps_raw():
    report = noisy_rate(0.2, 0.4, 0.3)
    assert report.rate == 0.0
    assert report.rate_raw < 0.0
    assert report.rate_raw == pytest.approx(
        report.k_pa_fraction - report.k_ec_fraction, abs=1e-15
    )


def test_noisy_rate_phase_error_past_half_certifies_nothing():
    report = noisy_rate(0.9, 0.6, 0.0)
    assert report.k_pa_fraction == 0.0
    assert report.rate == 0.0


def test_noisy_rate_monotonicity_grid():
    probe = [0.0, 0.05, 0.1, 0.2]
    for e_p in probe:
        rates = [noisy_rate(p, e_p, 0.02).rate_raw for p in (0.3, 0.5, 0.8, 1.0)]
        assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))
    for p in (0.4, 0.9):
        rates = [noisy_rate(p, e_p, 0.02).rate_raw for e_p in probe]
        assert all(b <= a + 1e-12 for a, b in zip(rates, rates[1:]))
        rates = [noisy_rate(p, 0.02, e_b).rate_raw for e_b in probe]
        assert all(b <= a + 1e-12 for a, b in zip(rates, rates[1:]))


def test_noisy_rate_domain():
    with pytest.raises(DomainError):
        noisy_rate(1.2, 0.0, 0.0)
    with pytest.raises(DomainError):
        noisy_rate(0.5, -0.1, 0.0)


def test_four_phase_reference_points():
    assert four_phase_rate(0.0, 0.0).rate == 1.0
    report = four_phase_rate(0.05, 0.05)
    assert report.rate == pytest.approx(0.4272060857680877, abs=1e-12)
    assert report.p_succ == 1.0


def test_four_phase_formula_identity():
    for e in np.linspace(0.0, 0.25, 11):
        report = four_phase_rate(e, e)
        assert report.rate_raw == pytest.approx(
            1.0 - 2.0 * binary_entropy(e), abs=1e-15
        )


def test_four_phase_dominates_bound_rate_under_mismatch(demo_spectrum):
    # switching the detectors' bit assignments removes the mismatch penalty,
    # so its rate beats the bounds-based rate whenever the ratios differ from 1
    from qkd_mismatch import mismatch_ratio_bounds

    lo, hi = mismatch_ratio_bounds(demo_spectrum)
    for e in np.linspace(0.0, 0.1, 11):
        bounds_rate = noisy_rate(lo, min(1.0, hi * e), e).rate
        assert four_phase_rate(e, e).rate >= bounds_rate - 1e-12


def test_scalar_reference_equal_efficiencies_noiseless():
    disc, gen = scalar_reference_rates(0.5, 0.5, 0.0, 0.0)
    assert disc.rate == 1.0 and gen.rate == 1.0


def test_scalar_reference_unbalanced_noiseless():
    disc, gen = scalar_reference_rates(0.8, 0.2, 0.0, 0.0)
    assert disc.rate == pytest.approx(0.4, abs=1e-14)
    assert gen.rate == pytest.approx(0.4, abs=1e-14)


def test_scalar_discarding_dominates_general():
    grid = np.linspace(0.0, 0.3, 7)
    for e_b in grid:
        for e_p in grid:
            disc, gen = scalar_reference_rates(0.7, 0.25, e_b, e_p)
            factor = 2.0 * 0.25 / 0.95
            gap = binary_entropy(e_b) * (1.0 - factor)
            assert disc.rate_raw - gen.rate_raw == pytest.approx(gap, abs=1e-12)
            assert disc.rate_raw >= gen.rate_raw - 1e-15


def test_scalar_reference_domain():
    with pytest.raises(DomainError):
        scalar_reference_rates(0.0, 0.5, 0.0, 0.0)
    with pytest.raises(DomainError):
        scalar_reference_rates(0.5, 1.2, 0.0, 0.0)


def test_four_phase_and_scalar_rates_are_the_noisy_rate():
    # one formula, so a phase-error bound past 1/2 certifies nothing in all three
    grid = [0.0, 0.02, 0.11, 0.3, 0.5, 0.6, 0.9, 1.0]
    factor = 2.0 * 0.25 / 0.95
    for e_b in grid:
        for e_p in grid:
            four_phase = four_phase_rate(e_b, e_p)
            disc, gen = scalar_reference_rates(0.7, 0.25, e_b, e_p)
            assert four_phase == noisy_rate(1.0, e_p, e_b), (e_b, e_p)
            assert gen == noisy_rate(factor, e_p, e_b), (e_b, e_p)
            assert disc.k_pa_fraction == gen.k_pa_fraction, (e_b, e_p)
            assert disc.k_ec_fraction == factor * binary_entropy(e_b), (e_b, e_p)
            if e_p > 0.5:
                assert four_phase.rate == disc.rate == gen.rate == 0.0, (e_b, e_p)
