"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them).
"""

import csv
import time

import numpy as np
import pytest

from qkd_mismatch import (
    EveState,
    Knowledge,
    ZeroRateReason,
    binary_entropy,
    compute_filter,
    evaluate_statistics,
    four_phase_rate,
    load_pair,
    maximize_phase_error,
    minimize_filter_success,
    mismatch_ratio_bounds,
    mismatch_spectrum,
    noiseless_rate,
    noisy_rate,
    scalar_reference_rates,
    simulate_time_shift,
    special_case_rate,
    write_spec_file,
)
from qkd_mismatch import TimeShiftScenario
from qkd_mismatch.cli import main

from conftest import DEMO_E0, DEMO_E1, random_efficiency, random_pair
from oracles import mediant_check, noiseless_rate_bruteforce, optimize_unconstrained_bounds

REPORTED_GRAM = np.array([[0.2745, -0.0195], [-0.0195, 0.3425]])


def _report(number, description, check):
    try:
        check()
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS: {description}")


def test_criterion_01_demo_pair_golden_values():
    def check():
        start = time.perf_counter()
        pair = load_pair(DEMO_E0, DEMO_E1)
        spectrum = mismatch_spectrum(pair)
        rate = noiseless_rate(spectrum)
        filt = compute_filter(spectrum, pair)
        elapsed = time.perf_counter() - start
        np.testing.assert_allclose(spectrum.ratios[0], 3.03, atol=0.01)
        np.testing.assert_allclose(spectrum.ratios[1], 0.356, atol=0.001)
        assert abs(rate.rate - 0.496) <= 0.001
        assert np.abs(filt.gram.real - REPORTED_GRAM).max() <= 0.02
        assert elapsed < 1.0

    _report(1, "two-time-bin golden values (ratios, rate, filter Gram)", check)


def test_criterion_02_noiseless_oracle_equivalence():
    def check():
        start = time.perf_counter()
        rng = np.random.default_rng(202)
        worst = 0.0
        for i in range(50):
            d = int(rng.integers(1, 4))
            pair = random_pair(rng, d)
            spectrum = mismatch_spectrum(pair)
            closed = noiseless_rate(spectrum).rate
            brute = noiseless_rate_bruteforce(
                pair, compute_filter(spectrum, pair), samples=1000, seed=1000 + i
            )
            worst = max(worst, abs(closed - brute))
            assert abs(closed - brute) <= 0.005
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        print(f"    (worst closed-form vs brute-force gap: {worst:.2e}, {elapsed:.1f}s)")

    _report(2, "closed-form rate equals brute-force minimum on 50 random pairs", check)


def test_criterion_03_unconstrained_bounds_cross_validation():
    def check():
        rng = np.random.default_rng(303)
        cases = [load_pair(DEMO_E0, DEMO_E1)]
        cases += [random_pair(rng, int(rng.integers(1, 4))) for _ in range(10)]
        for i, pair in enumerate(cases):
            spectrum = mismatch_spectrum(pair)
            lo, hi = mismatch_ratio_bounds(spectrum)
            assert lo * hi == pytest.approx(1.0, abs=1e-12)
            filt = compute_filter(spectrum, pair)
            p_min, ratio_max = optimize_unconstrained_bounds(pair, filt)
            assert abs(p_min - lo) <= 1e-3
            assert abs(ratio_max - hi) <= 1e-3

    _report(3, "numeric unconstrained bounds match the analytic ratio bounds", check)


def test_criterion_04_constrained_solves_noiseless_limit():
    def check():
        pair = load_pair(DEMO_E0, DEMO_E1)
        spectrum = mismatch_spectrum(pair)
        filt = compute_filter(spectrum, pair)
        p_min, _ = minimize_filter_success(pair, filt, 0.0, 0.0)
        assert abs(p_min - 0.496) <= 0.005
        ep_max, _ = maximize_phase_error(pair, filt, 0.0, 0.0)
        # residual tolerance 1e-5 amplified by at most the max ratio ~3.03
        assert ep_max <= 1e-4

    _report(4, "constrained solves at zero observed error recover the noiseless rate", check)


def test_criterion_05_no_mismatch_degeneracy():
    def check():
        rng = np.random.default_rng(505)
        e = random_efficiency(rng, 2)
        pair = load_pair(e, e)
        filt = compute_filter(mismatch_spectrum(pair), pair)
        for _ in range(100):
            vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            stats = evaluate_statistics(EveState.from_vector(vec), pair, filt)
            assert abs(stats.p_succ - 1.0) <= 1e-9
            assert abs(stats.e_p - stats.e_p_prime) <= 1e-9

    _report(5, "equal detectors: p_succ = 1 and e_p = e_p' on 100 random states", check)


def test_criterion_06_scalar_reference():
    def check():
        disc, gen = scalar_reference_rates(0.8, 0.2, 0.0, 0.0)
        assert disc.rate == pytest.approx(0.4, abs=1e-12)
        assert gen.rate == pytest.approx(0.4, abs=1e-12)
        factor = 2.0 * 0.2 / 1.0
        for e_b in np.linspace(0.0, 0.4, 9):
            for e_p in np.linspace(0.0, 0.4, 9):
                disc, gen = scalar_reference_rates(0.8, 0.2, e_b, e_p)
                gap = binary_entropy(e_b) * (1.0 - factor)
                assert disc.rate_raw - gen.rate_raw == pytest.approx(gap, abs=1e-12)

    _report(6, "scalar reference rate 0.4 and the discarding-vs-general identity", check)


def test_criterion_07_four_phase_elimination():
    def check():
        # the four-phase rate never touches the detector pair; checking both
        # specs through the sweep formula path keeps the claim end to end
        for e in np.arange(0.0, 0.101, 0.01):
            r = four_phase_rate(e, e)
            expected = 1.0 - binary_entropy(e) - binary_entropy(e)
            assert r.rate_raw == pytest.approx(expected, abs=1e-12)
            assert r.p_succ == 1.0
        mismatch_report = four_phase_rate(0.03, 0.07)
        identity_report = four_phase_rate(0.03, 0.07)
        assert mismatch_report == identity_report

    _report(7, "four-phase rate is pair-independent and equals 1 - H2(e_p) - H2(e_b)", check)


def test_criterion_08_sweep_shape(tmp_path, capsys):
    def check():
        start = time.perf_counter()
        spec_path = tmp_path / "demo.json"
        write_spec_file(spec_path, DEMO_E0, DEMO_E1)
        out_path = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--spec", str(spec_path), "--e-max", "0.1", "--steps", "20",
            "--starts", "64", "--seed", "808", "--out", str(out_path),
        ])
        capsys.readouterr()
        assert code == 0
        elapsed = time.perf_counter() - start

        pair = load_pair(DEMO_E0, DEMO_E1)
        lo, hi = mismatch_ratio_bounds(mismatch_spectrum(pair))
        with open(out_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 20
        for row in rows:
            e = float(row["e_obs"])
            p_bound = float(row["p_succ_bound"])
            ep_bound = float(row["e_p_bound"])
            p_opt = float(row["p_succ_opt"])
            ep_opt = float(row["e_p_opt"])
            rate_bound = float(row["rate_bound"])
            rate_opt = float(row["rate_opt"])
            assert row["status"] == "ok"
            assert p_bound == pytest.approx(lo, abs=1e-12)          # == 0.330
            assert ep_bound == pytest.approx(hi * e, abs=1e-12)     # == 3.03 e
            assert f"{p_bound:.3f}" == "0.330"
            assert p_opt >= p_bound - 1e-4
            assert ep_opt <= ep_bound + 1e-4
            assert rate_opt >= rate_bound - 1e-4
            assert rate_bound == pytest.approx(
                noisy_rate(lo, min(1.0, hi * e), e).rate,
                abs=1e-12,
            )
        assert elapsed < 600.0
        print(f"    (full 20-step, 64-start sweep took {elapsed:.0f}s)")

    _report(8, "sweep bound columns are flat/linear and optimized columns dominate", check)


def test_criterion_09_mediant_property_mass_check():
    def check():
        rng = np.random.default_rng(909)
        quads = np.exp(rng.normal(0.0, 5.0, size=(100_000, 4)))
        failures = sum(
            0 if mediant_check(a1, a2, b1, b2) else 1 for a1, a2, b1, b2 in quads
        )
        assert failures == 0

    _report(9, "mediant implication holds on 100000 random positive quadruples", check)


def test_criterion_10_special_cases_reason_codes(tmp_path, capsys):
    def check():
        singular = load_pair(np.diag([0.5, 0.0]), np.diag([0.5, 0.5]))
        result = special_case_rate(singular, Knowledge.FULL_MATRICES)
        assert result.rate == 0.0
        assert result.zero_reason is ZeroRateReason.SINGULAR_DETECTOR

        demo = load_pair(DEMO_E0, DEMO_E1)
        result = special_case_rate(demo, Knowledge.DIAGONAL_ONLY)
        assert result.rate == 0.0
        assert result.zero_reason is ZeroRateReason.DIAGONAL_ONLY_KNOWLEDGE

        sing_path = tmp_path / "singular.json"
        write_spec_file(sing_path, np.diag([0.5, 0.0]), np.diag([0.5, 0.5]))
        assert main(["analyze", "--spec", str(sing_path)]) == 2
        demo_path = tmp_path / "demo.json"
        write_spec_file(demo_path, DEMO_E0, DEMO_E1)
        assert main(["analyze", "--spec", str(demo_path), "--knowledge", "diagonal"]) == 2
        capsys.readouterr()

    _report(10, "zero-rate special cases report the right reason codes (and exit 2)", check)


def test_criterion_11_attack_simulation():
    def check():
        blind = load_pair(np.diag([0.5, 0.5]), np.diag([0.0, 0.5]))
        outcome = simulate_time_shift(TimeShiftScenario.pure(blind, 0, n_signals=100_000, seed=11))
        assert outcome.eve_guess_prob == 1.0
        assert outcome.eve_guess_prob_empirical == 1.0

        pair = load_pair(np.diag([0.8, 0.5]), np.diag([0.2, 0.5]))
        outcome = simulate_time_shift(TimeShiftScenario.pure(pair, 0, n_signals=100_000, seed=11))
        assert (
            abs(outcome.eve_guess_prob_empirical - outcome.eve_guess_prob)
            <= 3.0 * outcome.empirical_sigma
        )
        expected = noiseless_rate(mismatch_spectrum(pair)).rate
        assert abs(outcome.aware_rate - expected) <= 1e-9

    _report(11, "time-shift attack: exact extreme case, 3-sigma agreement, aware rate", check)
