import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkd_mismatch import (
    EveState,
    compute_filter,
    evaluate_statistics,
    load_pair,
    maximize_phase_error,
    minimize_filter_success,
    mismatch_ratio_bounds,
    mismatch_spectrum,
    noiseless_rate,
    swap_detectors,
)
from qkd_mismatch import adversary
from qkd_mismatch.adversary import (
    BASIS,
    MULTIPLIER_CAP,
    _argmin_by_slope,
    _build_operators,
    _end_state,
    _face,
    _partial_minimum,
    _stats_from_forms,
    _top_eigen_slope,
    _top_eigenpair,
)
from qkd_mismatch.errors import (
    DimensionMismatch,
    DomainError,
    NumericalFailure,
    SingularDetector,
    ZeroDenominator,
)

from conftest import near_singular_pair, random_efficiency, random_pair, random_unitary
from oracles import feasible_state, mediant_check, optimize_unconstrained_bounds


def _random_state(rng, dim, rank=1):
    v = rng.standard_normal((rank, dim)) + 1j * rng.standard_normal((rank, dim))
    return EveState(vectors=v)


def _random_real_pair(rng, d, lo=0.1, hi=0.95):
    def efficiency():
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        return (q * rng.uniform(lo, hi, size=d)) @ q.T

    return load_pair(efficiency(), efficiency())


def _pair_and_filter(e0, e1):
    pair = load_pair(e0, e1)
    spec = mismatch_spectrum(pair)
    return pair, spec, compute_filter(spec, pair)


# --- basis constants ----------------------------------------------------------


def test_basis_projectors_sum_to_identity():
    z_sum = BASIS.z00 + BASIS.z10 + BASIS.z01 + BASIS.z11
    x_sum = BASIS.xpp + BASIS.xmp + BASIS.xpm + BASIS.xmm
    assert np.abs(z_sum - np.eye(4)).max() < 1e-14
    assert np.abs(x_sum - np.eye(4)).max() < 1e-14


def test_basis_blocks_orthogonal():
    zb0 = BASIS.z00 + BASIS.z10
    zb1 = BASIS.z11 + BASIS.z01
    assert np.abs(zb0 @ zb1).max() < 1e-14
    xb0 = BASIS.xpp + BASIS.xmp
    xb1 = BASIS.xmm + BASIS.xpm
    assert np.abs(xb0 @ xb1).max() < 1e-14


def test_basis_each_is_half_rank_one_projector():
    for m in (BASIS.z00, BASIS.z10, BASIS.z01, BASIS.z11,
              BASIS.xpp, BASIS.xmp, BASIS.xpm, BASIS.xmm):
        w = np.linalg.eigvalsh(m)
        np.testing.assert_allclose(np.sort(w), [0, 0, 0, 1], atol=1e-14)


# --- operator stack -------------------------------------------------------------


def _kron_operators(pair, filter_c):
    """The six trace-functional operators built term by term with np.kron."""
    e0, e1, gram = pair.e0.matrix, pair.e1.matrix, filter_c.gram
    b = BASIS
    mats = [
        np.kron(b.z00 + b.z10, e0) + np.kron(b.z11 + b.z01, e1),
        np.kron(b.z10, e0) + np.kron(b.z01, e1),
        np.kron(b.xpp + b.xmp, e0) + np.kron(b.xmm + b.xpm, e1),
        np.kron(b.xmp, e0) + np.kron(b.xpm, e1),
        np.kron(np.eye(4), gram),
        np.kron(b.xmp + b.xpm, gram),
    ]
    return np.stack([m.astype(complex) for m in mats])


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_operator_stack_matches_kron_reference(d, real):
    rng = np.random.default_rng(40 + d)
    pair = _random_real_pair(rng, d) if real else random_pair(rng, d)
    filt = compute_filter(mismatch_spectrum(pair), pair)
    ops = _build_operators(pair, filt)
    assert ops.shape == (6, 4 * d, 4 * d) and not ops.flags.writeable
    np.testing.assert_array_equal(ops, _kron_operators(pair, filt))


# --- statistics ---------------------------------------------------------------


def test_no_mismatch_degeneracy():
    rng = np.random.default_rng(12)
    e = random_efficiency(rng, 2)
    pair, _, filt = _pair_and_filter(e, e)
    for _ in range(25):
        stats = evaluate_statistics(_random_state(rng, 8), pair, filt)
        assert abs(stats.p_succ - 1.0) < 1e-9
        assert abs(stats.e_p - stats.e_p_prime) < 1e-9


def test_state_on_agreeing_direction_has_no_bit_errors(demo_pair, demo_filter):
    rng = np.random.default_rng(14)
    aux = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    state = EveState.from_vector(np.kron([1.0, 0.0, 0.0, 1.0], aux))
    stats = evaluate_statistics(state, demo_pair, demo_filter)
    assert stats.e_b == pytest.approx(0.0, abs=1e-14)


def test_state_on_flipping_direction_has_all_bit_errors(demo_pair, demo_filter):
    rng = np.random.default_rng(15)
    aux = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    state = EveState.from_vector(np.kron([0.0, 1.0, 1.0, 0.0], aux))
    stats = evaluate_statistics(state, demo_pair, demo_filter)
    assert stats.e_b == pytest.approx(1.0, abs=1e-12)


def test_statistics_scale_invariant(demo_pair, demo_filter):
    rng = np.random.default_rng(16)
    state = _random_state(rng, 8, rank=2)
    base = evaluate_statistics(state, demo_pair, demo_filter)
    for factor in (37.5, 1e200, 1e-200):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = evaluate_statistics(EveState(vectors=factor * state.vectors), demo_pair, demo_filter)
        for field in ("e_b", "e_p_prime", "e_p", "p_succ"):
            assert getattr(base, field) == pytest.approx(getattr(scaled, field), abs=1e-12), factor
    # A power of two changes no bit.
    assert evaluate_statistics(EveState(vectors=2.0**600 * state.vectors), demo_pair, demo_filter) == base


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("where", ["first", "all"])
def test_eve_state_rejects_non_finite_vectors(bad, where):
    v = np.zeros((1, 8), dtype=complex)
    v[0, 1] = 1.0
    if where == "all":
        v[:] = bad
    else:
        v[0, 0] = bad
    with pytest.raises(ValueError, match="must be finite"):
        EveState(vectors=v)


def test_statistics_dimension_check(demo_pair, demo_filter):
    with pytest.raises(DimensionMismatch):
        evaluate_statistics(EveState.from_vector(np.ones(6)), demo_pair, demo_filter)


def test_zero_denominator_guard():
    forms = np.array([0.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    with pytest.raises(ZeroDenominator):
        _stats_from_forms(forms, norm2=1.0)


def test_rates_outside_unit_interval_raise_beyond_rounding():
    with pytest.raises(NumericalFailure, match=r"^rate 1\.5 outside"):  # a plain float
        _stats_from_forms(np.array([1.0, 0.0, 1.0, 0.0, 1.5, 0.0]), norm2=1.0)  # p_succ = 1.5
    stats = _stats_from_forms(np.array([1.0, -1e-12, 1.0, 0.0, 1.0 + 1e-12, 0.0]), norm2=1.0)
    assert stats.e_b == 0.0 and stats.p_succ == 1.0


# --- analytic bounds ------------------------------------------------------------


def test_demo_bounds(demo_spectrum):
    lo, hi = mismatch_ratio_bounds(demo_spectrum)
    assert lo == pytest.approx(0.330, abs=0.001)
    assert hi == pytest.approx(3.03, abs=0.01)
    assert lo * hi == pytest.approx(1.0, abs=1e-12)


def test_bounds_trivial_cases():
    rng = np.random.default_rng(19)
    e = random_efficiency(rng, 3)
    lo, hi = mismatch_ratio_bounds(mismatch_spectrum(load_pair(e, e)))
    assert lo == pytest.approx(1.0, abs=1e-9) and hi == pytest.approx(1.0, abs=1e-9)
    lo, hi = mismatch_ratio_bounds(mismatch_spectrum(load_pair([[0.2]], [[0.4]])))
    assert (lo, hi) == (pytest.approx(0.5, abs=1e-12), pytest.approx(2.0, abs=1e-12))


def test_bounds_reciprocity_random():
    rng = np.random.default_rng(20)
    for _ in range(20):
        spec = mismatch_spectrum(random_pair(rng, int(rng.integers(1, 5))))
        lo, hi = mismatch_ratio_bounds(spec)
        assert lo * hi == pytest.approx(1.0, abs=1e-12)


# --- constrained solves ---------------------------------------------------------


def test_min_filter_success_noiseless_limit(demo_pair, demo_spectrum, demo_filter):
    value, witness = minimize_filter_success(demo_pair, demo_filter, 0.0, 0.0)
    assert value == pytest.approx(noiseless_rate(demo_spectrum).rate, abs=1e-12)
    stats = evaluate_statistics(witness, demo_pair, demo_filter)
    assert abs(stats.p_succ - value) <= 1e-6
    assert stats.e_b <= 1e-5 and stats.e_p_prime <= 1e-5


def test_max_phase_error_noiseless_limit(demo_pair, demo_filter):
    value, witness = maximize_phase_error(demo_pair, demo_filter, 0.0, 0.0)
    assert value == 0.0
    stats = evaluate_statistics(witness, demo_pair, demo_filter)
    assert abs(stats.e_p - value) <= 1e-6


def test_scalar_pair_noiseless_limit_is_closed_form():
    pair, spectrum, filt = _pair_and_filter([[0.8]], [[0.2]])
    p, witness = minimize_filter_success(pair, filt, 0.0, 0.0)
    assert p == pytest.approx(noiseless_rate(spectrum).rate, abs=1e-12)  # 2 / (1 + 4)
    assert witness.rank == 1
    ep, _ = maximize_phase_error(pair, filt, 0.0, 0.0)
    assert ep == 0.0


def test_no_mismatch_solves():
    rng = np.random.default_rng(22)
    e = random_efficiency(rng, 2)
    pair, _, filt = _pair_and_filter(e, e)
    p, _ = minimize_filter_success(pair, filt, 0.03, 0.03)
    assert p == pytest.approx(1.0, abs=1e-6)
    ep, _ = maximize_phase_error(pair, filt, 0.03, 0.03)
    assert ep == pytest.approx(0.03, abs=1e-4)


def test_phase_error_amplification_capped(demo_pair, demo_spectrum, demo_filter):
    _, ratio_up = mismatch_ratio_bounds(demo_spectrum)
    observed = 0.01
    ep, _ = maximize_phase_error(demo_pair, demo_filter, observed, observed)
    assert ep <= ratio_up * (observed + 2e-5) + 1e-6
    assert ep >= observed - 1e-4  # some ratio exceeds one, so amplification >= 1


def test_constrained_min_dominates_unconstrained(demo_pair, demo_spectrum, demo_filter):
    lo, _ = mismatch_ratio_bounds(demo_spectrum)
    p, _ = minimize_filter_success(demo_pair, demo_filter, 0.02, 0.02)
    assert p >= lo - 1e-6
    assert p <= 1.0


def test_solver_input_validation(demo_pair, demo_filter):
    with pytest.raises(DomainError):
        minimize_filter_success(demo_pair, demo_filter, 0.7, 0.0)
    singular = load_pair(np.diag([0.5, 0.0]), np.diag([0.5, 0.5]))
    with pytest.raises(SingularDetector):
        minimize_filter_success(singular, demo_filter, 0.0, 0.0)


def test_solves_deterministic_on_repeat(demo_pair, demo_filter):
    for solve in (minimize_filter_success, maximize_phase_error):
        v1, w1 = solve(demo_pair, demo_filter, 0.01, 0.01)
        v2, w2 = solve(demo_pair, demo_filter, 0.01, 0.01)
        assert v1 == v2
        np.testing.assert_array_equal(w1.vectors, w2.vectors)


def _dual_bounds(pair, e):
    filt = compute_filter(mismatch_spectrum(pair), pair)
    p, p_witness = minimize_filter_success(pair, filt, e, e)
    ep, ep_witness = maximize_phase_error(pair, filt, e, e)
    for value, witness, field in ((p, p_witness, "p_succ"), (ep, ep_witness, "e_p")):
        stats = evaluate_statistics(witness, pair, filt)
        assert getattr(stats, field) == pytest.approx(value, abs=1e-5)
        assert max(abs(stats.e_b - e), abs(stats.e_p_prime - e)) <= 1e-4
    return p, ep


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.floats(min_value=0.005, max_value=0.1),
    st.integers(min_value=0, max_value=2**32 - 1),
)
# Top two eigenvalues a few 1e-6 (relative) apart at the final multipliers.
@example(d=1, e=0.0625, seed=76121)
@example(d=1, e=0.0625, seed=80958)
def test_dual_bounds_certified_and_invariant(d, e, seed):
    rng = np.random.default_rng(seed)
    pair = random_pair(rng, d)
    spectrum = mismatch_spectrum(pair)
    lo, hi = mismatch_ratio_bounds(spectrum)
    p, ep = _dual_bounds(pair, e)
    assert lo - 1e-9 <= p <= noiseless_rate(spectrum).rate * (1 + 1e-12)
    assert e - 1e-9 <= ep <= hi * e + 1e-9
    u = random_unitary(rng, d)
    rotated = load_pair(u @ pair.e0.matrix @ u.conj().T, u @ pair.e1.matrix @ u.conj().T)
    for other in (rotated, swap_detectors(pair)):
        p_other, ep_other = _dual_bounds(other, e)
        assert p_other == pytest.approx(p, abs=1e-8)
        assert ep_other == pytest.approx(ep, abs=1e-8)


def _check_bounds_against_the_feasible_state(d, real, eb, epp, seed):
    # Every target is met by `feasible_state`, so by weak duality no bound
    # may pass its statistic, nor the noiseless rate it reaches at the best v.
    rng = np.random.default_rng(seed)
    pair = _random_real_pair(rng, d) if real else random_pair(rng, d)
    spectrum = mismatch_spectrum(pair)
    filt = compute_filter(spectrum, pair)
    v = rng.standard_normal(d) + (0.0 if real else 1j * rng.standard_normal(d))
    p_state = 2 * np.vdot(v, filt.gram @ v).real / np.vdot(v, (pair.e0.matrix + pair.e1.matrix) @ v).real
    stats = evaluate_statistics(feasible_state(v, eb, epp), pair, filt)
    np.testing.assert_allclose([stats.e_b, stats.e_p_prime, stats.e_p, stats.p_succ],
                               [eb, epp, epp, p_state], rtol=0.0, atol=1e-12)
    p, _ = minimize_filter_success(pair, filt, eb, epp)
    assert p <= p_state + 1e-12
    assert p <= noiseless_rate(spectrum).rate * (1 + 1e-12)
    ep, _ = maximize_phase_error(pair, filt, eb, epp)
    assert ep >= epp - 1e-12  # a tiny e_p' may come back as a max e_p of 0.0


# A target is 0 (a face) or at least 1e-12. Below about 1e-16 the multipliers
# reach MULTIPLIER_CAP, where the rounding of the dual eigenvalue can pass the
# feasible state: the xfail test below.
_TARGETS = st.just(0.0) | st.floats(min_value=1e-12, max_value=0.5)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.booleans(), _TARGETS, _TARGETS,
       st.integers(min_value=0, max_value=2**32 - 1))
@example(d=3, real=False, eb=0.0, epp=0.2, seed=1)  # the e_b = 0 face
@example(d=3, real=True, eb=0.2, epp=0.0, seed=2)  # the e_p' = 0 face
@example(d=2, real=False, eb=0.0, epp=0.0, seed=3)  # both faces: the noiseless rate
@example(d=4, real=False, eb=0.5, epp=0.5, seed=4)
@example(d=1, real=True, eb=1e-12, epp=1e-12, seed=1)  # a nearly matched pair
def test_every_bound_holds_against_the_explicit_feasible_state(d, real, eb, epp, seed):
    _check_bounds_against_the_feasible_state(d, real, eb, epp, seed)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="bounds are not yet certified against rounding at capped multipliers")
@pytest.mark.parametrize("d, real, eb, epp, seed", [
    (1, True, 1e-300, 1e-300, 1),  # min p_succ above the noiseless rate by 1.9e-10 (relative)
    (1, False, 5e-324, 1e-6, 1162081439),  # max e_p below e_p' by 3.8e-11
    (1, False, 0.11, 1e-300, 4151991552),  # min p_succ above the state's p_succ by 2.7e-11
])
def test_tiny_targets_are_not_yet_certified_against_rounding(d, real, eb, epp, seed):
    # At a nonzero target below about 1e-16 the dual optimum lies beyond
    # MULTIPLIER_CAP; at the cap the eigenvalue's rounding, about eps * 1e6,
    # lands on the unsafe side of the feasible state. Certifying the value
    # against rounding (ROADMAP item 3) must turn these into passes.
    _check_bounds_against_the_feasible_state(d, real, eb, epp, seed)


def _shifted_top_eigenpair(shift):
    def shifted(m):
        w, u = _top_eigenpair(m)
        return w + shift, u

    return shifted


@pytest.mark.parametrize("solve", [minimize_filter_success, maximize_phase_error])
def test_bound_past_the_unit_interval_is_a_numerical_failure_only_on_the_impossible_side(
        demo_pair, demo_filter, solve, monkeypatch):
    # Every target is feasible, so no input drives min p_succ above 1 or max
    # e_p below 0: only a stub that shifts every eigenvalue reaches the guard.
    monkeypatch.setattr(adversary, "_top_eigenpair", _shifted_top_eigenpair(-2.0))
    with pytest.raises(NumericalFailure, match=r"outside \[0, 1\], yet every observed target is feasible"):
        solve(demo_pair, demo_filter, 0.05, 0.05)
    # On the safe side (min p_succ below 0, max e_p above 1) the clipped value stays a bound.
    monkeypatch.setattr(adversary, "_top_eigenpair", _shifted_top_eigenpair(2.0))
    value, _ = solve(demo_pair, demo_filter, 0.05, 0.05)
    assert value == (0.0 if solve is minimize_filter_success else 1.0)


def test_real_pair_and_complex_image_give_same_bounds(monkeypatch):
    dtypes = set()

    def spy(m):
        dtypes.add(m.dtype.kind)
        return _top_eigenpair(m)

    monkeypatch.setattr(adversary, "_top_eigenpair", spy)
    rng = np.random.default_rng(31)
    for d in (3, 8):
        pair = _random_real_pair(rng, d)
        u = random_unitary(rng, d)
        image = load_pair(u @ pair.e0.matrix @ u.conj().T, u @ pair.e1.matrix @ u.conj().T)
        for solve in (minimize_filter_success, maximize_phase_error):
            real_value, _ = solve(pair, compute_filter(mismatch_spectrum(pair), pair), 0.04, 0.04)
            complex_value, _ = solve(image, compute_filter(mismatch_spectrum(image), image), 0.04, 0.04)
            assert complex_value == pytest.approx(real_value, abs=1e-9)
    assert dtypes == {"f", "c"}  # both the dsyevr and the zheevr path ran


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_dual_bounds_certified_at_d16(real):
    rng = np.random.default_rng(16)
    pair = _random_real_pair(rng, 16) if real else random_pair(rng, 16)
    e = 0.05
    filt = compute_filter(mismatch_spectrum(pair), pair)
    lo, hi = mismatch_ratio_bounds(mismatch_spectrum(pair))
    p, p_witness = minimize_filter_success(pair, filt, e, e)
    ep, ep_witness = maximize_phase_error(pair, filt, e, e)
    assert lo - 1e-9 <= p <= 1.0 + 1e-9
    assert e - 1e-9 <= ep <= hi * e + 1e-9
    for value, witness, field in ((p, p_witness, "p_succ"), (ep, ep_witness, "e_p")):
        stats = evaluate_statistics(witness, pair, filt)
        assert abs(getattr(stats, field) - value) <= 1e-5
        assert max(abs(stats.e_b - e), abs(stats.e_p_prime - e)) <= 1e-5


def test_phase_error_witness_meets_constraints_at_half(demo_pair, demo_filter):
    # The top eigenvalue at the optimum is triple here.
    _, witness = maximize_phase_error(demo_pair, demo_filter, 0.5, 0.5)
    stats = evaluate_statistics(witness, demo_pair, demo_filter)
    assert abs(stats.e_p_prime - 0.5) <= 1e-4


@pytest.mark.parametrize("solve", [minimize_filter_success, maximize_phase_error])
def test_witness_meets_constraints_at_degenerate_optima(demo_pair, demo_filter, solve):
    # Includes top eigenvalues of multiplicity 3 (e_b = e_p' = 0.5 for e_p) and a
    # face whose e_p objective vanishes, so every eigenvalue ties (e_p' = 0).
    field = "p_succ" if solve is minimize_filter_success else "e_p"
    for e_b in (0.0, 0.001, 0.05, 0.5):
        for e_pp in (0.0, 0.001, 0.05, 0.5):
            value, witness = solve(demo_pair, demo_filter, e_b, e_pp)
            stats = evaluate_statistics(witness, demo_pair, demo_filter)
            assert max(abs(stats.e_b - e_b), abs(stats.e_p_prime - e_pp)) <= 1e-12, (e_b, e_pp)
            assert abs(getattr(stats, field) - value) <= 1e-12, (e_b, e_pp)


@pytest.mark.parametrize("pair_kind, d", [("demo", 2)] + [(k, d) for k in ("real", "complex") for d in (1, 3, 8)])
def test_zero_target_constraint_is_exactly_zero_on_its_face(demo_pair, demo_filter, pair_kind, d):
    # The dual search keeps a zero target's multiplier where it starts because
    # its constraint, and so its slope, is exactly zero on the face.
    if pair_kind == "demo":
        pair, filt = demo_pair, demo_filter
    else:
        rng = np.random.default_rng(70 + d)
        pair = _random_real_pair(rng, d) if pair_kind == "real" else random_pair(rng, d)
        filt = compute_filter(mismatch_spectrum(pair), pair)
    # EBnum on the e_b = 0 face, EPPnum on the e_p' = 0 face.
    for observed_eb, observed_epp, numerator in ((0.0, 0.1, 1), (0.1, 0.0, 3)):
        ops = _build_operators(pair, filt, _face(observed_eb, observed_epp))
        assert ops.shape == (6, 2 * pair.dim, 2 * pair.dim)
        assert not np.any(ops[numerator])


@pytest.mark.parametrize("pair_kind, d", [("demo", 2)] + [(k, d) for k in ("real", "complex") for d in (1, 3, 8)])
def test_face_stack_is_the_full_stack_restricted_to_its_rows(demo_pair, demo_filter, pair_kind, d):
    # Slicing the 4x4 coefficients before the products gives the same bits as
    # building all six 4d x 4d operators and keeping the face's coordinates.
    if pair_kind == "demo":
        pair, filt = demo_pair, demo_filter
    else:
        rng = np.random.default_rng(90 + d)
        pair = _random_real_pair(rng, d) if pair_kind == "real" else random_pair(rng, d)
        filt = compute_filter(mismatch_spectrum(pair), pair)
    full = _build_operators(pair, filt)
    faces = set()
    for observed_eb in (0.0, 0.1):
        for observed_epp in (0.0, 0.1):
            face = _face(observed_eb, observed_epp)
            faces.add(face)
            idx = np.concatenate([np.arange(row * d, (row + 1) * d) for row in face])
            ops = _build_operators(pair, filt, face)
            assert ops.dtype == full.dtype and not ops.flags.writeable
            assert ops.tobytes() == full[:, idx[:, np.newaxis], idx].tobytes(), face
    assert faces == {(0, 1, 2, 3), (0, 3), (0, 1), (0,)}


@pytest.mark.parametrize("solve", [minimize_filter_success, maximize_phase_error])
def test_noiseless_bound_takes_one_eigenpair(demo_pair, demo_filter, solve, monkeypatch):
    calls = []

    def counted(m):
        calls.append(m.shape)
        return _top_eigenpair(m)

    monkeypatch.setattr(adversary, "_top_eigenpair", counted)
    solve(demo_pair, demo_filter, 0.0, 0.0)
    assert len(calls) == 1


def test_demo_bounds_eigensolve_budget(demo_pair, demo_filter, monkeypatch):
    calls = []

    def counted(m):
        calls.append(m.shape)
        return _top_eigenpair(m)

    monkeypatch.setattr(adversary, "_top_eigenpair", counted)
    values = [solve(demo_pair, demo_filter, e, e)[0]
              for e in (0.05, 0.10) for solve in (minimize_filter_success, maximize_phase_error)]
    expected = [0.38784833589346984, 0.10885995458882268, 0.3579007871378312, 0.21202893478866747]
    np.testing.assert_allclose(values, expected, rtol=0, atol=1e-12)
    # 2037 with a root-bracketing search on the slope alone, 636 with a search
    # on values over the first multiplier, 394 (plus 48 eigensolves for the
    # outer slopes) with slopes on both levels, 362 (and none for the outer
    # slopes) with the outer slope read off the inner bracket.
    assert len(calls) <= 450


def test_demo_witnesses_meet_rates_and_bounds(demo_pair, demo_filter):
    for e in np.linspace(0.025, 0.25, 10):
        for solve, field in ((minimize_filter_success, "p_succ"), (maximize_phase_error, "e_p")):
            value, witness = solve(demo_pair, demo_filter, e, e)
            stats = evaluate_statistics(witness, demo_pair, demo_filter)
            assert max(abs(stats.e_b - e), abs(stats.e_p_prime - e)) <= 1e-12, (e, field)
            assert abs(getattr(stats, field) - value) <= 1e-12, (e, field)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("d", [16, 32])
def test_near_singular_witness_meets_rates_and_bound(seed, d):
    # Responses with four eigenvalues at 1e-6, whose whitened operators are
    # ill-conditioned: the witness still meets the rates and the bound.
    pair, _, filt = _pair_and_filter(*near_singular_pair(seed, d, 1e-6))
    value, witness = maximize_phase_error(pair, filt, 0.02, 0.02)
    stats = evaluate_statistics(witness, pair, filt)
    assert max(abs(stats.e_b - 0.02), abs(stats.e_p_prime - 0.02)) <= 1e-12
    assert abs(stats.e_p - value) <= 1e-10


def test_sweep_warm_starts_keep_bounds_and_save_eigensolves(demo_pair, demo_filter, monkeypatch):
    calls = []

    def counted(m):
        calls.append(m.shape)
        return _top_eigenpair(m)

    monkeypatch.setattr(adversary, "_top_eigenpair", counted)
    grid = np.linspace(0.0, 0.25, 20)
    solves = (minimize_filter_success, maximize_phase_error)
    cold = [solve(demo_pair, demo_filter, e, e)[0] for e in grid for solve in solves]
    cold_calls = len(calls)
    starts = {}
    warm = [solve(demo_pair, demo_filter, e, e, starts=starts)[0] for e in grid for solve in solves]
    warm_calls = len(calls) - cold_calls
    np.testing.assert_allclose(warm, cold, rtol=0, atol=1e-12)
    assert warm_calls < 0.8 * cold_calls
    # One entry per bound and face: (e_b, e_p') = (0, 0), then both positive.
    assert sorted(starts) == [(kind, face, face) for kind in ("max_ep", "min_psucc") for face in (False, True)]
    # Without `starts` every solve starts cold again.
    again = [solve(demo_pair, demo_filter, e, e)[0] for e in grid for solve in solves]
    assert again == cold and len(calls) - cold_calls - warm_calls == cold_calls


def test_interleaved_sweeps_with_their_own_starts_match_sweeps_run_in_turn(demo_pair, demo_filter, monkeypatch):
    # A solve depends only on its arguments: two sweeps, each with its own
    # `starts`, give the same values and the same eigensolves whether their
    # solves alternate or one sweep runs after the other.
    calls = []

    def counted(m):
        calls.append(m.shape)
        return _top_eigenpair(m)

    monkeypatch.setattr(adversary, "_top_eigenpair", counted)
    pair = random_pair(np.random.default_rng(33), 3)
    problems = [(demo_pair, demo_filter), (pair, compute_filter(mismatch_spectrum(pair), pair))]
    grid = np.linspace(0.0, 0.25, 8)
    solves = (minimize_filter_success, maximize_phase_error)

    def solve_point(solve, problem, e, starts):
        before = len(calls)
        value, witness = solve(*problem, e, e, starts=starts)
        return value, witness.vectors.tobytes(), len(calls) - before

    in_turn = []
    for problem in problems:
        starts = {}
        in_turn.append([solve_point(solve, problem, e, starts) for e in grid for solve in solves])
    interleaved = [[], []]
    all_starts = [{}, {}]
    for e in grid:
        for solve in solves:
            for k, problem in enumerate(problems):
                interleaved[k].append(solve_point(solve, problem, e, all_starts[k]))
    assert interleaved == in_turn


# --- slope of the partial minimum -------------------------------------------------


def _slope_problem(rng, n, top_multiplicity):
    """A real symmetric matrix with a top eigenvalue of the given multiplicity
    (value 1), its eigenvectors, and two random directions."""
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    w = rng.uniform(-1.0, 0.5, size=n)
    w[:top_multiplicity] = 1.0
    first, second = (_hermitian(rng, n, False) for _ in range(2))
    return (q * w) @ q.T, q[:, :top_multiplicity], first, second


@pytest.mark.parametrize("top_multiplicity", [1, 2])
def test_bracket_slope_is_a_subgradient_of_the_partial_minimum(top_multiplicity):
    rng = np.random.default_rng(50 + top_multiplicity)
    for _ in range(10):
        matrix, _, first, second = _slope_problem(rng, 8, top_multiplicity)
        for y1 in (0.0, 0.3):
            value, slope, ends, _ = _partial_minimum(matrix, first, second)(y1)
            state = _end_state(ends)
            # The state is a primal minorant of g: trace 1, on the inner
            # constraint, and its objective at most g(y1).
            forms = [np.einsum("ri,ij,rj->", state.conj(), m, state).real
                     for m in (np.eye(8), second, matrix + y1 * first)]
            assert abs(forms[0] - 1.0) <= 1e-12 and abs(forms[1]) <= 1e-12
            assert forms[2] <= value + 1e-12
            for h in (1e-3, 1e-1):
                for step in (h, -h):
                    assert _partial_minimum(matrix, first, second)(y1 + step)[0] >= value + slope * step - 1e-12


# --- one-dimensional convex minimizer ---------------------------------------------


def _counted(fun):
    calls = []

    def wrapped(t):
        calls.append(t)
        return fun(t)

    return wrapped, calls


def _max_of(*branches):
    """Convex max of (value, slope) branches, with the active branch's slope."""
    return lambda t: max(branch(t) for branch in branches)


def _parabola(curvature, centre):
    return lambda t: (curvature * (t - centre) ** 2, 2 * curvature * (t - centre))


def _line(slope, through=0.0):
    return lambda t: (slope * (t - through), slope)


@pytest.mark.parametrize(
    "fun, start, root, max_evals",
    [
        (_parabola(3.0, 0.7), 0.0, 0.7, 6),
        (_parabola(0.01, -123.4), 0.0, -123.4, 14),
        (_max_of(_line(-0.1), _line(0.9)), 0.0, 0.0, 3),
        (_max_of(_line(-0.1, 0.37), _line(0.9, 0.37)), 0.0, 0.37, 4),
        (_max_of(_line(-5.0, -2.5), _line(1e-3, -2.5)), 0.0, -2.5, 6),
        (_max_of(_parabola(1.0, -1.0), _parabola(2.0, 2.0)), 0.0, (2 * 2**0.5 - 1) / (1 + 2**0.5), 8),
        (_parabola(2.0, 0.25), 0.25, 0.25, 1),
        (_max_of(_line(-0.1, 0.4), _line(0.9, 0.4)), 0.4, 0.4, 2),
    ],
    ids=["quadratic", "far-quadratic", "kink", "offset-kink", "steep-kink", "two-parabolas",
         "start-at-quadratic-min", "start-at-kink"],
)
def test_argmin_by_slope_finds_minimizer(fun, start, root, max_evals):
    counted, calls = _counted(fun)
    t, value, _ = _argmin_by_slope(counted, start)
    assert abs(t - root) <= 1e-12 * max(1.0, abs(root))
    assert value == fun(t)[0]
    assert len(calls) <= max_evals


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_argmin_by_slope_stops_at_multiplier_cap(sign):
    for fun in (_parabola(1.0, sign * 3 * MULTIPLIER_CAP), _line(-sign * 0.5)):
        counted, calls = _counted(fun)
        t, _, _ = _argmin_by_slope(counted)
        assert t == sign * MULTIPLIER_CAP
        assert len(calls) <= 23  # doubling from 1 to the cap


@pytest.mark.parametrize(
    "centre, probes", [(1.0, [0.0, 1.0]), (2.0, [0.0, 1.0, 2.0]), (-4.0, [0.0, -1.0, -2.0, -4.0])]
)
def test_argmin_by_slope_ends_on_a_growth_probe_with_zero_slope(centre, probes):
    # A growth probe that lands on the minimum is the search's one end point.
    counted, calls = _counted(_parabola(1.0, centre))
    assert _argmin_by_slope(counted) == (centre, 0.0, ((centre, 0.0, 0.0),))
    assert calls == probes


def test_argmin_by_slope_returns_the_flatter_end_of_a_rounding_tie():
    # Values flattened by rounding: once the tangents meet within rounding of
    # the common value, both ends lie on the floor, and the end with the
    # smaller slope is the nearer to a smooth minimum.
    t, value, ends = _argmin_by_slope(lambda t: (1.0, -1e-3 if t < 0.3 else 1e-6))
    (lo, _, g_lo), (hi, _, g_hi) = ends
    assert lo < 0.3 <= hi and g_lo == -1e-3 and g_hi == 1e-6
    assert t == hi and value == 1.0


# --- top eigenpair ------------------------------------------------------------------


def _hermitian(rng, n, complex_):
    m = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if complex_ else 0.0)
    return (m + m.conj().T) / 2


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n", [1, 2, 8, 33])
def test_top_eigenpair_matches_full_decomposition(n, complex_):
    rng = np.random.default_rng(100 * n + complex_)
    for _ in range(5):
        m = _hermitian(rng, n, complex_)
        w, v = np.linalg.eigh(m)
        value, u = _top_eigenpair(m)
        assert u.dtype == m.dtype
        assert abs(value - w[-1]) <= 1e-12 * max(1.0, np.abs(w).max())
        assert abs(np.vdot(v[:, -1], u)) >= 1 - 1e-10


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n", [2, 8, 33])
def test_top_eigenpair_repeated_top_eigenvalue(n, complex_):
    rng = np.random.default_rng(200 * n + complex_)
    q = np.linalg.qr(_hermitian(rng, n, complex_))[0]
    w = rng.uniform(-1.0, 0.5, size=n)
    w[: min(3, n)] = 1.0
    m = (q * w) @ q.conj().T
    value, u = _top_eigenpair(m)
    assert value == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
    top = q[:, w == 1.0]
    assert np.linalg.norm(top.conj().T @ u) >= 1 - 1e-10


def _lower_hermitian(m):
    """The Hermitian matrix that the lower triangle of `m` stores."""
    lower = np.tril(m, -1)
    return lower + lower.conj().T + np.diag(m.diagonal().real)


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_probe_matches_full_decomposition(n, complex_, monkeypatch):
    # The probe reads lower triangles only, so noise above the diagonal must
    # not reach it; and LAPACK must find the (simple) top eigenpair itself,
    # without the full-decomposition fallback.
    def no_fallback(m):
        raise AssertionError("the probe fell back to a full decomposition")

    rng = np.random.default_rng(300 * n + complex_)
    for _ in range(3):
        base, direction = (_hermitian(rng, n, complex_) + np.triu(_hermitian(rng, n, complex_), 1)
                           for _ in range(2))
        probe = _top_eigen_slope(base, direction)
        for t in (0.0, 0.37, -2.5):
            m = _lower_hermitian(base + t * direction)
            w, v = np.linalg.eigh(m)
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "eigh", no_fallback)
                value, slope, u = probe(t)
            assert u.dtype == base.dtype and u.shape == (n,)
            assert abs(value - w[-1]) <= 1e-12 * max(1.0, np.abs(w).max())
            assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
            assert abs(np.vdot(v[:, -1], u)) >= 1 - 1e-10
            exact = np.vdot(u, _lower_hermitian(direction) @ u).real
            assert abs(slope - exact) <= 1e-12 * max(1.0, np.linalg.norm(direction, 2))


def _lapack_evr_returning(found, info):
    def evr(a, *args, **kwargs):
        return np.zeros(len(a)), np.zeros((len(a), 1)), found, np.zeros(2, dtype=np.int32), info

    return evr


def test_top_eigenpair_falls_back_when_lapack_finds_none(monkeypatch):
    # LAPACK's bisection can report no eigenvalue for a tight cluster at the top.
    monkeypatch.setattr(adversary.scipy.linalg.lapack, "dsyevr", _lapack_evr_returning(found=0, info=0))
    m = _hermitian(np.random.default_rng(5), 6, False)
    w, v = np.linalg.eigh(m)
    value, u = _top_eigenpair(m)
    assert value == w[-1] and abs(np.vdot(v[:, -1], u)) >= 1 - 1e-12


def test_top_eigenpair_raises_on_lapack_error(monkeypatch):
    monkeypatch.setattr(adversary.scipy.linalg.lapack, "zheevr", _lapack_evr_returning(found=0, info=3))
    with pytest.raises(NumericalFailure):
        _top_eigenpair(_hermitian(np.random.default_rng(6), 4, True))


# --- unconstrained numeric bounds ------------------------------------------------


def test_unconstrained_matches_analytic_demo(demo_pair, demo_spectrum, demo_filter):
    lo, hi = mismatch_ratio_bounds(demo_spectrum)
    p_min, ratio_max = optimize_unconstrained_bounds(demo_pair, demo_filter)
    assert p_min == pytest.approx(lo, abs=1e-3)
    assert ratio_max == pytest.approx(hi, abs=1e-2)


def test_unconstrained_no_mismatch():
    rng = np.random.default_rng(27)
    e = random_efficiency(rng, 2)
    pair, _, filt = _pair_and_filter(e, e)
    p_min, ratio_max = optimize_unconstrained_bounds(pair, filt)
    assert p_min == pytest.approx(1.0, abs=1e-6)
    assert ratio_max == pytest.approx(1.0, abs=1e-6)


def test_unconstrained_diagonal_pair_pointwise_ratios():
    eta0 = np.array([0.8, 0.45])
    eta1 = np.array([0.3, 0.6])
    pair, _, filt = _pair_and_filter(np.diag(eta0), np.diag(eta1))
    ratios = np.concatenate([eta0 / eta1, eta1 / eta0])
    p_min, ratio_max = optimize_unconstrained_bounds(pair, filt)
    assert p_min == pytest.approx(ratios.min(), abs=1e-3)
    assert ratio_max == pytest.approx(ratios.max(), abs=1e-3)


# --- mediant helper ---------------------------------------------------------------


def test_mediant_examples():
    assert mediant_check(3, 1, 1, 1)
    assert mediant_check(1, 2, 1, 2)


def test_mediant_rejects_nonpositive():
    with pytest.raises(ValueError):
        mediant_check(1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        mediant_check(1.0, -2.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        mediant_check(float("inf"), 1.0, 1.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=1e-12, max_value=1e12),
    st.floats(min_value=1e-12, max_value=1e12),
    st.floats(min_value=1e-12, max_value=1e12),
    st.floats(min_value=1e-12, max_value=1e12),
)
def test_mediant_always_holds(a1, a2, b1, b2):
    assert mediant_check(a1, a2, b1, b2)


@pytest.mark.parametrize("vectors", [np.ones(8), np.ones((0, 8)), np.ones((1, 2, 8))], ids=["1-D", "rank-0", "3-D"])
def test_eve_state_rejects_a_wrong_shape(vectors):
    with pytest.raises(DimensionMismatch, match=r"shape \(rank, 4d\)"):
        EveState(vectors=vectors)


def test_eve_state_rejects_all_zero_vectors():
    with pytest.raises(ValueError, match="at least one nonzero vector"):
        EveState(vectors=np.zeros((2, 8)))


def test_statistics_need_a_full_rank_pair(demo_filter):
    singular = load_pair(np.diag([0.5, 0.0]), np.diag([0.5, 0.5]))
    with pytest.raises(SingularDetector, match="full-rank"):
        evaluate_statistics(EveState.from_vector(np.ones(8)), singular, demo_filter)
