import warnings

import numpy as np
import pytest

from qkd_mismatch import compute_filter, linalg, load_pair, mismatch_spectrum
from qkd_mismatch.detectors import _nullspace_projector
from qkd_mismatch.errors import DimensionMismatch, DomainError, NotHermitian, NotPSD
from qkd_mismatch.linalg import HermitianEigenSystem, as_matrix, hermitian_eig, principal_sqrt, require_hermitian

from conftest import DEMO_E0, random_efficiency


def test_eig_identity_is_identity_basis():
    sys = hermitian_eig(np.eye(2))
    np.testing.assert_allclose(sys.eigenvalues, [1.0, 1.0])
    np.testing.assert_array_equal(sys.eigenvectors, np.eye(2))


def test_eig_diagonal_descending_permutes_basis():
    sys = hermitian_eig(np.diag([0.4, 0.8]))
    np.testing.assert_allclose(sys.eigenvalues, [0.8, 0.4])
    np.testing.assert_allclose(sys.eigenvectors, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)


def test_eig_two_by_two_hand_oracle():
    # characteristic polynomial of [[.8,-.2],[-.2,.4]]: lambda = 0.6 +/- sqrt(0.08)
    sys = hermitian_eig(DEMO_E0)
    np.testing.assert_allclose(
        sys.eigenvalues,
        [0.8828427124746190, 0.3171572875253810],
        rtol=0, atol=1e-12,
    )


def _rephased(eig, rng):
    """The same eigensystem in another eigenbasis: random unit phases on the
    columns, and the columns of each exactly degenerate group permuted."""
    w = eig.eigenvalues
    v = eig.eigenvectors * np.exp(2j * np.pi * rng.random(w.size))[np.newaxis, :]
    order = np.arange(w.size)
    for value in np.unique(w):
        group = np.flatnonzero(w == value)
        order[group] = rng.permutation(group)
    return HermitianEigenSystem(matrix=eig.matrix, eigenvalues=w, eigenvectors=v[:, order])


def _basis_dependent_products():
    """Square roots, nullspace projectors and filter Grams of matrices with
    exactly degenerate, zero and generic spectra."""
    rng = np.random.default_rng(8)
    singular = random_efficiency(rng, 4)
    w, v = np.linalg.eigh(singular)
    singular = (v * np.r_[0.0, w[1:]][np.newaxis, :]) @ v.conj().T
    matrices = [np.eye(3), np.diag([0.5, 0.5, 0.3, 0.3, 0.3, 0.0]), singular, random_efficiency(rng, 5)]
    out = [principal_sqrt(m) for m in matrices]
    out += [_nullspace_projector(p.e0)[0] for p in (load_pair(m, m) for m in matrices)]
    pairs = [
        (np.diag([0.5, 0.5, 0.3, 0.3]), np.diag([0.25, 0.25, 0.6, 0.6])),
        (0.4 * np.eye(3), 0.4 * np.eye(3)),
        (random_efficiency(rng, 5), random_efficiency(rng, 5)),
    ]
    for e0, e1 in pairs:
        pair = load_pair(e0, e1)
        out.append(compute_filter(mismatch_spectrum(pair), pair).gram)
    return out


def test_callers_do_not_depend_on_the_eigenbasis(monkeypatch):
    reference = _basis_dependent_products()
    rng = np.random.default_rng(9)
    plain = linalg.hermitian_eig
    monkeypatch.setattr(linalg, "hermitian_eig", lambda a: _rephased(plain(a), rng))
    for _ in range(5):
        for got, want in zip(_basis_dependent_products(), reference, strict=True):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_eig_reconstruction_roundtrip_200_random():
    rng = np.random.default_rng(11)
    for _ in range(200):
        d = int(rng.integers(1, 7))
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        a = 0.5 * (z + z.conj().T)
        sys = hermitian_eig(a)
        recon = (sys.eigenvectors * sys.eigenvalues[np.newaxis, :]) @ sys.eigenvectors.conj().T
        assert np.linalg.norm(recon - a) < 1e-9 * (1 + np.linalg.norm(a))
        assert np.linalg.norm(sys.eigenvectors.conj().T @ sys.eigenvectors - np.eye(d)) < 1e-10


def test_eig_deterministic_bit_identical():
    rng = np.random.default_rng(3)
    a = random_efficiency(rng, 5)
    s1 = hermitian_eig(a)
    s2 = hermitian_eig(a.copy())
    np.testing.assert_array_equal(s1.eigenvalues, s2.eigenvalues)
    np.testing.assert_array_equal(s1.eigenvectors, s2.eigenvectors)


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_sqrt_identity_and_diagonal():
    np.testing.assert_allclose(principal_sqrt(np.eye(3)), np.eye(3), atol=1e-14)
    np.testing.assert_allclose(
        principal_sqrt(np.diag([0.04, 0.09])), np.diag([0.2, 0.3]), atol=1e-14
    )


def test_sqrt_squares_back():
    s = principal_sqrt(DEMO_E0)
    assert np.linalg.norm(s @ s - DEMO_E0) <= 1e-9 * (1 + np.linalg.norm(DEMO_E0))
    rng = np.random.default_rng(5)
    for _ in range(30):
        d = int(rng.integers(1, 7))
        a = random_efficiency(rng, d, lo=0.0, hi=1.0)
        s = principal_sqrt(a)
        assert np.linalg.norm(s - s.conj().T) < 1e-12
        assert np.linalg.eigvalsh(s).min() > -1e-12
        assert np.linalg.norm(s @ s - a) <= 1e-9 * (1 + np.linalg.norm(a))


def test_sqrt_clamps_tiny_negative_but_rejects_indefinite():
    a = np.diag([1.0, -1e-14])
    s = principal_sqrt(a)
    assert np.linalg.eigvalsh(s).min() >= 0.0
    with pytest.raises(NotPSD):
        principal_sqrt(np.diag([1.0, -1e-6]))


def test_as_matrix_keeps_real_matrices_real():
    assert as_matrix([[1, 0], [0, 1]]).dtype == np.float64
    zero_imag = np.array([[0.5, complex(0.25, -0.0)], [0.25, 0.5]])
    real = as_matrix(zero_imag)
    assert real.dtype == np.float64
    assert real.tobytes() == zero_imag.real.tobytes()
    hermitian = np.array([[0.5, 0.25j], [-0.25j, 0.5]])
    assert as_matrix(hermitian).dtype == np.complex128
    np.testing.assert_array_equal(as_matrix(hermitian), hermitian)


def test_matrix_validation():
    with pytest.raises(ValueError):
        as_matrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(DimensionMismatch):
        require_hermitian(np.ones((2, 3)))


@pytest.mark.parametrize(
    "bad",
    [
        [[0.3, 1e200], [-1e200, 0.3]],  # antisymmetric part that a Frobenius norm of inf would hide
        [[0.5, 1e200], [1e200, 0.5]],  # Hermitian, but past the entries the norms can measure
        [[1.7e308 + 1.7e308j]],  # a modulus past the float range
        np.ones((2, 3)) * 1e101,  # the entry bound is checked before the shape
    ],
)
def test_entries_past_the_bound_raise_not_hermitian_without_a_warning(bad):
    # A DomainError, not NotHermitian: a Hermitian matrix past the bound (bad1) is no symmetry defect.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (require_hermitian, hermitian_eig, principal_sqrt):
            with pytest.raises(DomainError, match=r"^entry of modulus .* exceeds 1e\+100$"):
                fn(bad)


def test_entries_at_the_bound_are_checked_as_before():
    bound = linalg.MAX_ENTRY_MODULUS
    np.testing.assert_array_equal(require_hermitian([[bound, 0.5], [0.5, -bound]]), [[bound, 0.5], [0.5, -bound]])
    with pytest.raises(NotHermitian, match="symmetry defect"):
        require_hermitian([[0.3, bound], [-bound, 0.3]])
