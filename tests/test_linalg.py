import numpy as np
import pytest

from qkd_mismatch.errors import DimensionMismatch, NotHermitian, NotPSD
from qkd_mismatch.linalg import as_matrix, hermitian_eig, principal_sqrt, require_hermitian

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


def test_eig_phase_convention_largest_entry_real_nonneg():
    rng = np.random.default_rng(7)
    for _ in range(40):
        d = rng.integers(1, 7)
        a = random_efficiency(rng, d)
        v = hermitian_eig(a).eigenvectors
        for j in range(d):
            pivot = v[np.argmax(np.abs(v[:, j])), j]
            assert abs(pivot.imag) < 1e-12
            assert pivot.real >= 0.0


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


def test_matrix_validation():
    with pytest.raises(ValueError):
        as_matrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(DimensionMismatch):
        require_hermitian(np.ones((2, 3)))
