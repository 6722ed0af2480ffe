import re

import numpy as np
import pytest

from qkd_mismatch import compute_filter, load_pair, mismatch_spectrum

# The two-time-bin demo pair with strong mismatch (ratios ~3.03 and ~0.356).
DEMO_E0 = np.array([[0.8, -0.2], [-0.2, 0.4]])
DEMO_E1 = np.array([[0.3, 0.1], [0.1, 0.9]])


@pytest.fixture(scope="session")
def demo_pair():
    return load_pair(DEMO_E0, DEMO_E1)


@pytest.fixture(scope="session")
def demo_spectrum(demo_pair):
    return mismatch_spectrum(demo_pair)


@pytest.fixture(scope="session")
def demo_filter(demo_pair, demo_spectrum):
    return compute_filter(demo_spectrum, demo_pair)


def random_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))[np.newaxis, :].conj()


def random_efficiency(rng, d, lo=0.1, hi=0.95):
    """Random full-rank Hermitian matrix with eigenvalues in [lo, hi]."""
    u = random_unitary(rng, d)
    w = rng.uniform(lo, hi, size=d)
    return (u * w[np.newaxis, :]) @ u.conj().T


def random_pair(rng, d, lo=0.1, hi=0.95):
    return load_pair(random_efficiency(rng, d, lo, hi), random_efficiency(rng, d, lo, hi))


def near_singular_pair(seed, d, eps):
    """Two real full-rank responses Q diag(w) Q^T, each with its own Q from the
    QR of a standard-normal matrix and w uniform in [0.05, 0.95] but for four
    eigenvalues set to `eps`. Both clear the rank cutoff, so nothing deflates."""
    rng = np.random.default_rng(seed)
    raws = []
    for _ in range(2):
        q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        w = rng.uniform(0.05, 0.95, d)
        w[:4] = eps
        raws.append((q * w) @ q.T)
    return raws


def count_eigensolves(monkeypatch):
    """The list every later `np.linalg.eigh` / `eigvalsh` / `svd` call appends its name to."""
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
    return calls


# A JSON number token, or a run of digits inside a string (compared as text).
_NUMBER = re.compile(r"-?\d[\d.eE+-]*")


def assert_differs_only_in_float_spelling(text, reference):
    """`text` equals `reference` outside its number tokens, and each token
    that differs names the same double (sign of zero included) as the one
    in its place: `1e-6` may stand for `1e-06`, never for another value."""
    assert _NUMBER.sub("#", text) == _NUMBER.sub("#", reference)
    for got, want in zip(_NUMBER.findall(text), _NUMBER.findall(reference)):
        assert got == want or float(got).hex() == float(want).hex(), (got, want)
