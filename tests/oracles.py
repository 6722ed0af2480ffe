"""Reference oracles the tests check the package against.

None of these is on a CLI path or in the library pipeline; each one reaches
a closed form of the package by an independent route:

* `noiseless_rate_bruteforce` verifies the noiseless rate
  R = 2 / (1 + max_i max(D_i, 1/D_i)) by directly minimizing the
  success-probability Rayleigh quotient 2 <g|C^dag C|g> / <g|(E0 + E1)|g>
  over pure states |g>;
* `optimize_unconstrained_bounds` solves the two bound objectives with no
  constraints as generalized eigenvalue problems, to cross-validate
  `mismatch_ratio_bounds`;
* `mediant_check` evaluates the mediant implication in exact rational
  arithmetic;
* `feasible_state` builds the explicit attack state that meets any observed
  (e_b, e_p') (the feasibility fact in `qkd_mismatch.adversary`), against
  which every optimized bound is checked by weak duality.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import scipy.linalg

from qkd_mismatch import DetectorPair, EveState, VirtualFilterC
from qkd_mismatch.adversary import _build_operators
from qkd_mismatch.errors import DomainError, SingularDetector


def _line_search_ratio(num_coeffs, den_coeffs) -> float:
    """Argmin over real t of (a2 t^2 + a1 t + a0) / (b2 t^2 + b1 t + b0)."""
    a2, a1, a0 = num_coeffs
    b2, b1, b0 = den_coeffs
    c2 = a2 * b1 - a1 * b2
    c1 = 2.0 * (a2 * b0 - a0 * b2)
    c0 = a1 * b0 - a0 * b1
    candidates = [0.0]
    if abs(c2) > 0.0:
        disc = c1 * c1 - 4.0 * c2 * c0
        if disc >= 0.0:
            root = math.sqrt(disc)
            candidates.extend([(-c1 + root) / (2.0 * c2), (-c1 - root) / (2.0 * c2)])
    elif abs(c1) > 0.0:
        candidates.append(-c0 / c1)
    best_t, best_val = 0.0, a0 / b0
    for t in candidates:
        if not math.isfinite(t):
            continue
        den = (b2 * t + b1) * t + b0
        if den <= 0.0:
            continue
        val = ((a2 * t + a1) * t + a0) / den
        if val < best_val:
            best_t, best_val = t, val
    return best_t


def _coordinate_descent(gamma: np.ndarray, a: np.ndarray, b: np.ndarray, sweeps: int = 60) -> float:
    """Exact 1-D line searches along the real/imag coordinate directions."""
    d = gamma.shape[0]
    ag = a @ gamma
    bg = b @ gamma
    num = float(np.real(gamma.conj() @ ag))
    den = float(np.real(gamma.conj() @ bg))
    directions = [np.eye(d, dtype=complex)[:, j] * p for j in range(d) for p in (1.0, 1j)]
    dir_a = [float(np.real(u.conj() @ (a @ u))) for u in directions]
    dir_b = [float(np.real(u.conj() @ (b @ u))) for u in directions]
    for _ in range(sweeps):
        before = num / den
        for k, u in enumerate(directions):
            a1 = 2.0 * float(np.real(u.conj() @ ag))
            b1 = 2.0 * float(np.real(u.conj() @ bg))
            t = _line_search_ratio((dir_a[k], a1, num), (dir_b[k], b1, den))
            if t != 0.0:
                gamma = gamma + t * u
                ag = ag + t * (a @ u)
                bg = bg + t * (b @ u)
                num = float(np.real(gamma.conj() @ ag))
                den = float(np.real(gamma.conj() @ bg))
        after = num / den
        if before - after <= 1e-13 * max(1.0, abs(before)):
            break
    return num / den


def noiseless_rate_bruteforce(
    pair: DetectorPair,
    filter_c: VirtualFilterC,
    samples: int = 1000,
    seed: int = 0,
    refine_top: int = 24,
) -> float:
    """Independent check of the closed-form rate by direct minimization.

    Samples `samples` uniform pure states, evaluates the success-probability
    quotient on each, then runs coordinate-wise exact line-search descent from
    the best candidates. Returns the smallest quotient found.
    """
    if samples < 1000:
        raise DomainError("brute-force oracle needs at least 1000 samples")
    if not pair.full_rank:
        raise SingularDetector("brute-force oracle needs full-rank responses")
    d = pair.dim
    a = 2.0 * filter_c.gram
    b = pair.e0.matrix + pair.e1.matrix
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((samples, d)) + 1j * rng.standard_normal((samples, d))
    nums = np.real(np.einsum("sd,de,se->s", states.conj(), a, states))
    dens = np.real(np.einsum("sd,de,se->s", states.conj(), b, states))
    quotients = nums / dens
    best = float(quotients.min())
    for idx in np.argsort(quotients)[: min(refine_top, samples)]:
        best = min(best, _coordinate_descent(states[idx], a, b))
    return best


def optimize_unconstrained_bounds(pair: DetectorPair, filter_c: VirtualFilterC) -> tuple[float, float]:
    """Exact optima of the two bound objectives with no constraints.

    Returns (min p_succ, sup e_p / e_p') over attack states: the first is the
    generalized eigenvalue lambda_min(I4 x G, Zden); the second is
    1 / min_i lambda_min(G, E_i), approached by states that put vanishing
    weight on the x-error block, where e_p / e_p' factors into a ratio at most
    1 (G <= E_i) times Xden / CC.
    """
    if not pair.full_rank:
        raise SingularDetector("bound optimization needs full-rank responses")
    zden, _, _, _, cc, _ = _build_operators(pair, filter_c)
    p_min = scipy.linalg.eigh(cc, zden, eigvals_only=True)[0]
    floor = min(
        scipy.linalg.eigh(filter_c.gram, e.matrix, eigvals_only=True)[0] for e in (pair.e0, pair.e1)
    )
    return float(p_min), float(1.0 / floor)


def mediant_check(a1, a2, b1, b2) -> bool:
    """Check (a1/a2 >= b1/b2) implies (a1/a2 >= (a1+b1)/(a2+b2)), exactly.

    Evaluated in rational arithmetic so floating-point rounding cannot
    produce a spurious counterexample; holds for all positive inputs.
    """
    values = (a1, a2, b1, b2)
    for v in values:
        if not (isinstance(v, (int, float, Fraction)) and math.isfinite(float(v)) and v > 0):
            raise ValueError(f"inputs must be finite positive reals, got {v!r}")
    fa1, fa2, fb1, fb2 = (Fraction(v) for v in values)
    premise = fa1 * fb2 >= fb1 * fa2
    conclusion = fa1 * (fa2 + fb2) >= (fa1 + fb1) * fa2
    return (not premise) or conclusion


def feasible_state(v, observed_eb: float, observed_epp: float) -> EveState:
    """The state with rows sqrt(w_k) e_k x v, one for each w_k > 0, where
    w = ((1-e_b)(1-e_p'), e_b (1-e_p'), e_b e_p', (1-e_b) e_p') and e_k are
    the unit vectors of the 4x4 factor.

    On every full-rank pair it meets (e_b, e_p') exactly, with e_p = e_p' and
    p_succ = 2 v^dag G v / v^dag (E0 + E1) v: the four states e_k x v share
    their Z and X denominators and sit at the corners (0, 0), (1, 0), (1, 1)
    and (0, 1) of the (e_b, e_p') square.
    """
    eb, epp = observed_eb, observed_epp
    weights = ((1 - eb) * (1 - epp), eb * (1 - epp), eb * epp, (1 - eb) * epp)
    v = np.asarray(v, dtype=complex)
    return EveState(vectors=np.array([np.kron(np.eye(4)[k], math.sqrt(w) * v)
                                      for k, w in enumerate(weights) if w > 0.0]))
