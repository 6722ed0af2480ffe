"""Collective-attack statistics and worst-case bound optimization.

A collective attack on the receiver is summarized by a positive operator
rho = sum_k |phi_k><phi_k| on a 4d-dimensional space: a 4-dimensional factor
carrying the Pauli coefficients of the per-qubit attack operation, tensored
with the d-dimensional auxiliary space the detectors respond to. Every
observable rate is a ratio of trace functionals of rho built from eight
constant 4x4 projectors and the detector/filter matrices:

    e_b     = Tr[rho (Z10 x E0 + Z01 x E1)] / Tr[rho (ZB0 x E0 + ZB1 x E1)]
    e_p'    = Tr[rho (Xmp x E0 + Xpm x E1)] / Tr[rho (XB0 x E0 + XB1 x E1)]
    e_p     = Tr[rho ((Xmp + Xpm) x G)]     / Tr[rho (I4 x G)]
    p_succ  = Tr[rho (I4 x G)]              / Tr[rho (ZB0 x E0 + ZB1 x E1)]

with G = C^dag C the virtual-filter Gram matrix, ZB0 = Z00 + Z10,
ZB1 = Z11 + Z01, XB0 = Xpp + Xmp, XB1 = Xmm + Xpm.

Worst-case rate certificates come from optimizing over rho. Each constrained
bound is a linear-fractional program in rho, so the Charnes-Cooper step (fix
the denominator's trace to 1) turns it into a semidefinite program with two
linear equalities A1 = EBnum - e_b Zden and A2 = EPPnum - e_p' Xden, whose
Lagrange dual is an extreme eigenvalue in two multipliers y:

  * minimum p_succ:  max_y lambda_min(W (CC - y1 A1 - y2 A2) W),  W = Zden^-1/2;
  * maximum e_p:     min_y lambda_max(V (EPnum + y1 A1 + y2 A2) V), V = CC^-1/2.

By weak duality the eigenvalue at *any* multipliers bounds every feasible
rho, so the value returned is that eigenvalue at the multipliers the search
ends on: `p_succ_opt` is a certified lower bound and `e_p_opt` a certified
upper bound, however accurate the search. The search is nested, and both
levels use slopes: g(y1) = min_y2 lambda_max(B + y1 A1 + y2 A2) is convex,
with subgradient Tr(R A1) for a state R on the top eigenspace at the inner
minimizer with Tr(R A2) = 0 (Overton, SIAM J. Matrix Anal. Appl. 1988; Lewis
and Overton, Acta Numerica 1996). R mixes the top eigenvectors at the two
ends of the inner search's final bracket, so the outer search runs no
eigensolve of its own. A solve depends only on its arguments; a sweep passes
one `starts` dict to all its solves, so from the third of a bound and face
on, each search starts where the previous one ended. A zero target is handled exactly:
e_b = 0 confines rho to span{e1, e4} x C^d and e_p' = 0 to span{e1, e2} x C^d,
on which that target's constraint is exactly the zero matrix, so its slope is
0 and its multiplier never moves. At e_b = e_p' = 0 the search is one
eigenpair, the closed-form noiseless p_succ = lambda_min(2G, E0 + E1) and
e_p = 0. The witness state is the search's own, mixed from the states at the
ends of its final brackets.

Dropping the constraints leaves one generalized eigenvalue per bound, which
reproduces the analytic min_i min(D_i, 1/D_i) and max_i max(D_i, 1/D_i) of
the mismatch ratios (`filtering.mismatch_ratio_bounds`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# SciPy loads a submodule the first time it is read as an attribute, so
# `scipy.linalg` loads on the first dual solve and commands that never solve
# do not pay for its import.
import scipy

from .detectors import DetectorPair
from .errors import (
    DimensionMismatch,
    DomainError,
    Infeasible,
    NumericalFailure,
    SingularDetector,
    ZeroDenominator,
)
from .filtering import VALIDITY_TOL, VirtualFilterC

DENOMINATOR_FLOOR = 1e-14
# Dual multipliers are searched in [-MULTIPLIER_CAP, MULTIPLIER_CAP]. A capped
# multiplier still gives a valid bound, possibly a loose one; a dual that keeps
# improving up to the cap is how infeasible targets show.
MULTIPLIER_CAP = 1e6


def _projector_half(v) -> np.ndarray:
    vec = np.asarray(v, dtype=float)
    m = np.outer(vec, vec) / 2.0
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class BasisConstants:
    """The eight rank-one 4x4 projectors entering the trace functionals.

    Each is P(v)/2 for its defining vector v; the four z-type matrices sum to
    the identity, as do the four x-type ones.
    """

    z00: np.ndarray
    z10: np.ndarray
    z01: np.ndarray
    z11: np.ndarray
    xpp: np.ndarray
    xmp: np.ndarray
    xpm: np.ndarray
    xmm: np.ndarray


BASIS = BasisConstants(
    z00=_projector_half([1, 0, 0, 1]),
    z10=_projector_half([0, 1, 1, 0]),
    z01=_projector_half([0, 1, -1, 0]),
    z11=_projector_half([1, 0, 0, -1]),
    xpp=_projector_half([1, 1, 0, 0]),
    xmp=_projector_half([0, 0, -1, 1]),
    xpm=_projector_half([0, 0, 1, 1]),
    xmm=_projector_half([1, -1, 0, 0]),
)

@dataclass(frozen=True)
class EveState:
    """Rank-r decomposition of the attack operator: rho = sum_k |v_k><v_k|."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=complex)
        if v.ndim != 2 or v.shape[0] < 1:
            raise DimensionMismatch("EveState.vectors must have shape (rank, 4d)")
        if not np.all(np.isfinite(v)):
            raise ValueError("EveState.vectors must be finite")
        if not np.any(v):
            raise ValueError("EveState needs at least one nonzero vector")
        object.__setattr__(self, "vectors", v)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def rank(self) -> int:
        return self.vectors.shape[0]

    @classmethod
    def from_vector(cls, v) -> "EveState":
        return cls(vectors=np.asarray(v, dtype=complex).reshape(1, -1))


@dataclass(frozen=True)
class RateStatistics:
    """The four observable/virtual rates evaluated on one attack state."""

    e_b: float
    e_p_prime: float
    e_p: float
    p_succ: float


def _operator_coefficients() -> np.ndarray:
    """The six operators as a (6, 3, 4, 4) table: operator k is
    sum_p kron(table[k, p], F_p) over the factors F = (E0, E1, G), in the
    order Zden, EBnum, Xden, EPPnum, CC, EPnum."""
    b, zero = BASIS, np.zeros((4, 4))
    return np.array([
        [b.z00 + b.z10, b.z11 + b.z01, zero],
        [b.z10, b.z01, zero],
        [b.xpp + b.xmp, b.xmm + b.xpm, zero],
        [b.xmp, b.xpm, zero],
        [zero, zero, np.eye(4)],
        [zero, zero, b.xmp + b.xpm],
    ])


_COEFFICIENTS = _operator_coefficients()


def _build_operators(pair: DetectorPair, filter_c: VirtualFilterC, face=(0, 1, 2, 3)) -> np.ndarray:
    """The six operators restricted to `face`, rows of the 4x4 factor (see
    `_face`), as one read-only (6, len(face) d, len(face) d) array."""
    factors = np.stack([pair.e0.matrix, pair.e1.matrix, filter_c.gram])
    n = len(face) * pair.dim
    coefficients = _COEFFICIENTS[:, :, face][..., face]
    stacked = np.einsum("kpab,pij->kaibj", coefficients, factors).reshape(6, n, n)
    stacked.setflags(write=False)
    return stacked


def _stats_from_forms(forms: np.ndarray, norm2: float) -> RateStatistics:
    zden, ebn, xden, eppn, cc, epn = forms
    floor = DENOMINATOR_FLOOR * norm2
    if zden < floor or xden < floor or cc < floor:
        raise ZeroDenominator("attack state yields no conclusive events in some basis")

    def _ratio(num, den):
        value = num / den
        if not -VALIDITY_TOL <= value <= 1.0 + VALIDITY_TOL:
            raise NumericalFailure(f"rate {float(value)!r} outside [0, 1] beyond rounding")
        return float(min(max(value, 0.0), 1.0))

    return RateStatistics(
        e_b=_ratio(ebn, zden),
        e_p_prime=_ratio(eppn, xden),
        e_p=_ratio(epn, cc),
        p_succ=_ratio(cc, zden),
    )


def evaluate_statistics(state: EveState, pair: DetectorPair, filter_c: VirtualFilterC) -> RateStatistics:
    """Rates of a collective-attack state against a detector pair and filter."""
    if not pair.full_rank:
        raise SingularDetector("statistics need full-rank responses")
    if state.dim != 4 * pair.dim:
        raise DimensionMismatch(f"state dimension {state.dim} != 4 * {pair.dim}")
    # Scaled by the power of two that brings its largest part into [1/2, 1),
    # the state has the same rates to the bit, and forms that cannot overflow.
    parts = np.stack([state.vectors.real, state.vectors.imag])
    parts = np.ldexp(parts, -np.frexp(np.abs(parts).max())[1])
    vectors = parts[0] + 1j * parts[1]
    mv = np.einsum("kij,rj->kri", _build_operators(pair, filter_c), vectors)
    forms = np.einsum("kri,ri->k", mv, vectors.conj()).real
    return _stats_from_forms(forms, float(np.sum(np.abs(vectors) ** 2)))


def _validate_observed(observed_eb: float, observed_epp: float) -> None:
    for name, value in (("e_b", observed_eb), ("e_p'", observed_epp)):
        if not (0.0 <= value <= 0.5):
            raise DomainError(f"observed {name} must lie in [0, 0.5], got {value}")


def _face(observed_eb: float, observed_epp: float) -> tuple:
    """Rows of the 4x4 factor a state may occupy at the observed rates.

    EBnum and EPPnum are positive, so a zero target forces rho into their
    kernel: span{e1, e4} x C^d for e_b = 0, span{e1, e2} x C^d for e_p' = 0.
    """
    dropped = ({1, 2} if observed_eb == 0.0 else set()) | ({2, 3} if observed_epp == 0.0 else set())
    return tuple(row for row in range(4) if row not in dropped)


def _top_eigenpair(m: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of the Hermitian `m` and a unit eigenvector for it.

    LAPACK's ?syevr/?heevr computes only the requested eigenpair (real
    arithmetic for a real `m`), which is all the dual search needs. Its
    arguments go by position, in the wrapper's order (a, compute_v, range,
    lower, vl, vu, il, iu): parsing keywords costs about 1 us a call.
    """
    n = m.shape[0]
    evr = scipy.linalg.lapack.zheevr if m.dtype.kind == "c" else scipy.linalg.lapack.dsyevr
    w, z, found, _, info = evr(m, 1, "I", 1, 0.0, 1.0, n, n)
    if info != 0:
        raise NumericalFailure(f"LAPACK eigensolver failed on a {n}x{n} matrix (info {info})")
    if found != 1:
        # LAPACK's bisection can report no eigenvalue when the top one is
        # nearly multiple (seen in e_p searches at d >= 6): decompose in full.
        w, z = np.linalg.eigh(m)
        return float(w[-1]), z[:, -1]
    return float(w[0]), z[:, 0]


def _hermitian_blas(m: np.ndarray):
    """SciPy's ?symv/?hemv and ?dot/?dotc for the dtype of `m`: with them,
    u^dag m u is dot(u, hemv(1.0, m, u, 0.0, None, 0, 1, 0, 1, 1)).real, the
    arguments by position (alpha, a, x, beta, y, offx, incx, offy, incy,
    lower) like the eigensolver's.

    SciPy's BLAS, like the eigensolver: NumPy may link a separate BLAS, and
    alternating between the two libraries' thread pools made a complex d = 16
    solve about 12x slower with default threading.
    """
    blas = scipy.linalg.blas
    return (blas.zhemv, blas.zdotc) if m.dtype.kind == "c" else (blas.dsymv, blas.ddot)


def _top_eigen_slope(base: np.ndarray, direction: np.ndarray):
    """t -> (lambda_max(base + t direction), u^dag direction u, u), u a unit
    top eigenvector: the value, a subgradient even where eigenvalues cross,
    and the state |u><u| that attains both."""
    hemv, dot = _hermitian_blas(direction)

    def fun(t):
        w, u = _top_eigenpair(base + t * direction)
        return w, dot(u, hemv(1.0, direction, u, 0.0, None, 0, 1, 0, 1, 1)).real, u

    return fun


def _model_step(lo, lo_prev, hi, hi_prev) -> float:
    """Minimizer over [lo.t, hi.t] of the larger of two models of a convex
    function: each side's tangent, curved by the slope change from that
    side's previous point (None: straight)."""
    ta, fa, ga = lo[0], lo[1], lo[2]
    tb, fb, gb = hi[0], hi[1], hi[2]
    ca = 0.0 if lo_prev is None else max((ga - lo_prev[2]) / (ta - lo_prev[0]), 0.0)
    cb = 0.0 if hi_prev is None else max((gb - hi_prev[2]) / (tb - hi_prev[0]), 0.0)
    w = tb - ta
    # In s = t - ta: the models cross where a s^2 + b s + c = 0.
    a, b, c = (ca - cb) / 2, ga - gb + cb * w, fa - fb + gb * w - cb * w * w / 2
    if a != 0.0:
        root = -(b + math.copysign(math.sqrt(max(b * b - 4 * a * c, 0.0)), b)) / 2
        candidates = (root / a, c / root) if root != 0.0 else (-b / (2 * a),)
    else:
        candidates = (-c / b,) if b != 0.0 else ()
    if ca > 0.0:
        candidates += (-ga / ca,)
    if cb > 0.0:
        candidates += (w - gb / cb,)
    # The first candidate inside the bracket with the lowest larger model.
    best, lowest = math.nan, None
    for s in candidates:
        if 0.0 < s < w:
            model = max(fa + ga * s + ca * s * s / 2, fb + gb * (s - w) + cb * (s - w) ** 2 / 2)
            if lowest is None or model < lowest:
                best, lowest = s, model
    return ta + best


def _argmin_by_slope(fun, start: float = 0.0, step: float = 1.0) -> tuple[float, float, tuple]:
    """Minimizer t of a convex function on [-MULTIPLIER_CAP, MULTIPLIER_CAP],
    its value, and the points the search ended on; `fun(t)` returns (value,
    subgradient, ...), and each point is (t, value, subgradient, ...). The
    points are the final bracket's ends (negative slope, positive slope), or
    one point with a zero slope or at the cap.

    The bracket grows geometrically downhill from `start`, a guess such as
    the previous root, until the slope changes sign. Inside it each step goes
    to the minimizer of the larger of two models, one per side: the tangent
    at the side's end, curved by the slope change since that side's previous
    point. This is exact where two straight branches cross, the usual case
    at an eigenvalue crossing, and superlinear where the function is smooth.
    The gap between the best value and the floor where the two tangents meet
    measures progress: a bisection follows whenever two steps fail to halve
    it (a bracket rule would bisect every third step while a smooth minimum
    is approached from one side). The search ends when the bracket is
    narrower than 1e-14 (relative) or the gap is an ulp of the values or
    less, so the value is the minimum to rounding even at a kink, where a
    search on values alone stops a square root of rounding away. When both
    ends lie at or below the floor, or their values tie, rounding orders
    them, and the end with the flatter slope is returned: it is the nearer
    to a smooth minimum, whose witness would otherwise miss the rates by the
    bracket's width times the curvature.
    """
    first = (start, *fun(start))
    g0 = first[2]
    if g0 == 0.0:
        return start, first[1], (first,)
    sign = -math.copysign(1.0, g0)
    limit = MULTIPLIER_CAP - sign * start  # distance downhill to the cap
    near, near_prev, dist = first, None, min(step, limit)
    while True:
        t = start + sign * dist if dist < limit else sign * MULTIPLIER_CAP
        far = (t, *fun(t))
        if not far[2] * g0 > 0.0:
            break
        if dist >= limit:
            return t, far[1], (far,)
        near, near_prev, dist = far, near, min(2.0 * dist, limit)
    if far[2] == 0.0:
        return t, far[1], (far,)
    # lo has a negative slope, hi a positive one; *_prev is the point before on that side.
    (lo, lo_prev), (hi, hi_prev) = ((near, near_prev), (far, None)) if sign > 0 else ((far, None), (near, near_prev))
    gap_1 = gap_2 = math.inf  # the gaps one and two steps back
    while True:
        ta, fa, ga = lo[0], lo[1], lo[2]
        tb, fb, gb = hi[0], hi[1], hi[2]
        # By convexity both tangents lie below the function; they meet at its lowest possible value.
        floor = fa + ga * (fb - fa + gb * (ta - tb)) / (ga - gb)
        gap = min(fa, fb) - floor
        if tb - ta <= 1e-14 * max(1.0, abs(ta), abs(tb)) or gap <= 2.2e-16 * max(abs(fa), abs(fb)):
            if max(fa, fb) <= floor or fa == fb:
                best = lo if -ga <= gb else hi
            else:
                best = lo if fa <= fb else hi
            return best[0], best[1], (lo, hi)
        t = _model_step(lo, lo_prev, hi, hi_prev)
        if not ta < t < tb or gap > gap_2 / 2:
            t = ta + (tb - ta) / 2
        gap_1, gap_2 = gap, gap_1
        p = (t, *fun(t))
        if p[2] == 0.0:
            return t, p[1], (p,)
        if p[2] < 0.0:
            lo, lo_prev = p, lo
        else:
            hi, hi_prev = p, hi


def _end_weights(ends) -> list:
    """Weights of the points a search ended on (see `_argmin_by_slope`): 1
    for one point; w = g_hi / (g_hi - g_lo) and 1 - w for a bracket's ends,
    whose slopes g_lo < 0 < g_hi then cancel."""
    if len(ends) == 1:
        return [1.0]
    w = ends[1][2] / (ends[1][2] - ends[0][2])
    return [w, 1.0 - w]


def _end_state(ends) -> np.ndarray:
    """Rows of the state R = sum_k |v_k><v_k| a search ended on: each end
    point's state (its fourth entry: a vector, or rows) weighted by
    `_end_weights`."""
    return np.vstack([math.sqrt(w) * p[3] for w, p in zip(_end_weights(ends), ends)])


def _partial_minimum(base: np.ndarray, first: np.ndarray, second: np.ndarray, start: float = 0.0, step: float = 1.0):
    """t -> (g(t), a subgradient of g at t, the inner search's end points,
    the inner minimizer) for the partial minimum g(t) = min_s lambda_max(base
    + t first + s second).

    `_end_state` of the end points is a state attaining both, formed only
    for the outer search's final ends. The inner search's final bracket has
    ends with inner slopes g_lo < 0 < g_hi and top eigenvectors u_lo, u_hi:
    with w = g_hi / (g_hi - g_lo), the state R = w u_lo u_lo^dag + (1 - w)
    u_hi u_hi^dag has Tr(R second) = 0, so Tr(R first) is a subgradient of g
    (Lewis and Overton 1996). An inner search that ends on one point gives
    R = u u^dag. No eigensolve runs beyond the inner search's. Each inner
    search starts from the previous inner root (first from `start`), with a
    first step as long as the last move of that root (floored well above the
    search's tolerance, and kept when the root did not move), since
    successive roots move less and less.
    """
    hemv, dot = _hermitian_blas(first)
    last, moved = start, step

    def fun(t):
        nonlocal last, moved
        root, value, ends = _argmin_by_slope(_top_eigen_slope(base + t * first, second), last, moved)
        if root != last:
            last, moved = root, max(abs(root - last), 1e-12)
        # The slope is w slope(u_lo) + (1 - w) slope(u_hi), not a sum over
        # R's rows: the outer end game is sensitive to its rounding.
        g = sum(w * dot(p[3], hemv(1.0, first, p[3], 0.0, None, 0, 1, 0, 1, 1)).real
                for w, p in zip(_end_weights(ends), ends))
        return value, g, ends, root

    return fun


def _solve_constrained(
    pair: DetectorPair,
    filter_c: VirtualFilterC,
    observed_eb: float,
    observed_epp: float,
    kind: str,
    starts: dict | None,
) -> tuple[float, EveState]:
    _validate_observed(observed_eb, observed_epp)
    if not pair.full_rank:
        raise SingularDetector("bound optimization needs full-rank responses")
    face = _face(observed_eb, observed_epp)
    zden, ebn, xden, eppn, cc, epn = _build_operators(pair, filter_c, face)

    # Both bounds become min_y lambda_max(base + y1 first + y2 second) after
    # whitening by the Charnes-Cooper denominator (its inverse Cholesky factor
    # serves as W or V: any W with W norm W^dag = I gives the same
    # eigenvalues); p_succ is the negated value. A zero target's constraint is
    # exactly zero on the face, so its slope is 0 at every probe and its
    # multiplier never moves from where the search starts.
    sign, norm, objective = (-1.0, zden, -cc) if kind == "min_psucc" else (1.0, cc, epn)
    white = np.linalg.inv(np.linalg.cholesky(norm))
    base, first, second = [white @ m @ white.conj().T
                           for m in (objective, ebn - observed_eb * zden, eppn - observed_epp * xden)]
    # Each entry of `starts`: the key's last multipliers and their move from
    # the solve before (None after the first). Keyed on the face as well as
    # the kind: keying on the kind alone raised the 3-step demo sweep from 364
    # to 387 top eigenpairs (and lowered the 20-step one from 2405 to 2251).
    key = (kind, observed_eb > 0.0, observed_epp > 0.0)
    last, moves = (None, None) if starts is None else starts.get(key, (None, None))
    (start1, start2), (step1, step2) = ((0.0, 0.0), (1.0, 1.0)) if moves is None else (last, moves)
    # The outer search's end points carry their inner searches' end points
    # and roots; only the final ends' states are mixed into the witness.
    t, top, ends = _argmin_by_slope(_partial_minimum(base, first, second, start2, step2), start1, step1)
    y = (t, next(p[4] for p in ends if p[0] == t))
    if starts is not None:
        starts[key] = (y, None if last is None else [max(abs(a - b), 1e-12) for a, b in zip(y, last)])
    value = sign * top

    # Every state has p_succ <= 1 (I4 x G <= Zden) and e_p >= 0, so a dual
    # value beyond either certifies that no state meets the targets; within
    # rounding, and on the other side, clipping into [0, 1] keeps it a bound.
    infeasible = value > 1.0 + VALIDITY_TOL if kind == "min_psucc" else value < -VALIDITY_TOL
    if infeasible:
        raise Infeasible(f"dual value {value:.6g} certifies that no attack state meets the observed rates")
    local = _end_state([(*p[:3], _end_state(p[3])) for p in ends]) @ white.conj()
    vectors = np.zeros((local.shape[0], 4, pair.dim), dtype=complex)
    vectors[:, face] = local.reshape(-1, len(face), pair.dim)
    return float(min(max(value, 0.0), 1.0)), EveState(vectors=vectors.reshape(local.shape[0], -1))


def minimize_filter_success(
    pair: DetectorPair,
    filter_c: VirtualFilterC,
    observed_eb: float,
    observed_epp: float,
    starts: dict | None = None,
) -> tuple[float, EveState]:
    """Worst-case virtual-filtering success probability at the observed rates.

    Returns a certified lower bound on p_succ over attack states consistent
    with the observed bit and phase error rates (the dual value), plus the
    witness state the dual search ended on: it meets the observed rates to
    rounding, and its p_succ lies within the search's tangent gap of the
    bound. The witness may be a mixed state (up to 4 rows).

    `starts`, one dict (empty at first) passed to every solve of a sweep,
    starts each dual search from the multipliers the previous solve of the
    same bound and face (which targets are zero) ended on, with first steps
    as long as their move from the solve before; the first two of each start
    cold, as every solve does without it. This halves a 20-step sweep's
    eigensolves; the bound may move in its last digits, and stays certified.
    """
    return _solve_constrained(pair, filter_c, observed_eb, observed_epp, "min_psucc", starts)


def maximize_phase_error(
    pair: DetectorPair,
    filter_c: VirtualFilterC,
    observed_eb: float,
    observed_epp: float,
    starts: dict | None = None,
) -> tuple[float, EveState]:
    """Worst-case virtual phase error rate at the observed rates: a certified
    upper bound on e_p, plus a witness state, as in `minimize_filter_success`,
    which describes `starts`.
    """
    return _solve_constrained(pair, filter_c, observed_eb, observed_epp, "max_ep", starts)


def __getattr__(name):
    # `_scipy_minimize` is unused since the outer dual search reads slopes; the
    # benchmark's tracer still wraps it (its `adversary.lbfgs` counters). It is
    # resolved here, on request, so no command imports `scipy.optimize`. This
    # function goes when the benchmark drops that hook.
    if name == "_scipy_minimize":
        from scipy.optimize import minimize_scalar

        return minimize_scalar
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
