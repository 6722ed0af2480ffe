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
Lagrange dual is an extreme eigenvalue in at most two multipliers y:

  * minimum p_succ:  max_y lambda_min(W (CC - y1 A1 - y2 A2) W),  W = Zden^-1/2;
  * maximum e_p:     min_y lambda_max(V (EPnum + y1 A1 + y2 A2) V), V = CC^-1/2.

By weak duality the eigenvalue at *any* multipliers bounds every feasible
rho, so the value returned is that eigenvalue at the multipliers the search
ends on: `p_succ_opt` is a certified lower bound and `e_p_opt` a certified
upper bound, however accurate the search. The search is nested, and both
levels use slopes: g(y1) = min_y2 lambda_max(B + y1 A1 + y2 A2) is convex,
with subgradient Tr(R A1) for a state R on the top eigenspace at the inner
minimizer with Tr(R A2) = 0 (Overton, SIAM J. Matrix Anal. Appl. 1988; Lewis
and Overton, Acta Numerica 1996). Along a `sweep` grid each search starts
from the multipliers the previous grid point ended on. A zero target is handled exactly,
with no multiplier: e_b = 0 confines rho to span{e1, e4} x C^d and e_p' = 0
to span{e1, e2} x C^d, so at e_b = e_p' = 0 the bound is the closed-form
noiseless p_succ = lambda_min(2G, E0 + E1) and e_p = 0. The witness state is
read off the extreme eigenspace at the final multipliers.

Dropping the constraints leaves one generalized eigenvalue per bound, which
reproduces the analytic min_i min(D_i, 1/D_i) and max_i max(D_i, 1/D_i) of
the mismatch ratios.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
# SciPy loads a submodule the first time it is read as an attribute, so
# `scipy.linalg` loads on the first dual solve and commands that never solve
# do not pay for its import.
import scipy

from .detectors import DetectorPair, MismatchSpectrum
from .errors import (
    DimensionMismatch,
    DomainError,
    Infeasible,
    NonPositiveInput,
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
# The witness lives on the eigenvectors within TOP_CLUSTER_TOL * ||matrix|| of
# the top eigenvalue. The final multipliers carry the search's error delta,
# which turns the top eigenvector towards one a relative gap g below by about
# delta * ||direction|| / g, so an eigenvector left out at gap g costs the
# witness a constraint residual of about that size (crossing eigenvalues need
# not agree to rounding). An eigenvector kept costs the witness's statistic
# only its mixing weight (about the residual) times g. Since both searches end
# on slopes, witnesses on 38 random pairs up to d = 32 meet the rates within
# 8e-8.
TOP_CLUSTER_TOL = 1e-4
# The outer search's slope treats the eigenvalues within SLOPE_CLUSTER_TOL *
# ||matrix||_F of the top as one eigenspace. An avoided crossing wider than
# that is smooth, and its gradient comes from the top eigenvector alone;
# mixing in the one below gives a slope that disagrees with the values, and
# the search then stops above the minimum (by 2e-11 at 1e-9 on a d = 1 pair;
# 1e-4, the witness's tolerance, fails tier-1 tests). So it sits a few orders
# above rounding: a true crossing at an inner root found to 1e-14 still counts.
SLOPE_CLUSTER_TOL = 1e-11


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

# Attack symmetrization: sign flips of the Pauli coefficient axes that swap
# the bit-0/bit-1 roles in the z and x bases respectively, plus their product.
_SYMMETRY_GROUP = tuple(
    np.diag(np.array(signs, dtype=float))
    for signs in ((1, 1, 1, 1), (1, 1, -1, -1), (1, -1, -1, 1), (1, -1, 1, -1))
)


@dataclass(frozen=True)
class EveState:
    """Rank-r decomposition of the attack operator: rho = sum_k |v_k><v_k|."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=complex)
        if v.ndim != 2 or v.shape[0] < 1:
            raise DimensionMismatch("EveState.vectors must have shape (rank, 4d)")
        if not np.any(np.abs(v) > 0):
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


# Symmetrizing an operator over the group acts on its 4x4 factors alone:
# kron(g, I) kron(P, F) kron(g, I) = kron(g P g, F).
_COEFFICIENTS = {False: _operator_coefficients()}
_COEFFICIENTS[True] = sum(g @ _COEFFICIENTS[False] @ g for g in _SYMMETRY_GROUP) / len(_SYMMETRY_GROUP)


def _build_operators(pair: DetectorPair, filter_c: VirtualFilterC, symmetric: bool) -> np.ndarray:
    """The six operators as one read-only (6, 4d, 4d) array."""
    factors = np.stack([pair.e0.matrix, pair.e1.matrix, filter_c.gram])
    n = 4 * pair.dim
    stacked = np.einsum("kpab,pij->kaibj", _COEFFICIENTS[symmetric], factors).reshape(6, n, n)
    stacked.setflags(write=False)
    return stacked


def _state_forms(vectors: np.ndarray, ops: np.ndarray) -> np.ndarray:
    mv = np.einsum("kij,rj->kri", ops, vectors)
    return np.einsum("kri,ri->k", mv, vectors.conj()).real


def _stats_from_forms(forms: np.ndarray, norm2: float) -> RateStatistics:
    zden, ebn, xden, eppn, cc, epn = forms
    floor = DENOMINATOR_FLOOR * norm2
    if zden < floor or xden < floor or cc < floor:
        raise ZeroDenominator("attack state yields no conclusive events in some basis")

    def _ratio(num, den):
        value = num / den
        if not -VALIDITY_TOL <= value <= 1.0 + VALIDITY_TOL:
            raise NumericalFailure(f"rate {value!r} outside [0, 1] beyond rounding")
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
    ops = _build_operators(pair, filter_c, symmetric=False)
    forms = _state_forms(state.vectors, ops)
    norm2 = float(np.sum(np.abs(state.vectors) ** 2))
    return _stats_from_forms(forms, norm2)


def mismatch_ratio_bounds(spectrum: MismatchSpectrum) -> tuple[float, float]:
    """Analytic worst-case bounds (success-probability floor, phase-error
    amplification ceiling) from the min and max mode-wise efficiency ratios.

    The two are exact reciprocals.
    """
    d = spectrum.ratios
    idx = int(np.argmin(np.minimum(d, 1.0 / d)))
    lo = float(min(d[idx], 1.0 / d[idx]))
    hi = float(max(d[idx], 1.0 / d[idx]))
    return lo, hi


def _symmetrized_vectors(vectors: np.ndarray, d: int) -> np.ndarray:
    reps = [np.kron(g, np.eye(d)) for g in _SYMMETRY_GROUP]
    scale = 1.0 / math.sqrt(len(reps))
    return np.vstack([scale * (r @ vectors.T).T for r in reps])


def _witness_state(vectors: np.ndarray, pair: DetectorPair, symmetric: bool) -> EveState:
    if symmetric:
        return EveState(vectors=_symmetrized_vectors(vectors, pair.dim))
    return EveState(vectors=vectors)


def _validate_observed(observed_eb: float, observed_epp: float) -> None:
    for name, value in (("e_b", observed_eb), ("e_p'", observed_epp)):
        if not (0.0 <= value <= 0.5):
            raise DomainError(f"observed {name} must lie in [0, 0.5], got {value}")


def _face(observed_eb: float, observed_epp: float, d: int) -> np.ndarray:
    """Coordinates of the 4d space a state may occupy at the observed rates.

    EBnum and EPPnum are positive, so a zero target forces rho into their
    kernel: span{e1, e4} x C^d for e_b = 0, span{e1, e2} x C^d for e_p' = 0.
    """
    blocks = {0, 1, 2, 3}
    if observed_eb == 0.0:
        blocks -= {1, 2}
    if observed_epp == 0.0:
        blocks -= {2, 3}
    return np.concatenate([np.arange(b * d, (b + 1) * d) for b in sorted(blocks)])


def _top_eigenpair(m: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of the Hermitian `m` and a unit eigenvector for it.

    LAPACK's ?syevr/?heevr computes only the requested eigenpair (real
    arithmetic for a real `m`), which is all the dual search needs.
    """
    n = m.shape[0]
    evr = scipy.linalg.lapack.zheevr if m.dtype.kind == "c" else scipy.linalg.lapack.dsyevr
    w, z, found, _, info = evr(m, range="I", il=n, iu=n, lower=1)
    if info != 0:
        raise NumericalFailure(f"LAPACK eigensolver failed on a {n}x{n} matrix (info {info})")
    if found != 1:
        # LAPACK's bisection can report no eigenvalue when the top one is
        # nearly multiple (seen in e_p searches at d >= 6): decompose in full.
        w, z = np.linalg.eigh(m)
        return float(w[-1]), z[:, -1]
    return float(w[0]), z[:, 0]


def _top_eigen_slope(base: np.ndarray, direction: np.ndarray):
    """t -> (lambda_max(base + t direction), u^dag direction u), u a top
    eigenvector: the value and a subgradient, even where eigenvalues cross."""

    # SciPy's BLAS, like the eigensolver: NumPy may link a separate BLAS, and
    # alternating between the two libraries' thread pools made a complex
    # d = 16 solve about 12x slower with default threading.
    blas = scipy.linalg.blas
    hemv, dot = (blas.zhemv, blas.zdotc) if direction.dtype.kind == "c" else (blas.dsymv, blas.ddot)

    def fun(t):
        w, u = _top_eigenpair(base + t * direction)
        return w, dot(u, hemv(1.0, direction, u, lower=1)).real

    return fun


def _model_step(lo, lo_prev, hi, hi_prev) -> float:
    """Minimizer over [lo.t, hi.t] of the larger of two models of a convex
    function: each side's tangent, curved by the slope change from that
    side's previous point (None: straight)."""

    def curvature(p, prev):
        return 0.0 if prev is None else max((p[2] - prev[2]) / (p[0] - prev[0]), 0.0)

    (ta, fa, ga), (tb, fb, gb) = lo, hi
    ca, cb, w = curvature(lo, lo_prev), curvature(hi, hi_prev), tb - ta
    # In s = t - ta: the models cross where a s^2 + b s + c = 0.
    a, b, c = (ca - cb) / 2, ga - gb + cb * w, fa - fb + gb * w - cb * w * w / 2
    if a != 0.0:
        root = -(b + math.copysign(math.sqrt(max(b * b - 4 * a * c, 0.0)), b)) / 2
        candidates = [root / a, c / root] if root != 0.0 else [-b / (2 * a)]
    else:
        candidates = [-c / b] if b != 0.0 else []
    candidates += [-ga / ca] if ca > 0.0 else []
    candidates += [w - gb / cb] if cb > 0.0 else []

    def larger_model(s):
        return max(fa + ga * s + ca * s * s / 2, fb + gb * (s - w) + cb * (s - w) ** 2 / 2)

    inside = [s for s in candidates if 0.0 < s < w]
    return ta + min(inside, key=larger_model) if inside else math.nan


def _argmin_by_slope(fun, start: float = 0.0, step: float = 1.0) -> tuple[float, float]:
    """Minimizer t of a convex function on [-MULTIPLIER_CAP, MULTIPLIER_CAP],
    and its value; `fun(t)` returns (value, subgradient).

    The bracket grows geometrically downhill from `start`, a guess such as
    the previous root, until the slope changes sign. Inside it each step goes
    to the minimizer of the larger of two models, one per side: the tangent
    at the side's end, curved by the slope change since that side's previous
    point. This is exact where two straight branches cross, the usual case
    at an eigenvalue crossing, and superlinear where the function is smooth.
    The gap between the best value and the tangents' lower bound measures
    progress: a bisection follows whenever two steps fail to halve it (a
    bracket rule would bisect every third step while a smooth minimum is
    approached from one side). The search ends when the bracket is narrower
    than 1e-14 (relative) or the gap is gone (rounding makes it <= 0), so the
    value is the minimum to rounding even at a kink, where a search on values
    alone stops a square root of rounding away. Stopping at a gap of rounding
    size would leave a smooth minimum's slope at a square root of rounding
    (1e-8): the outer dual search reads its slope at the inner root, which
    such an error shifts at first order.
    """

    def probe(t):
        return (t, *fun(t))

    first = probe(start)
    if first[2] == 0.0:
        return first[:2]
    sign = -math.copysign(1.0, first[2])
    limit = MULTIPLIER_CAP - sign * start  # distance downhill to the cap
    near, near_prev, dist = first, None, min(step, limit)
    while (far := probe(start + sign * dist if dist < limit else sign * MULTIPLIER_CAP))[2] * first[2] > 0.0:
        if dist >= limit:
            return far[:2]
        near, near_prev, dist = far, near, min(2.0 * dist, limit)
    if far[2] == 0.0:
        return far[:2]
    # lo has a negative slope, hi a positive one; *_prev is the point before on that side.
    (lo, lo_prev), (hi, hi_prev) = ((near, near_prev), (far, None)) if sign > 0 else ((far, None), (near, near_prev))
    gaps = []
    while True:
        (ta, fa, ga), (tb, fb, gb) = lo, hi
        best = lo if fa <= fb else hi
        # By convexity both tangents lie below the function; they meet at its lowest possible value.
        gaps.append(best[1] - (fa + ga * (fb - fa + gb * (ta - tb)) / (ga - gb)))
        if tb - ta <= 1e-14 * max(1.0, abs(ta), abs(tb)) or gaps[-1] <= 0.0:
            return best[:2]
        t = _model_step(lo, lo_prev, hi, hi_prev)
        if not ta < t < tb or len(gaps) > 2 and gaps[-1] > gaps[-3] / 2:
            t = ta + (tb - ta) / 2
        p = probe(t)
        if p[2] == 0.0:
            return p[:2]
        if p[2] < 0.0:
            lo, lo_prev = p, lo
        else:
            hi, hi_prev = p, hi


def _constrained_slope(matrix: np.ndarray, value: float, first: np.ndarray, second: np.ndarray) -> float:
    """Tr(R first) for a state R on the top eigenspace of `matrix` (top
    eigenvalue `value`) with Tr(R second) = 0, or as near to it as that
    eigenspace allows: a subgradient of y1 -> min_y2 lambda_max(. + y1 first
    + y2 second) where y2 is the inner minimizer.

    The eigenspace is spanned by the eigenvectors within SLOPE_CLUSTER_TOL *
    ||matrix||_F of the top (LAPACK computes only those). A simple top
    eigenvalue gives u^dag first u; otherwise R mixes the bottom and top
    eigenvectors of `second` compressed onto the eigenspace.
    """
    width = SLOPE_CLUSTER_TOL * np.linalg.norm(matrix)
    evr = scipy.linalg.lapack.zheevr if matrix.dtype.kind == "c" else scipy.linalg.lapack.dsyevr
    w, z, found, _, info = evr(matrix, range="V", vl=value - width, vu=value + width, lower=1)
    if info != 0:
        raise NumericalFailure(f"LAPACK eigensolver failed on a {len(matrix)}x{len(matrix)} matrix (info {info})")
    if found == 0:  # LAPACK's bisection can miss a tight cluster, as in _top_eigenpair
        w, z = np.linalg.eigh(matrix)
        top = z[:, w >= w[-1] - width]
    else:
        top = z[:, :found]
    if top.shape[1] > 1:
        s, x = np.linalg.eigh(top.conj().T @ second @ top)
        span = s[-1] - s[0]
        weight = 1.0 if span == 0.0 else min(max(s[-1] / span, 0.0), 1.0)  # on the bottom vector
        top = top @ (x[:, [0, -1]] * np.sqrt([weight, 1.0 - weight]))
    return float(np.einsum("ik,ij,jk->", top.conj(), first, top).real)


def _minimize_top_eigenvalue(base: np.ndarray, directions: list, start=None) -> list:
    """Multipliers y (at most two) minimizing lambda_max(base + y . directions),
    searched from `start`, a pair (multipliers, first steps), or from 0 with
    first steps 1.

    The function is convex, and so is its partial minimum g(y1) over the last
    multiplier, so a search over y1 of the minimum over y2 reaches the joint
    minimum. Both searches are `_argmin_by_slope`: the outer one reads g's
    slope off the top eigenspace at the inner root (`_constrained_slope`),
    so it ends on its own bracket and tangent-gap rules and knows the inner
    root that belongs to its best y1; no search runs after it. Each inner
    search starts from the previous inner root, with a first step as long as
    the last move of that root (floored well above the search's tolerance,
    and kept when the root did not move), since successive roots move less
    and less. A sweep starts from the previous grid point's multipliers, with
    first steps as long as their move from the point before.
    """
    start, steps = start or ([0.0] * len(directions), [1.0] * len(directions))
    if len(directions) < 2:
        return [_argmin_by_slope(_top_eigen_slope(base, d), y, h)[0] for d, y, h in zip(directions, start, steps)]
    first, second = directions
    last, moved = start[1], steps[1]
    roots = {}

    def partial(t):
        nonlocal last, moved
        m = base + t * first
        root, value = _argmin_by_slope(_top_eigen_slope(m, second), last, moved)
        if root != last:
            last, moved = root, max(abs(root - last), 1e-12)
        roots[t] = root
        return value, _constrained_slope(m + root * second, value, first, second)

    t = _argmin_by_slope(partial, start[0], steps[0])[0]
    return [t, roots[t]]


def _nearest_mixture(points: list) -> tuple[list, complex]:
    """Weights (nonnegative, summing to 1) of the point of the convex hull of
    `points` (at most three complex numbers) nearest to 0, and that point.

    The nearest point is a vertex, the foot of 0 on an edge, or 0 itself
    inside the triangle.
    """
    n = len(points)
    mixtures = [[float(i == j) for j in range(n)] for i in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        edge = points[j] - points[i]
        if edge != 0:
            t = min(max(-(points[i].conjugate() * edge).real / abs(edge) ** 2, 0.0), 1.0)
            mixtures.append([1.0 - t if k == i else t if k == j else 0.0 for k in range(n)])
    if n == 3:
        a, b, c = points
        barycentric = [(u.conjugate() * v).imag for u, v in ((b, c), (c, a), (a, b))]
        area = sum(barycentric)
        if area != 0 and all(x / area >= 0.0 for x in barycentric):
            mixtures.append([x / area for x in barycentric])
    best = min(mixtures, key=lambda w: abs(sum(wi * z for wi, z in zip(w, points))))
    return best, sum(wi * z for wi, z in zip(best, points))


def _top_witness(matrix: np.ndarray, constraints: list) -> tuple[float, np.ndarray]:
    """Top eigenvalue of `matrix`, and rows v_k with rho = sum_k |v_k><v_k| on
    its top eigenspace and Tr(rho A) = 0 for each of the (at most two)
    constraints A, as nearly as that eigenspace allows.

    The top eigenspace U is spanned by every eigenvector whose eigenvalue is
    within TOP_CLUSTER_TOL * ||matrix|| of the top. A state R of trace 1 on it
    maps to the point z = Tr(R F1) + i Tr(R F2), F = U^dag A U, and these
    points fill a convex set whose extreme point in any direction comes from
    an extreme eigenvector of a combination of the F. Wolfe's method over such
    points finds the mixture of at most three of them nearest to 0, starting
    from the top eigenvector. At optimal multipliers 0 is in the set (it is
    the dual's optimality condition), so the state meets the constraints.
    """
    w, vecs = np.linalg.eigh(matrix)
    top = vecs[:, w >= w[-1] - TOP_CLUSTER_TOL * max(abs(w[0]), abs(w[-1]))][:, ::-1]
    f1, f2 = ([top.conj().T @ a @ top for a in constraints] + [np.zeros((top.shape[1],) * 2)] * 2)[:2]
    scale = max(np.abs(f1).max(), np.abs(f2).max())

    def point(x):
        return (x.conj() @ f1 @ x).real + 1j * (x.conj() @ f2 @ x).real

    atoms = [np.eye(top.shape[1], dtype=top.dtype)[0]]
    points, weights = [point(atoms[0])], [1.0]
    nearest = points[0]
    for _ in range(100):
        if abs(nearest) <= 1e-13 * scale:
            break
        # The point of the set furthest along -nearest: a bottom eigenvector.
        x = np.linalg.eigh(nearest.real * f1 + nearest.imag * f2)[1][:, 0]
        more_points = points + [point(x)]
        more_weights, more_nearest = _nearest_mixture(more_points)
        if abs(more_nearest) >= abs(nearest):
            break  # no point of the set is nearer to 0
        kept = [(a, z, wi) for a, z, wi in zip(atoms + [x], more_points, more_weights) if wi > 0.0]
        atoms, points, weights = (list(col) for col in zip(*kept))
        nearest = more_nearest
    return w[-1], np.sqrt(weights)[:, np.newaxis] * (top @ np.array(atoms).T).T


# Inside `_sweep_warm_starts`: per (kind, e_b > 0, e_p' > 0), the multipliers
# the last solve ended on and their move from the solve before (None after the
# first). A context, not a parameter, so that `cmd_sweep` keeps calling the
# public solvers with their public signatures.
_WARM_STARTS = contextvars.ContextVar("_WARM_STARTS", default=None)


@contextlib.contextmanager
def _sweep_warm_starts():
    """Within the block, each constrained solve starts its dual search from
    the multipliers the previous solve of the same kind ended on, with first
    steps as long as their move from the solve before; the first two solves
    start cold, since a first step with no move to size it can overshoot far
    (on the demo pair it cost more than a cold start). Neighbouring points of
    a sweep have nearby optima; the bound is certified wherever the search
    starts."""
    token = _WARM_STARTS.set({})
    try:
        yield
    finally:
        _WARM_STARTS.reset(token)


def _solve_constrained(
    pair: DetectorPair,
    filter_c: VirtualFilterC,
    observed_eb: float,
    observed_epp: float,
    symmetric: bool,
    kind: str,
) -> tuple[float, EveState]:
    _validate_observed(observed_eb, observed_epp)
    if not pair.full_rank:
        raise SingularDetector("bound optimization needs full-rank responses")
    ops = _build_operators(pair, filter_c, symmetric=symmetric)
    idx = _face(observed_eb, observed_epp, pair.dim)
    stacked = ops[:, idx[:, np.newaxis], idx]
    if not stacked.imag.any():
        stacked = stacked.real  # real pairs: real arithmetic throughout the search
    zden, ebn, xden, eppn, cc, epn = stacked
    constraints = []
    if observed_eb > 0.0:
        constraints.append(ebn - observed_eb * zden)
    if observed_epp > 0.0:
        constraints.append(eppn - observed_epp * xden)

    # Both bounds become min_y lambda_max(base + y.A) after whitening by the
    # Charnes-Cooper denominator (its inverse Cholesky factor serves as W or
    # V: any W with W norm W^dag = I gives the same eigenvalues); p_succ is
    # the negated value.
    sign, norm, objective = (-1.0, zden, -cc) if kind == "min_psucc" else (1.0, cc, epn)
    white = np.linalg.inv(np.linalg.cholesky(norm))
    base, *directions = [white @ m @ white.conj().T for m in [objective] + constraints]
    starts, key = _WARM_STARTS.get(), (kind, observed_eb > 0.0, observed_epp > 0.0)
    last, moves = (None, None) if starts is None else starts.get(key, (None, None))
    y = _minimize_top_eigenvalue(base, directions, None if moves is None else (last, moves))
    if starts is not None:
        starts[key] = (y, None if last is None else [max(abs(a - b), 1e-12) for a, b in zip(y, last)])
    top, local = _top_witness(base + sum(yi * d for yi, d in zip(y, directions)), directions)
    value = sign * top

    # Every state has p_succ <= 1 (I4 x G <= Zden) and e_p >= 0, so a dual
    # value beyond either certifies that no state meets the targets; within
    # rounding, and on the other side, clipping into [0, 1] keeps it a bound.
    infeasible = value > 1.0 + VALIDITY_TOL if kind == "min_psucc" else value < -VALIDITY_TOL
    if infeasible:
        raise Infeasible(f"dual value {value:.6g} certifies that no attack state meets the observed rates")
    vectors = np.zeros((local.shape[0], ops.shape[-1]), dtype=complex)
    vectors[:, idx] = local @ white.conj()
    return float(min(max(value, 0.0), 1.0)), _witness_state(vectors, pair, symmetric)


def minimize_filter_success(
    pair: DetectorPair,
    filter_c: VirtualFilterC,
    observed_eb: float,
    observed_epp: float,
    symmetric_attack: bool = False,
) -> tuple[float, EveState]:
    """Worst-case virtual-filtering success probability at the observed rates.

    Returns a certified lower bound on p_succ over attack states consistent
    with the observed bit and phase error rates (the dual value), plus a
    witness state from the dual's extreme eigenspace that attains it up to
    the search's accuracy. `symmetric_attack` restricts Eve to attacks
    symmetrized over the bit-relabelling group. The witness may be a mixed
    state (rank up to 3, times 4 when symmetrized).
    """
    return _solve_constrained(pair, filter_c, observed_eb, observed_epp, symmetric_attack, "min_psucc")


def maximize_phase_error(
    pair: DetectorPair,
    filter_c: VirtualFilterC,
    observed_eb: float,
    observed_epp: float,
    symmetric_attack: bool = False,
) -> tuple[float, EveState]:
    """Worst-case virtual phase error rate at the observed rates: a certified
    upper bound on e_p, plus a witness state, as in `minimize_filter_success`.
    """
    return _solve_constrained(pair, filter_c, observed_eb, observed_epp, symmetric_attack, "max_ep")


def optimize_unconstrained_bounds(pair: DetectorPair, filter_c: VirtualFilterC) -> tuple[float, float]:
    """Exact optima of the two bound objectives with no constraints.

    Returns (min p_succ, sup e_p / e_p') over attack states: the first is the
    generalized eigenvalue lambda_min(I4 x G, Zden); the second is
    1 / min_i lambda_min(G, E_i), approached by states that put vanishing
    weight on the x-error block, where e_p / e_p' factors into a ratio at most
    1 (G <= E_i) times Xden / CC. Cross-validates `mismatch_ratio_bounds`.
    """
    if not pair.full_rank:
        raise SingularDetector("bound optimization needs full-rank responses")
    zden, _, _, _, cc, _ = _build_operators(pair, filter_c, symmetric=False)
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
            raise NonPositiveInput(f"inputs must be finite positive reals, got {v!r}")
    fa1, fa2, fb1, fb2 = (Fraction(v) for v in values)
    premise = fa1 * fb2 >= fb1 * fa2
    conclusion = fa1 * (fa2 + fb2) >= (fa1 + fb1) * fa2
    return (not premise) or conclusion


def __getattr__(name):
    # `_scipy_minimize` is unused since the outer dual search reads slopes; the
    # benchmark's tracer still wraps it (its `adversary.lbfgs` counters). It is
    # resolved here, on request, so no command imports `scipy.optimize`. This
    # function goes when the benchmark drops that hook.
    if name == "_scipy_minimize":
        from scipy.optimize import minimize_scalar

        return minimize_scalar
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
