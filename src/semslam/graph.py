"""Nonlinear factor graph over SE(3) poses and point landmarks.

Levenberg-Marquardt on a minimal parameterization (global translation plus
right-multiplied rotation-vector increments), with Cauchy IRLS weights on
robust factors. Each `optimize` call stacks the factors once, in two
stacks: the pose-pose factors and the pose-landmark factors. A prior on pose
j is an edge to j from a fixed origin (t = 0, R = I), as g2o treats a prior,
so it heads the pose-pose stack and the odometry and loop-closure factors
follow it. An iteration linearises each stack in one batched numpy pass and
scatters the blocks, in one bincount, into the three parts of the normal
equations: the dense pose block, the 3x3 landmark blocks and the
pose-landmark blocks. The landmarks are eliminated by Schur complement, so
each step solves a dense system over the poses only and back-substitutes
the landmarks. The rotation maths is `geometry`'s, with the factors as the
stack axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .core import ContractViolation, PoseTable
from .geometry import Pose, hat, log_so3, norms, quat_from_rotvec, quat_mul, quat_normalize, quat_to_rot


def cauchy_weight(residual_norm, c):
    """IRLS weight of the Cauchy m-estimator (scalars or arrays)."""
    if np.any(np.asarray(c) <= 0):
        raise ContractViolation("cauchy scale must be positive")
    r = residual_norm / c
    return 1.0 / (1.0 + r * r)


def cauchy_cost(residual_norm, c):
    r = residual_norm / c
    return 0.5 * c * c * np.log1p(r * r)


class StructuralError(RuntimeError):
    """The graph has not exactly one prior, a factor references a missing
    pose or landmark, or a pose or landmark has no factor. Connectivity is
    not checked: the pipeline's odometry chain connects every pose."""


_EYE3 = np.eye(3)


def _left_jacobian_inv(phi: np.ndarray) -> np.ndarray:
    """Inverse left Jacobians of SO(3), one per row of phi. The inverse right
    Jacobian at phi is this at -phi, which is this transposed entry for
    entry: the same products, summed in the same order."""
    angle = norms(phi)
    K = hat(phi)
    big = angle >= 1e-6
    coef = np.full(len(phi), 1.0 / 12.0)
    half = 0.5 * angle[big]
    cot = half / np.tan(half)
    coef[big] = (1.0 - cot) / (angle[big] * angle[big])
    return _EYE3 - 0.5 * K + coef[:, None, None] * (K @ K)


# -- factor residuals and Jacobians, one row per factor ------------------------
#
# Each takes the stacked variables of its factors (t, R per pose; the point
# per landmark), then the stacked measurements, and returns the residuals and
# the Jacobians: one block of columns per variable (6 per pose, 3 per
# landmark), side by side in one stack.


def _relative_terms(ti, Ri, tj, Rj, t_m, R_m):
    RiT = Ri.transpose(0, 2, 1)
    v = (RiT @ (tj - ti)[:, :, None])[:, :, 0]
    E = R_m.transpose(0, 2, 1)
    phi = log_so3(E @ RiT @ Rj)
    r = np.concatenate([v - t_m, phi], axis=1)
    Jl_inv = _left_jacobian_inv(phi)
    J = np.zeros((len(r), 6, 12))  # pose i, then pose j
    J[:, :3, :3] = -RiT
    J[:, :3, 3:6] = hat(v)
    J[:, :3, 6:9] = RiT
    J[:, 3:, 3:6] = -Jl_inv @ E
    J[:, 3:, 9:] = Jl_inv.transpose(0, 2, 1)  # the inverse right Jacobian
    return r, J


def _landmark_terms(t, R, l, z):
    RT = R.transpose(0, 2, 1)
    v = (RT @ (l - t)[:, :, None])[:, :, 0]
    r = v - z
    J = np.empty((len(r), 3, 9))  # pose, then landmark
    J[:, :, :3] = -RT
    J[:, :, 3:6] = hat(v)
    J[:, :, 6:] = RT
    return r, J


@dataclass(frozen=True, eq=False)
class PriorFactor:
    """An edge to pose_id from the fixed origin: a relative factor whose
    first pose is t = 0, R = I and has no Jacobian."""

    pose_id: int
    prior: Pose
    information: np.ndarray  # 6x6
    robust_c: Optional[float] = None


@dataclass(frozen=True, eq=False)
class RelativePoseFactor:
    """Odometry or loop-closure constraint: measured T_i^{-1} T_j."""

    pose_i: int
    pose_j: int
    measured: Pose
    information: np.ndarray  # 6x6
    robust_c: Optional[float] = None


@dataclass(frozen=True, eq=False)
class LandmarkFactor:
    """Pose-to-point constraint: landmark observed in the body frame."""

    pose_id: int
    landmark_id: int
    measured: np.ndarray  # 3-vector, body frame
    information: np.ndarray  # 3x3
    robust_c: Optional[float] = None


Factor = PriorFactor | RelativePoseFactor | LandmarkFactor


@dataclass
class GraphState:
    """The graph's variables and factors. A pose id is a row of `poses`."""

    poses: PoseTable = field(default_factory=lambda: PoseTable.of([]))
    landmarks: Dict[int, np.ndarray] = field(default_factory=dict)
    factors: List[Factor] = field(default_factory=list)


@dataclass
class OptimizeResult:
    state: GraphState
    cost: float
    iterations: int
    converged: bool
    initial_cost: float
    # LM trial steps that did not lower the cost, plus singular-system retries
    rejected_steps: int


# -- stacked problem ----------------------------------------------------------


def _segment_index(rows: np.ndarray, d: int) -> np.ndarray:
    """Flat indices of the length-d segments at `rows`, segment by segment."""
    return (d * rows[:, None] + np.arange(d)).ravel()


def _block_index(rows: np.ndarray, cols: np.ndarray, dr: int, dc: int, width: int) -> np.ndarray:
    """Flat indices of the dr x dc blocks at block rows/cols into a matrix
    `width` wide, ordered block by block, then row-major within a block."""
    r = dr * rows[:, None, None] + np.arange(dr)[None, :, None]
    c = dc * cols[:, None, None] + np.arange(dc)[None, None, :]
    return (r * width + c).ravel()


def _gram(J: np.ndarray) -> np.ndarray:
    """J^T J per row: every normal-equation block of a factor in one product,
    each block with the bits of its own J_a^T J_b (OpenBLAS sums every entry
    over the residual rows in the same order). numpy sends A.T @ A to BLAS
    syrk, 3-4x slower than gemm at these sizes; a copy of one side takes gemm."""
    return J.transpose(0, 2, 1) @ J.copy()


class _Stack:
    """Factors that share one residual function, stacked, with their upper
    information factors and Cauchy scales."""

    def __init__(self, factors: Sequence[Factor], dim: int):
        # upper factor W of each information matrix: W^T W = information
        info = np.array([f.information for f in factors], dtype=float).reshape(-1, dim, dim)
        self.W = np.linalg.cholesky(info).transpose(0, 2, 1)
        self.robust = np.array([f.robust_c is not None for f in factors], dtype=bool)
        # the Cauchy scales of the robust rows only
        self.c = np.array([f.robust_c for f in factors if f.robust_c is not None], dtype=float)
        if np.any(self.c <= 0):
            raise ContractViolation("cauchy scale must be positive")

    def linearize(self, r, J):
        """From the residuals and Jacobians of `terms`: per-factor costs, then
        each factor's IRLS-weighted whitened J^T J and its gradient, split at
        column 6 into the first variable's (a pose) and the other's."""
        rw = (self.W @ r[:, :, None])[:, :, 0]
        norm = norms(rw)
        J = self.W @ J
        cost = 0.5 * norm * norm
        w = np.ones(len(r))
        m = self.robust
        if m.any():
            cost[m] = cauchy_cost(norm[m], self.c)
            w[m] = cauchy_weight(norm[m], self.c)
        JT, rw = J.transpose(0, 2, 1), rw[:, :, None]
        return cost, *(w[:, None, None] * blk for blk in (_gram(J), JT[:, :6] @ rw, JT[:, 6:] @ rw))


class _EdgeStack(_Stack):
    """The pose-pose factors: the priors first, each an edge from the fixed
    origin, then the relative factors in graph order."""

    def __init__(self, priors, relatives):
        self.n0 = len(priors)
        super().__init__(priors + relatives, 6)
        # a prior's first pose is the origin, set in `terms`; 0 only holds its place
        self.i = np.array([0] * self.n0 + [f.pose_i for f in relatives], dtype=np.intp)
        self.j = np.array([f.pose_id for f in priors] + [f.pose_j for f in relatives], dtype=np.intp)
        meas = [f.prior for f in priors] + [f.measured for f in relatives]
        self.t_m = np.array([m.translation for m in meas], dtype=float).reshape(-1, 3)
        self.R_m = quat_to_rot(np.array([m.rotation for m in meas], dtype=float).reshape(-1, 4))

    def terms(self, t, R):
        ti, Ri = t[self.i], R[self.i]
        ti[: self.n0] = 0.0
        Ri[: self.n0] = _EYE3
        return _relative_terms(ti, Ri, t[self.j], R[self.j], self.t_m, self.R_m)


class _LandmarkStack(_Stack):
    """The pose-landmark factors in graph order."""

    def __init__(self, factors, landmark_index: Dict[int, int]):
        super().__init__(factors, 3)
        self.p = np.array([f.pose_id for f in factors], dtype=np.intp)
        self.ids = [f.landmark_id for f in factors]
        self.l = np.array([landmark_index.get(lid, -1) for lid in self.ids], dtype=np.intp)  # -1: missing
        self.z = np.array([f.measured for f in factors], dtype=float).reshape(-1, 3)

    def terms(self, t, R, L):
        return _landmark_terms(t[self.p], R[self.p], L[self.l], self.z)


@dataclass
class _Linearization:
    cost: float
    b: np.ndarray  # gradient: 6 per pose, then 3 per landmark
    Hpp: np.ndarray  # (6P, 6P)
    Hll: np.ndarray  # (M, 3, 3)
    Hpl: np.ndarray  # (K, 6, 3), one block per observed (pose, landmark) pair


class _Problem:
    """A graph's two factor stacks, with the scatter indices of their blocks
    in the normal equations. Variables are ordered by id."""

    def __init__(self, g: GraphState):
        self.landmark_ids = sorted(g.landmarks)
        M = len(self.landmark_ids)
        n6 = self.n6 = 6 * len(g.poses)
        by_type = {PriorFactor: [], RelativePoseFactor: [], LandmarkFactor: []}
        for f in g.factors:
            by_type[type(f)].append(f)
        self.edges = e = _EdgeStack(by_type[PriorFactor], by_type[RelativePoseFactor])
        self.marks = _LandmarkStack(by_type[LandmarkFactor], {lid: k for k, lid in enumerate(self.landmark_ids)})
        self.t0, self.q0 = g.poses.translations, g.poses.rotations
        self.L0 = np.array([g.landmarks[l] for l in self.landmark_ids], dtype=float).reshape(M, 3)

        # pose-landmark blocks: one per observed (pose, landmark) pair
        p, l = self.marks.p, self.marks.l
        keys, pair_of = np.unique(p * M + l, return_inverse=True)
        self.pair_p, self.pair_l = keys // max(M, 1), keys % max(M, 1)
        # one output holds Hpp, then b, then Hll, then Hpl
        o_b = n6 * n6
        self._o_ll = o_ll = o_b + n6 + 3 * M
        self._o_pl = o_pl = o_ll + 9 * M
        self._size = o_pl + 18 * len(keys)
        # scatter indices, in the order `linearize` emits the values
        n0, i, j = e.n0, e.i[e.n0 :], e.j[e.n0 :]
        pp = lambda rows, cols: _block_index(rows, cols, 6, 6, n6)
        idx = [o_b + _segment_index(e.j[:n0], 6), pp(e.j[:n0], e.j[:n0])]
        idx += [o_b + _segment_index(i, 6), o_b + _segment_index(j, 6), pp(i, i), pp(i, j), pp(j, i), pp(j, j)]
        idx += [o_b + _segment_index(p, 6), o_b + n6 + _segment_index(l, 3), pp(p, p)]
        idx += [o_pl + _segment_index(pair_of, 18), o_ll + _segment_index(l, 9)]
        self._idx = np.concatenate(idx)

        # Schur fill: every two pairs that share a landmark couple their poses
        self._qa, self._qb = np.nonzero(self.pair_l[:, None] == self.pair_l[None, :])
        self._schur = _block_index(self.pair_p[self._qa], self.pair_p[self._qb], 6, 6, n6)
        self._pair_grad_p = _segment_index(self.pair_p, 6)
        self._pair_grad_l = _segment_index(self.pair_l, 3)

    def check(self):
        """Raise StructuralError unless the graph has exactly one prior, every
        pose and landmark that a factor references exists, and every pose and
        landmark has a factor."""
        e, k, P = self.edges, self.marks, self.n6 // 6
        if e.n0 != 1:
            raise StructuralError(f"expected exactly one prior factor, found {e.n0}")
        # the prior's pose, each relative factor's two, then the landmark factors'
        poses = np.concatenate([e.j[:1], np.column_stack([e.i, e.j])[1:].ravel(), k.p])
        bad = (poses < 0) | (poses >= P)
        if bad.any():
            at = int(bad.argmax())
            raise StructuralError(f"factor references missing pose {poses[at]}" if at else "prior references a missing pose")
        if (k.l < 0).any():
            raise StructuralError(f"factor references missing landmark {k.ids[int((k.l < 0).argmax())]}")
        for kind, refs, ids in (("pose", poses, range(P)), ("landmark", k.l, self.landmark_ids)):
            seen = np.bincount(refs, minlength=len(ids))
            if not seen.all():
                raise StructuralError(f"{kind} {ids[int(seen.argmin())]} has no factor")

    def linearize(self, t, q, L) -> _Linearization:
        R = quat_to_rot(q)
        e, n0 = self.edges, self.edges.n0
        c, H, gi, gj = e.linearize(*e.terms(t, R))
        # the priors' terms come first in every sum, as they head the factor list
        cost = np.sum(c[:n0]) + np.sum(c[n0:])
        Hii, Hij, Hji, Hjj = H[:, :6, :6], H[:, :6, 6:], H[:, 6:, :6], H[:, 6:, 6:]
        # a prior has no first pose: only its pose-j terms enter
        parts = [gj[:n0], Hjj[:n0], gi[n0:], gj[n0:], Hii[n0:], Hij[n0:], Hji[n0:], Hjj[n0:]]
        c, H, gp, gl = self.marks.linearize(*self.marks.terms(t, R, L))
        cost += np.sum(c)
        parts += [gp, gl, H[:, :6, :6], H[:, :6, 6:], H[:, 6:, 6:]]
        out = np.bincount(self._idx, np.concatenate(parts, axis=None), minlength=self._size)
        o_b, o_ll, o_pl = self.n6 * self.n6, self._o_ll, self._o_pl
        return _Linearization(
            float(cost),
            out[o_b:o_ll],
            out[:o_b].reshape(self.n6, self.n6),
            out[o_ll:o_pl].reshape(-1, 3, 3),
            out[o_pl:].reshape(-1, 6, 3),
        )

    def solve(self, lin: _Linearization, lam: float):
        """The LM step for damping `lam`: pose increments (P, 6) and
        landmark increments (M, 3), from the Schur complement S of the
        damped landmark blocks. Raises LinAlgError if singular."""
        Dinv = np.linalg.inv(lin.Hll + lam * _EYE3)
        Y = lin.Hpl @ Dinv[self.pair_l]  # Hpl D^-1 per pair
        S = lin.Hpp.copy()
        S.reshape(-1)[:: self.n6 + 1] += lam
        fill = Y[self._qa] @ lin.Hpl[self._qb].transpose(0, 2, 1)
        np.subtract.at(S.reshape(-1), self._schur, fill.reshape(-1))
        bp, bl = lin.b[: self.n6], lin.b[self.n6 :]
        g = bp.copy()
        np.subtract.at(g, self._pair_grad_p, (Y @ bl.reshape(-1, 3)[self.pair_l][:, :, None]).reshape(-1))
        dp = np.linalg.solve(S, -g).reshape(-1, 6)
        rhs = -bl
        np.subtract.at(rhs, self._pair_grad_l, (lin.Hpl.transpose(0, 2, 1) @ dp[self.pair_p][:, :, None]).reshape(-1))
        dl = (Dinv @ rhs.reshape(-1, 3)[:, :, None])[:, :, 0]
        return dp, dl

    def state(self, g: GraphState, t, q, L) -> GraphState:
        lk = {lid: k for k, lid in enumerate(self.landmark_ids)}
        return GraphState(PoseTable(t, q), {lid: L[lk[lid]].copy() for lid in g.landmarks}, list(g.factors))


def _apply_step(t, q, L, dp, dl):
    return t + dp[:, :3], quat_normalize(quat_mul(q, quat_from_rotvec(dp[:, 3:]))), L + dl


def optimize(
    g: GraphState,
    max_iters: int = 50,
    grad_tol: float = 1e-8,
    lm_lambda0: float = 1e-4,
) -> OptimizeResult:
    """Levenberg-Marquardt with Cauchy IRLS reweighting per iteration.

    Each point is linearised once: the start point, and each trial point,
    whose linearisation also gives its cost. An accepted trial's
    linearisation is the next iteration's."""
    prob = _Problem(g)
    prob.check()
    t, q, L = prob.t0, prob.q0, prob.L0
    lam = lm_lambda0
    lin = prob.linearize(t, q, L)  # at the current state
    initial_cost = lin.cost
    iterations = rejected = 0
    converged = False
    for _ in range(max_iters):
        iterations += 1
        if float(np.max(np.abs(lin.b))) < grad_tol:
            converged = True
            break
        accepted = False
        for _ in range(12):
            try:
                dp, dl = prob.solve(lin, lam)
            except np.linalg.LinAlgError:
                rejected += 1
                lam *= 10.0
                continue
            trial = _apply_step(t, q, L, dp, dl)
            trial_lin = prob.linearize(*trial)
            if trial_lin.cost < lin.cost:
                improvement = lin.cost - trial_lin.cost
                t, q, L = trial
                lin = trial_lin
                lam = max(lam / 10.0, 1e-12)
                accepted = True
                if improvement < 1e-9 * max(1.0, lin.cost):
                    converged = True
                break
            rejected += 1
            lam *= 10.0
        if not accepted or converged:  # a stall ends the run unconverged
            break
    return OptimizeResult(prob.state(g, t, q, L), lin.cost, iterations, converged, initial_cost, rejected)


def rmse(trajectory: PoseTable, ground_truth: PoseTable) -> float:
    """Root-mean-square translational error between aligned trajectories."""
    if len(trajectory) != len(ground_truth):
        raise ContractViolation("trajectory lengths differ")
    if not len(trajectory):
        return 0.0
    err = [float(np.sum(d**2)) for d in trajectory.translations - ground_truth.translations]
    return math.sqrt(sum(err) / len(err))
