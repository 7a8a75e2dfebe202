"""Nonlinear factor graph over SE(3) poses and point landmarks.

Levenberg-Marquardt on a minimal parameterization (global translation plus
right-multiplied rotation-vector increments), with Cauchy IRLS weights on
robust factors. Each `optimize` call stacks the factors by type once. An
iteration then linearises every factor of a type in one batched numpy pass
and scatters the blocks into three parts of the normal equations: the dense
pose block, the 3x3 landmark blocks and the pose-landmark blocks. The
landmarks are eliminated by Schur complement, so each step solves a dense
system over the poses only and back-substitutes the landmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import ContractViolation
from .geometry import Pose, log_so3


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
    """A factor references a missing variable or the graph is disconnected."""


# -- batched SO(3) helpers: one row per factor --------------------------------


def _norms(v: np.ndarray) -> np.ndarray:
    """Row norms, computed as `np.linalg.norm` computes one vector's."""
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def _hat(v: np.ndarray) -> np.ndarray:
    K = np.zeros((len(v), 3, 3))
    K[:, 0, 1] = -v[:, 2]
    K[:, 0, 2] = v[:, 1]
    K[:, 1, 0] = v[:, 2]
    K[:, 1, 2] = -v[:, 0]
    K[:, 2, 0] = -v[:, 1]
    K[:, 2, 1] = v[:, 0]
    return K


def _quat_to_rot(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q.T
    R = np.empty((len(q), 3, 3))
    R[:, 0, 0] = 1 - 2 * (y * y + z * z)
    R[:, 0, 1] = 2 * (x * y - w * z)
    R[:, 0, 2] = 2 * (x * z + w * y)
    R[:, 1, 0] = 2 * (x * y + w * z)
    R[:, 1, 1] = 1 - 2 * (x * x + z * z)
    R[:, 1, 2] = 2 * (y * z - w * x)
    R[:, 2, 0] = 2 * (x * z - w * y)
    R[:, 2, 1] = 2 * (y * z + w * x)
    R[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return R


def _quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, ax, ay, az = a.T
    bw, bx, by, bz = b.T
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=1,
    )


def _quat_normalize(q: np.ndarray) -> np.ndarray:
    q = q / _norms(q)[:, None]
    # canonical sign, as in geometry.quat_normalize
    return np.where(q[:, :1] < 0, -q, q)


def _quat_from_rotvec(phi: np.ndarray) -> np.ndarray:
    angle = _norms(phi)
    small = angle < 1e-12
    half = 0.5 * angle
    axis = phi / np.where(small, 1.0, angle)[:, None]
    q = np.concatenate([np.cos(half)[:, None], np.sin(half)[:, None] * axis], axis=1)
    q[small, 0] = 1.0
    q[small, 1:] = phi[small] * 0.5
    return _quat_normalize(q)


def _log_so3(R: np.ndarray) -> np.ndarray:
    """Rotation matrices -> rotation vectors, as `geometry.log_so3` row by row."""
    cos_angle = np.clip((np.trace(R, axis1=1, axis2=2) - 1.0) * 0.5, -1.0, 1.0)
    angle = np.arccos(cos_angle)
    w = np.stack([R[:, 2, 1] - R[:, 1, 2], R[:, 0, 2] - R[:, 2, 0], R[:, 1, 0] - R[:, 0, 1]], axis=1)
    small = angle < 1e-9
    scale = np.divide(angle, 2.0 * np.sin(angle), out=np.full_like(angle, 0.5), where=~small)
    phi = w * scale[:, None]
    # near pi the off-diagonal formula degenerates; the scalar path handles it
    for k in np.flatnonzero(np.pi - angle < 1e-6):
        phi[k] = log_so3(R[k])
    return phi


def _left_jacobian_inv(phi: np.ndarray) -> np.ndarray:
    """Inverse left Jacobians of SO(3), one per row of phi."""
    angle = _norms(phi)
    K = _hat(phi)
    big = angle >= 1e-6
    coef = np.full(len(phi), 1.0 / 12.0)
    half = 0.5 * angle[big]
    cot = half / np.tan(half)
    coef[big] = (1.0 - cot) / (angle[big] * angle[big])
    return np.eye(3) - 0.5 * K + coef[:, None, None] * (K @ K)


def _right_jacobian_inv(phi: np.ndarray) -> np.ndarray:
    return _left_jacobian_inv(-phi)


# -- factor residuals and Jacobians, one row per factor ------------------------
#
# Each takes the stacked variables of its factors (t, R per pose; the point
# per landmark), then the stacked measurements, and returns the residuals and,
# if asked, one Jacobian stack per variable.


def _prior_terms(t, R, t_m, R_m, jac):
    phi = _log_so3(R_m.transpose(0, 2, 1) @ R)
    r = np.concatenate([t - t_m, phi], axis=1)
    if not jac:
        return r, None
    J = np.zeros((len(r), 6, 6))
    J[:, :3, :3] = np.eye(3)
    J[:, 3:, 3:] = _right_jacobian_inv(phi)
    return r, (J,)


def _relative_terms(ti, Ri, tj, Rj, t_m, R_m, jac):
    RiT = Ri.transpose(0, 2, 1)
    v = (RiT @ (tj - ti)[:, :, None])[:, :, 0]
    E = R_m.transpose(0, 2, 1)
    phi = _log_so3(E @ RiT @ Rj)
    r = np.concatenate([v - t_m, phi], axis=1)
    if not jac:
        return r, None
    Ji = np.zeros((len(r), 6, 6))
    Jj = np.zeros((len(r), 6, 6))
    Ji[:, :3, :3] = -RiT
    Ji[:, :3, 3:] = _hat(v)
    Jj[:, :3, :3] = RiT
    Ji[:, 3:, 3:] = -_left_jacobian_inv(phi) @ E
    Jj[:, 3:, 3:] = _right_jacobian_inv(phi)
    return r, (Ji, Jj)


def _landmark_terms(t, R, l, z, jac):
    RT = R.transpose(0, 2, 1)
    v = (RT @ (l - t)[:, :, None])[:, :, 0]
    r = v - z
    if not jac:
        return r, None
    Jp = np.zeros((len(r), 3, 6))
    Jp[:, :, :3] = -RT
    Jp[:, :, 3:] = _hat(v)
    return r, (Jp, RT)


class _Factor:
    """Single-factor access to the batched terms of the factor's type."""

    def variables(self) -> Tuple[Tuple[str, int], ...]:
        """The (kind, id) variables constrained, in the order TERMS takes them."""
        raise NotImplementedError

    def measurement(self) -> Tuple[np.ndarray, ...]:
        """The measured values, in the order TERMS takes them."""
        raise NotImplementedError

    def _terms(self, state: "GraphState", jac: bool):
        args = []
        for kind, vid in self.variables():
            if kind == "pose":
                pose = state.poses[vid]
                args += [pose.translation[None], pose.rot()[None]]
            else:
                args.append(np.asarray(state.landmarks[vid], dtype=float)[None])
        return self.TERMS(*args, *(m[None] for m in self.measurement()), jac)

    def residual(self, state: "GraphState") -> np.ndarray:
        return self._terms(state, False)[0][0]

    def jacobians(self, state: "GraphState") -> Dict[Tuple[str, int], np.ndarray]:
        _, jacs = self._terms(state, True)
        return {var: J[0] for var, J in zip(self.variables(), jacs)}


@dataclass(frozen=True, eq=False)
class PriorFactor(_Factor):
    pose_id: int
    prior: Pose
    information: np.ndarray  # 6x6
    robust_c: Optional[float] = None

    TERMS = staticmethod(_prior_terms)

    def variables(self):
        return (("pose", self.pose_id),)

    def measurement(self):
        return (self.prior.translation, self.prior.rot())


@dataclass(frozen=True, eq=False)
class RelativePoseFactor(_Factor):
    """Odometry or loop-closure constraint: measured T_i^{-1} T_j."""

    pose_i: int
    pose_j: int
    measured: Pose
    information: np.ndarray  # 6x6
    robust_c: Optional[float] = None
    kind: str = "odometry"  # or "loop"

    TERMS = staticmethod(_relative_terms)

    def variables(self):
        return (("pose", self.pose_i), ("pose", self.pose_j))

    def measurement(self):
        return (self.measured.translation, self.measured.rot())


@dataclass(frozen=True, eq=False)
class LandmarkFactor(_Factor):
    """Pose-to-point constraint: landmark observed in the body frame."""

    pose_id: int
    landmark_id: int
    measured: np.ndarray  # 3-vector, body frame
    information: np.ndarray  # 3x3
    robust_c: Optional[float] = None

    TERMS = staticmethod(_landmark_terms)

    def variables(self):
        return (("pose", self.pose_id), ("landmark", self.landmark_id))

    def measurement(self):
        return (np.asarray(self.measured, dtype=float),)


Factor = PriorFactor | RelativePoseFactor | LandmarkFactor


@dataclass
class GraphState:
    poses: Dict[int, Pose] = field(default_factory=dict)
    landmarks: Dict[int, np.ndarray] = field(default_factory=dict)
    factors: List[Factor] = field(default_factory=list)

    def copy(self) -> "GraphState":
        return GraphState(
            {k: p.copy() for k, p in self.poses.items()},
            {k: v.copy() for k, v in self.landmarks.items()},
            list(self.factors),
        )

    def check_structure(self):
        priors = [f for f in self.factors if isinstance(f, PriorFactor)]
        if len(priors) != 1:
            raise StructuralError(f"expected exactly one prior factor, found {len(priors)}")
        touched = set()
        for f in self.factors:
            if isinstance(f, PriorFactor):
                if f.pose_id not in self.poses:
                    raise StructuralError("prior references a missing pose")
                touched.add(("pose", f.pose_id))
            elif isinstance(f, RelativePoseFactor):
                for pid in (f.pose_i, f.pose_j):
                    if pid not in self.poses:
                        raise StructuralError(f"factor references missing pose {pid}")
                    touched.add(("pose", pid))
            else:
                if f.pose_id not in self.poses:
                    raise StructuralError(f"factor references missing pose {f.pose_id}")
                if f.landmark_id not in self.landmarks:
                    raise StructuralError(f"factor references missing landmark {f.landmark_id}")
                touched.add(("pose", f.pose_id))
                touched.add(("landmark", f.landmark_id))
        for pid in self.poses:
            if ("pose", pid) not in touched:
                raise StructuralError(f"pose {pid} has no factor")
        for lid in self.landmarks:
            if ("landmark", lid) not in touched:
                raise StructuralError(f"landmark {lid} has no factor")


@dataclass
class OptimizeResult:
    state: GraphState
    cost: float
    iterations: int
    last_pose_cov_trace: float
    converged: bool
    initial_cost: float
    # LM trial steps that did not lower the cost, plus singular-system retries
    rejected_steps: int


# -- stacked problem ----------------------------------------------------------


def _cat(parts: List[np.ndarray]) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0, np.intp)


def _segment_index(rows: np.ndarray, d: int) -> np.ndarray:
    """Flat indices of the length-d segments at `rows`, segment by segment."""
    return (d * rows[:, None] + np.arange(d)).ravel()


def _scatter(idx: np.ndarray, parts: List[np.ndarray], n: int) -> np.ndarray:
    """Sum the concatenated `parts` into a length-n vector at flat indices `idx`."""
    vals = np.concatenate(parts) if parts else np.zeros(0)
    # bincount of no values comes back as integers
    return np.bincount(idx, vals, minlength=n).astype(float, copy=False)


def _block_index(rows: np.ndarray, cols: np.ndarray, dr: int, dc: int, width: int) -> np.ndarray:
    """Flat indices of the dr x dc blocks at block rows/cols into a matrix
    `width` wide, ordered block by block, then row-major within a block."""
    r = dr * rows[:, None, None] + np.arange(dr)[None, :, None]
    c = dc * cols[:, None, None] + np.arange(dc)[None, None, :]
    return (r * width + c).ravel()


class _Group:
    """The factors of one type, stacked."""

    def __init__(self, factors: Sequence[_Factor], index: Dict[Tuple[str, int], int]):
        self.terms = type(factors[0]).TERMS
        kinds = [kind for kind, _ in factors[0].variables()]
        self.slots = [
            (kind, np.array([index[f.variables()[s]] for f in factors], dtype=np.intp))
            for s, kind in enumerate(kinds)
        ]
        meas = [f.measurement() for f in factors]
        self.meas = [np.array([m[k] for m in meas], dtype=float) for k in range(len(meas[0]))]
        # upper factor W of each information matrix: W^T W = information
        info = np.array([f.information for f in factors], dtype=float)
        self.W = np.linalg.cholesky(info).transpose(0, 2, 1)
        self.robust = np.array([f.robust_c is not None for f in factors])
        self.c = np.array([f.robust_c if f.robust_c is not None else 1.0 for f in factors], dtype=float)
        if np.any(self.c[self.robust] <= 0):
            raise ContractViolation("cauchy scale must be positive")

    def evaluate(self, t, R, L):
        """Per-factor costs, whitened residuals and Jacobians, and IRLS weights."""
        args = []
        for kind, idx in self.slots:
            args += [t[idx], R[idx]] if kind == "pose" else [L[idx]]
        r, J = self.terms(*args, *self.meas, True)
        rw = (self.W @ r[:, :, None])[:, :, 0]
        norm = _norms(rw)
        cost = 0.5 * norm * norm
        w = np.ones(len(r))
        m = self.robust
        if m.any():
            cost[m] = cauchy_cost(norm[m], self.c[m])
            w[m] = cauchy_weight(norm[m], self.c[m])
        return cost, rw, [self.W @ Jk for Jk in J], w


@dataclass
class _Linearization:
    cost: float
    b: np.ndarray  # gradient: 6 per pose, then 3 per landmark
    Hpp: np.ndarray  # (6P, 6P)
    Hll: np.ndarray  # (M, 3, 3)
    Hpl: np.ndarray  # (K, 6, 3), one block per observed (pose, landmark) pair


class _Problem:
    """A graph's factors stacked by type, with the scatter indices of their
    blocks in the normal equations. Variables are ordered by id."""

    def __init__(self, g: GraphState):
        self.pose_ids = sorted(g.poses)
        self.landmark_ids = sorted(g.landmarks)
        P, M = len(self.pose_ids), len(self.landmark_ids)
        self.n6 = 6 * P
        index = {("pose", pid): k for k, pid in enumerate(self.pose_ids)}
        index.update({("landmark", lid): k for k, lid in enumerate(self.landmark_ids)})
        by_type: Dict[type, List[_Factor]] = {}
        for f in g.factors:
            by_type.setdefault(type(f), []).append(f)
        self.groups = [_Group(fs, index) for fs in by_type.values()]
        self.t0 = np.array([g.poses[p].translation for p in self.pose_ids], dtype=float)
        self.q0 = np.array([g.poses[p].rotation for p in self.pose_ids], dtype=float)
        self.L0 = np.array([g.landmarks[l] for l in self.landmark_ids], dtype=float).reshape(M, 3)

        # scatter indices, in the order `linearize` emits the values
        pp, ll, grad, pl_pose, pl_landmark = [], [], [], [], []
        for grp in self.groups:
            for a, (kind_a, ia) in enumerate(grp.slots):
                if kind_a == "pose":
                    grad.append(_segment_index(ia, 6))
                else:
                    grad.append(self.n6 + _segment_index(ia, 3))
                for b, (kind_b, ib) in enumerate(grp.slots[a:], start=a):
                    if kind_a == kind_b == "pose":
                        pp.append(_block_index(ia, ib, 6, 6, self.n6))
                        if b != a:
                            pp.append(_block_index(ib, ia, 6, 6, self.n6))
                    elif kind_a == kind_b:
                        ll.append(_segment_index(ia, 9))
                    else:
                        pl_pose.append(ia)
                        pl_landmark.append(ib)
        # pose-landmark blocks: one per observed (pose, landmark) pair
        keys, pair_of = np.unique(_cat(pl_pose) * M + _cat(pl_landmark), return_inverse=True)
        self.pair_p, self.pair_l = keys // max(M, 1), keys % max(M, 1)
        self._pp, self._ll, self._pl, self._grad = _cat(pp), _cat(ll), _segment_index(pair_of, 18), _cat(grad)
        self._sizes = (self.n6 * self.n6, 9 * M, 18 * len(keys), self.n6 + 3 * M)

        # Schur fill: every two pairs that share a landmark couple their poses
        self._qa, self._qb = np.nonzero(self.pair_l[:, None] == self.pair_l[None, :])
        self._schur = _block_index(self.pair_p[self._qa], self.pair_p[self._qb], 6, 6, self.n6)
        self._pair_grad_p = _segment_index(self.pair_p, 6)
        self._pair_grad_l = _segment_index(self.pair_l, 3)

    def linearize(self, t, q, L) -> _Linearization:
        R = _quat_to_rot(q)
        cost = 0.0
        pp, ll, pl, grad = [], [], [], []
        for grp in self.groups:
            c, rw, J, w = grp.evaluate(t, R, L)
            cost += np.sum(c)
            JT = [Jk.transpose(0, 2, 1) for Jk in J]
            for a, (kind_a, _) in enumerate(grp.slots):
                grad.append((w[:, None] * (JT[a] @ rw[:, :, None])[:, :, 0]).ravel())
                for b in range(a, len(grp.slots)):
                    kind_b = grp.slots[b][0]
                    blk = w[:, None, None] * (JT[a] @ J[b])
                    if kind_a == kind_b == "pose":
                        pp.append(blk.ravel())
                        if b != a:
                            pp.append(blk.transpose(0, 2, 1).ravel())
                    elif kind_a == kind_b:
                        ll.append(blk.ravel())
                    else:
                        pl.append(blk.ravel())
        n_pp, n_ll, n_pl, n_b = self._sizes
        return _Linearization(
            float(cost),
            _scatter(self._grad, grad, n_b),
            _scatter(self._pp, pp, n_pp).reshape(self.n6, self.n6),
            _scatter(self._ll, ll, n_ll).reshape(-1, 3, 3),
            _scatter(self._pl, pl, n_pl).reshape(-1, 6, 3),
        )

    def _reduce(self, lin: _Linearization, lam: float):
        """Schur complement of the damped landmark blocks: the reduced pose
        matrix S, the inverse landmark blocks and Hpl D^-1 per pair."""
        Dinv = np.linalg.inv(lin.Hll + lam * np.eye(3))
        Y = lin.Hpl @ Dinv[self.pair_l]
        S = lin.Hpp.copy()
        S.flat[:: self.n6 + 1] += lam
        fill = Y[self._qa] @ lin.Hpl[self._qb].transpose(0, 2, 1)
        np.subtract.at(S.reshape(-1), self._schur, fill.reshape(-1))
        return S, Dinv, Y

    def solve(self, lin: _Linearization, lam: float):
        """The LM step for damping `lam`: pose increments (P, 6) and
        landmark increments (M, 3). Raises LinAlgError if singular."""
        S, Dinv, Y = self._reduce(lin, lam)
        bp, bl = lin.b[: self.n6], lin.b[self.n6 :].reshape(-1, 3)
        g = bp.copy()
        np.subtract.at(g, self._pair_grad_p, (Y @ bl[self.pair_l][:, :, None]).reshape(-1))
        dp = np.linalg.solve(S, -g).reshape(-1, 6)
        rhs = -bl.reshape(-1)
        np.subtract.at(rhs, self._pair_grad_l, (lin.Hpl.transpose(0, 2, 1) @ dp[self.pair_p][:, :, None]).reshape(-1))
        dl = (Dinv @ rhs.reshape(-1, 3)[:, :, None])[:, :, 0]
        return dp, dl

    def last_pose_cov_trace(self, lin: _Linearization) -> float:
        """Trace of the last pose's 6x6 block of (H + 1e-12 I)^-1, from a
        6-column solve of the Schur system; inf if it is singular."""
        try:
            S, _, _ = self._reduce(lin, 1e-12)
            E = np.zeros((self.n6, 6))
            E[-6:] = np.eye(6)
            return float(np.trace(np.linalg.solve(S, E)[-6:]))
        except np.linalg.LinAlgError:
            return float("inf")

    def state(self, g: GraphState, t, q, L) -> GraphState:
        pk = {pid: k for k, pid in enumerate(self.pose_ids)}
        lk = {lid: k for k, lid in enumerate(self.landmark_ids)}
        return GraphState(
            {pid: Pose(t[pk[pid]].copy(), q[pk[pid]].copy()) for pid in g.poses},
            {lid: L[lk[lid]].copy() for lid in g.landmarks},
            list(g.factors),
        )


def _apply_step(t, q, L, dp, dl):
    return t + dp[:, :3], _quat_normalize(_quat_mul(q, _quat_from_rotvec(dp[:, 3:]))), L + dl


def _total_cost(state: GraphState) -> float:
    prob = _Problem(state)
    return prob.linearize(prob.t0, prob.q0, prob.L0).cost


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
    g.check_structure()
    prob = _Problem(g)
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
    trace = prob.last_pose_cov_trace(lin)
    return OptimizeResult(prob.state(g, t, q, L), lin.cost, iterations, trace, converged, initial_cost, rejected)


def rmse(trajectory: Sequence[Pose], ground_truth: Sequence[Pose]) -> float:
    """Root-mean-square translational error between aligned trajectories."""
    if len(trajectory) != len(ground_truth):
        raise ContractViolation("trajectory lengths differ")
    if not trajectory:
        return 0.0
    err = [
        float(np.sum((a.translation - b.translation) ** 2))
        for a, b in zip(trajectory, ground_truth)
    ]
    return math.sqrt(sum(err) / len(err))
