"""Shared fixtures and helpers for the test suite."""

import dataclasses
import itertools
import math
import random
from typing import Optional

import numpy as np
import pytest

from semslam.assoc import LOG_ZERO, AssocParams
from semslam.core import SPD_EIG_TOL, ContractViolation, LandmarkTable, MeasurementTable, PoseTable
from semslam.geometry import Pose, rot_to_quat
from semslam.graph import (
    GraphState,
    OptimizeResult,
    PriorFactor,
    RelativePoseFactor,
    cauchy_cost,
    cauchy_weight,
)
from semslam.placerec import (
    MAX_CANDIDATES,
    LoopClosure,
    jsd,
    ncc_score,
    query_candidates,
    rigid_transform_svd,
)


@dataclasses.dataclass(frozen=True, eq=False)
class Detection:
    """One detection, as the scalar oracles read it: a row of a MeasurementTable."""

    scene_id: int
    time: float
    position: np.ndarray
    label: int


def meas(position, class_id=0, scene_id=0, time=0.0) -> Detection:
    return Detection(scene_id, time, np.asarray(position, dtype=float), class_id)


def scene_of(detections) -> MeasurementTable:
    """The checked table of these detections, which share one scene id (0
    for no detections)."""
    detections = list(detections)
    (scene_id,) = {m.scene_id for m in detections} or {0}
    return MeasurementTable.build(
        scene_id, [m.time for m in detections], [m.position for m in detections], [m.label for m in detections]
    )


def detections_of(table: MeasurementTable):
    """The rows of `table`, in table order."""
    return [Detection(table.scene_id, *row) for row in zip(table.times.tolist(), table.positions, table.labels.tolist())]


@dataclasses.dataclass(frozen=True, eq=False)
class Row:
    """One landmark, as the scalar oracles read it: a row of a LandmarkTable."""

    id: int
    label: int
    mean: np.ndarray
    cov: np.ndarray
    assign_count: int = 1
    last_scene: int = 0


def landmark(lid, position, class_id=0, cov=None, assign_count=1, last_scene=0) -> Row:
    cov = np.eye(3) if cov is None else np.asarray(cov, dtype=float)
    return Row(lid, class_id, np.asarray(position, dtype=float), cov, assign_count, last_scene)


def table_of(rows) -> LandmarkTable:
    """The checked table of these rows."""
    rows = list(rows)
    return LandmarkTable.build(
        [r.id for r in rows],
        [r.label for r in rows],
        [r.mean for r in rows],
        [r.cov for r in rows],
        [r.assign_count for r in rows],
        [r.last_scene for r in rows],
    )


def rows_of(table: Optional[LandmarkTable]):
    """Landmark id -> Row of each row of `table`, in table order."""
    if table is None:
        return {}
    return {
        lid: Row(lid, label, mean, cov, count, scene)
        for lid, label, mean, cov, count, scene in zip(
            table.ids.tolist(),
            table.labels.tolist(),
            table.means,
            table.covs,
            table.assign_count.tolist(),
            table.last_scene.tolist(),
        )
    }


def random_spd(rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    A = rng.standard_normal((3, 3))
    return scale * (A @ A.T + 3.0 * np.eye(3))


def simple_params(**overrides) -> AssocParams:
    defaults = dict(
        meas_cov=np.eye(3),
        trans_cov_by_class={i: np.eye(3) for i in range(4)},
        dirichlet_alpha=1.0,
        fp_rate=0.1,
        map_volume=1000.0,
        lambda_new=0.5,
        lambda_fp=0.2,
        dp_weight_mode="exp",
    )
    defaults.update(overrides)
    return AssocParams(**defaults)


def brute_force_assignment(cost: np.ndarray):
    """Exhaustive minimum-cost row->column assignment (rows <= cols)."""
    n, m = cost.shape
    best_cols, best_total = None, np.inf
    for perm in itertools.permutations(range(m), n):
        total = sum(cost[i, j] for i, j in enumerate(perm))
        if total < best_total - 1e-12:
            best_total = total
            best_cols = perm
    return best_cols, best_total


# ---------------------------------------------------------------------------
# the four association cases and the cost-matrix column layout, kept here
# as the tests' own reference: landmark columns first, the existing
# landmarks before the previous ones, then one New and one FalsePositive
# column per row


@dataclasses.dataclass(frozen=True)
class Existing:
    landmark_id: int


@dataclasses.dataclass(frozen=True)
class Previous:
    landmark_id: int


@dataclasses.dataclass(frozen=True)
class New:
    pass


@dataclasses.dataclass(frozen=True)
class FalsePositive:
    pass


def target_of(cm, j):
    """The case that column j of `cm` stands for."""
    if j < cm.n_existing:
        return Existing(int(cm.column_ids[j]))
    if j < cm.n_landmark_cols:
        return Previous(int(cm.column_ids[j]))
    return New() if j < cm.n_landmark_cols + cm.n_rows else FalsePositive()


def targets_of(cm, assignment):
    """The case of each row of `assignment`, read from its columns in `cm`."""
    return tuple(target_of(cm, j) for j in assignment.columns)


def assignment_of(cm, targets):
    """The assignment that `cm.assignment_at` builds from the columns that
    `targets` name in `cm`: a landmark's own column, else row i's New or
    FalsePositive column."""
    n_lm, n = cm.n_landmark_cols, cm.n_rows
    landmark_col = {target_of(cm, j): j for j in range(n_lm)}
    cols = []
    for i, t in enumerate(targets):
        if isinstance(t, New):
            cols.append(n_lm + i)
        elif isinstance(t, FalsePositive):
            cols.append(n_lm + n + i)
        else:
            cols.append(landmark_col[t])
    return cm.assignment_at(np.array(cols, dtype=int))


# ---------------------------------------------------------------------------
# scalar association likelihood: the reference for the cost-matrix cells and
# for the branch score `assoc.measurement_set_log_likelihood` reads from them

_LOG2PI = math.log(2.0 * math.pi)


def gaussian_logpdf(x, mean, cov) -> float:
    d = np.asarray(x, dtype=float) - np.asarray(mean, dtype=float)
    L = np.linalg.cholesky(cov)
    y = np.linalg.solve(L, d)
    return -0.5 * float(y @ y) - float(np.log(np.diag(L)).sum()) - 0.5 * d.size * _LOG2PI


def _previous_cov(lm, params):
    """Dirac sifting keeps the measurement covariance; otherwise the
    transitional covariance of the class is added (Gaussian convolution)."""
    if lm.label in params.dirac_classes:
        return params.meas_cov
    trans = params.trans_cov_by_class.get(lm.label)
    if trans is None:
        raise ContractViolation(f"no transitional covariance for class {lm.label}")
    return params.meas_cov + np.asarray(trans)


def _gated(logpdf, cov, params) -> bool:
    """Inside the validation gate iff the squared Mahalanobis distance,
    recovered from the log density, is within candidate_gate."""
    L = np.linalg.cholesky(cov)
    maha = -2.0 * (logpdf + float(np.log(np.diag(L)).sum()) + 1.5 * _LOG2PI)
    return maha <= params.candidate_gate


def _candidate_logpdfs(m, state, params):
    """Densities f(z | theta=j) of class-matched landmarks inside the gate."""
    out = []
    for lm in rows_of(state.existing).values():
        if lm.label == m.label:
            lp = gaussian_logpdf(m.position, lm.mean, params.meas_cov)
            if _gated(lp, params.meas_cov, params):
                out.append(lp)
    for lm in rows_of(state.previous).values():
        if lm.label == m.label:
            cov = _previous_cov(lm, params)
            lp = gaussian_logpdf(m.position, lm.mean, cov)
            if _gated(lp, cov, params):
                out.append(lp)
    return out


def scalar_association_log_likelihood(m, target, state, params) -> float:
    """Log of the four-case association likelihood, DP bonus included.
    Class mismatch -> LOG_ZERO."""
    if isinstance(target, Existing):
        lm = rows_of(state.existing)[target.landmark_id]
        if lm.label != m.label:
            return LOG_ZERO
        dp = float(lm.assign_count) if params.dp_weight_mode == "exp" else math.log(lm.assign_count)
        return dp + gaussian_logpdf(m.position, lm.mean, params.meas_cov)
    if isinstance(target, Previous):
        lm = rows_of(state.previous)[target.landmark_id]
        if lm.label != m.label:
            return LOG_ZERO
        return gaussian_logpdf(m.position, lm.mean, _previous_cov(lm, params))
    if isinstance(target, New):
        return math.log(params.dirichlet_alpha) - math.log(params.map_volume)
    if isinstance(target, FalsePositive):
        if state.n_fp > 0:
            num = math.log(params.fp_rate) + math.log(state.n_fp)
        else:
            num = math.log(params.fp_rate) + math.log(params.dirichlet_alpha)
        return num - sum(_candidate_logpdfs(m, state, params))
    raise TypeError(f"unknown target {target!r}")


def _log_class_prior(class_id, params) -> float:
    """log p_s(class): 0 under an empty prior, LOG_ZERO for a class it lacks."""
    p = params.class_prior.get(class_id)
    if p is None:
        return 0.0 if not params.class_prior else LOG_ZERO
    if not (0.0 < p <= 1.0):
        raise ContractViolation("class_prior values must lie in (0, 1]")
    return math.log(p)


def scalar_measurement_set_log_likelihood(targets, measurements, state, params) -> float:
    """Joint measurement log-likelihood of one case per measurement, one
    Gaussian density at a time: a landmark case scores log class prior +
    log density (no DP bonus)."""
    if len(targets) != len(measurements):
        raise ContractViolation("assignment does not cover all measurements")
    total = 0.0
    for m, target in zip(measurements, targets):
        if isinstance(target, (Existing, Previous)):
            lm = rows_of(state.existing if isinstance(target, Existing) else state.previous)[target.landmark_id]
            if lm.label != m.label:
                return LOG_ZERO
            total += _log_class_prior(m.label, params)
            if isinstance(target, Existing):
                total += gaussian_logpdf(m.position, lm.mean, params.meas_cov)
            else:
                total += gaussian_logpdf(m.position, lm.mean, _previous_cov(lm, params))
        else:
            total += scalar_association_log_likelihood(m, target, state, params)
        if total <= LOG_ZERO:
            return LOG_ZERO
    return total


_INF = 1e30


def scalar_lap_solve(cost):
    """Column-by-column shortest augmenting paths: the reference for
    `kernels.lap_solve`, which must return the same four outputs bit for bit."""
    n, m = cost.shape
    u = np.zeros(n + 1)
    v = np.zeros(m + 1)
    p = np.zeros(m + 1, dtype=np.int64)  # p[j]: row matched to column j (1-based, 0 = free)
    way = np.zeros(m + 1, dtype=np.int64)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(m + 1, _INF)
        used = np.zeros(m + 1, dtype=np.bool_)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = _INF
            j1 = 0
            for j in range(1, m + 1):
                if not used[j]:
                    cur = cost[i0 - 1, j - 1] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(m + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    row_to_col = np.full(n, -1, dtype=np.int64)
    for j in range(1, m + 1):
        if p[j] > 0:
            row_to_col[p[j] - 1] = j - 1
    total = 0.0
    for i in range(n):
        total += cost[i, row_to_col[i]]
    return row_to_col, u[1:], v[1:], total


def scalar_lex_refine(mat, row_to_col, u, v, total, tol):
    """Row-by-row search for the lexicographically smallest optimal
    assignment: the reference for `assoc._lex_refine`, which screens all
    rows for tied cells at once and must return the same columns."""
    n = mat.shape[0]
    fixed = mat.copy()
    current = row_to_col.copy()
    for i in range(n):
        assigned = current[i]
        red = mat[i, :assigned] - u[i] - v[:assigned]
        for j in np.flatnonzero((red <= tol) & (mat[i, :assigned] < 1e18 / 2)).tolist():
            trial = fixed.copy()
            trial[i, :] = 1e18
            trial[i, j] = mat[i, j]
            r2c, _, _, t2 = scalar_lap_solve(trial)
            if t2 <= total + tol:
                current = r2c
                assigned = j
                break
        fixed[i, :] = 1e18
        fixed[i, assigned] = mat[i, assigned]
    return current


def scalar_systematic_resample(weights, n, u0):
    """Walk the weight CDF once for n probes at (u0 + i) / n: the reference
    for `kernels.systematic_resample` when u0 > 0. At u0 == 0 the `j < 0`
    clamp moves to index 0 without adding weights[0] to the running sum,
    so later probes can land one index too far ([.5, .5], n=4 -> 0,1,1,1)."""
    k = weights.shape[0]
    out = np.empty(n, dtype=np.int64)
    cum = 0.0
    j = -1
    for i in range(n):
        target = (u0 + i) / n
        while cum < target and j < k - 1:
            j += 1
            cum += weights[j]
        if j < 0:
            j = 0
        out[i] = j
    return out


def scalar_ransac_best_mask(src, dst, picks, tol):
    """Per-iteration RANSAC consensus: the reference for the vectorised kernel.

    Fits each minimal sample in turn (collinear ones skipped) and keeps the
    first strictly better inlier mask: the first sample with the most inliers.
    """
    n = src.shape[0]
    best_count = -1
    best_mask = np.zeros(n, dtype=np.bool_)
    for it in range(picks.shape[0]):
        i0, i1, i2 = picks[it, 0], picks[it, 1], picks[it, 2]
        ax = src[i1, 0] - src[i0, 0]
        ay = src[i1, 1] - src[i0, 1]
        az = src[i1, 2] - src[i0, 2]
        bx = src[i2, 0] - src[i0, 0]
        by = src[i2, 1] - src[i0, 1]
        bz = src[i2, 2] - src[i0, 2]
        cx = ay * bz - az * by
        cy = az * bx - ax * bz
        cz = ax * by - ay * bx
        if cx * cx + cy * cy + cz * cz < 1e-18:
            continue  # collinear minimal sample
        cs = (src[i0] + src[i1] + src[i2]) / 3.0
        cd = (dst[i0] + dst[i1] + dst[i2]) / 3.0
        H = np.zeros((3, 3))
        for idx in (i0, i1, i2):
            H += np.outer(src[idx] - cs, dst[idx] - cd)
        U, S, Vt = np.linalg.svd(H)
        d = np.linalg.det(Vt.T @ U.T)
        D = np.eye(3)
        D[2, 2] = 1.0 if d >= 0.0 else -1.0
        R = Vt.T @ D @ U.T
        t = cd - R @ cs
        count = 0
        mask = np.zeros(n, dtype=np.bool_)
        tol2 = tol * tol
        for i in range(n):
            e = R @ src[i] + t - dst[i]
            if e[0] * e[0] + e[1] * e[1] + e[2] * e[2] <= tol2:
                mask[i] = True
                count += 1
        if count > best_count:
            best_count = count
            best_mask = mask
    return best_mask, best_count


def adaptive_stop(count, n):
    """The samples after which adaptive RANSAC (Fischler & Bolles 1981) stops:
    99.9% confidence of an all-inlier draw at inlier ratio count / n < 1.
    `ransac_best_mask` scans every sample; tests use this to place samples
    past that stop."""
    w = count / n
    return int(np.ceil(np.log(1e-3) / np.log(1.0 - w * w * w)))


def scalar_ransac_verify(src, dst, rng, iters, inlier_tol, min_inliers):
    """`placerec.ransac_verify` without its screen: draw, argsort, the scalar
    scan, refit. Its reference for outputs and rng state."""
    src = np.asarray(src, dtype=float).reshape(-1, 3)
    dst = np.asarray(dst, dtype=float).reshape(-1, 3)
    n = src.shape[0]
    if n < 3:
        return None
    picks = np.argsort(rng.random((iters, n)), axis=1)[:, :3].astype(np.int64)
    best_mask, best_count = scalar_ransac_best_mask(src, dst, picks, inlier_tol)
    if best_count < max(min_inliers, 3):
        return None
    R, t = rigid_transform_svd(src[best_mask], dst[best_mask])
    mask = np.linalg.norm(dst - (src @ R.T + t), axis=1) <= inlier_tol
    if int(mask.sum()) < min_inliers:
        return None
    R, t = rigid_transform_svd(src[mask], dst[mask])
    return Pose.unit(t, rot_to_quat(R)), mask


def scalar_consensus_possible(src, dst, m, inlier_tol, seed=0):
    """`placerec.consensus_possible` as a scalar peel: its reference. Pairs
    i, j are linked when | |s_i - s_j| - |d_i - d_j| | is not above 2 tol
    plus the margin. Links are visited in a seeded random order, and a link
    whose ends share fewer than m - 2 linked pairs is removed at once, until
    a pass removes none. Returns the pairs left on a link, or None."""
    n = len(src)
    margin = 1e-9 * max([1.0] + [abs(float(x)) for x in np.ravel(src)] + [abs(float(x)) for x in np.ravel(dst)])

    def dist(p, i, j):
        dx, dy, dz = (float(p[i][k]) - float(p[j][k]) for k in range(3))
        return math.sqrt(dx * dx + dy * dy + dz * dz)

    linked = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if not abs(dist(src, i, j) - dist(dst, i, j)) > 2.0 * abs(inlier_tol) + margin:
                linked[i].add(j)
                linked[j].add(i)
    links = [(i, j) for i in range(n) for j in sorted(linked[i]) if i < j]
    order = random.Random(seed)
    removed = True
    while removed:
        removed = False
        order.shuffle(links)
        for i, j in links:
            if j in linked[i] and len(linked[i] & linked[j]) < m - 2:
                linked[i].discard(j)
                linked[j].discard(i)
                removed = True
    return np.array([bool(s) for s in linked]) if any(linked) else None


def scalar_check_spd(cov, tol=SPD_EIG_TOL) -> None:
    """The SPD contract with no fast path: the reference for `core.check_spd`."""
    cov = np.asarray(cov)
    if cov.shape != (3, 3):
        raise ContractViolation(f"expected 3x3 covariance, got {cov.shape}")
    if not np.allclose(cov, cov.T, atol=1e-9):
        raise ContractViolation("covariance not symmetric")
    if np.min(np.linalg.eigvalsh(cov)) <= tol:
        raise ContractViolation("covariance not positive definite")


def scalar_fuse_hypotheses(leaves, weights):
    """Per-landmark moment matching over the leaves that carry each landmark,
    as id -> Row: the reference for `estimation.fuse_hypotheses`, whose table
    must equal it bit for bit."""
    weights = np.asarray(weights, dtype=float)
    per_lm = {}
    for leaf, w in zip(leaves, weights):
        for lm in rows_of(leaf.existing).values():
            per_lm.setdefault(lm.id, []).append((float(w), lm))
    fused = {}
    for lid in sorted(per_lm):
        pairs = per_lm[lid]
        wsum = 0.0
        for w, _ in pairs:
            wsum += w
        if wsum <= 0.0:
            continue
        mean, cov = np.zeros(3), np.zeros((3, 3))
        for w, lm in pairs:
            mean += (w / wsum) * lm.mean
            cov += (w / wsum) * (lm.cov + np.outer(lm.mean, lm.mean))
        cov -= np.outer(mean, mean)
        sym = 0.5 * (cov + cov.T)
        vals, vecs = np.linalg.eigh(sym)
        cov = vecs @ np.diag(np.maximum(vals, 1e-12)) @ vecs.T
        count, last = max(lm.assign_count for _, lm in pairs), max(lm.last_scene for _, lm in pairs)
        fused[lid] = Row(lid, pairs[0][1].label, mean, cov, count, last)
    return fused


def scalar_scene_match(a, b, penalty_p=0.5, dist_norm_scale=5.0, term_mode="as_printed"):
    """Pair-by-pair scene similarity on scalar class id comparisons: the reference
    for `placerec.scene_match`, whose score must equal it bit for bit."""
    na, nb = len(a), len(b)
    diff = a.positions[:, None, :] - b.positions[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    H = np.minimum(dist / dist_norm_scale, 2.0)
    mismatch = np.array([[0.0 if la == lb else 4.0 for lb in b.labels.tolist()] for la in a.labels.tolist()])
    C = H + mismatch
    if na <= nb:
        r2c = scalar_lap_solve(C)[0]
        pairs_idx = [(i, int(j)) for i, j in enumerate(r2c)]
    else:
        r2c = scalar_lap_solve(np.ascontiguousarray(C.T))[0]
        pairs_idx = sorted((int(j), i) for i, j in enumerate(r2c))
    score = 0.0
    for i, j in pairs_idx:
        s_match = 1.0 - float(H[i, j]) / 2.0
        s_class = 0.0 if a.labels[i] == b.labels[j] else penalty_p
        if term_mode == "as_printed":
            score += 1.0 - s_match * s_class
        elif term_mode == "distance_weighted":
            score += 1.0 - (1.0 - s_match) * (1.0 - s_class)
        else:
            raise ContractViolation(f"unknown term_mode {term_mode!r}")
    return score


def scalar_detect(det, query_submap_hist, query_scene):
    """`LoopClosureDetector.detect` with stage 1 of retrieval run per query,
    every candidate scored exactly, the putative pairs built from scalar class
    id comparisons and the unscreened RANSAC scan: its reference. Runs on
    det's config, index, Laplacian cache and rng, and updates them."""
    cfg = det.cfg
    hists = det.submap_hist
    submaps = [sid for sid in sorted(hists) if jsd(query_submap_hist, hists[sid]) <= cfg.tau_jsd]

    def hist(s):
        return np.bincount(s.labels, minlength=cfg.n_classes) / max(len(s), 1)

    candidates = sorted(
        query_candidates(det, submaps, query_scene),
        key=lambda s: (float(np.linalg.norm(hist(query_scene) - hist(s))), s.scene_id),
    )[:MAX_CANDIDATES]
    closures = []
    for cand in candidates:
        if len(query_scene) == 0 or len(cand) == 0:
            continue
        s_ncc = ncc_score(det._laplacian(query_scene), det._laplacian(cand))
        s_scene = scalar_scene_match(query_scene, cand, cfg.penalty_p, cfg.dist_norm_scale, cfg.scene_term_mode)
        if not s_ncc + s_scene > cfg.tau_verify:
            continue
        putative = [
            (ia, ib)
            for ia, la in enumerate(query_scene.labels.tolist())
            for ib, lb in enumerate(cand.labels.tolist())
            if la == lb
        ]
        if len(putative) < 3:
            continue
        src = cand.positions[[ib for _, ib in putative]]
        dst = query_scene.positions[[ia for ia, _ in putative]]
        result = scalar_ransac_verify(src, dst, det.rng, cfg.ransac_iters, cfg.ransac_tol, cfg.ransac_min_inliers)
        if result is None:
            continue
        rel, mask = result
        inliers = tuple(p for p, keep in zip(putative, mask) if keep)
        if (
            len({ia for ia, _ in inliers}) < cfg.ransac_min_inliers
            or len({ib for _, ib in inliers}) < cfg.ransac_min_inliers
        ):
            continue
        closures.append(LoopClosure(query_scene.scene_id, cand.scene_id, rel, inliers))
    if len(closures) > 1:
        closures = [max(closures, key=lambda lc: len(lc.inlier_pairs))]
    return closures


def scalar_hat(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric cross-product matrix of one vector: the reference for
    `geometry.hat`, as are the other `scalar_*` SO(3) and quaternion
    functions for theirs."""
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def scalar_exp_so3(phi: np.ndarray) -> np.ndarray:
    """Rodrigues formula, rotation vector -> rotation matrix: the reference
    for `quat_to_rot(quat_from_rotvec(phi))`."""
    angle = np.linalg.norm(phi)
    K = scalar_hat(phi)
    if angle < 1e-9:
        # second-order series, accurate and stable near zero
        return np.eye(3) + K + 0.5 * (K @ K)
    s = np.sin(angle) / angle
    c = (1.0 - np.cos(angle)) / (angle * angle)
    return np.eye(3) + s * K + c * (K @ K)


def scalar_log_so3(R: np.ndarray) -> np.ndarray:
    cos_angle = np.clip((np.trace(R) - 1.0) * 0.5, -1.0, 1.0)
    angle = np.arccos(cos_angle)
    if angle < 1e-9:
        return np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]]) * 0.5
    if np.pi - angle < 1e-6:
        # near pi the off-diagonal formula degenerates; use the symmetric part
        A = (R + np.eye(3)) * 0.5
        axis = np.sqrt(np.maximum(np.diag(A), 0.0))
        # fix signs from the largest component
        k = int(np.argmax(axis))
        if axis[k] > 0:
            for i in range(3):
                if i != k and A[k, i] < 0:
                    axis[i] = -axis[i]
        n = np.linalg.norm(axis)
        if n > 0:
            axis = axis / n
        return axis * angle
    w = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    return w * (angle / (2.0 * np.sin(angle)))


def scalar_quat_normalize(q: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(q)
    if n < 1e-12:
        raise ValueError("zero-norm quaternion")
    q = q / n
    if q[0] < 0:
        q = -q
    return q


def scalar_quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def scalar_quat_to_rot(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def scalar_quat_from_rotvec(phi: np.ndarray) -> np.ndarray:
    angle = np.linalg.norm(phi)
    if angle < 1e-12:
        return scalar_quat_normalize(np.array([1.0, phi[0] * 0.5, phi[1] * 0.5, phi[2] * 0.5]))
    axis = phi / angle
    half = 0.5 * angle
    return scalar_quat_normalize(np.concatenate(([np.cos(half)], np.sin(half) * axis)))


def left_jacobian_inv_so3(phi: np.ndarray) -> np.ndarray:
    """Inverse of the left Jacobian of SO(3) at rotation vector phi: the
    reference for `graph._left_jacobian_inv`."""
    angle = np.linalg.norm(phi)
    K = scalar_hat(phi)
    if angle < 1e-6:
        return np.eye(3) - 0.5 * K + (1.0 / 12.0) * (K @ K)
    half = 0.5 * angle
    cot = half / np.tan(half)
    return np.eye(3) - 0.5 * K + ((1.0 - cot) / (angle * angle)) * (K @ K)


def right_jacobian_inv_so3(phi: np.ndarray) -> np.ndarray:
    """Inverse of the right Jacobian of SO(3) at rotation vector phi."""
    return left_jacobian_inv_so3(-np.asarray(phi))


def _scalar_factor_terms(f, state):
    """Residual and Jacobians of one factor, one 3x3 product at a time."""
    if isinstance(f, PriorFactor):
        pose = state.poses.pose(f.pose_id)
        r_r = scalar_log_so3(scalar_quat_to_rot(f.prior.rotation).T @ scalar_quat_to_rot(pose.rotation))
        J = np.zeros((6, 6))
        J[:3, :3] = np.eye(3)
        J[3:, 3:] = right_jacobian_inv_so3(r_r)
        return np.concatenate([pose.translation - f.prior.translation, r_r]), {("pose", f.pose_id): J}
    if isinstance(f, RelativePoseFactor):
        Ti, Tj = state.poses.pose(f.pose_i), state.poses.pose(f.pose_j)
        Ri = scalar_quat_to_rot(Ti.rotation)
        v = Ri.T @ (Tj.translation - Ti.translation)
        E = scalar_quat_to_rot(f.measured.rotation).T
        r_r = scalar_log_so3(E @ Ri.T @ scalar_quat_to_rot(Tj.rotation))
        Ji = np.zeros((6, 6))
        Jj = np.zeros((6, 6))
        Ji[:3, :3] = -Ri.T
        Ji[:3, 3:] = scalar_hat(v)
        Jj[:3, :3] = Ri.T
        Ji[3:, 3:] = -left_jacobian_inv_so3(r_r) @ E
        Jj[3:, 3:] = right_jacobian_inv_so3(r_r)
        r = np.concatenate([v - f.measured.translation, r_r])
        return r, {("pose", f.pose_i): Ji, ("pose", f.pose_j): Jj}
    pose = state.poses.pose(f.pose_id)
    R = scalar_quat_to_rot(pose.rotation)
    v = R.T @ (state.landmarks[f.landmark_id] - pose.translation)
    Jp = np.zeros((3, 6))
    Jp[:, :3] = -R.T
    Jp[:, 3:] = scalar_hat(v)
    r = v - np.asarray(f.measured)
    return r, {("pose", f.pose_id): Jp, ("landmark", f.landmark_id): R.T}


def _scalar_whitened(f, state):
    r, jacs = _scalar_factor_terms(f, state)
    W = np.linalg.cholesky(f.information).T
    rw = W @ r
    norm = float(np.linalg.norm(rw))
    if f.robust_c is not None:
        w, cost = cauchy_weight(norm, f.robust_c), cauchy_cost(norm, f.robust_c)
    else:
        w, cost = 1.0, 0.5 * norm * norm
    return rw, {var: W @ J for var, J in jacs.items()}, w, cost


def _scalar_total_cost(state):
    return sum(_scalar_whitened(f, state)[3] for f in state.factors)


def _scalar_normal_equations(state, offsets, dim):
    H = np.zeros((dim, dim))
    b = np.zeros(dim)
    cost = 0.0
    for f in state.factors:
        rw, jacs, w, c = _scalar_whitened(f, state)
        cost += c
        items = list(jacs.items())
        for var_a, Ja in items:
            oa = offsets[var_a]
            da = Ja.shape[1]
            b[oa : oa + da] += w * (Ja.T @ rw)
            for var_b, Jb in items:
                ob = offsets[var_b]
                db = Jb.shape[1]
                H[oa : oa + da, ob : ob + db] += w * (Ja.T @ Jb)
    return H, b, cost


def scalar_optimize(g, max_iters=50, grad_tol=1e-8, lm_lambda0=1e-4):
    """Per-factor Levenberg-Marquardt over the full dense system: the
    reference for `graph.optimize`. It assembles H factor by factor and
    solves H + lam I directly."""
    state = g
    offsets, off = {}, 0
    for pid in range(len(state.poses)):
        offsets[("pose", pid)] = off
        off += 6
    for lid in sorted(state.landmarks):
        offsets[("landmark", lid)] = off
        off += 3
    dim = off

    def apply_step(state, delta):
        poses = []
        for pid in range(len(state.poses)):
            pose, o = state.poses.pose(pid), offsets[("pose", pid)]
            q = scalar_quat_normalize(scalar_quat_mul(pose.rotation, scalar_quat_from_rotvec(delta[o + 3 : o + 6])))
            poses.append(Pose(pose.translation + delta[o : o + 3], q))
        new = GraphState(PoseTable.of(poses), {}, list(state.factors))
        for lid, l in state.landmarks.items():
            o = offsets[("landmark", lid)]
            new.landmarks[lid] = l + delta[o : o + 3]
        return new

    lam = lm_lambda0
    cost = initial_cost = _scalar_total_cost(state)
    iterations = rejected = 0
    converged = False
    for _ in range(max_iters):
        iterations += 1
        H, b, cost = _scalar_normal_equations(state, offsets, dim)
        if float(np.max(np.abs(b))) < grad_tol:
            converged = True
            break
        accepted = False
        for _ in range(12):
            try:
                delta = np.linalg.solve(H + lam * np.eye(dim), -b)
            except np.linalg.LinAlgError:
                rejected += 1
                lam *= 10.0
                continue
            trial = apply_step(state, delta)
            trial_cost = _scalar_total_cost(trial)
            if trial_cost < cost:
                improvement = cost - trial_cost
                state = trial
                cost = trial_cost
                lam = max(lam / 10.0, 1e-12)
                accepted = True
                if improvement < 1e-9 * max(1.0, cost):
                    converged = True
                break
            rejected += 1
            lam *= 10.0
        if not accepted or converged:  # a stall ends the run unconverged
            break
    return OptimizeResult(state, cost, iterations, converged, initial_cost, rejected)


def scalar_transform_points(pose, points, inverse=False):
    """Each row of (k, 3) points moved from the body frame of `pose` to the
    world frame, t + R p (or back, R^T (p - t), if `inverse`), one point at
    a time: the reference for `Pose.transform_points` and its inverse."""
    R = pose.rot()
    if inverse:
        moved = [R.T @ (np.asarray(p, dtype=float) - pose.translation) for p in points]
    else:
        moved = [pose.translation + R @ np.asarray(p, dtype=float) for p in points]
    return np.reshape(moved, (-1, 3))


def pose_approx_equal(a, b, tol=1e-9) -> bool:
    """Translations within `tol` entry for entry, and rotations within `tol`
    as quaternions, either sign."""
    return (
        np.allclose(a.translation, b.translation, atol=tol)
        and min(np.linalg.norm(a.rotation - b.rotation), np.linalg.norm(a.rotation + b.rotation)) < tol
    )


def scalar_visible_landmarks(world, pose):
    """Per-landmark body-frame visibility: the reference for the screen in
    `sim.visible_landmarks`. Returns the rows of the visible landmarks."""
    out = []
    half_fov = math.radians(world.cfg.fov_deg) / 2.0
    R = pose.rot()
    for row, position in enumerate(world.positions):
        body = R.T @ (position - pose.translation)
        dist = float(np.linalg.norm(body))
        if dist > world.cfg.detection_range or dist == 0.0:
            continue
        if half_fov < math.pi:
            angle = abs(math.atan2(body[1], body[0]))
            if angle > half_fov:
                continue
        out.append(row)
    return out


def scalar_simulate_step(world, step, rng):
    """One simulated step, one detection at a time, that factors the noise
    covariance and builds the confusion matrix itself: the reference for
    `sim.simulate_step`, draws and all. Returns the world-frame detections,
    in table order, and the odometry increment."""
    cfg = world.cfg
    pose = world.trajectory.pose(step)
    t = float(step)
    measurements = []
    noise_chol = None
    cov = cfg.meas_noise_std**2 * np.eye(3)
    if np.any(cov != 0.0):
        noise_chol = np.linalg.cholesky(cov + 1e-18 * np.eye(3))
    n_classes = cfg.n_classes
    confusion = None
    if cfg.confusion_eps > 0.0:
        confusion = np.full((n_classes, n_classes), cfg.confusion_eps / (n_classes - 1))
        np.fill_diagonal(confusion, 1.0 - cfg.confusion_eps)
    for row in scalar_visible_landmarks(world, pose):
        if cfg.miss_rate > 0.0 and rng.random() < cfg.miss_rate:
            continue
        p = world.positions[row].copy()
        if noise_chol is not None:
            p = p + noise_chol @ rng.standard_normal(3)
        label = int(world.labels[row])
        if confusion is not None:
            label = int(rng.choice(n_classes, p=confusion[label]))
        measurements.append(Detection(step, t, p, label))
    if cfg.sim_fp_rate > 0.0:
        for _ in range(int(rng.poisson(cfg.sim_fp_rate))):
            direction = rng.uniform(0.0, 2.0 * math.pi)
            radius = cfg.detection_range * math.sqrt(rng.random())
            offset = np.array([radius * math.cos(direction), radius * math.sin(direction), 0.0])
            label = int(rng.integers(n_classes))
            measurements.append(Detection(step, t, pose.translation + offset, label))
    increment = None
    if step > 0:
        rel = pose.relative_to(world.trajectory.pose(step - 1))
        dt = rel.translation + np.array([cfg.odom_bias_drift, 0.0, 0.0])
        if cfg.odom_sigma_t > 0.0:
            dt = dt + cfg.odom_sigma_t * rng.standard_normal(3)
        dq = rel.rotation
        if cfg.odom_sigma_r > 0.0:
            dq = scalar_quat_normalize(scalar_quat_mul(dq, scalar_quat_from_rotvec(cfg.odom_sigma_r * rng.standard_normal(3))))
        increment = Pose(dt, dq)
    return measurements, increment


@pytest.fixture
def rng():
    return np.random.default_rng(0)


# ---------------------------------------------------------------------------
# independent posterior oracle: scores every assignment sequence with scipy
# densities and closed-form Kalman updates (no code shared with the package)


def oracle_step_score(ms, combo, existing, previous, n_fp, params):
    """Log measurement-set likelihood + log assignment prior for one step.

    existing/previous: dict id -> (class_id, mean, cov_unused, count).
    """
    from scipy.stats import multivariate_normal, poisson

    total = 0.0
    for m, target in zip(ms, combo):
        kind, lid = target
        if kind == "E" or kind == "P":
            table = existing if kind == "E" else previous
            cls, mean, _, _ = table[lid]
            if cls != m.label:
                return -np.inf
            cov = params.meas_cov if kind == "E" else params.meas_cov + np.asarray(
                params.trans_cov_by_class[m.label]
            )
            total += multivariate_normal.logpdf(m.position, mean=mean, cov=cov)
        elif kind == "N":
            total += np.log(params.dirichlet_alpha) - np.log(params.map_volume)
        else:  # false positive
            num = np.log(params.fp_rate) + np.log(n_fp if n_fp > 0 else params.dirichlet_alpha)
            denom = 0.0
            for table, extra in ((existing, None), (previous, "trans")):
                for cls, mean, _, _ in table.values():
                    if cls != m.label:
                        continue
                    cov = params.meas_cov
                    if extra == "trans":
                        cov = cov + np.asarray(params.trans_cov_by_class[m.label])
                    d = m.position - mean
                    if float(d @ np.linalg.solve(cov, d)) <= params.candidate_gate:
                        denom += multivariate_normal.logpdf(m.position, mean=mean, cov=cov)
            total += num - denom
    n_new = sum(1 for k, _ in combo if k == "N")
    n_fp_new = sum(1 for k, _ in combo if k == "F")
    n_meas = len(combo)
    from math import lgamma

    total += lgamma(n_new + 1) + lgamma(n_fp_new + 1) - lgamma(n_meas + 1)
    total += poisson.logpmf(n_new, params.lambda_new)
    total += poisson.logpmf(n_fp_new, params.lambda_fp)
    return float(total)


def oracle_apply(ms, combo, existing, previous, n_fp, params):
    """Closed-form Kalman state update for one step; returns new state."""
    existing = dict(existing)
    previous = dict(previous)
    R = np.asarray(params.meas_cov)
    for m, (kind, lid) in zip(ms, combo):
        if kind == "N":
            nid = max(list(existing) + list(previous), default=-1) + 1
            existing[nid] = (m.label, m.position.copy(), R.copy(), 1)
        elif kind == "F":
            n_fp += 1
        else:
            table = existing if kind == "E" else previous
            cls, mean, P, count = table[lid]
            K = P @ np.linalg.inv(P + R)
            mean = mean + K @ (m.position - mean)
            P = (np.eye(3) - K) @ P
            if kind == "P":
                del previous[lid]
            existing[lid] = (cls, mean, P, count + 1)
    return existing, previous, n_fp


def oracle_enumerate_combos(ms, existing, previous):
    """All valid per-step target combos as tuples of (kind, id)."""
    opts = []
    for m in ms:
        o = [("N", None), ("F", None)]
        o += [("E", lid) for lid in existing]
        o += [("P", lid) for lid in previous]
        opts.append(o)
    for combo in itertools.product(*opts):
        used = [lid for kind, lid in combo if kind in ("E", "P")]
        if len(used) == len(set(used)):
            yield combo


def exhaustive_posterior_best(episodes, params):
    """Best total score over every assignment sequence (depth-first)."""
    best = [-np.inf]

    def recurse(t, existing, previous, n_fp, score):
        if t == len(episodes):
            if score > best[0]:
                best[0] = score
            return
        ms = episodes[t]
        for combo in oracle_enumerate_combos(ms, existing, previous):
            s = oracle_step_score(ms, combo, existing, previous, n_fp, params)
            if not np.isfinite(s):
                continue
            e2, p2, f2 = oracle_apply(ms, combo, existing, previous, n_fp, params)
            recurse(t + 1, e2, p2, f2, score + s)

    recurse(0, {}, {}, 0, 0.0)
    return best[0]


def tree_combo_branches(ms, leaf, cm):
    """The same exhaustive combos as assignments on `cm`, the cost matrix of
    `ms` against `leaf`, for the tree side."""
    branches = []
    for combo in oracle_enumerate_combos(ms, rows_of(leaf.existing), rows_of(leaf.previous)):
        targets = []
        for kind, lid in combo:
            if kind == "N":
                targets.append(New())
            elif kind == "F":
                targets.append(FalsePositive())
            elif kind == "E":
                targets.append(Existing(lid))
            else:
                targets.append(Previous(lid))
        branches.append(assignment_of(cm, targets))
    return branches


# ---------------------------------------------------------------------------
# reference per-leaf association: the cost matrix, branch score and leaf
# extension written one covariance group and one child at a time, with a
# NaN-filled density table and a sort-then-search table update. The package
# computes the same numbers in fewer array passes; tests/test_perleaf.py
# compares the two bit for bit.


def oracle_cost_matrix(measurements, leaf, params):
    """The cost matrix of `measurements` against `leaf`, one column gather,
    product and scatter per covariance group."""
    from semslam import kernels
    from semslam.assoc import CostMatrix

    n, n_ex = len(measurements), len(leaf.existing)
    column_ids, col_class, means = leaf.columns("ids", "labels", "means")
    n_lm = len(column_ids)
    mat = np.full((n, n_lm + 2 * n), kernels.BIG)
    if n == 0:
        return CostMatrix(mat, column_ids, n_ex, np.zeros(n_lm), np.zeros(0))
    pos, meas_class = measurements.positions, measurements.labels
    row_log_prior = params._log_prior[np.minimum(meas_class, len(params._log_prior) - 1)]
    dp_bonus = np.zeros(n_lm)
    counts = leaf.existing.assign_count.tolist()
    dp_bonus[:n_ex] = counts if params.dp_weight_mode == "exp" else [math.log(c) for c in counts]
    col_group = params._cov_group[np.minimum(col_class, len(params._cov_group) - 1)]
    col_group[:n_ex] = 0
    if (col_group < 0).any():
        raise ContractViolation(f"no transitional covariance for class {col_class[np.argmax(col_group < 0)]}")
    density = np.full((n, n_lm), np.nan)
    gated = np.zeros((n, n_lm), dtype=bool)
    for g, (L_inv, logdet) in enumerate(params._cov_factors):
        cols = np.flatnonzero(col_group == g)
        if not len(cols):
            continue
        diffs = pos[:, None, :] - means[None, cols, :]
        y = L_inv @ diffs.reshape(-1, 3).T
        maha = np.sum(y * y, axis=0).reshape(n, len(cols))
        density[:, cols] = -0.5 * maha - logdet - 1.5 * math.log(2.0 * math.pi)
        gated[:, cols] = maha <= params.candidate_gate
    if n_lm:
        match = meas_class[:, None] == col_class[None, :]
        density[~match] = np.nan
        gated &= match
        ll_lm = density + dp_bonus[None, :]
        mat[:, :n_lm] = np.where(np.isnan(ll_lm), kernels.BIG, -ll_lm)
    new_cost = -(math.log(params.dirichlet_alpha) - math.log(params.map_volume))
    if leaf.n_fp > 0:
        fp_num = math.log(params.fp_rate) + math.log(leaf.n_fp)
    else:
        fp_num = math.log(params.fp_rate) + math.log(params.dirichlet_alpha)
    cand_sum = np.sum(np.where(gated, density, 0.0), axis=1) if n_lm else np.zeros(n)
    fp_cost = -(fp_num - cand_sum)
    np.fill_diagonal(mat[:, n_lm:], new_cost)
    np.fill_diagonal(mat[:, n_lm + n :], fp_cost)
    return CostMatrix(mat, column_ids, n_ex, dp_bonus, row_log_prior)


def oracle_set_log_likelihood(assignment, cm):
    """The branch score read from `cm` one cell at a time."""
    from semslam import kernels

    total, landmark_rows = 0.0, set(assignment.landmark_rows)
    for i, j in enumerate(assignment.columns):
        cost = float(cm.matrix[i, j])
        if cost >= kernels.BIG / 2:
            return LOG_ZERO
        if i in landmark_rows:
            prior = float(cm.row_log_prior[i])
            if prior <= LOG_ZERO:
                return LOG_ZERO
            total += prior
            total += -cost - float(cm.dp_bonus[j])
        else:
            total -= cost
    return total


def _oracle_concat(tables):
    """LandmarkTable.concat: the rows of `tables`, sorted by id."""
    out = tables[0] if len(tables) == 1 else LandmarkTable.stack(tables)
    if (np.diff(out.ids) <= 0).any():
        out = out.take(np.argsort(out.ids, kind="stable"))
        if (np.diff(out.ids) == 0).any():
            raise ContractViolation("landmark id in more than one row")
    return out


def oracle_extend(next_landmark_id, leaf, branches, measurements, params, cm):
    """The children of `leaf`, one per branch, and the next free landmark id:
    each child's table is concatenated and sorted first, and its updated
    rows are then found by id. Returns (children, next_landmark_id)."""
    from semslam.assoc import assignment_prior_log
    from semslam.estimation import ukf_update_safe
    from semslam.mht import HypothesisNode

    ex, prev, n_ex = leaf.existing, leaf.previous, len(leaf.existing)
    pos, labels, scene = measurements.positions, measurements.labels, measurements.scene_id
    children, updates = [], []
    for assignment in branches:
        ll = oracle_set_log_likelihood(assignment, cm)
        lp = assignment_prior_log(assignment, params)
        cols, rows, created = assignment.columns, assignment.landmark_rows, assignment.new_rows
        child = HypothesisNode(leaf.log_weight + ll + lp, ex, prev, leaf.n_fp + assignment.n_fp)
        parts = [ex]
        moved = [cols[i] - n_ex for i in rows if cols[i] >= n_ex]
        if moved:
            child.previous = prev.take(np.delete(np.arange(len(prev)), moved))
            parts.append(prev.take(moved))
        if created:
            ids = np.arange(next_landmark_id, next_landmark_id + len(created))
            next_landmark_id += len(created)
            covs = np.broadcast_to(params.meas_cov, (len(ids), 3, 3))
            last_scene = np.full_like(ids, scene)
            parts.append(LandmarkTable(ids, labels[created], pos[created], covs, np.ones_like(ids), last_scene))
        child.existing = _oracle_concat(parts)
        if rows:
            updates.append((child, rows, [cols[i] for i in rows]))
        children.append(child)
    if updates:
        lm_cols = [j for _, _, cols in updates for j in cols]
        prior_means, prior_covs = (column[lm_cols] for column in leaf.columns("means", "covs"))
        z = pos[[i for _, rows, _ in updates for i in rows]]
        mean, cov = ukf_update_safe(prior_means, prior_covs, z, params.meas_cov)
        start = 0
        for child, rows, cols in updates:
            t, stop = child.existing, start + len(rows)
            at = np.searchsorted(t.ids, cm.column_ids[cols])
            columns = (t.means, t.covs, t.assign_count, t.last_scene)
            means, covs, counts, last_scene = columns if t is not ex else (a.copy() for a in columns)
            means[at], covs[at], last_scene[at] = mean[start:stop], cov[start:stop], scene
            counts[at] += 1
            child.existing = LandmarkTable(t.ids, t.labels, means, covs, counts, last_scene)
            start = stop
    return children, next_landmark_id
