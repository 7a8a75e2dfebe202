"""Semantic loop-closure detection.

Two-stage retrieval (submap histograms under JSD, scene histograms under
L2), topology verification via Laplacian NCC plus Hungarian scene
similarity, and a final RANSAC rigid consistency check on the verified
candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import kernels
from .config import RunConfig
from .core import ContractViolation, MeasurementTable, class_counts
from .geometry import Pose, rot_to_quat

LN2 = math.log(2.0)
# verification is the expensive stage: each query scene verifies at most
# this many of its closest retrievals
MAX_CANDIDATES = 5


# ---------------------------------------------------------------------------
# histogram distances


def _check_normalized(h: np.ndarray):
    if abs(float(h.sum()) - 1.0) > 1e-9 or np.any(h < -1e-15):
        raise ContractViolation("histogram must be normalized")


def jsd(h1: np.ndarray, h2: np.ndarray) -> float:
    """Jensen-Shannon divergence in nats; bounded by ln 2."""
    h1 = np.asarray(h1, dtype=float)
    h2 = np.asarray(h2, dtype=float)
    if h1.shape != h2.shape:
        raise ContractViolation("histograms must share the class dimension")
    _check_normalized(h1)
    _check_normalized(h2)
    # p / m for the mixture m = s / 2 is taken as 2 p / s: the same bits
    # wherever s / 2 is exact, and finite where s / 2 underflows to 0
    s = h1 + h2

    def kl(p):
        mask = p > 0
        return float(np.sum(p[mask] * np.log(2.0 * p[mask] / s[mask])))

    return 0.5 * kl(h1) + 0.5 * kl(h2)


# ---------------------------------------------------------------------------
# retrieval


def scene_histogram(labels, n_classes: int) -> np.ndarray:
    """A scene's normalized class histogram (all zeros for an empty scene)."""
    counts = class_counts(labels, n_classes)
    return counts / max(counts.sum(), 1)


def similar_submaps(det: "LoopClosureDetector", query_submap_hist: np.ndarray) -> List[int]:
    """Stage 1: the indexed submaps within tau_jsd of the query submap
    histogram (exact JSD), in submap id order. It depends on the query
    submap alone, so it runs once for all of that submap's scenes."""
    query_submap_hist = np.asarray(query_submap_hist, dtype=float)
    hists = det.submap_hist
    return [sid for sid in sorted(hists) if jsd(query_submap_hist, hists[sid]) <= det.cfg.tau_jsd]


def query_candidates(
    det: "LoopClosureDetector", submaps: Sequence[int], query: MeasurementTable
) -> List[MeasurementTable]:
    """Stage 2: the scenes of the stage-1 submaps within r_l2 of the query
    scene histogram, closest first (ties by scene id). Scenes inside the
    exclusion window are dropped."""
    cfg = det.cfg
    hist = scene_histogram(query.labels, cfg.n_classes)
    out = []
    for sid in submaps:
        for s, h in det.scenes[sid]:
            if abs(s.scene_id - query.scene_id) <= cfg.exclusion_window:
                continue
            d = float(np.linalg.norm(hist - h))
            if d <= cfg.r_l2:
                out.append((d, s.scene_id, s))
    return [s for _, _, s in sorted(out, key=lambda c: c[:2])]


# ---------------------------------------------------------------------------
# topology score


def _distances(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    # one coordinate at a time: cheaper than reducing an (n, m, 3) array
    dx, dy, dz = (p[:, k, None] - q[:, k] for k in range(3))
    return np.sqrt(dx * dx + dy * dy + dz * dz)


def scene_laplacian(scene: MeasurementTable, edge_radius: float) -> np.ndarray:
    """Graph Laplacian of the landmark proximity graph, nodes ordered by
    (class id, distance to the scene centroid)."""
    n = scene.positions.shape[0]
    if n == 0:
        raise ContractViolation("cannot build the Laplacian of an empty scene")
    centroid = scene.positions.mean(axis=0)
    ids = scene.labels.tolist()
    order = sorted(range(n), key=lambda i: (ids[i], float(np.linalg.norm(scene.positions[i] - centroid)), i))
    p = scene.positions[order]
    adj = (_distances(p, p) <= edge_radius).astype(float)
    np.fill_diagonal(adj, 0.0)
    return np.diag(adj.sum(axis=1)) - adj


def ncc_score(L1: np.ndarray, L2: np.ndarray) -> float:
    """Normalized cross correlation of flattened, zero-padded matrices."""
    n = max(L1.shape[0], L2.shape[0])

    def pad(L):
        out = np.zeros((n, n))
        out[: L.shape[0], : L.shape[1]] = L
        return out.ravel()

    a = pad(L1)
    b = pad(L2)
    a = a - a.mean()
    b = b - b.mean()
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        if na == 0.0 and nb == 0.0:
            return 1.0
        return 0.0
    return float(np.clip((a @ b) / (na * nb), -1.0, 1.0))


# ---------------------------------------------------------------------------
# scene similarity


def _pair_term(s_match, s_class, term_mode: str):
    """One matched pair's score term, elementwise on floats or arrays."""
    if term_mode == "as_printed":
        return 1.0 - s_match * s_class
    if term_mode == "distance_weighted":
        return 1.0 - (1.0 - s_match) * (1.0 - s_class)
    raise ContractViolation(f"unknown term_mode {term_mode!r}")


def _running_sum(terms: np.ndarray) -> float:
    # add.accumulate adds one term at a time, in order, as a Python loop does
    return float(np.add.accumulate(terms)[-1]) if terms.size else 0.0


def scene_match(
    a: MeasurementTable,
    b: MeasurementTable,
    penalty_p: float = 0.5,
    dist_norm_scale: float = 5.0,
    term_mode: str = "as_printed",
) -> float:
    """The printed similarity score of a Hungarian match on Euclidean
    landmark distances, normalized to [0, 2] by dist_norm_scale."""
    na, nb = len(a), len(b)
    if na == 0 or nb == 0:
        raise ContractViolation("scene_match requires non-empty scenes")
    H = np.minimum(_distances(a.positions, b.positions) / dist_norm_scale, 2.0)
    # assignment prefers same-class pairings (penalty exceeds the distance
    # range); the similarity score itself stays a function of H and class
    same = a.labels[:, None] == b.labels[None, :]
    C = H + np.where(same, 0.0, 4.0)
    if na <= nb:
        ia = np.arange(na)
        ib, _, _, _ = kernels.lap_solve(np.ascontiguousarray(C))
    else:
        r2c, _, _, _ = kernels.lap_solve(np.ascontiguousarray(C.T))
        ib = np.argsort(r2c)
        ia = r2c[ib]
    s_class = np.where(same[ia, ib], 0.0, penalty_p)
    return _running_sum(_pair_term(1.0 - H[ia, ib] / 2.0, s_class, term_mode))


# ---------------------------------------------------------------------------
# RANSAC rigid consistency


@dataclass(frozen=True, eq=False)
class LoopClosure:
    query_scene: int
    candidate_scene: int
    relative_pose: Pose
    inlier_pairs: Tuple[Tuple[int, int], ...]


def rigid_transform_svd(src: np.ndarray, dst: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Least-squares rigid transform (R, t) with dst ~ R @ src + t."""
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    cs = src.mean(axis=0)
    cd = dst.mean(axis=0)
    H = (src - cs).T @ (dst - cd)
    U, _, Vt = np.linalg.svd(H)
    d = np.sign(np.linalg.det(Vt.T @ U.T))
    D = np.diag([1.0, 1.0, d])
    R = Vt.T @ D @ U.T
    t = cd - R @ cs
    return R, t


def _margin(src: np.ndarray, dst: np.ndarray) -> float:
    # 1e-9 of the largest coordinate or more: covers rounding and only admits
    return 1e-9 * max(1.0, float(np.abs(src).max()), float(np.abs(dst).max()))


def consensus_possible(src, dst, m: int, inlier_tol: float, gap=None) -> Optional[np.ndarray]:
    """The pairs that can be among m inliers of one rigid fit within
    inlier_tol (a mask), or None if no fit has m. A rigid motion keeps
    distances, so those pairs i, j have |gap_ij| = | |s_i - s_j| - |d_i - d_j| |
    <= 2 tol: an m-clique of compatible pairs. It survives peeling every pair
    with fewer than m - 1 compatible neighbours, then every compatible link
    whose ends share fewer than m - 2. Counts are sums of ones: exact."""
    if gap is None:
        gap = _distances(src, src) - _distances(dst, dst)
    near = (~(np.abs(gap) > 2.0 * abs(inlier_tol) + _margin(src, dst))).astype(float)  # NaN: compatible
    np.fill_diagonal(near, 0.0)
    live = np.ones(src.shape[0])
    count, left = live.size, -1
    while m <= count != left:
        live *= near @ live >= m - 1
        count, left = int(live.sum()), count
    if count < m:
        return None
    core = np.flatnonzero(live)
    near = near[core][:, core]
    links, left = int(near.sum()), -1
    while links != left:  # a kept link's ends keep m - 1 neighbours
        near *= near @ near >= m - 2
        links, left = int(near.sum()), links
    live[core] = near.any(axis=1)
    return live > 0.0 if links else None


def _sample_bound(src, dst, picks, core, tol) -> np.ndarray:
    """Per sample, the core pairs with | |s_i - c_s| - |d_i - c_d| | <= tol
    (+ margin), c being the sample's centroids."""
    cs, cd = src[picks].sum(axis=1) / 3.0, dst[picks].sum(axis=1) / 3.0
    gap = _distances(cs, src[core]) - _distances(cd, dst[core])
    return (np.abs(gap) <= abs(tol) + _margin(src, dst)).sum(axis=1)


def ransac_verify(
    src: np.ndarray,
    dst: np.ndarray,
    rng: np.random.Generator,
    iters: int,
    inlier_tol: float,
    min_inliers: int,
    gap: Optional[np.ndarray] = None,
) -> Optional[Tuple[Pose, np.ndarray]]:
    """RANSAC rigid alignment dst ~ T(src) over `iters` random minimal
    samples: the first sample with the most inliers, refit twice. Returns
    (pose, inlier mask) or None on rejection. Deterministic under a seeded
    rng. Inputs that `consensus_possible` (given `gap`, if any) rules out
    return None without drawing, leaving rng where a scan leaves it: a PCG64
    generator (`default_rng`'s) takes one step per float64 drawn. Samples
    whose `_sample_bound` is below m are not fit: they have fewer than m
    inliers, so whenever some sample has m, the first best one is kept."""
    src = np.asarray(src, dtype=float).reshape(-1, 3)
    dst = np.asarray(dst, dtype=float).reshape(-1, 3)
    finite = np.isfinite(src).all(axis=1) & np.isfinite(dst).all(axis=1)
    if not finite.all():
        raise ContractViolation(f"putative pairs {np.flatnonzero(~finite).tolist()} have a non-finite position")
    n, m = src.shape[0], max(min_inliers, 3)
    if n < 3:
        return None
    core = consensus_possible(src, dst, m, inlier_tol, gap)
    if core is None:
        rng.bit_generator.advance(iters * n)  # the draws of a scan, skipped
        return None
    # samples are drawn up front, so the kernel and its scalar oracle score the same ones
    picks = np.argsort(rng.random((iters, n)), axis=1)[:, :3]
    picks = picks[_sample_bound(src, dst, picks, core, inlier_tol) >= m]
    if picks.shape[0] == 0:
        return None
    best, count = kernels.ransac_best_mask(src, dst, picks, inlier_tol)
    if count < m:
        return None
    R, t = rigid_transform_svd(src[best], dst[best])
    err = np.linalg.norm(dst - (src @ R.T + t), axis=1)
    mask = err <= inlier_tol
    if int(mask.sum()) < min_inliers:
        return None
    R, t = rigid_transform_svd(src[mask], dst[mask])
    return Pose.unit(t, rot_to_quat(R)), mask


# ---------------------------------------------------------------------------
# verification pipeline


def score_bound(n_pairs: int, cfg: RunConfig) -> float:
    """A lower bound on S_NCC + S_scene, as computed, over n_pairs matched pairs.
    S_NCC >= -1. With finite positions, and the finite penalty_p and finite,
    positive dist_norm_scale that their domains give, s_match lies in [0, 1]
    and each rounded step of a pair's term is monotone in it, so the term is
    least at s_match 0 or 1."""
    p, mode = cfg.penalty_p, cfg.scene_term_mode
    floor = min(_pair_term(s, c, mode) for s in (0.0, 1.0) for c in (0.0, p))
    return -1.0 + _running_sum(np.full(n_pairs, float(floor)))


def pair_scores(a: MeasurementTable, b: MeasurementTable, cfg: RunConfig, laplacian=None) -> Tuple[float, float]:
    """(S_NCC, S_scene) of two non-empty scenes; laplacian maps a scene to
    its Laplacian (default: scene_laplacian at edge_radius)."""
    lap = laplacian or (lambda s: scene_laplacian(s, cfg.edge_radius))
    s_scene = scene_match(a, b, cfg.penalty_p, cfg.dist_norm_scale, cfg.scene_term_mode)
    return ncc_score(lap(a), lap(b)), s_scene


def verify_pair(a: MeasurementTable, b: MeasurementTable, cfg: RunConfig, laplacian=None) -> bool:
    """Topology + similarity check: passes iff S_NCC + S_scene > tau_verify.
    An empty scene fails. A pair whose score_bound already exceeds
    tau_verify passes unscored."""
    na, nb = len(a), len(b)
    if na == 0 or nb == 0:
        return False
    if score_bound(min(na, nb), cfg) > cfg.tau_verify:
        return True
    s_ncc, s_scene = pair_scores(a, b, cfg, laplacian)
    return s_ncc + s_scene > cfg.tau_verify


class LoopClosureDetector:
    """Owns the retrieval index, the scene Laplacians and the RANSAC
    generator; reads every threshold from the run config. The index holds
    each submap's histogram and, per submap, its scene tables with their
    histograms."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.submap_hist: Dict[int, np.ndarray] = {}
        self.scenes: Dict[int, List[Tuple[MeasurementTable, np.ndarray]]] = {}
        self.rng = np.random.default_rng(cfg.run_seed)
        self._lap_cache: Dict[int, np.ndarray] = {}
        self._dist_cache: Dict[int, np.ndarray] = {}

    def _laplacian(self, scene: MeasurementTable) -> np.ndarray:
        # scene ids are unique per run and tables are immutable
        L = self._lap_cache.get(scene.scene_id)
        if L is None:
            L = scene_laplacian(scene, self.cfg.edge_radius)
            self._lap_cache[scene.scene_id] = L
        return L

    def _scene_distances(self, scene: MeasurementTable) -> np.ndarray:
        D = self._dist_cache.get(scene.scene_id)
        if D is None:
            D = self._dist_cache[scene.scene_id] = _distances(scene.positions, scene.positions)
        return D

    def detect(self, submaps: Sequence[int], query_scene: MeasurementTable) -> List[LoopClosure]:
        """Returns at most one closure: the candidate with the strongest
        geometric consensus for this body-frame query scene. submaps is
        stage 1 of retrieval for the query's submap (`similar_submaps`).
        Only candidates that pass `verify_pair` go on to RANSAC."""
        cfg = self.cfg
        closures = []
        for cand in query_candidates(self, submaps, query_scene)[:MAX_CANDIDATES]:
            if not verify_pair(query_scene, cand, cfg, self._laplacian):
                continue
            # putative correspondences: every same-class cross pairing (row-major);
            # the consensus step sorts out which instances actually align
            ia, ib = np.nonzero(query_scene.labels[:, None] == cand.labels[None, :])
            if ia.size < 3:
                continue
            src, dst = cand.positions[ib], query_scene.positions[ia]
            # the putatives' distances: sub-blocks of the scenes', bit for bit
            gap = self._scene_distances(cand)[ib][:, ib] - self._scene_distances(query_scene)[ia][:, ia]
            result = ransac_verify(src, dst, self.rng, cfg.ransac_iters, cfg.ransac_tol, cfg.ransac_min_inliers, gap)
            if result is None:
                continue
            rel, mask = result
            ia, ib = ia[mask], ib[mask]
            # inliers must cover distinct landmarks on both sides (counted with
            # sets: a bare np.unique imports numpy.ma)
            if min(len(set(ia.tolist())), len(set(ib.tolist()))) < cfg.ransac_min_inliers:
                continue
            inliers = tuple(zip(ia.tolist(), ib.tolist()))
            closures.append(LoopClosure(query_scene.scene_id, cand.scene_id, rel, inliers))
        return [max(closures, key=lambda lc: len(lc.inlier_pairs))] if closures else []

    def add_submap(self, submap_id: int, histogram: np.ndarray, scenes: Sequence[MeasurementTable]):
        """Index a submap: its class histogram and its body-frame scene tables."""
        histogram = np.asarray(histogram, dtype=float)
        n = self.cfg.n_classes
        if histogram.shape != (n,):
            raise ContractViolation(f"expected shape ({n},), got {histogram.shape}")
        self.submap_hist[submap_id] = histogram
        self.scenes[submap_id] = [(s, scene_histogram(s.labels, n)) for s in scenes]
