"""Hypothesis tree: branch extension, weight recursion, ESS-gated systematic
resampling, and the KLD bound on the number of kept hypotheses."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from . import kernels
from .assoc import (
    Assignment,
    AssocParams,
    CostMatrix,
    assignment_prior_log,
    measurement_set_log_likelihood,
)
from .config import RunConfig
from .core import ContractViolation, LandmarkTable, MeasurementTable
from .estimation import ukf_update_safe


@dataclass(eq=False)
class HypothesisNode:
    """One leaf of the tree: the landmarks of this submap (`existing`), those
    of earlier submaps not yet re-observed (`previous`), and the clutter count.
    A leaf shares the table arrays of the leaf it extends until it writes them."""

    log_weight: float
    existing: LandmarkTable = field(default_factory=LandmarkTable.empty)
    previous: LandmarkTable = field(default_factory=LandmarkTable.empty)
    n_fp: int = 0

    def columns(self, *fields: str) -> List[np.ndarray]:
        """The named fields of this leaf's landmarks in cost-matrix column
        order: the existing rows, then the previous rows."""
        return [np.concatenate([getattr(self.existing, f), getattr(self.previous, f)]) for f in fields]


def effective_sample_size(weights: Sequence[float]) -> float:
    w = np.asarray(weights, dtype=float)
    if abs(w.sum() - 1.0) > 1e-6:
        raise ContractViolation("weights must be normalized")
    return float(1.0 / np.sum(w * w))


def kld_bound(k: int, epsilon: float, delta: float, cube_bracket: bool = False) -> int:
    """Sample bound from the chi-square normal approximation, as printed.

    cube_bracket applies the cubed bracket of the original KLD-sampling
    derivation instead.
    """
    if k < 2:
        raise ValueError("kld_bound requires k >= 2")
    z = statistics.NormalDist().inv_cdf(1.0 - delta)
    a = 2.0 / (9.0 * (k - 1))
    bracket = 1.0 - a + math.sqrt(a) * z
    if cube_bracket:
        bracket = bracket**3
    return int(math.floor((k - 1) / (2.0 * epsilon) * bracket))


class HypothesisTree:
    """Single-writer hypothesis tree over per-step assignments. Only the
    leaves are kept: nothing reads a hypothesis's ancestry."""

    def __init__(
        self,
        cfg: RunConfig,
        previous_landmarks: Optional[LandmarkTable] = None,
        landmark_id_start: int = 0,
    ):
        self.cfg = cfg
        self.rng = np.random.default_rng(cfg.run_seed)
        self.next_landmark_id = landmark_id_start
        # the root leaf starts the clutter count at 0 in every submap: carrying
        # it across submaps lets the DP rich-get-richer weight swallow new landmarks
        self.leaves = [HypothesisNode(0.0, previous=previous_landmarks or LandmarkTable.empty())]

    # -- weights ----------------------------------------------------------

    def normalized_weights(self) -> np.ndarray:
        lw = np.array([leaf.log_weight for leaf in self.leaves])
        lw = lw - lw.max()
        w = np.exp(lw)
        return w / w.sum()

    def best_leaf(self) -> HypothesisNode:
        return max(self.leaves, key=lambda n: n.log_weight)

    # -- extension --------------------------------------------------------

    def extend(
        self,
        leaf: HypothesisNode,
        branches: Sequence[Assignment],
        measurements: MeasurementTable,
        assoc_params: AssocParams,
        cost_matrix: CostMatrix,
    ) -> List[HypothesisNode]:
        """Replace `leaf` by one child per branch; child weights follow the
        recursion parent + measurement log-likelihood + assignment log-prior.

        The likelihood is read from `cost_matrix`, the matrix the branches
        were solved from: built for this leaf and these measurements. A
        branch's landmark rows update the landmark of their column, and its
        New rows create one landmark each."""
        if not branches:
            raise ContractViolation("branches must be non-empty")
        ex, prev, n_ex = leaf.existing, leaf.previous, len(leaf.existing)
        pos, labels, scene = measurements.positions, measurements.labels, measurements.scene_id
        children, plans = [], []
        for assignment in branches:
            ll = measurement_set_log_likelihood(assignment, cost_matrix)
            lp = assignment_prior_log(assignment, assoc_params)
            cols, rows, created = assignment.columns, assignment.landmark_rows, assignment.new_rows
            children.append(HypothesisNode(leaf.log_weight + ll + lp, ex, prev, leaf.n_fp + assignment.n_fp))
            plans.append((rows, [cols[i] for i in rows], created, self.next_landmark_id))
            self.next_landmark_id += len(created)
        # every branch's landmark updates run as one Kalman batch, in child and
        # measurement order, gathered from this leaf's columns
        lm_cols = np.array([j for _, cols, _, _ in plans for j in cols], dtype=int)
        if len(lm_cols):
            source = (ex.means, ex.covs) if lm_cols.max() < n_ex else leaf.columns("means", "covs")
            z = pos.take([i for rows, _, _, _ in plans for i in rows], axis=0)
            prior_means, prior_covs = (column.take(lm_cols, axis=0) for column in source)
            mean, cov = ukf_update_safe(prior_means, prior_covs, z, assoc_params.meas_cov)
        stop = 0
        for child, (rows, cols, created, first_id) in zip(children, plans):
            if not (rows or created):
                continue  # the child shares the leaf's tables
            start, stop = stop, stop + len(rows)
            # the child's rows: the leaf's existing rows, the previous rows its
            # branch re-anchors into the current submap (keeping their creation
            # ids), then the rows it creates. Updates are written in that order,
            # in place where the stack built new arrays, else into copies; the
            # rows are then sorted by id.
            moved = [j - n_ex for j in cols if j >= n_ex]
            parts = [ex]
            if moved:
                kept = np.ones(len(prev), dtype=bool)
                kept[moved] = False
                child.previous = prev.take(kept)
                parts.append(prev.take(moved))
            if created:
                ids = np.arange(first_id, first_id + len(created))
                covs = np.broadcast_to(assoc_params.meas_cov, (len(ids), 3, 3))  # checked once, by AssocParams
                new = (labels.take(created), pos.take(created, axis=0), covs, np.ones_like(ids), np.full_like(ids, scene))
                parts.append(LandmarkTable(ids, *new))
            t = LandmarkTable.stack(parts) if len(parts) > 1 else ex
            updated = (t.means, t.covs, t.assign_count, t.last_scene)
            means, covs, counts, last_scene = updated if t is not ex else (a.copy() for a in updated)
            if rows:
                after = iter(range(n_ex, len(t)))
                at = np.array([j if j < n_ex else next(after) for j in cols])
                means[at], covs[at], last_scene[at] = mean[start:stop], cov[start:stop], scene
                counts[at] += 1
            child.existing = LandmarkTable.concat([LandmarkTable(t.ids, t.labels, means, covs, counts, last_scene)])
        self.leaves = [node for node in self.leaves if node is not leaf] + children
        return children

    # -- resampling -------------------------------------------------------

    def resample(self, force: bool = False) -> bool:
        """Selective systematic resampling with the KLD count bound.

        Triggers when ESS falls below ess_fraction * N (or when forced).
        Returns True if resampling happened.
        """
        cfg = self.cfg
        n_leaves = len(self.leaves)
        if n_leaves <= 1:
            return False
        w = self.normalized_weights()
        if not force and effective_sample_size(w) >= cfg.ess_fraction * n_leaves:
            return False
        u0 = float(self.rng.random())
        n = min(n_leaves, cfg.max_hypotheses)
        while True:
            idx = kernels.systematic_resample(w, n, u0)
            k = len(set(idx.tolist()))
            if k < 2:
                bound = cfg.max_hypotheses
            else:
                bound = min(kld_bound(k, cfg.kld_epsilon, cfg.kld_delta, cfg.kld_cube_bracket), cfg.max_hypotheses)
            bound = max(bound, 1)
            if bound < n:
                n = bound
            else:
                break
        counts = np.bincount(idx, minlength=n_leaves).tolist()
        survivors = [i for i, count in enumerate(counts) if count]
        for i in survivors:
            self.leaves[i].log_weight = math.log(counts[i] / float(len(idx)))
        self.leaves = [self.leaves[i] for i in survivors]
        return True

    def prune_to_best(self, keep: int) -> None:
        """Likelihood-threshold baseline: keep the `keep` best leaves."""
        order = sorted(self.leaves, key=lambda n: -n.log_weight)
        self.leaves = order[:keep]
