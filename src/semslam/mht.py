"""Hypothesis tree: branch extension, weight recursion, ESS-gated systematic
resampling, and the KLD bound on the number of kept hypotheses."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import kernels
from .assoc import (
    Assignment,
    AssocParams,
    CostMatrix,
    Existing,
    FalsePositive,
    New,
    Previous,
    assignment_prior_log,
    measurement_set_log_likelihood,
)
from .config import RunConfig
from .core import ContractViolation, Landmark, SemanticMeasurement
from .estimation import ukf_update_safe


@dataclass(eq=False)
class HypothesisNode:
    """One leaf of the tree; landmark state is copy-on-write from the leaf it extends."""

    log_weight: float
    existing: Dict[int, Landmark] = field(default_factory=dict)
    previous: Dict[int, Landmark] = field(default_factory=dict)
    n_fp: int = 0


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
        previous_landmarks: Optional[Dict[int, Landmark]] = None,
        n_fp: int = 0,
        landmark_id_start: int = 0,
    ):
        self.cfg = cfg
        self.rng = np.random.default_rng(cfg.run_seed)
        self.next_landmark_id = landmark_id_start
        self.leaves: List[HypothesisNode] = [HypothesisNode(0.0, {}, dict(previous_landmarks or {}), n_fp)]

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
        measurements: Sequence[SemanticMeasurement],
        assoc_params: AssocParams,
        cost_matrix: CostMatrix,
    ) -> List[HypothesisNode]:
        """Replace `leaf` by one child per branch; child weights follow the
        recursion parent + measurement log-likelihood + assignment log-prior.

        The likelihood is read from `cost_matrix`, the matrix the branches
        were solved from: built for this leaf and these measurements."""
        if not branches:
            raise ContractViolation("branches must be non-empty")
        children = []
        updates = []  # (child, prior landmark, measurement), in child and measurement order
        created = []  # (child, new landmark id, measurement)
        for assignment in branches:
            ll = measurement_set_log_likelihood(assignment, cost_matrix)
            lp = assignment_prior_log(assignment, assoc_params)
            child = HypothesisNode(
                leaf.log_weight + ll + lp,
                dict(leaf.existing),
                leaf.previous,  # only mutated via re-anchoring below, which copies
                leaf.n_fp,
            )
            self._collect_assignment(child, assignment, measurements, updates, created)
            children.append(child)
        # every branch's landmark updates run as one UKF batch; they fill the
        # slots reserved in measurement order, so each dict keeps its order
        if updates:
            priors, ms = zip(*[(lm, m) for _, lm, m in updates])
            for (child, _, _), lm in zip(updates, ukf_update_safe(priors, ms, assoc_params.meas_cov, self.cfg)):
                child.existing[lm.id] = lm
        heads = [(lid, m.label, 1, 0, m.scene_id) for _, lid, m in created]
        covs = np.repeat(assoc_params.meas_cov[None], len(created), axis=0)
        for (child, _, _), lm in zip(created, Landmark.stack(heads, [m.position for _, _, m in created], covs)):
            child.existing[lm.id] = lm
        self.leaves = [n for n in self.leaves if n is not leaf] + children
        return children

    def _collect_assignment(self, node, assignment, measurements, updates, created):
        """One branch's bookkeeping; reserves the slots that the batches fill."""
        previous_copied = False
        for m, target in zip(measurements, assignment.targets):
            if isinstance(target, New):
                lid = self.next_landmark_id
                self.next_landmark_id += 1
                node.existing[lid] = None
                created.append((node, lid, m))
            elif isinstance(target, FalsePositive):
                node.n_fp += 1
            elif isinstance(target, Existing):
                updates.append((node, node.existing[target.landmark_id], m))
            elif isinstance(target, Previous):
                # re-anchor into the current submap; keeps the creation id
                if not previous_copied:
                    node.previous = dict(node.previous)
                    previous_copied = True
                lm = node.previous.pop(target.landmark_id)
                node.existing[lm.id] = lm
                updates.append((node, lm, m))

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
        counts: Dict[int, int] = {}
        for i in idx.tolist():
            counts[i] = counts.get(i, 0) + 1
        survivors = []
        total = float(sum(counts.values()))
        for i in sorted(counts):
            leaf = self.leaves[i]
            leaf.log_weight = math.log(counts[i] / total)
            survivors.append(leaf)
        self.leaves = survivors
        return True

    def prune_to_best(self, keep: int) -> None:
        """Likelihood-threshold baseline: keep the `keep` best leaves."""
        order = sorted(self.leaves, key=lambda n: -n.log_weight)
        self.leaves = order[:keep]
