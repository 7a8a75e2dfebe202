"""End-to-end pipeline: association + hypothesis tree per submap, fusion
into the factor graph, semantic loop-closure search, optimization, metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .assoc import (
    AssocParams,
    build_cost_matrix,
    generate_branches,
    nearest_neighbor_assignment,
    solve_assignment,
)
from .config import RunConfig
from .core import LandmarkTable, MeasurementTable, PoseTable, class_counts
from .estimation import fuse_hypotheses
from .geometry import Pose, quat_to_rot
from .graph import (
    GraphState,
    LandmarkFactor,
    PriorFactor,
    RelativePoseFactor,
    optimize,
    rmse,
)
from .mht import HypothesisTree
from .placerec import LoopClosureDetector, similar_submaps
from .submap import Corpus, SubmapSummary, gate, tfidf_score


@dataclass
class PipelineResult:
    trajectory: PoseTable
    fused_map: LandmarkTable  # means from the optimised graph, covariances as fused
    hypothesis_counts: List[int]
    landmark_counts: List[int]
    loop_closure_counts: List[int]  # cumulative per frame
    n_loop_closures: int
    raw_odometry: PoseTable
    per_frame_error: Optional[List[float]] = None
    final_rmse: Optional[float] = None

    def metrics_rows(self):
        rows = []
        for t in range(len(self.trajectory)):
            err = self.per_frame_error[t] if self.per_frame_error is not None else 0.0
            rows.append(
                (t, err, self.hypothesis_counts[t], self.landmark_counts[t], self.loop_closure_counts[t])
            )
        return rows

    @property
    def mean_hypotheses(self) -> float:
        return float(np.mean(self.hypothesis_counts))


def integrate_odometry(increments: PoseTable) -> PoseTable:
    """The odometry chain from the identity pose."""
    poses = [Pose()]
    for row in range(len(increments)):
        poses.append(poses[-1].compose(increments.pose(row)))
    return PoseTable.of(poses)


def _assoc_params(cfg: RunConfig) -> AssocParams:
    classes = range(cfg.n_classes)
    return AssocParams(
        meas_cov=cfg.meas_cov_scale * np.eye(3),
        trans_cov_by_class={c: cfg.trans_cov_scale * np.eye(3) for c in classes},
        dirichlet_alpha=cfg.dirichlet_alpha,
        fp_rate=cfg.fp_rate,
        map_volume=cfg.map_volume,
        lambda_new=cfg.lambda_new,
        lambda_fp=cfg.lambda_fp,
        class_prior={c: 1.0 / cfg.n_classes for c in classes},
        dirac_classes=frozenset(cfg.dirac_class_ids),
        dp_weight_mode=cfg.dp_weight_mode,
    )


class Pipeline:
    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.assoc_params = _assoc_params(cfg)
        self.detector = LoopClosureDetector(cfg)
        self.corpus = Corpus(cfg.n_classes)
        # factor graph; its poses are the trajectory estimate
        self.graph = GraphState(PoseTable.of([Pose()]), factors=[PriorFactor(0, Pose(), 1e6 * np.eye(6))])
        odo_cov = np.diag(
            [max(cfg.odom_sigma_t, 1e-3) ** 2] * 3 + [max(cfg.odom_sigma_r, 1e-3) ** 2] * 3
        )
        self._odo_info = np.linalg.inv(odo_cov)
        self._loop_info = cfg.loop_info_scale * np.eye(6)
        # running state
        self.previous_landmarks = LandmarkTable.empty()  # the map: every landmark fused so far
        self.next_landmark_id = 0
        self.n_loop_closures = 0
        self.submap_id = 0
        self._submap_scenes: List[MeasurementTable] = []  # body frame
        self._new_tree()

    # -- submap bookkeeping ----------------------------------------------

    def _new_tree(self):
        self.tree = HypothesisTree(self.cfg, self.previous_landmarks, self.next_landmark_id)
        self._submap_scenes = []

    # -- per-scene processing --------------------------------------------

    def process_scene(self, step: int, measurements: MeasurementTable, odom_inc: Optional[Pose]):
        """Extend the trajectory by odom_inc, then associate the scene's
        body-frame measurements in the world frame. Scene ids are pose ids,
        so the table of step t must have scene id t, and step t > 0 adds
        pose row t."""
        if measurements.scene_id != step:
            raise ValueError(f"measurement table has scene id {measurements.scene_id} at step {step}")
        poses = self.graph.poses
        if step != (len(poses) if step > 0 else len(poses) - 1):
            raise ValueError(f"step {step} does not follow a trajectory of {len(poses)} poses")
        if step > 0:
            if odom_inc is None:
                raise ValueError("missing odometry increment")
            pose = poses.pose(-1).compose(odom_inc)
            self.graph.poses = poses.append(pose)
            self.graph.factors.append(RelativePoseFactor(step - 1, step, odom_inc, self._odo_info))
        else:
            pose = poses.pose(0)
        if len(measurements):
            scene, times, labels = measurements.scene_id, measurements.times, measurements.labels
            world = pose.transform_points(measurements.positions)  # checked: it may overflow
            self._associate(MeasurementTable.build(scene, times, world, labels))
            self._submap_scenes.append(measurements)

    def _associate(self, measurements: MeasurementTable):
        cfg = self.cfg
        if cfg.mode == "single_ukf":
            leaf = self.tree.leaves[0]
            cm = build_cost_matrix(measurements, leaf, self.assoc_params)
            assignment = nearest_neighbor_assignment(measurements, leaf, cm, cfg.nn_new_dist)
            self.tree.extend(leaf, [assignment], measurements, self.assoc_params, cm)
            return
        for leaf in list(self.tree.leaves):
            cm = build_cost_matrix(measurements, leaf, self.assoc_params)
            best = solve_assignment(cm)
            branches = generate_branches(cm, best, cfg.max_branches, cfg.plausibility_gap)
            self.tree.extend(leaf, branches, measurements, self.assoc_params, cm)
        if cfg.mode == "dpmhm":
            self.tree.resample(force=len(self.tree.leaves) > cfg.max_hypotheses)
        else:  # mhm_threshold: naive likelihood thresholding, keep the best third
            if len(self.tree.leaves) > cfg.max_hypotheses:
                self.tree.prune_to_best(max(1, math.ceil(len(self.tree.leaves) / 3)))

    # -- submap completion ------------------------------------------------

    def finalize_submap(self, last_step: int):
        """Close the submap that ends at scene last_step. Each fused landmark
        is anchored to the pose of the scene that last measured it."""
        cfg = self.cfg
        weights = self.tree.normalized_weights()
        fused = fuse_hypotheses(self.tree.leaves, weights)
        self.next_landmark_id = self.tree.next_landmark_id
        # landmark factors from the fused output, in the anchor pose's body frame
        poses = self.graph.poses
        R = quat_to_rot(poses.rotations[fused.last_scene])
        RT = R.transpose(0, 2, 1)
        z_body = (RT @ (fused.means - poses.translations[fused.last_scene])[:, :, None])[:, :, 0]
        info = np.linalg.inv(RT @ fused.covs @ R)
        info = 0.5 * (info + info.transpose(0, 2, 1))
        for lid, mean, scene, z, inf in zip(fused.ids.tolist(), fused.means, fused.last_scene.tolist(), z_body, info):
            if lid not in self.graph.landmarks:
                self.graph.landmarks[lid] = mean.copy()
            self.graph.factors.append(LandmarkFactor(scene, lid, z, inf, robust_c=cfg.cauchy_c))
        summary = self._summarize(fused)
        submap_hist = summary.histogram / max(summary.histogram.sum(), 1)
        # a submap that fused no landmark has no histogram to retrieve by
        searchable = self._submap_scenes and summary.histogram.any()
        if searchable and gate(summary, cfg) == "check":
            submaps = similar_submaps(self.detector, submap_hist)
            for scene in self._submap_scenes:
                for lc in self.detector.detect(submaps, scene):
                    self.n_loop_closures += 1
                    self.graph.factors.append(
                        RelativePoseFactor(
                            lc.query_scene,
                            lc.candidate_scene,
                            lc.relative_pose,
                            self._loop_info,
                            robust_c=cfg.cauchy_c,
                        )
                    )
        if searchable:
            self.detector.add_submap(self.submap_id, submap_hist, self._submap_scenes)
        self.graph = optimize(self.graph, cfg.lm_max_iters, cfg.lm_grad_tol).state
        # the fused landmarks join the map, which the next tree starts from;
        # every mean is the graph's, every covariance the fused one
        prev = self.previous_landmarks
        lm = LandmarkTable.concat([prev.take(~np.isin(prev.ids, fused.ids)), fused])
        means = [self.graph.landmarks[lid] for lid in lm.ids.tolist()]
        self.previous_landmarks = LandmarkTable.build(lm.ids, lm.labels, means, lm.covs, lm.assign_count, lm.last_scene)
        self.submap_id += 1
        self._new_tree()

    def _summarize(self, fused: LandmarkTable) -> SubmapSummary:
        """Class counts of the landmarks that this submap's scenes measured
        last (all fused landmarks if there are none), scored by tf-idf."""
        active = np.isin(fused.last_scene, [s.scene_id for s in self._submap_scenes])
        labels = fused.labels[active] if active.any() else fused.labels
        counts = class_counts(labels, self.cfg.n_classes)
        if self.cfg.tfidf_doc_unit == "scene":
            n = self.cfg.n_classes
            self.corpus.add(np.reshape([class_counts(s.labels, n) for s in self._submap_scenes], (-1, n)))
        else:
            self.corpus.add(counts[None])
        return SubmapSummary(counts, tfidf_score(counts, self.corpus), len(labels))


def run_pipeline(
    cfg: RunConfig,
    measurements_per_step: Sequence[MeasurementTable],
    odometry_increments: PoseTable,
    ground_truth: Optional[PoseTable] = None,
) -> PipelineResult:
    """Run the full estimator over body-frame measurement tables, one per
    step, and the table of odometry increments between them."""
    n_steps = len(measurements_per_step)
    if n_steps == 0:
        raise ValueError("empty measurement log")
    if len(odometry_increments) != n_steps - 1:
        raise ValueError(
            f"expected {n_steps - 1} odometry increments, got {len(odometry_increments)}"
        )
    pipe = Pipeline(cfg)
    hyp_counts = []
    lm_counts = []
    lc_counts = []
    for t in range(n_steps):
        inc = odometry_increments.pose(t - 1) if t > 0 else None
        pipe.process_scene(t, measurements_per_step[t], inc)
        hyp_counts.append(len(pipe.tree.leaves))
        best = pipe.tree.best_leaf()
        lm_counts.append(len(best.existing) + len(best.previous))
        lc_counts.append(pipe.n_loop_closures)
        if (t + 1) % cfg.submap_length == 0 or t == n_steps - 1:
            pipe.finalize_submap(t)
            lc_counts[-1] = pipe.n_loop_closures
    trajectory = pipe.graph.poses
    raw = integrate_odometry(odometry_increments)
    result = PipelineResult(trajectory, pipe.previous_landmarks, hyp_counts, lm_counts, lc_counts, pipe.n_loop_closures, raw)
    if ground_truth is not None:
        report = evaluate(trajectory, ground_truth)
        result.per_frame_error, result.final_rmse = report.per_frame_error, report.rmse
    return result


@dataclass
class EvalReport:
    rmse: float
    per_frame_error: List[float]
    mean_error: float
    max_error: float


def evaluate(trajectory: PoseTable, ground_truth: PoseTable, times_a=None, times_b=None) -> EvalReport:
    if times_a is not None and times_b is not None:
        if len(times_a) != len(times_b) or any(abs(a - b) > 1e-9 for a, b in zip(times_a, times_b)):
            raise ValueError("trajectory timestamps are not aligned")
    error = rmse(trajectory, ground_truth)
    errs = [float(np.linalg.norm(d)) for d in trajectory.translations - ground_truth.translations]
    return EvalReport(error, errs, float(np.mean(errs)), float(np.max(errs)))
