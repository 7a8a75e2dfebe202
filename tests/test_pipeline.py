"""End-to-end pipeline behavior on simulated worlds."""

import numpy as np
import pytest

from semslam import kernels, placerec
from semslam.config import RunConfig
from semslam.core import MeasurementTable, PoseTable
from semslam.geometry import Pose, quat_from_rotvec
from semslam.pipeline import Pipeline, evaluate, integrate_odometry, run_pipeline
from semslam.sim import generate_world, simulate


def simulate_for(cfg):
    world = generate_world(cfg)
    return (world, *simulate(world))


def run_for(cfg):
    world, body, increments = simulate_for(cfg)
    return run_pipeline(cfg, body, increments, world.trajectory), world


class TestScenario:
    def test_confusion_eps_reaches_detector(self):
        # noiseless: every true detection sits exactly on its landmark, so a
        # measurement whose class differs from that landmark's was relabelled
        base = dict(steps=12, n_landmarks=24, n_classes=4, meas_noise_std=0.0)
        for eps in (0.0, 0.3):
            world, body, _ = simulate_for(RunConfig(confusion_eps=eps, **base))
            relabelled = 0
            for t, ms in enumerate(body):
                for position, label in zip(world.trajectory.pose(t).transform_points(ms.positions), ms.labels.tolist()):
                    d = np.linalg.norm(world.positions - position, axis=1)
                    assert d.min() < 1e-9
                    relabelled += label != world.labels[int(np.argmin(d))]
            assert (relabelled > 0) == (eps > 0.0)


class TestCorpus:
    @pytest.mark.parametrize("unit", ["submap", "scene"])
    def test_one_document_per_unit(self, unit):
        cfg = RunConfig(steps=24, submap_length=8, tfidf_doc_unit=unit)
        world, body, increments = simulate_for(cfg)
        pipe = Pipeline(cfg)
        for t, ms in enumerate(body):
            pipe.process_scene(t, ms, increments.pose(t - 1) if t else None)
            if (t + 1) % cfg.submap_length == 0:
                pipe.finalize_submap(t)
        scenes = sum(1 for ms in body if ms)
        assert scenes > 3
        assert pipe.corpus.n_docs == (scenes if unit == "scene" else 3)


class TestIntegrateOdometry:
    def test_identity_chain(self):
        incs = PoseTable.of([Pose(np.array([1.0, 0.0, 0.0]))] * 3)
        poses = integrate_odometry(incs)
        assert len(poses) == 4
        assert np.allclose(poses.translations[-1], [3.0, 0.0, 0.0])


def test_appended_pose_is_the_composed_pose():
    """`process_scene` appends the pose that `Pose.compose` returns, with
    every bit: the estimate is the graph's pose table, held as computed."""
    rng = np.random.default_rng(0)
    pipe, chain = Pipeline(RunConfig()), [Pose()]
    pipe.process_scene(0, MeasurementTable.build(0, [], [], []), None)
    for step in range(1, 30):
        inc = Pose(rng.standard_normal(3), quat_from_rotvec(0.3 * rng.standard_normal(3)))
        chain.append(chain[-1].compose(inc))
        pipe.process_scene(step, MeasurementTable.build(step, [], [], []), inc)
    poses = pipe.graph.poses
    for row, pose in enumerate(chain):
        assert poses.translations[row].tobytes() == pose.translation.tobytes()
        assert poses.rotations[row].tobytes() == pose.rotation.tobytes()


def test_submap_without_landmarks_is_not_searched_or_indexed(monkeypatch):
    """A submap that fuses no landmark has an all-zero class histogram, which
    has no JSD. It neither searches (which would raise) nor enters the index,
    even when a gate_min_landmarks of 0 passes it."""
    # submap 1 of this world holds two scenes whose detections every leaf
    # calls false positives, so it fuses no landmark
    cfg = RunConfig(world_seed=0, run_seed=0, gate_min_landmarks=0, n_landmarks=2, detection_range=3.0, lambda_fp=5.0)
    indexed = []
    add_submap = placerec.LoopClosureDetector.add_submap

    def record(det, submap_id, histogram, scenes):
        indexed.append((submap_id, float(histogram.sum())))
        return add_submap(det, submap_id, histogram, scenes)

    monkeypatch.setattr(placerec.LoopClosureDetector, "add_submap", record)
    result, _ = run_for(cfg)
    assert len(result.trajectory) == cfg.steps
    assert 1 not in [sid for sid, _ in indexed]
    assert all(total == pytest.approx(1.0) for _, total in indexed)


class TestValidation:
    def test_empty_log_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            run_pipeline(RunConfig(), [], PoseTable.of([]))

    def test_odometry_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="odometry increments"):
            run_pipeline(RunConfig(steps=3), [[], [], []], PoseTable.of([]))


class TestNoiselessRun:
    """Exact odometry and measurements: the estimate should be near-perfect."""

    CFG = RunConfig(
        steps=24,
        n_landmarks=24,
        n_classes=4,
        meas_noise_std=0.0,
        odom_sigma_t=0.0,
        odom_sigma_r=0.0,
        submap_length=8,
    )

    def test_rmse_tiny(self):
        result, world = run_for(self.CFG)
        assert result.final_rmse < 0.05

    def test_map_positions_match_world(self):
        result, world = run_for(self.CFG)
        truth = {tuple(np.round(p, 6)): label for p, label in zip(world.positions, world.labels.tolist())}
        matched = 0
        for mean in result.fused_map.means:
            close = [
                p for p in truth if np.linalg.norm(np.array(p) - mean) < 0.1
            ]
            if close:
                matched += 1
        assert matched >= 0.9 * len(result.fused_map)

    def test_metrics_rows_shape(self):
        result, _ = run_for(self.CFG)
        rows = result.metrics_rows()
        assert len(rows) == self.CFG.steps
        assert all(len(r) == 5 for r in rows)
        assert [r[0] for r in rows] == list(range(self.CFG.steps))


class TestDeterminism:
    CFG = RunConfig(
        steps=24,
        n_landmarks=24,
        n_classes=4,
        meas_noise_std=0.15,
        odom_sigma_t=0.02,
        odom_sigma_r=0.002,
        submap_length=8,
        run_seed=3,
    )

    def test_repeat_runs_identical(self):
        r1, _ = run_for(self.CFG)
        r2, _ = run_for(self.CFG)
        assert r1.metrics_rows() == r2.metrics_rows()
        assert np.array_equal(r1.trajectory.translations, r2.trajectory.translations)
        assert np.array_equal(r1.trajectory.rotations, r2.trajectory.rotations)



@pytest.mark.parametrize("trajectory, world, verifies, scans", [("line", 0, 65, 0), ("square_loop", 1, 125, 39)])
def test_consensus_screen_skips_scans(monkeypatch, trajectory, world, verifies, scans):
    # at defaults the screen rules out every RANSAC scan of line world 0, where
    # no loop closes; on square-loop world 1 the screen rules out 71 of 125 and
    # the per-sample bound leaves no sample in 15 more
    calls = {"verify": 0, "scan": 0}

    def counted(fn, key):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(placerec, "ransac_verify", counted(placerec.ransac_verify, "verify"))
    monkeypatch.setattr(kernels, "ransac_best_mask", counted(kernels.ransac_best_mask, "scan"))
    run_for(RunConfig(trajectory=trajectory, world_seed=world, run_seed=world))
    assert (calls["verify"], calls["scan"]) == (verifies, scans)


class TestModes:
    BASE = dict(
        steps=24,
        n_landmarks=24,
        n_classes=4,
        meas_noise_std=0.15,
        odom_sigma_t=0.02,
        odom_sigma_r=0.002,
        submap_length=8,
    )

    @pytest.mark.parametrize("mode", ["dpmhm", "mhm_threshold", "single_ukf"])
    def test_mode_runs_and_beats_nothing(self, mode):
        cfg = RunConfig(mode=mode, **self.BASE)
        result, world = run_for(cfg)
        assert len(result.trajectory) == cfg.steps
        assert result.fused_map
        assert np.isfinite(result.final_rmse)

    def test_single_ukf_always_one_hypothesis(self):
        cfg = RunConfig(mode="single_ukf", **self.BASE)
        result, _ = run_for(cfg)
        assert set(result.hypothesis_counts) == {1}


class TestEvaluate:
    def test_perfect_match(self):
        t = PoseTable.of([Pose(np.array([float(i), 0, 0])) for i in range(3)])
        rep = evaluate(t, t)
        assert rep.rmse == 0.0 and rep.max_error == 0.0

    def test_misaligned_times_rejected(self):
        t = PoseTable.of([Pose()] * 2)
        with pytest.raises(ValueError, match="aligned"):
            evaluate(t, t, [0.0, 1.0], [0.0, 2.0])
