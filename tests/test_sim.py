"""Simulator: determinism, trajectory shapes, detector and odometry models."""

import math

import numpy as np
import pytest

from semslam.core import ContractViolation
from semslam.geometry import Pose
from semslam.sim import (
    DetectorSpec,
    OdometrySpec,
    WorldSpec,
    generate_world,
    simulate,
    simulate_step,
    visible_landmarks,
)


class TestWorldSpec:
    def test_unknown_trajectory_rejected(self):
        with pytest.raises(ContractViolation):
            WorldSpec(trajectory="spiral")

    def test_empty_world_rejected(self):
        with pytest.raises(ContractViolation):
            WorldSpec(landmarks_per_class=(0, 0))


class TestGenerateWorld:
    def test_seed_determinism_bit_identical(self):
        a = generate_world(WorldSpec(seed=7))
        b = generate_world(WorldSpec(seed=7))
        assert len(a.landmarks) == len(b.landmarks)
        for la, lb in zip(a.landmarks, b.landmarks):
            assert la.id == lb.id and la.label == lb.label
            assert np.array_equal(la.position, lb.position)
        for pa, pb in zip(a.trajectory, b.trajectory):
            assert np.array_equal(pa.translation, pb.translation)
            assert np.array_equal(pa.rotation, pb.rotation)

    def test_different_seeds_differ(self):
        a = generate_world(WorldSpec(seed=1))
        b = generate_world(WorldSpec(seed=2))
        assert not np.allclose(a.landmarks[0].position, b.landmarks[0].position)

    def test_landmark_counts_per_class_exact(self):
        world = generate_world(WorldSpec(landmarks_per_class=(3, 0, 5)))
        counts = {}
        for lm in world.landmarks:
            counts[lm.label] = counts.get(lm.label, 0) + 1
        assert counts == {0: 3, 2: 5}
        assert [lm.id for lm in world.landmarks] == list(range(8))

    def test_square_loop_closes(self):
        world = generate_world(WorldSpec(trajectory="square_loop", steps=48))
        start = world.trajectory[0].translation
        # one more unit step past the last pose returns to the start
        last = world.trajectory[-1]
        nxt = last.compose(Pose(np.array([1.0, 0.0, 0.0])))
        assert np.linalg.norm(nxt.translation - start) < 1.0

    def test_line_is_straight(self):
        world = generate_world(WorldSpec(trajectory="line", steps=10, step_length=2.0))
        for t, p in enumerate(world.trajectory):
            assert np.allclose(p.translation, [2.0 * t, 0.0, 0.0])
            assert np.allclose(p.rotation, [1.0, 0.0, 0.0, 0.0])

    def test_figure_eight_step_lengths_roughly_constant(self):
        world = generate_world(WorldSpec(trajectory="figure_eight", steps=40))
        steps = [
            np.linalg.norm(b.translation - a.translation)
            for a, b in zip(world.trajectory, world.trajectory[1:])
        ]
        assert all(s < 3.0 * world.spec.step_length for s in steps)


class TestVisibility:
    def test_range_limit(self):
        world = generate_world(WorldSpec(landmarks_per_class=(4,), arena_size=40.0))
        pose = world.trajectory[0]
        near = visible_landmarks(world, pose, DetectorSpec(detection_range=5.0))
        for lm in near:
            assert np.linalg.norm(lm.position - pose.translation) <= 5.0

    def test_zero_fov_sees_nothing(self):
        world = generate_world(WorldSpec())
        meas, _ = simulate_step(
            world, 0, DetectorSpec(fov_deg=0.0), OdometrySpec(), np.random.default_rng(0)
        )
        assert meas == []

    def test_narrow_fov_subset_of_full(self):
        world = generate_world(WorldSpec())
        pose = world.trajectory[3]
        narrow = {lm.id for lm in visible_landmarks(world, pose, DetectorSpec(fov_deg=90.0))}
        full = {lm.id for lm in visible_landmarks(world, pose, DetectorSpec(fov_deg=360.0))}
        assert narrow <= full


class TestSimulateStep:
    def test_noiseless_measurements_exact(self):
        world = generate_world(WorldSpec(seed=3))
        det = DetectorSpec()
        meas, _ = simulate_step(world, 2, det, OdometrySpec(), np.random.default_rng(0))
        by_pos = {lm.id: lm for lm in world.landmarks}
        vis = {lm.id for lm in visible_landmarks(world, world.trajectory[2], det)}
        assert len(meas) == len(vis)
        for m in meas:
            # each measurement coincides bit-exactly with some visible landmark
            match = [
                lid
                for lid in vis
                if np.array_equal(by_pos[lid].position, m.position)
                and by_pos[lid].label == m.label
            ]
            assert match
            assert m.scene_id == 2 and m.time == 2.0

    def test_step_zero_has_no_odometry(self):
        world = generate_world(WorldSpec())
        _, inc = simulate_step(world, 0, DetectorSpec(), OdometrySpec(), np.random.default_rng(0))
        assert inc is None

    def test_noiseless_odometry_matches_truth(self):
        world = generate_world(WorldSpec())
        for step in (1, 12, 13):
            _, inc = simulate_step(
                world, step, DetectorSpec(), OdometrySpec(), np.random.default_rng(0)
            )
            expect = world.trajectory[step].relative_to(world.trajectory[step - 1])
            assert inc.approx_equal(expect, tol=1e-12)

    def test_bias_drift_shifts_body_x(self):
        world = generate_world(WorldSpec())
        _, clean = simulate_step(world, 1, DetectorSpec(), OdometrySpec(), np.random.default_rng(0))
        _, biased = simulate_step(
            world, 1, DetectorSpec(), OdometrySpec(bias_drift=0.1), np.random.default_rng(0)
        )
        assert np.allclose(biased.translation - clean.translation, [0.1, 0.0, 0.0])
        assert np.array_equal(biased.rotation, clean.rotation)

    def test_miss_rate_drops_measurements(self):
        world = generate_world(WorldSpec(seed=5))
        det_all = DetectorSpec()
        det_half = DetectorSpec(miss_rate=0.5)
        rng = np.random.default_rng(11)
        total_all = total_half = 0
        for step in range(world.spec.steps):
            total_all += len(simulate_step(world, step, det_all, OdometrySpec(), rng)[0])
            total_half += len(simulate_step(world, step, det_half, OdometrySpec(), rng)[0])
        # binomial thinning: roughly half survive
        assert 0.3 * total_all < total_half < 0.7 * total_all

    def test_false_positive_mean_within_three_sigma(self):
        world = generate_world(WorldSpec(landmarks_per_class=(1,), arena_size=1000.0))
        rate = 2.0
        rng = np.random.default_rng(4)
        n_steps = 500
        det = DetectorSpec(detection_range=5.0, fp_rate=rate)
        count = 0
        for _ in range(n_steps):
            meas, _ = simulate_step(world, 0, det, OdometrySpec(), rng)
            for m in meas:
                if not any(np.array_equal(lm.position, m.position) for lm in world.landmarks):
                    count += 1
        mean = count / n_steps
        sigma = math.sqrt(rate / n_steps)
        assert abs(mean - rate) < 3.0 * sigma
        # false positives land inside the detection disc
        center = world.trajectory[0].translation
        for m in meas:
            assert np.linalg.norm(m.position - center) <= det.detection_range + 1e-9

    def test_confusion_matrix_relabels(self):
        world = generate_world(WorldSpec(landmarks_per_class=(6, 0)))
        # class 0 always reported as class 1
        confusion = np.array([[0.0, 1.0], [0.0, 1.0]])
        meas, _ = simulate_step(
            world,
            0,
            DetectorSpec(detection_range=100.0, confusion=confusion),
            OdometrySpec(),
            np.random.default_rng(0),
        )
        assert meas and all(m.label == 1 for m in meas)

    def test_bad_confusion_rejected(self):
        with pytest.raises(ContractViolation):
            DetectorSpec(confusion=np.array([[0.5, 0.2], [0.0, 1.0]]))

    def test_meas_noise_perturbs_positions(self):
        world = generate_world(WorldSpec(seed=3))
        det = DetectorSpec(meas_noise_cov=0.01 * np.eye(3))
        meas, _ = simulate_step(world, 2, det, OdometrySpec(), np.random.default_rng(8))
        exact = {lm.id: lm.position for lm in world.landmarks}
        for m in meas:
            dists = [np.linalg.norm(m.position - p) for p in exact.values()]
            assert 0.0 < min(dists) < 1.0  # near, not equal to, a landmark


class TestSimulate:
    def test_run_determinism(self):
        world = generate_world(WorldSpec(seed=9))
        det = DetectorSpec(miss_rate=0.1, fp_rate=0.5, meas_noise_cov=0.05 * np.eye(3))
        odo = OdometrySpec(sigma_t=0.02, sigma_r=0.01)
        m1, i1 = simulate(world, det, odo, run_seed=123)
        m2, i2 = simulate(world, det, odo, run_seed=123)
        assert len(m1) == len(m2) == world.spec.steps
        for a, b in zip(m1, m2):
            assert len(a) == len(b)
            for ma, mb in zip(a, b):
                assert np.array_equal(ma.position, mb.position) and ma.label == mb.label
        for pa, pb in zip(i1, i2):
            assert np.array_equal(pa.translation, pb.translation)
            assert np.array_equal(pa.rotation, pb.rotation)

    def test_increment_count(self):
        world = generate_world(WorldSpec(steps=20))
        _, incs = simulate(world, DetectorSpec(), OdometrySpec(), run_seed=0)
        assert len(incs) == 19

    def test_different_run_seeds_differ(self):
        world = generate_world(WorldSpec(seed=9))
        det = DetectorSpec(meas_noise_cov=0.05 * np.eye(3))
        m1, _ = simulate(world, det, OdometrySpec(), run_seed=1)
        m2, _ = simulate(world, det, OdometrySpec(), run_seed=2)
        diff = any(
            not np.array_equal(a.position, b.position)
            for ta, tb in zip(m1, m2)
            for a, b in zip(ta, tb)
        )
        assert diff
