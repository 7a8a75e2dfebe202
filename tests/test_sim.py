"""Simulator: determinism, trajectory shapes, detector and odometry models."""

import math

import numpy as np
import pytest

from semslam.config import RunConfig
from semslam.core import ContractViolation
from semslam.geometry import Pose, quat_from_rotvec
from semslam.sim import (
    DetectorSpec,
    OdometrySpec,
    World,
    WorldLandmark,
    WorldSpec,
    generate_world,
    scenario_specs,
    simulate,
    simulate_step,
    visible_landmarks,
)

from conftest import scalar_simulate_step, scalar_visible_landmarks


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

    def test_field_is_the_per_landmark_draw_stream(self):
        """One (N, 2) draw gives the positions N size-2 draws gave, bit for bit."""
        for seed in range(50):
            spec = WorldSpec(seed=seed, landmarks_per_class=(8,) * 7 + (seed % 5,), trajectory=("square_loop", "line")[seed % 2])
            world = generate_world(spec)
            rng = np.random.default_rng(seed)
            pts = np.stack([p.translation for p in world.trajectory])
            center = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
            half = spec.arena_size / 2.0
            lid = 0
            for label, count in enumerate(spec.landmarks_per_class):
                for _ in range(count):
                    xy = center[:2] + rng.uniform(-half, half, size=2)
                    lm = world.landmarks[lid]
                    assert (lm.id, lm.label) == (lid, label)
                    assert lm.position.tobytes() == np.array([xy[0], xy[1], 0.0]).tobytes()
                    lid += 1
            assert lid == len(world.landmarks)
            assert world.positions.tobytes() == np.stack([lm.position for lm in world.landmarks]).tobytes()

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


def _ids(landmarks):
    return [lm.id for lm in landmarks]


def _random_pose(rng):
    """A pose anywhere near the arena, with a full 3-D rotation."""
    return Pose(rng.uniform(-20.0, 20.0, size=3), quat_from_rotvec(rng.standard_normal(3)))


class TestVisibilityScreen:
    """visible_landmarks screens in the world frame; the body-frame loop in
    conftest is its reference, landmark for landmark and in order."""

    @pytest.mark.parametrize("fov", [30.0, 90.0, 360.0])
    def test_matches_scalar_oracle_on_random_worlds(self, fov):
        rng = np.random.default_rng(int(fov))
        for w in range(6):
            world = generate_world(WorldSpec(seed=w, trajectory=("square_loop", "figure_eight", "line")[w % 3]))
            poses = world.trajectory[::5] + [_random_pose(rng) for _ in range(6)]
            for det_range in (0.5, 3.0, 10.0, 25.0, 100.0):
                det = DetectorSpec(detection_range=det_range, fov_deg=fov)
                for pose in poses:
                    assert _ids(visible_landmarks(world, pose, det)) == _ids(scalar_visible_landmarks(world, pose, det))

    @pytest.mark.parametrize("fov", [30.0, 90.0, 360.0])
    @pytest.mark.parametrize("det_range", [1.0, 7.3, 10.0, 1234.5])
    def test_matches_scalar_oracle_at_the_range(self, fov, det_range):
        """Landmarks at the range, one ulp either side of it and at the pose,
        offset along world-frame and body-frame directions."""
        rng = np.random.default_rng(int(det_range * 10) + int(fov))
        half = np.radians(fov) / 2.0
        radii = (det_range, np.nextafter(det_range, np.inf), np.nextafter(det_range, 0.0))
        outcomes = set()
        for _ in range(12):
            pose = _random_pose(rng)
            dirs = rng.standard_normal((24, 3))
            yaw = rng.uniform(-half, half, size=24)  # body-frame directions inside the field of view
            cone = np.stack([np.cos(yaw), np.sin(yaw), rng.uniform(-0.2, 0.2, size=24)], axis=1)
            dirs = np.concatenate([dirs, cone]) / np.linalg.norm(np.concatenate([dirs, cone]), axis=1)[:, None]
            points = [pose.translation + r * u for r in radii for u in dirs]
            points += [pose.transform(r * u) for r in radii for u in dirs]
            points.append(pose.translation.copy())
            world = World(WorldSpec(), [WorldLandmark(i, 0, p) for i, p in enumerate(points)], [pose])
            det = DetectorSpec(detection_range=det_range, fov_deg=fov)
            want = _ids(scalar_visible_landmarks(world, pose, det))
            assert _ids(visible_landmarks(world, pose, det)) == want
            assert len(points) - 1 not in want  # a landmark at the pose is never seen
            outcomes.update(i in want for i in range(len(points) - 1))
        assert outcomes == {True, False}

    def test_negative_or_nan_range_rejected(self):
        for bad in (-1.0, float("nan")):
            with pytest.raises(ContractViolation, match="detection_range"):
                DetectorSpec(detection_range=bad)


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

    def test_non_square_confusion_rejected(self):
        for bad in (np.ones((2, 3)) / 3.0, np.ones(3) / 3.0):
            with pytest.raises(ContractViolation, match="confusion matrix must be square"):
                DetectorSpec(confusion=bad)

    def test_negative_confusion_entry_rejected(self):
        """Rows that sum to 1 through a negative entry, as confusion_eps > 1 gives."""
        with pytest.raises(ContractViolation, match="confusion matrix has a negative entry"):
            DetectorSpec(confusion=np.array([[-0.5, 1.5], [0.0, 1.0]]))
        with pytest.raises(ContractViolation, match="confusion matrix"):
            scenario_specs(RunConfig(confusion_eps=1.5))

    @pytest.mark.parametrize(
        "cov",
        [
            np.eye(2),
            np.eye(4),
            np.zeros(3),
            np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),  # not symmetric
            np.diag([1.0, -1e-3, 1.0]),  # not positive semi-definite
            np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            np.diag([1.0, np.nan, 1.0]),
            np.diag([np.inf, 1.0, 1.0]),
        ],
    )
    def test_bad_noise_covariance_rejected(self, cov):
        with pytest.raises(ContractViolation, match="meas_noise_cov"):
            DetectorSpec(meas_noise_cov=cov)

    def test_noise_factored_once_per_spec(self):
        assert DetectorSpec().noise_chol is None  # a zero covariance stays valid: no noise
        cov = np.array([[0.04, 0.01, 0.0], [0.01, 0.05, 0.002], [0.0, 0.002, 0.03]])
        det = DetectorSpec(meas_noise_cov=cov)
        assert det.noise_chol.tobytes() == np.linalg.cholesky(cov + 1e-18 * np.eye(3)).tobytes()

    def test_singular_noise_covariance_factored(self):
        """A PSD covariance without a Cholesky factor gets its eigen factor."""
        cov = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(cov + 1e-18 * np.eye(3))
        det = DetectorSpec(meas_noise_cov=cov)
        assert np.allclose(det.noise_chol @ det.noise_chol.T, cov, atol=1e-12)
        world = generate_world(WorldSpec(seed=3))
        noisy, _ = simulate_step(world, 2, det, OdometrySpec(), np.random.default_rng(8))
        exact, _ = simulate_step(world, 2, DetectorSpec(), OdometrySpec(), np.random.default_rng(8))
        assert len(noisy) == len(exact) > 0
        for m, e in zip(noisy, exact):  # the noise lies along (1, 1, 0)
            offset = m.position - e.position
            assert abs(offset[0] - offset[1]) < 1e-9 and abs(offset[2]) < 1e-9 and offset[0] != 0.0

    @pytest.mark.parametrize("rate", [-0.5, float("nan"), float("inf")])
    def test_bad_fp_rate_rejected(self, rate):
        with pytest.raises(ContractViolation, match="fp_rate"):
            DetectorSpec(fp_rate=rate)

    def test_meas_noise_perturbs_positions(self):
        world = generate_world(WorldSpec(seed=3))
        det = DetectorSpec(meas_noise_cov=0.01 * np.eye(3))
        meas, _ = simulate_step(world, 2, det, OdometrySpec(), np.random.default_rng(8))
        exact = {lm.id: lm.position for lm in world.landmarks}
        for m in meas:
            dists = [np.linalg.norm(m.position - p) for p in exact.values()]
            assert 0.0 < min(dists) < 1.0  # near, not equal to, a landmark


SCALAR_PARITY = {
    "defaults": {},
    "misses": {"miss_rate": 0.4},
    "clutter": {"sim_fp_rate": 2.0},
    "confusion": {"confusion_eps": 0.1},
    "fov60": {"fov_deg": 60.0},
    "noiseless": {"meas_noise_std": 0.0},
    "figure8": {"trajectory": "figure_eight"},
    "line": {"trajectory": "line"},
    "degraded": {"miss_rate": 0.2, "sim_fp_rate": 1.0, "confusion_eps": 0.2, "fov_deg": 90.0, "odom_bias_drift": 0.05},
}


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

    @pytest.mark.parametrize("case", list(SCALAR_PARITY))
    @pytest.mark.parametrize("seed", [1, 4])
    def test_matches_scalar_oracle(self, case, seed):
        """simulate draws what the per-step scalar reference draws, in its order,
        and builds the same measurements and increments bit for bit."""
        world_spec, det, odo = scenario_specs(RunConfig(world_seed=seed, run_seed=seed, **SCALAR_PARITY[case]))
        world = generate_world(world_spec)
        got_meas, got_inc = simulate(world, det, odo, seed)
        rng = np.random.default_rng(seed)
        want = [scalar_simulate_step(world, step, det, odo, rng) for step in range(world_spec.steps)]
        assert [len(m) for m in got_meas] == [len(m) for m, _ in want]
        for got, (ref, _) in zip(got_meas, want):
            for a, b in zip(got, ref):
                assert (a.scene_id, a.time, a.label) == (b.scene_id, b.time, b.label)
                assert type(a.label) is type(b.label) and a.position.tobytes() == b.position.tobytes()
        for a, (_, b) in zip(got_inc, want[1:]):
            assert a.translation.tobytes() == b.translation.tobytes()
            assert a.rotation.tobytes() == b.rotation.tobytes()
        assert len(got_inc) == len(want) - 1

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
