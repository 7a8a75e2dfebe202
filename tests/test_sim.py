"""Simulator: determinism, trajectory shapes, detector and odometry models,
each world built from a run config."""

import dataclasses
import math

import numpy as np
import pytest

from semslam.config import ConfigError, RunConfig
from semslam.core import PoseTable
from semslam.geometry import Pose, quat_from_rotvec
from semslam.sim import World, generate_world, simulate, simulate_step, visible_landmarks

from conftest import detections_of, pose_approx_equal, scalar_simulate_step, scalar_transform_points, scalar_visible_landmarks

# a detector without noise and an odometry without noise
NOISELESS = {"meas_noise_std": 0.0, "odom_sigma_t": 0.0, "odom_sigma_r": 0.0}


def world_of(**keys) -> World:
    return generate_world(RunConfig(**keys))


class TestWorldSpec:
    """The world keys of a config fail at load outside their domains."""

    def test_unknown_trajectory_rejected(self):
        with pytest.raises(ConfigError, match="trajectory must be"):
            RunConfig(trajectory="spiral")

    def test_empty_world_rejected(self):
        for keys in ({"n_landmarks": 0}, {"steps": 0}):
            with pytest.raises(ConfigError, match=f"{next(iter(keys))} must be >= 1"):
                RunConfig(**keys)


class TestGenerateWorld:
    def test_seed_determinism_bit_identical(self):
        a = world_of(world_seed=7)
        b = world_of(world_seed=7)
        assert a.labels.tolist() == b.labels.tolist()
        assert a.positions.tobytes() == b.positions.tobytes()
        assert a.trajectory.translations.tobytes() == b.trajectory.translations.tobytes()
        assert a.trajectory.rotations.tobytes() == b.trajectory.rotations.tobytes()

    def test_field_is_the_per_landmark_draw_stream(self):
        """One (N, 2) draw gives the positions N size-2 draws gave, bit for bit."""
        for seed in range(50):
            world = world_of(world_seed=seed, n_landmarks=56 + seed % 5, trajectory=("square_loop", "line")[seed % 2])
            rng = np.random.default_rng(seed)
            pts = world.trajectory.translations
            center = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
            half = world.cfg.arena_size / 2.0
            lid = 0
            for label in range(8):  # 7 landmarks per class, one more for the first seed % 5 classes
                for _ in range(7 + (label < seed % 5)):
                    xy = center[:2] + rng.uniform(-half, half, size=2)
                    assert world.labels[lid] == label
                    assert world.positions[lid].tobytes() == np.array([xy[0], xy[1], 0.0]).tobytes()
                    lid += 1
            assert world.labels.shape == (lid,) and world.positions.shape == (lid, 3)

    def test_different_seeds_differ(self):
        a = world_of(world_seed=1)
        b = world_of(world_seed=2)
        assert not np.allclose(a.positions[0], b.positions[0])

    def test_landmark_counts_per_class_exact(self):
        """n_landmarks is split evenly over the classes, the first classes taking the rest."""
        for n_classes, n_landmarks, want in ((3, 8, {0: 3, 1: 3, 2: 2}), (5, 3, {0: 1, 1: 1, 2: 1}), (2, 6, {0: 3, 1: 3})):
            world = world_of(n_classes=n_classes, n_landmarks=n_landmarks)
            assert dict(enumerate(np.bincount(world.labels).tolist())) == want
            assert world.labels.tolist() == sorted(world.labels.tolist())

    def test_square_loop_closes(self):
        world = world_of(trajectory="square_loop", steps=48)
        start = world.trajectory.translations[0]
        # one more unit step past the last pose returns to the start
        last = world.trajectory.pose(-1)
        nxt = last.compose(Pose(np.array([1.0, 0.0, 0.0])))
        assert np.linalg.norm(nxt.translation - start) < 1.0

    def test_line_is_straight(self):
        world = world_of(trajectory="line", steps=10, step_length=2.0)
        for t, (p, q) in enumerate(zip(world.trajectory.translations, world.trajectory.rotations)):
            assert np.allclose(p, [2.0 * t, 0.0, 0.0])
            assert np.allclose(q, [1.0, 0.0, 0.0, 0.0])

    def test_figure_eight_step_lengths_roughly_constant(self):
        world = world_of(trajectory="figure_eight", steps=40)
        steps = np.linalg.norm(np.diff(world.trajectory.translations, axis=0), axis=1)
        assert (steps < 3.0 * world.cfg.step_length).all()


class TestVisibility:
    def test_range_limit(self):
        world = world_of(n_classes=1, n_landmarks=4, arena_size=40.0, detection_range=5.0)
        pose = world.trajectory.pose(0)
        near = visible_landmarks(world, pose)
        for row in near:
            assert np.linalg.norm(world.positions[row] - pose.translation) <= 5.0

    def test_zero_fov_sees_nothing(self):
        world = world_of(fov_deg=0.0, **NOISELESS)
        meas, _ = simulate_step(world, 0, np.random.default_rng(0))
        assert len(meas) == 0 and meas.positions.shape == (0, 3) and meas.scene_id == 0

    def test_narrow_fov_subset_of_full(self):
        pose = world_of().trajectory.pose(3)
        narrow = set(visible_landmarks(world_of(fov_deg=90.0), pose).tolist())
        full = set(visible_landmarks(world_of(fov_deg=360.0), pose).tolist())
        assert narrow <= full


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
            cfg = RunConfig(world_seed=w, trajectory=("square_loop", "figure_eight", "line")[w % 3], fov_deg=fov)
            world = generate_world(cfg)
            poses = [world.trajectory.pose(t) for t in range(0, cfg.steps, 5)] + [_random_pose(rng) for _ in range(6)]
            for det_range in (0.5, 3.0, 10.0, 25.0, 100.0):
                cfg_at = dataclasses.replace(cfg, detection_range=det_range)
                world = World(cfg_at, world.labels, world.positions, world.trajectory)
                for pose in poses:
                    assert visible_landmarks(world, pose).tolist() == scalar_visible_landmarks(world, pose)

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
            points += list(pose.transform_points(np.array([r * u for r in radii for u in dirs])))
            points.append(pose.translation.copy())
            cfg = RunConfig(detection_range=det_range, fov_deg=fov)
            world = World(cfg, np.zeros(len(points), dtype=int), np.reshape(points, (-1, 3)), PoseTable.of([pose]))
            want = scalar_visible_landmarks(world, pose)
            assert visible_landmarks(world, pose).tolist() == want
            assert len(points) - 1 not in want  # a landmark at the pose is never seen
            outcomes.update(i in want for i in range(len(points) - 1))
        assert outcomes == {True, False}

    def test_negative_or_nan_range_rejected(self):
        for bad in (-1.0, float("nan")):
            with pytest.raises(ConfigError, match="detection_range"):
                RunConfig(detection_range=bad)


class TestSimulateStep:
    def test_noiseless_measurements_exact(self):
        world = world_of(world_seed=3, **NOISELESS)
        meas, _ = simulate_step(world, 2, np.random.default_rng(0))
        pose = world.trajectory.pose(2)
        vis = visible_landmarks(world, pose).tolist()
        body = scalar_transform_points(pose, world.positions, inverse=True)
        assert len(meas) == len(vis)
        for m in detections_of(meas):
            # each measurement is bit-exactly some visible landmark, in the body frame
            match = [
                row
                for row in vis
                if np.array_equal(body[row], m.position)
                and world.labels[row] == m.label
            ]
            assert match
            assert m.scene_id == 2 and m.time == 2.0

    def test_step_zero_has_no_odometry(self):
        world = world_of(**NOISELESS)
        _, inc = simulate_step(world, 0, np.random.default_rng(0))
        assert inc is None

    def test_noiseless_odometry_matches_truth(self):
        world = world_of(**NOISELESS)
        for step in (1, 12, 13):
            _, inc = simulate_step(world, step, np.random.default_rng(0))
            expect = world.trajectory.pose(step).relative_to(world.trajectory.pose(step - 1))
            assert pose_approx_equal(inc, expect, tol=1e-12)

    def test_bias_drift_shifts_body_x(self):
        _, clean = simulate_step(world_of(**NOISELESS), 1, np.random.default_rng(0))
        _, biased = simulate_step(world_of(odom_bias_drift=0.1, **NOISELESS), 1, np.random.default_rng(0))
        assert np.allclose(biased.translation - clean.translation, [0.1, 0.0, 0.0])
        assert np.array_equal(biased.rotation, clean.rotation)

    def test_miss_rate_drops_measurements(self):
        world_all = world_of(world_seed=5, **NOISELESS)
        world_half = world_of(world_seed=5, miss_rate=0.5, **NOISELESS)
        rng = np.random.default_rng(11)
        total_all = total_half = 0
        for step in range(world_all.cfg.steps):
            total_all += len(simulate_step(world_all, step, rng)[0])
            total_half += len(simulate_step(world_half, step, rng)[0])
        # binomial thinning: roughly half survive
        assert 0.3 * total_all < total_half < 0.7 * total_all

    def test_false_positive_mean_within_three_sigma(self):
        rate = 2.0
        world = world_of(n_classes=1, n_landmarks=1, arena_size=1000.0, detection_range=5.0, sim_fp_rate=rate, **NOISELESS)
        rng = np.random.default_rng(4)
        n_steps = 500
        count = 0
        landmark = scalar_transform_points(world.trajectory.pose(0), world.positions[:1], inverse=True)[0]  # in the body frame
        for _ in range(n_steps):
            meas, _ = simulate_step(world, 0, rng)
            count += sum(not np.array_equal(landmark, position) for position in meas.positions)
        mean = count / n_steps
        sigma = math.sqrt(rate / n_steps)
        assert abs(mean - rate) < 3.0 * sigma
        # false positives land inside the detection disc about the body origin
        for position in meas.positions:
            assert np.linalg.norm(position) <= world.cfg.detection_range + 1e-9

    def test_confusion_matrix_relabels(self):
        """n_classes = 2 and confusion_eps = 1: each class is always reported as the other."""
        world = world_of(n_classes=2, n_landmarks=6, detection_range=100.0, confusion_eps=1.0, **NOISELESS)
        assert world.confusion.tolist() == [[0.0, 1.0], [1.0, 0.0]]
        meas, _ = simulate_step(world, 0, np.random.default_rng(0))
        pose = world.trajectory.pose(0)
        body = scalar_transform_points(pose, world.positions, inverse=True)
        label_at = {p.tobytes(): label for p, label in zip(body, world.labels.tolist())}
        assert len(meas) == 6 and all(m.label == 1 - label_at[m.position.tobytes()] for m in detections_of(meas))

    def test_negative_confusion_entry_rejected(self):
        """confusion_eps > 1 would put a negative entry on the diagonal; the config rejects it at load."""
        with pytest.raises(ConfigError, match=r"confusion_eps must lie in \[0, 1\]"):
            RunConfig(confusion_eps=1.5)

    def test_noise_scale_computed_once_per_world(self):
        """The world's noise scale is the Cholesky factor of the isotropic
        covariance s^2 I + 1e-18 I, as a scalar: scaling a draw by it gives
        the matrix product's bits. A variance of 0, also one that underflows,
        gives no scale and so no draws."""
        for s in (0.0, 1e-170):
            assert world_of(meas_noise_std=s).noise_scale is None
        rng = np.random.default_rng(2)
        for s in (1e-9, 0.05, 0.2, 0.6, 3.7):
            scale = world_of(meas_noise_std=s).noise_scale
            L = np.linalg.cholesky(s**2 * np.eye(3) + 1e-18 * np.eye(3))
            for z in rng.standard_normal((50, 3)):
                assert (scale * z).tobytes() == (L @ z).tobytes()

    @pytest.mark.parametrize("rate", [-0.5, float("nan"), float("inf")])
    def test_bad_fp_rate_rejected(self, rate):
        with pytest.raises(ConfigError, match="sim_fp_rate"):
            RunConfig(sim_fp_rate=rate)

    def test_meas_noise_perturbs_positions(self):
        world = world_of(world_seed=3, meas_noise_std=0.1)
        meas, _ = simulate_step(world, 2, np.random.default_rng(8))
        exact = world.trajectory.pose(2).transform_points_inverse(world.positions)
        for position in meas.positions:
            dists = np.linalg.norm(exact - position, axis=1)
            assert 0.0 < dists.min() < 1.0  # near, not equal to, a landmark


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
        noisy = {"miss_rate": 0.1, "sim_fp_rate": 0.5, "meas_noise_std": math.sqrt(0.05), "odom_sigma_r": 0.01}
        world = world_of(world_seed=9, run_seed=123, **noisy)
        m1, i1 = simulate(world)
        m2, i2 = simulate(world)
        assert len(m1) == len(m2) == world.cfg.steps
        for a, b in zip(m1, m2):
            assert np.array_equal(a.positions, b.positions) and np.array_equal(a.labels, b.labels)
        assert i1.translations.tobytes() == i2.translations.tobytes()
        assert i1.rotations.tobytes() == i2.rotations.tobytes()

    @pytest.mark.parametrize("case", list(SCALAR_PARITY))
    @pytest.mark.parametrize("seed", [1, 4])
    def test_matches_scalar_oracle(self, case, seed):
        """simulate draws what the per-step scalar reference draws, in its order,
        and builds the same measurements and increments bit for bit: each step's
        table holds the reference's detections as its rows, in order, each
        moved into the body frame of the true pose one point at a time."""
        world = world_of(world_seed=seed, run_seed=seed, **SCALAR_PARITY[case])
        got_meas, got_inc = simulate(world)
        rng = np.random.default_rng(seed)
        want = [scalar_simulate_step(world, step, rng) for step in range(world.cfg.steps)]
        assert [len(m) for m in got_meas] == [len(m) for m, _ in want]
        for step, (got, (ref, _)) in enumerate(zip(got_meas, want)):
            pose = world.trajectory.pose(step)
            assert got.scene_id == step and {m.scene_id for m in ref} <= {step}
            assert got.times.tolist() == [m.time for m in ref] and got.labels.tolist() == [m.label for m in ref]
            assert got.positions.shape == (len(ref), 3) and got.labels.dtype == np.int64
            assert got.positions.tobytes() == scalar_transform_points(pose, [m.position for m in ref], inverse=True).tobytes()
        assert len(got_inc) == len(want) - 1
        for row, (_, b) in enumerate(want[1:]):
            assert got_inc.translations[row].tobytes() == b.translation.tobytes()
            assert got_inc.rotations[row].tobytes() == b.rotation.tobytes()

    def test_increment_count(self):
        _, incs = simulate(world_of(steps=20, **NOISELESS))
        assert len(incs) == 19

    def test_different_run_seeds_differ(self):
        m1, _ = simulate(world_of(world_seed=9, run_seed=1, meas_noise_std=math.sqrt(0.05)))
        m2, _ = simulate(world_of(world_seed=9, run_seed=2, meas_noise_std=math.sqrt(0.05)))
        diff = any(not np.array_equal(a.positions, b.positions) for a, b in zip(m1, m2))
        assert diff
