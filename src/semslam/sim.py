"""Deterministic synthetic worlds: landmark fields, closed trajectories,
a noisy semantic detector, and a drifting odometry source."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .config import RunConfig
from .core import MeasurementTable, PoseTable
from .geometry import Pose, norms, quat_from_rotvec, quat_from_yaw, quat_mul, quat_normalize


@dataclass(eq=False)
class World:
    """The world that cfg describes, and its detector model. Landmark i,
    its id, has class labels[i] at positions[i]; row t of the trajectory is
    the true pose at step t. Per world, the detector's noise scale is
    computed once, None where its variance is 0, and so is its confusion
    matrix, None without confusion: row c is the distribution of the class
    reported for class c."""

    cfg: RunConfig
    labels: np.ndarray  # (n,) class ids
    positions: np.ndarray  # (n, 3)
    trajectory: PoseTable
    noise_scale: Optional[float] = field(init=False, repr=False)
    confusion: Optional[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        # the square root of the variance plus 1e-18, as the Cholesky factor of that isotropic covariance
        var = self.cfg.meas_noise_std**2
        self.noise_scale = math.sqrt(var + 1e-18) if var != 0.0 else None
        self.confusion = None
        eps, n = self.cfg.confusion_eps, self.cfg.n_classes
        if eps > 0.0:  # spread evenly over the n - 1 other classes
            self.confusion = np.full((n, n), eps / (n - 1))
            np.fill_diagonal(self.confusion, 1.0 - eps)


def _square_loop(steps: int, step_length: float):
    side = max(steps // 4, 1)
    translations, yaws = [], []
    pos = np.zeros(3)
    yaw = 0.0
    for t in range(steps):
        translations.append(pos)
        yaws.append(yaw)
        pos = pos + step_length * np.array([math.cos(yaw), math.sin(yaw), 0.0])
        if (t + 1) % side == 0:
            yaw += math.pi / 2.0
    return translations, yaws


def _figure_eight(steps: int, step_length: float):
    # two tangent circles traced with constant arc length, the second mirrored in y
    r = steps * step_length / (4.0 * math.pi)
    translations, yaws = [], []
    for t in range(steps):
        s = 2.0 * math.pi * (2.0 * t / steps)
        sign = 1.0 if t < steps / 2 else -1.0
        translations.append([r * math.sin(s), sign * r * (1.0 - math.cos(s)), 0.0])
        yaws.append(sign * s)
    return translations, yaws


def _line(steps: int, step_length: float):
    return [[t * step_length, 0.0, 0.0] for t in range(steps)], [0.0] * steps


_PATHS = {"square_loop": _square_loop, "figure_eight": _figure_eight, "line": _line}


def generate_world(cfg: RunConfig) -> World:
    """Deterministic world: landmark field plus ground-truth trajectory.
    Landmarks are split evenly over the classes, the first classes taking
    the rest."""
    rng = np.random.default_rng(cfg.world_seed)
    translations, yaws = _PATHS[cfg.trajectory](cfg.steps, cfg.step_length)  # positions and headings about z
    pts = np.reshape(translations, (-1, 3))
    rotations = quat_normalize(np.reshape([quat_from_yaw(yaw) for yaw in yaws], (-1, 4)))
    # recentre the arena on the trajectory so landmarks surround the path
    center = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
    half = cfg.arena_size / 2.0
    per_class, rest = divmod(cfg.n_landmarks, cfg.n_classes)
    labels = np.repeat(np.arange(cfg.n_classes), per_class + (np.arange(cfg.n_classes) < rest))
    positions = np.zeros((len(labels), 3))
    positions[:, :2] = center[:2] + rng.uniform(-half, half, size=(len(labels), 2))
    return World(cfg, labels, positions, PoseTable(pts, rotations))


def visible_landmarks(world: World, pose: Pose) -> np.ndarray:
    """Rows of the landmarks in range and field of view of pose, in world
    order, from their body-frame offsets: not farther than the range, not
    at the pose and, under a field of view below 360 degrees, at a bearing
    within half of it. A NaN offset passes both tests."""
    body = pose.transform_points_inverse(world.positions)
    dist = norms(body)
    near = np.flatnonzero(~(dist > world.cfg.detection_range) & (dist != 0.0))
    half_fov = math.radians(world.cfg.fov_deg) / 2.0
    if half_fov < math.pi:
        near = near[[not abs(math.atan2(y, x)) > half_fov for x, y in body[near, :2].tolist()]]
    return near


def simulate_step(world: World, step: int, rng: np.random.Generator) -> Tuple[MeasurementTable, Optional[Pose]]:
    """The measurement table of one step, in the body frame of its true
    pose, plus the noisy odometry increment from the previous step (None at
    step 0). Each visible landmark takes its miss, noise and confusion draws
    in turn, so the draws of one landmark follow those of the last."""
    cfg = world.cfg
    pose = world.trajectory.pose(step)
    positions, labels = [], []
    for row in visible_landmarks(world, pose).tolist():
        if cfg.miss_rate > 0.0 and rng.random() < cfg.miss_rate:
            continue
        p = world.positions[row]
        if world.noise_scale is not None:
            p = p + world.noise_scale * rng.standard_normal(3)
        label = int(world.labels[row])
        if world.confusion is not None:
            label = int(rng.choice(cfg.n_classes, p=world.confusion[label]))
        positions.append(p)
        labels.append(label)
    if cfg.sim_fp_rate > 0.0:
        for _ in range(int(rng.poisson(cfg.sim_fp_rate))):
            direction = rng.uniform(0.0, 2.0 * math.pi)
            radius = cfg.detection_range * math.sqrt(rng.random())
            positions.append(pose.translation + np.array([radius * math.cos(direction), radius * math.sin(direction), 0.0]))
            labels.append(int(rng.integers(cfg.n_classes)))
    body = pose.transform_points_inverse(np.reshape(positions, (-1, 3)))
    measurements = MeasurementTable.build(step, np.full(len(labels), float(step)), body, labels)
    increment = None
    if step > 0:
        rel = pose.relative_to(world.trajectory.pose(step - 1))
        dt = rel.translation + np.array([cfg.odom_bias_drift, 0.0, 0.0])
        if cfg.odom_sigma_t > 0.0:
            dt = dt + cfg.odom_sigma_t * rng.standard_normal(3)
        dq = rel.rotation
        if cfg.odom_sigma_r > 0.0:
            dq = quat_normalize(quat_mul(dq, quat_from_rotvec(cfg.odom_sigma_r * rng.standard_normal(3))))
        increment = Pose(dt, dq)
    return measurements, increment


def simulate(world: World) -> Tuple[List[MeasurementTable], PoseTable]:
    """Full log generation at the world's run_seed: per-step body-frame
    measurement tables and the table of odometry increments, row t - 1 the
    motion from step t - 1 to step t."""
    rng = np.random.default_rng(world.cfg.run_seed)
    steps = [simulate_step(world, step, rng) for step in range(world.cfg.steps)]
    return [measurements for measurements, _ in steps], PoseTable.of([increment for _, increment in steps[1:]])
