"""Deterministic synthetic worlds: landmark fields, closed trajectories,
a noisy semantic detector, and a drifting odometry source."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .config import RunConfig
from .core import ContractViolation, SemanticMeasurement
from .geometry import Pose, quat_from_rotvec, quat_from_yaw, quat_mul, quat_normalize

TRAJECTORY_SHAPES = ("square_loop", "figure_eight", "line")


@dataclass(frozen=True)
class WorldSpec:
    seed: int = 0
    arena_size: float = 30.0
    landmarks_per_class: Tuple[int, ...] = (8,) * 8
    trajectory: str = "square_loop"
    steps: int = 48
    step_length: float = 1.0

    def __post_init__(self):
        if self.trajectory not in TRAJECTORY_SHAPES:
            raise ContractViolation(f"unknown trajectory shape {self.trajectory!r}")
        if self.steps < 1 or sum(self.landmarks_per_class) < 1:
            raise ContractViolation("need at least one step and one landmark")


@dataclass(frozen=True)
class DetectorSpec:
    detection_range: float = 10.0
    fov_deg: float = 360.0
    miss_rate: float = 0.0
    fp_rate: float = 0.0  # expected false positives per step
    confusion: Optional[np.ndarray] = None  # row-stochastic, identity when None
    meas_noise_cov: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))

    def __post_init__(self):
        if not (0.0 <= self.miss_rate < 1.0):
            raise ContractViolation("miss_rate must lie in [0, 1)")
        if self.confusion is not None:
            c = np.asarray(self.confusion)
            if not np.allclose(c.sum(axis=1), 1.0, atol=1e-9):
                raise ContractViolation("confusion rows must sum to 1")


@dataclass(frozen=True)
class OdometrySpec:
    sigma_t: float = 0.0  # per-step translation noise, per axis
    sigma_r: float = 0.0  # per-step rotation noise (rad, per axis)
    bias_drift: float = 0.0  # constant body-x translation bias per step

    def __post_init__(self):
        if self.sigma_t < 0 or self.sigma_r < 0:
            raise ContractViolation("noise sigmas must be non-negative")


def scenario_specs(cfg: RunConfig) -> Tuple[WorldSpec, DetectorSpec, OdometrySpec]:
    """The world, detector and odometry a run config describes. Landmarks
    are split evenly over the classes, the first classes taking the rest;
    confusion_eps > 0 spreads that mass evenly over the other classes."""
    per_class = cfg.n_landmarks // cfg.n_classes
    counts = [per_class] * cfg.n_classes
    for i in range(cfg.n_landmarks - per_class * cfg.n_classes):
        counts[i] += 1
    world = WorldSpec(cfg.world_seed, cfg.arena_size, tuple(counts), cfg.trajectory, cfg.steps, cfg.step_length)
    confusion = None
    if cfg.confusion_eps > 0.0:
        n = cfg.n_classes
        confusion = np.full((n, n), cfg.confusion_eps / max(n - 1, 1))
        np.fill_diagonal(confusion, 1.0 - cfg.confusion_eps)
    det = DetectorSpec(
        cfg.detection_range,
        cfg.fov_deg,
        cfg.miss_rate,
        cfg.sim_fp_rate,
        confusion,
        cfg.meas_noise_std**2 * np.eye(3),
    )
    return world, det, OdometrySpec(cfg.odom_sigma_t, cfg.odom_sigma_r, cfg.odom_bias_drift)


@dataclass(frozen=True, eq=False)
class WorldLandmark:
    id: int
    label: int
    position: np.ndarray


@dataclass(eq=False)
class World:
    spec: WorldSpec
    landmarks: List[WorldLandmark]
    trajectory: List[Pose]


def _square_loop(steps: int, step_length: float) -> List[Pose]:
    side = max(steps // 4, 1)
    poses = []
    pos = np.zeros(3)
    yaw = 0.0
    for t in range(steps):
        poses.append(Pose(pos.copy(), quat_from_yaw(yaw)))
        pos = pos + step_length * np.array([math.cos(yaw), math.sin(yaw), 0.0])
        if (t + 1) % side == 0:
            yaw += math.pi / 2.0
    return poses


def _figure_eight(steps: int, step_length: float) -> List[Pose]:
    # two tangent circles traced with constant arc length
    r = steps * step_length / (4.0 * math.pi)
    poses = []
    for t in range(steps):
        s = 2.0 * math.pi * (2.0 * t / steps)
        if t < steps / 2:
            x = r * math.sin(s)
            y = r * (1.0 - math.cos(s))
            yaw = s + 0.0
        else:
            x = r * math.sin(s)
            y = -r * (1.0 - math.cos(s))
            yaw = -s
        poses.append(Pose(np.array([x, y, 0.0]), quat_from_yaw(yaw)))
    return poses


def _line(steps: int, step_length: float) -> List[Pose]:
    return [Pose(np.array([t * step_length, 0.0, 0.0]), quat_from_yaw(0.0)) for t in range(steps)]


def generate_world(spec: WorldSpec) -> World:
    """Deterministic world: landmark field plus ground-truth trajectory."""
    rng = np.random.default_rng(spec.seed)
    if spec.trajectory == "square_loop":
        traj = _square_loop(spec.steps, spec.step_length)
    elif spec.trajectory == "figure_eight":
        traj = _figure_eight(spec.steps, spec.step_length)
    else:
        traj = _line(spec.steps, spec.step_length)
    # recentre the arena on the trajectory so landmarks surround the path
    pts = np.stack([p.translation for p in traj])
    center = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
    half = spec.arena_size / 2.0
    landmarks = []
    lid = 0
    for label, count in enumerate(spec.landmarks_per_class):
        for _ in range(count):
            xy = center[:2] + rng.uniform(-half, half, size=2)
            landmarks.append(WorldLandmark(lid, label, np.array([xy[0], xy[1], 0.0])))
            lid += 1
    return World(spec, landmarks, traj)


def visible_landmarks(world: World, pose: Pose, det: DetectorSpec) -> List[WorldLandmark]:
    out = []
    half_fov = math.radians(det.fov_deg) / 2.0
    R = pose.rot()
    for lm in world.landmarks:
        body = R.T @ (lm.position - pose.translation)
        dist = float(np.linalg.norm(body))
        if dist > det.detection_range or dist == 0.0:
            continue
        if half_fov < math.pi:
            angle = abs(math.atan2(body[1], body[0]))
            if angle > half_fov:
                continue
        out.append(lm)
    return out


def simulate_step(
    world: World,
    step: int,
    det: DetectorSpec,
    odo: OdometrySpec,
    rng: np.random.Generator,
) -> Tuple[List[SemanticMeasurement], Optional[Pose]]:
    """Measurements (world frame) for one step plus the noisy odometry
    increment from the previous step (None at step 0)."""
    pose = world.trajectory[step]
    t = float(step)
    measurements = []
    noise_chol = None
    cov = np.asarray(det.meas_noise_cov, dtype=float)
    if np.any(cov != 0.0):
        noise_chol = np.linalg.cholesky(cov + 1e-18 * np.eye(3))
    n_classes = len(world.spec.landmarks_per_class)
    for lm in visible_landmarks(world, pose, det):
        if det.miss_rate > 0.0 and rng.random() < det.miss_rate:
            continue
        p = lm.position.copy()
        if noise_chol is not None:
            p = p + noise_chol @ rng.standard_normal(3)
        label = lm.label
        if det.confusion is not None:
            label = int(rng.choice(n_classes, p=np.asarray(det.confusion)[lm.label]))
        measurements.append(SemanticMeasurement(step, t, p, label))
    if det.fp_rate > 0.0:
        for _ in range(int(rng.poisson(det.fp_rate))):
            direction = rng.uniform(0.0, 2.0 * math.pi)
            radius = det.detection_range * math.sqrt(rng.random())
            offset = np.array([radius * math.cos(direction), radius * math.sin(direction), 0.0])
            label = int(rng.integers(n_classes))
            measurements.append(SemanticMeasurement(step, t, pose.translation + offset, label))
    increment = None
    if step > 0:
        prev = world.trajectory[step - 1]
        rel = pose.relative_to(prev)
        dt = rel.translation + np.array([odo.bias_drift, 0.0, 0.0])
        if odo.sigma_t > 0.0:
            dt = dt + odo.sigma_t * rng.standard_normal(3)
        dq = rel.rotation
        if odo.sigma_r > 0.0:
            dq = quat_normalize(quat_mul(dq, quat_from_rotvec(odo.sigma_r * rng.standard_normal(3))))
        increment = Pose(dt, dq)
    return measurements, increment


def simulate(world: World, det: DetectorSpec, odo: OdometrySpec, run_seed: int):
    """Full log generation: per-step measurement lists and odometry increments."""
    rng = np.random.default_rng(run_seed)
    all_measurements: List[List[SemanticMeasurement]] = []
    increments: List[Pose] = []
    for step in range(world.spec.steps):
        meas, inc = simulate_step(world, step, det, odo, rng)
        all_measurements.append(meas)
        if inc is not None:
            increments.append(inc)
    return all_measurements, increments
