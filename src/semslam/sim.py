"""Deterministic synthetic worlds: landmark fields, closed trajectories,
a noisy semantic detector, and a drifting odometry source."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .config import RunConfig
from .core import SPD_EIG_TOL, ContractViolation, SemanticMeasurement
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
    """Detector model. The noise covariance is factored here, once per spec:
    noise_chol is None for a zero covariance."""

    detection_range: float = 10.0
    fov_deg: float = 360.0
    miss_rate: float = 0.0
    fp_rate: float = 0.0  # expected false positives per step
    confusion: Optional[np.ndarray] = None  # row-stochastic, identity when None
    meas_noise_cov: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))
    noise_chol: Optional[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0.0 <= self.miss_rate < 1.0):
            raise ContractViolation("miss_rate must lie in [0, 1)")
        if not self.detection_range >= 0.0:
            raise ContractViolation(f"detection_range must be non-negative, got {self.detection_range!r}")
        if not 0.0 <= self.fp_rate < math.inf:
            raise ContractViolation(f"fp_rate must be finite and non-negative, got {self.fp_rate!r}")
        if self.confusion is not None:
            c = np.asarray(self.confusion, dtype=float)
            if c.ndim != 2 or c.shape[0] != c.shape[1]:
                raise ContractViolation(f"confusion matrix must be square, got shape {c.shape}")
            if (c < 0.0).any():
                raise ContractViolation("confusion matrix has a negative entry")
            if not np.allclose(c.sum(axis=1), 1.0, atol=1e-9):
                raise ContractViolation("confusion rows must sum to 1")
            object.__setattr__(self, "confusion", c)
        cov = np.asarray(self.meas_noise_cov, dtype=float)
        if cov.shape != (3, 3) or not np.isfinite(cov).all() or not np.allclose(cov, cov.T, rtol=1e-5, atol=1e-9):
            raise ContractViolation(f"meas_noise_cov must be a finite symmetric 3x3 matrix, got shape {cov.shape}")
        eig = np.linalg.eigvalsh(cov)
        if eig[0] < -SPD_EIG_TOL * max(1.0, eig[-1]):
            raise ContractViolation(f"meas_noise_cov is not positive semi-definite (eigenvalue {eig[0]:.3g})")
        object.__setattr__(self, "noise_chol", _noise_factor(cov))


def _noise_factor(cov: np.ndarray) -> Optional[np.ndarray]:
    """L with L @ L.T == cov for a symmetric PSD cov, None when cov is zero: the
    Cholesky factor of cov + 1e-18 I, or where a singular cov has none, V sqrt(w)
    from its eigendecomposition."""
    if not np.any(cov != 0.0):
        return None
    try:
        return np.linalg.cholesky(cov + 1e-18 * np.eye(3))
    except np.linalg.LinAlgError:
        w, V = np.linalg.eigh(cov)
        return V * np.sqrt(np.maximum(w, 0.0))


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
    """positions stacks the landmark positions, row i for landmarks[i]."""

    spec: WorldSpec
    landmarks: List[WorldLandmark]
    trajectory: List[Pose]
    positions: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.positions = np.reshape([lm.position for lm in self.landmarks], (-1, 3))


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
    labels = [label for label, count in enumerate(spec.landmarks_per_class) for _ in range(count)]
    positions = np.zeros((len(labels), 3))
    positions[:, :2] = center[:2] + rng.uniform(-half, half, size=(len(labels), 2))
    landmarks = [WorldLandmark(lid, label, positions[lid]) for lid, label in enumerate(labels)]
    return World(spec, landmarks, traj)


# World-frame squared distances agree with the body-frame norms to a few ulp,
# so a landmark is decided by the screen only when it lies farther than this
# relative margin from the range.
_SCREEN_MARGIN = 1e-9
_TINY = np.finfo(float).tiny  # squares below it lose their relative precision


def _in_view(body: np.ndarray, det: DetectorSpec, half_fov: float) -> bool:
    """The per-landmark test on a body-frame offset."""
    dist = float(np.linalg.norm(body))
    if dist > det.detection_range or dist == 0.0:
        return False
    return not (half_fov < math.pi and abs(math.atan2(body[1], body[0])) > half_fov)


def visible_landmarks(world: World, pose: Pose, det: DetectorSpec) -> List[WorldLandmark]:
    """The landmarks within range and field of view of pose, in world order.

    One world-frame squared-distance pass screens them all. Those beyond the
    range widened by _SCREEN_MARGIN are out; under a 360 degree field of view,
    those clearly inside it and not at the pose are in. Every other landmark
    takes the body-frame test, so the set is the per-landmark test's."""
    d = world.positions - pose.translation
    sq = np.einsum("ij,ij->i", d, d)
    hi = det.detection_range * (1.0 + _SCREEN_MARGIN)
    near = np.flatnonzero(~(sq > max(hi * hi, _TINY)))  # NaN rows take the body-frame test
    half_fov = math.radians(det.fov_deg) / 2.0
    lo = det.detection_range * (1.0 - _SCREEN_MARGIN)
    lo2 = lo * lo if half_fov >= math.pi else 0.0
    sure = (sq[near] > 0.0) & (sq[near] <= lo2) if _TINY <= lo2 < math.inf else np.zeros(near.size, dtype=bool)
    R = pose.rot()
    lms = world.landmarks
    return [lms[i] for i, s in zip(near.tolist(), sure.tolist()) if s or _in_view(R.T @ d[i], det, half_fov)]


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
    positions, labels = [], []
    n_classes = len(world.spec.landmarks_per_class)
    for lm in visible_landmarks(world, pose, det):
        if det.miss_rate > 0.0 and rng.random() < det.miss_rate:
            continue
        p = lm.position
        if det.noise_chol is not None:
            p = p + det.noise_chol @ rng.standard_normal(3)
        label = lm.label
        if det.confusion is not None:
            label = int(rng.choice(n_classes, p=det.confusion[lm.label]))
        positions.append(p)
        labels.append(label)
    if det.fp_rate > 0.0:
        for _ in range(int(rng.poisson(det.fp_rate))):
            direction = rng.uniform(0.0, 2.0 * math.pi)
            radius = det.detection_range * math.sqrt(rng.random())
            positions.append(pose.translation + np.array([radius * math.cos(direction), radius * math.sin(direction), 0.0]))
            labels.append(int(rng.integers(n_classes)))
    k = len(labels)
    measurements = SemanticMeasurement.stack([step] * k, [float(step)] * k, positions, labels)
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
