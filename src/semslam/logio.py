"""Log and output file I/O.

All files are CSV, UTF-8, LF line endings, floats printed with 9
significant digits. Measurement positions are stored in the body frame of
the capturing pose.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from .core import MeasurementTable, PoseTable
from .geometry import Pose

MEASUREMENT_HEADER = "t,scene_id,class_id,x,y,z"
ODOMETRY_HEADER = "t,dx,dy,dz,dqw,dqx,dqy,dqz"
POSE_HEADER = "t,x,y,z,qw,qx,qy,qz"
MAP_HEADER = (
    "landmark_id,class_id,x,y,z,"
    "cov_xx,cov_xy,cov_xz,cov_yx,cov_yy,cov_yz,cov_zx,cov_zy,cov_zz"
)
METRICS_HEADER = "frame,rmse,n_hypotheses,n_landmarks,n_loop_closures"


class LogFormatError(ValueError):
    pass


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def _write(path: str, header: str, rows: Sequence[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _read_rows(path: str, header: str, n_cols: int, may_be_empty: bool = False) -> List[List[str]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise LogFormatError(f"{path}: empty log")
    if lines[0] != header:
        raise LogFormatError(f"{path}: bad header {lines[0]!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != n_cols:
            raise LogFormatError(f"{path}: line {lineno}: expected {n_cols} fields, got {len(parts)}")
        rows.append(parts)
    if not rows and not may_be_empty:
        raise LogFormatError(f"{path}: no data rows")
    return rows


def write_measurements(path: str, scenes: Sequence[MeasurementTable], poses: Sequence[Pose]) -> None:
    """scenes[i] is the world-frame measurement table at the true pose
    poses[i]; positions are written in that pose's body frame."""
    rows = []
    for step, scene in enumerate(scenes):
        body = poses[step].transform_points_inverse(scene.positions)
        scene_id = str(scene.scene_id)
        for t, label, (x, y, z) in zip(scene.times.tolist(), scene.labels.tolist(), body.tolist()):
            rows.append([_fmt(t), scene_id, str(label), _fmt(x), _fmt(y), _fmt(z)])
    _write(path, MEASUREMENT_HEADER, rows)


def read_measurements(path: str, n_classes: int, n_steps: int) -> List[MeasurementTable]:
    """One table of body-frame measurements per scene id, in file order
    within a scene; class ids must lie in [0, n_classes)."""
    times, positions, labels = ([[] for _ in range(n_steps)] for _ in range(3))  # per scene id
    for lineno, parts in enumerate(_read_rows(path, MEASUREMENT_HEADER, 6, may_be_empty=True), start=2):
        try:
            t, scene, class_id, pos = float(parts[0]), int(parts[1]), int(parts[2]), tuple(map(float, parts[3:]))
        except ValueError as exc:
            raise LogFormatError(f"{path}: line {lineno}: {exc}") from exc
        if not (0 <= scene < n_steps):
            raise LogFormatError(f"{path}: line {lineno}: scene id {scene} out of range")
        if not (0 <= class_id < n_classes):
            raise LogFormatError(f"{path}: line {lineno}: class id {class_id} out of range [0, {n_classes})")
        if not all(map(math.isfinite, pos)):
            raise LogFormatError(f"{path}: line {lineno}: measurement position must be finite")
        times[scene].append(t)
        positions[scene].append(pos)
        labels[scene].append(class_id)
    return [MeasurementTable.build(s, times[s], positions[s], labels[s]) for s in range(n_steps)]


def write_odometry(path: str, increments: Sequence[Pose]) -> None:
    rows = []
    for t, inc in enumerate(increments, start=1):
        q = inc.rotation
        d = inc.translation
        rows.append([_fmt(float(t)), _fmt(d[0]), _fmt(d[1]), _fmt(d[2]), _fmt(q[0]), _fmt(q[1]), _fmt(q[2]), _fmt(q[3])])
    _write(path, ODOMETRY_HEADER, rows)


def _read_poses(path: str, header: str, what: str, may_be_empty: bool = False) -> Tuple[List[float], List[Pose]]:
    """Times and poses of a file of t, x, y, z, qw, qx, qy, qz rows; every
    field must be finite."""
    times, poses = [], []
    for lineno, parts in enumerate(_read_rows(path, header, 8, may_be_empty), start=2):
        try:
            vals = [float(x) for x in parts]
        except ValueError as exc:
            raise LogFormatError(f"{path}: line {lineno}: {exc}") from exc
        if not all(map(math.isfinite, vals)):
            raise LogFormatError(f"{path}: line {lineno}: {what} must be finite")
        times.append(vals[0])
        poses.append(Pose(np.array(vals[1:4]), np.array(vals[4:8])))
    return times, poses


def read_odometry(path: str) -> List[Pose]:
    return _read_poses(path, ODOMETRY_HEADER, "odometry increment", may_be_empty=True)[1]


def write_trajectory(path: str, poses: PoseTable, times: Sequence[float] | None = None) -> None:
    rows = []
    for t, (p, q) in enumerate(zip(poses.translations.tolist(), poses.rotations.tolist())):
        time = float(times[t]) if times is not None else float(t)
        rows.append([_fmt(v) for v in (time, *p, *q)])
    _write(path, POSE_HEADER, rows)


def read_trajectory(path: str) -> Tuple[List[float], PoseTable]:
    """Times and the table of a pose file's rows, each rotation normalised."""
    times, poses = _read_poses(path, POSE_HEADER, "trajectory pose")
    return times, PoseTable.of(poses)


def write_map(path: str, landmarks) -> None:
    """landmarks: a LandmarkTable, written in its (id) order."""
    rows = []
    for lid, label, mean, cov in zip(landmarks.ids.tolist(), landmarks.labels.tolist(), landmarks.means, landmarks.covs):
        rows.append([str(lid), str(label)] + [_fmt(v) for v in mean] + [_fmt(v) for v in cov.ravel()])
    _write(path, MAP_HEADER, rows)


def write_metrics(path: str, rows: Sequence[Tuple[int, float, int, int, int]]) -> None:
    out = []
    for frame, err, n_hyp, n_lm, n_lc in rows:
        out.append([str(frame), _fmt(err), str(n_hyp), str(n_lm), str(n_lc)])
    _write(path, METRICS_HEADER, out)


def read_metrics(path: str):
    rows = []
    for lineno, parts in enumerate(_read_rows(path, METRICS_HEADER, 5), start=2):
        try:
            rows.append((int(parts[0]), float(parts[1]), int(parts[2]), int(parts[3]), int(parts[4])))
        except ValueError as exc:
            raise LogFormatError(f"{path}: line {lineno}: {exc}") from exc
    return rows
