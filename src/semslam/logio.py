"""Log and output file I/O.

All files are CSV, UTF-8, LF line endings, floats printed with 9
significant digits. Measurement positions are stored in the body frame of
the capturing pose.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .core import MeasurementTable, PoseTable
from .geometry import ZERO_NORM, norms, quat_normalize

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


def _read_rows(path: str, header: str, n_cols: int, may_be_empty: bool = False) -> List[Tuple[int, List[str]]]:
    """The line number and fields of each non-blank data line."""
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
        rows.append((lineno, parts))
    if not rows and not may_be_empty:
        raise LogFormatError(f"{path}: no data rows")
    return rows


def write_measurements(path: str, scenes: Sequence[MeasurementTable]) -> None:
    """scenes holds body-frame measurement tables, written in order."""
    rows = []
    for scene in scenes:
        scene_id = str(scene.scene_id)
        for t, label, (x, y, z) in zip(scene.times.tolist(), scene.labels.tolist(), scene.positions.tolist()):
            rows.append([_fmt(t), scene_id, str(label), _fmt(x), _fmt(y), _fmt(z)])
    _write(path, MEASUREMENT_HEADER, rows)


def read_measurements(path: str, n_classes: int, n_steps: int) -> List[MeasurementTable]:
    """One table of body-frame measurements per scene id, in file order
    within a scene; class ids must lie in [0, n_classes)."""
    times, positions, labels = ([[] for _ in range(n_steps)] for _ in range(3))  # per scene id
    for lineno, parts in _read_rows(path, MEASUREMENT_HEADER, 6, may_be_empty=True):
        try:
            t, scene, class_id, pos = float(parts[0]), int(parts[1]), int(parts[2]), tuple(map(float, parts[3:]))
        except ValueError as exc:
            raise LogFormatError(f"{path}: line {lineno}: {exc}") from exc
        if not math.isfinite(t):
            raise LogFormatError(f"{path}: line {lineno}: measurement time must be finite")
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


def _write_poses(path: str, header: str, poses: PoseTable, times: Iterable[float]) -> None:
    """One t, x, y, z, qw, qx, qy, qz row per pose."""
    rows = zip(times, poses.translations.tolist(), poses.rotations.tolist(), strict=True)
    _write(path, header, [[_fmt(v) for v in (t, *p, *q)] for t, p, q in rows])


def _read_poses(path: str, header: str, what: str, may_be_empty: bool = False) -> Tuple[List[float], PoseTable]:
    """Times and the table of a file of t, x, y, z, qw, qx, qy, qz rows;
    every field must be finite, and every rotation's norm nonzero and
    finite. The rotations are normalised as one stack."""
    linenos, vals = [], []
    for lineno, parts in _read_rows(path, header, 8, may_be_empty):
        try:
            row = [float(x) for x in parts]
        except ValueError as exc:
            raise LogFormatError(f"{path}: line {lineno}: {exc}") from exc
        if not all(map(math.isfinite, row)):
            raise LogFormatError(f"{path}: line {lineno}: {what} must be finite")
        linenos.append(lineno)
        vals.append(row)
    vals = np.reshape(vals, (-1, 8))
    with np.errstate(over="ignore"):
        n = norms(vals[:, 4:])
    bad = np.flatnonzero((n < ZERO_NORM) | (n == np.inf))
    if bad.size:
        says = "a zero-norm rotation" if n[bad[0]] < ZERO_NORM else "a rotation whose norm overflows"
        raise LogFormatError(f"{path}: line {linenos[bad[0]]}: {what} has {says}")
    return vals[:, 0].tolist(), PoseTable(vals[:, 1:4].copy(), quat_normalize(vals[:, 4:]))


def write_odometry(path: str, increments: PoseTable) -> None:
    """Row t - 1 of increments, the motion from step t - 1 to step t, at time t."""
    _write_poses(path, ODOMETRY_HEADER, increments, range(1, len(increments) + 1))


def read_odometry(path: str) -> PoseTable:
    return _read_poses(path, ODOMETRY_HEADER, "odometry increment", may_be_empty=True)[1]


def write_trajectory(path: str, poses: PoseTable, times: Sequence[float] | None = None) -> None:
    _write_poses(path, POSE_HEADER, poses, range(len(poses)) if times is None else times)


def read_trajectory(path: str) -> Tuple[List[float], PoseTable]:
    """Times and the table of a pose file's rows, each rotation normalised."""
    return _read_poses(path, POSE_HEADER, "trajectory pose")


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
    """The rows of a metrics file: frame t on the t-th data row, counts
    non-negative."""
    rows = []
    for lineno, parts in _read_rows(path, METRICS_HEADER, 5):
        try:
            row = (int(parts[0]), float(parts[1]), int(parts[2]), int(parts[3]), int(parts[4]))
        except ValueError as exc:
            raise LogFormatError(f"{path}: line {lineno}: {exc}") from exc
        if not math.isfinite(row[1]):
            raise LogFormatError(f"{path}: line {lineno}: rmse must be finite")
        if row[0] != len(rows):
            raise LogFormatError(f"{path}: line {lineno}: frame {row[0]} is not row {len(rows)}")
        if min(row[2:]) < 0:
            raise LogFormatError(f"{path}: line {lineno}: counts must be non-negative")
        rows.append(row)
    return rows
