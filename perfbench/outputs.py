"""Output checks for the benchmark, computed apart from semslam.

Nothing here imports semslam: the CSV files are parsed with this module's
own reader, raw odometry is integrated with this module's own quaternion
code, and both RMSEs are computed here. The checks test properties the
method must have, not a stored copy of an earlier output.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import List, Sequence, Tuple

POSE_HEADER = "t,x,y,z,qw,qx,qy,qz"
ODOMETRY_HEADER = "t,dx,dy,dz,dqw,dqx,dqy,dqz"
METRICS_HEADER = "frame,rmse,n_hypotheses,n_landmarks,n_loop_closures"
MAP_HEADER_PREFIX = "landmark_id,class_id,x,y,z,"

Vec = Tuple[float, float, float]
Quat = Tuple[float, float, float, float]  # (w, x, y, z), Hamilton product


class OutputError(ValueError):
    """An output file is malformed or breaks a property the method must have."""


def read_table(path: str, header: str) -> List[List[str]]:
    """Data rows of a CSV file whose first line must equal `header`."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if not lines or lines[0] != header:
        raise OutputError(f"{os.path.basename(path)}: bad or missing header")
    n = header.count(",") + 1
    rows = []
    for line in lines[1:]:
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != n:
            raise OutputError(f"{os.path.basename(path)}: row with {len(parts)} fields, expected {n}")
        rows.append(parts)
    return rows


def _floats(parts: Sequence[str], path: str) -> List[float]:
    try:
        vals = [float(p) for p in parts]
    except ValueError as exc:
        raise OutputError(f"{os.path.basename(path)}: {exc}") from exc
    if not all(math.isfinite(v) for v in vals):
        raise OutputError(f"{os.path.basename(path)}: non-finite value")
    return vals


def read_positions(path: str) -> List[Vec]:
    """Translations of a pose file (trajectory.csv or ground_truth.csv)."""
    return [tuple(_floats(r, path)[1:4]) for r in read_table(path, POSE_HEADER)]


def read_increments(path: str) -> List[Tuple[Vec, Quat]]:
    out = []
    for r in read_table(path, ODOMETRY_HEADER):
        v = _floats(r, path)
        out.append(((v[1], v[2], v[3]), (v[4], v[5], v[6], v[7])))
    return out


def quat_mul(a: Quat, b: Quat) -> Quat:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def quat_rotate(q: Quat, v: Vec) -> Vec:
    """q v q*, for a unit quaternion q."""
    w, x, y, z = quat_mul(quat_mul(q, (0.0, v[0], v[1], v[2])), (q[0], -q[1], -q[2], -q[3]))
    return (x, y, z)


def integrate_odometry(increments: Sequence[Tuple[Vec, Quat]]) -> List[Vec]:
    """Positions of the raw odometry chain, starting at the identity pose as
    the estimator does: p_k = p_{k-1} + R_{k-1} dt_k, q_k = q_{k-1} dq_k."""
    p: Vec = (0.0, 0.0, 0.0)
    q: Quat = (1.0, 0.0, 0.0, 0.0)
    out = [p]
    for dt, dq in increments:
        r = quat_rotate(q, dt)
        p = (p[0] + r[0], p[1] + r[1], p[2] + r[2])
        q = quat_mul(q, dq)
        norm = math.sqrt(sum(c * c for c in q))
        q = tuple(c / norm for c in q)
        out.append(p)
    return out


def rmse(a: Sequence[Vec], b: Sequence[Vec]) -> float:
    """Root-mean-square translational error between two aligned paths."""
    if len(a) != len(b) or not a:
        raise OutputError(f"paths of {len(a)} and {len(b)} poses cannot be compared")
    total = sum((p[0] - g[0]) ** 2 + (p[1] - g[1]) ** 2 + (p[2] - g[2]) ** 2 for p, g in zip(a, b))
    return math.sqrt(total / len(a))


@dataclass(frozen=True)
class RunOutputs:
    """What the benchmark reads back from one `semslam run`."""

    frames: int
    rmse: float
    raw_rmse: float
    hypotheses: Tuple[int, ...]
    closures: int

    @property
    def rmse_ratio(self) -> float:
        return self.rmse / self.raw_rmse

    @property
    def mean_hypotheses(self) -> float:
        return sum(self.hypotheses) / len(self.hypotheses)


def check_run(logs: str, out: str, max_hypotheses: int) -> RunOutputs:
    """Check the outputs of one run against its logs; raise OutputError on
    the first property that does not hold."""
    truth = read_positions(os.path.join(logs, "ground_truth.csv"))
    frames = len(truth)
    increments = read_increments(os.path.join(logs, "odometry.csv"))
    if len(increments) != frames - 1:
        raise OutputError(f"{len(increments)} odometry increments for {frames} frames")
    traj = read_positions(os.path.join(out, "trajectory.csv"))
    if len(traj) != frames:
        raise OutputError(f"trajectory has {len(traj)} rows for {frames} frames")
    map_path = os.path.join(out, "map.csv")
    with open(map_path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
    if not header.startswith(MAP_HEADER_PREFIX):
        raise OutputError("map.csv: bad or missing header")
    map_rows = read_table(map_path, header)
    if not map_rows:
        raise OutputError("map.csv: empty map")
    for r in map_rows:
        _floats(r, map_path)
    rows = read_table(os.path.join(out, "metrics.csv"), METRICS_HEADER)
    if len(rows) != frames:
        raise OutputError(f"metrics.csv has {len(rows)} rows for {frames} frames")
    hyps = []
    closures = 0
    for i, r in enumerate(rows):
        try:
            frame, n_hyp, n_lc = int(r[0]), int(r[2]), int(r[4])
        except ValueError as exc:
            raise OutputError(f"metrics.csv: {exc}") from exc
        if frame != i:
            raise OutputError(f"metrics.csv: frame {frame} in row {i}")
        if not 1 <= n_hyp <= max_hypotheses:
            raise OutputError(f"metrics.csv: {n_hyp} hypotheses at frame {i}, allowed 1..{max_hypotheses}")
        if n_lc < closures:
            raise OutputError(f"metrics.csv: loop closures fall from {closures} to {n_lc} at frame {i}")
        hyps.append(n_hyp)
        closures = n_lc
    raw = rmse(integrate_odometry(increments), truth)
    if raw <= 0.0:
        raise OutputError("raw odometry matches ground truth exactly; drift ratio undefined")
    return RunOutputs(frames, rmse(traj, truth), raw, tuple(hyps), closures)
