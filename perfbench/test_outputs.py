"""Tests of the benchmark's own output checks and speed scaling (no semslam needed).

    python3 -m pytest perfbench
"""

from __future__ import annotations

import math
import os

import pytest

from outputs import (
    METRICS_HEADER,
    ODOMETRY_HEADER,
    POSE_HEADER,
    OutputError,
    check_run,
    integrate_odometry,
    quat_rotate,
    rmse,
)
from workloads import WORKLOADS, Job

YAW90 = (math.cos(math.pi / 4), 0.0, 0.0, math.sin(math.pi / 4))
IDENTITY = (1.0, 0.0, 0.0, 0.0)


def test_quat_rotate_yaw():
    x, y, z = quat_rotate(YAW90, (1.0, 0.0, 0.0))
    assert (x, y, z) == pytest.approx((0.0, 1.0, 0.0), abs=1e-12)


def test_odometry_integration_hand_case():
    # 1 m forward, then turn left 90 degrees while moving 1 m, then 1 m forward:
    # (0,0) -> (1,0) -> (2,0) facing +y -> (2,1)
    incs = [((1.0, 0.0, 0.0), IDENTITY), ((1.0, 0.0, 0.0), YAW90), ((1.0, 0.0, 0.0), IDENTITY)]
    path = integrate_odometry(incs)
    expected = [(0, 0, 0), (1, 0, 0), (2, 0, 0), (2, 1, 0)]
    for got, want in zip(path, expected):
        assert got == pytest.approx(want, abs=1e-12)
    assert len(path) == 4


def test_rmse_hand_case():
    # errors 0, 3-4-5 triangle (5), 0, 1 along z: sqrt((0 + 25 + 0 + 1) / 4)
    a = [(0, 0, 0), (3, 4, 0), (1, 1, 1), (0, 0, 1)]
    b = [(0, 0, 0), (0, 0, 0), (1, 1, 1), (0, 0, 0)]
    assert rmse(a, b) == pytest.approx(math.sqrt(26 / 4), rel=1e-15)
    with pytest.raises(OutputError):
        rmse(a, b[:3])


# -- a small, valid run written by hand ------------------------------------

FRAMES = 4


def _write(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def _make_run(tmp_path, closures=(0, 0, 1, 1), hypotheses=(1, 2, 2, 1), traj_rows=FRAMES):
    logs = tmp_path / "logs"
    out = tmp_path / "out"
    logs.mkdir()
    out.mkdir()
    truth = [(t, float(t), 0.0, 0.0, 1, 0, 0, 0) for t in range(FRAMES)]
    _write(logs / "ground_truth.csv", POSE_HEADER, truth)
    # odometry overshoots by 0.1 m a step: raw positions 0, 1.1, 2.2, 3.3
    _write(logs / "odometry.csv", ODOMETRY_HEADER, [(t, 1.1, 0, 0, 1, 0, 0, 0) for t in range(1, FRAMES)])
    # estimate is 0.05 m off on every frame after the first
    est = [(t, t + (0.05 if t else 0.0), 0.0, 0.0, 1, 0, 0, 0) for t in range(FRAMES)]
    _write(out / "trajectory.csv", POSE_HEADER, est[:traj_rows])
    cov = [0.01, 0, 0, 0, 0.01, 0, 0, 0, 0.01]
    _write(
        out / "map.csv",
        "landmark_id,class_id,x,y,z,cov_xx,cov_xy,cov_xz,cov_yx,cov_yy,cov_yz,cov_zx,cov_zy,cov_zz",
        [[0, 3, 1.0, 2.0, 0.0] + cov],
    )
    _write(
        out / "metrics.csv",
        METRICS_HEADER,
        [(t, 0.0, hypotheses[t], 1, closures[t]) for t in range(FRAMES)],
    )
    return str(logs), str(out)


def test_valid_run_passes_and_ratios_are_hand_computed(tmp_path):
    o = check_run(*_make_run(tmp_path), max_hypotheses=20)
    assert o.frames == FRAMES
    assert o.closures == 1
    assert o.rmse == pytest.approx(math.sqrt(3 * 0.05**2 / 4), rel=1e-12)
    assert o.raw_rmse == pytest.approx(math.sqrt((0.1**2 + 0.2**2 + 0.3**2) / 4), rel=1e-12)
    assert o.mean_hypotheses == 1.5


def test_dropped_trajectory_row_fails(tmp_path):
    with pytest.raises(OutputError, match="trajectory has 3 rows"):
        check_run(*_make_run(tmp_path, traj_rows=FRAMES - 1), max_hypotheses=20)


def test_decreasing_closure_count_fails(tmp_path):
    with pytest.raises(OutputError, match="loop closures fall"):
        check_run(*_make_run(tmp_path, closures=(0, 1, 0, 1)), max_hypotheses=20)


@pytest.mark.parametrize("hypotheses", [(1, 0, 1, 1), (1, 21, 1, 1)])
def test_hypothesis_count_out_of_range_fails(tmp_path, hypotheses):
    with pytest.raises(OutputError, match="hypotheses at frame 1"):
        check_run(*_make_run(tmp_path, hypotheses=hypotheses), max_hypotheses=20)


def test_non_finite_trajectory_fails(tmp_path):
    logs, out = _make_run(tmp_path)
    text = open(os.path.join(out, "trajectory.csv")).read().replace("2.05", "nan")
    open(os.path.join(out, "trajectory.csv"), "w").write(text)
    with pytest.raises(OutputError, match="non-finite"):
        check_run(logs, out, max_hypotheses=20)


def test_empty_map_fails(tmp_path):
    logs, out = _make_run(tmp_path)
    path = os.path.join(out, "map.csv")
    header = open(path).readline()
    open(path, "w").write(header)
    with pytest.raises(OutputError, match="empty map"):
        check_run(logs, out, max_hypotheses=20)


def test_closure_on_line_fails(tmp_path):
    o = check_run(*_make_run(tmp_path), max_hypotheses=20)
    assert WORKLOADS["line"].run_check(o) is not None
    assert WORKLOADS["loop"].run_check(o) is None


def test_loop_without_closure_fails(tmp_path):
    o = check_run(*_make_run(tmp_path, closures=(0, 0, 0, 0)), max_hypotheses=20)
    assert WORKLOADS["loop"].run_check(o) is not None
    assert WORKLOADS["line"].run_check(o) is None


def test_loop_drift_check_needs_mean_ratio_below_one(tmp_path):
    o = check_run(*_make_run(tmp_path), max_hypotheses=20)  # ratio about 0.23
    worse = o.__class__(o.frames, 2.0 * o.raw_rmse, o.raw_rmse, o.hypotheses, o.closures)
    job = Job(0, "loop-0", "dpmhm", ())
    assert WORKLOADS["loop"].workload_check([(job, o)]) is None
    assert WORKLOADS["loop"].workload_check([(job, o), (job, worse)]) is not None


def test_branching_check_needs_fewer_dpmhm_leaves(tmp_path):
    dp = check_run(*_make_run(tmp_path), max_hypotheses=20)  # 1.5 leaves/frame
    many = dp.__class__(dp.frames, dp.rmse, dp.raw_rmse, (4, 4, 4, 4), dp.closures)
    few = dp.__class__(dp.frames, dp.rmse, dp.raw_rmse, (2, 2, 2, 2), dp.closures)
    check = WORKLOADS["branching"].workload_check
    jd = Job(0, "branching-0", "dpmhm", ())
    jt = Job(0, "branching-0", "mhm_threshold", ())
    assert check([(jd, dp), (jt, many)]) is None  # 1.5 <= 0.7 * 4
    assert check([(jd, dp), (jt, few)]) is not None  # 1.5 > 0.7 * 2


def test_seed_orders_a_fixed_panel():
    for w in WORKLOADS.values():
        assert w.jobs(3) == w.jobs(3)
        assert sorted(w.jobs(3), key=repr) == sorted(w.jobs(4), key=repr)
    assert WORKLOADS["loop"].jobs(3) != WORKLOADS["loop"].jobs(4)


def test_speed_clock_scales_each_segment_by_the_probes_around_it(monkeypatch):
    import speed

    n = speed.SAMPLES
    probes = iter([0.010] * n + [0.020] * n + [0.030] * n)
    monkeypatch.setattr(speed, "probe_once", lambda: next(probes))
    # CPU readings: start of segment 1, its end, start of segment 2, its end, start of 3
    cpu = iter([0.0, 1.0, 1.5, 3.0, 3.5])
    monkeypatch.setattr(speed, "process_time", lambda: next(cpu))
    clock = speed.SpeedClock()
    clock.checkpoint()
    clock.checkpoint()
    ref = speed.REFERENCE_S
    assert clock.first_scale == pytest.approx(ref / 0.010)
    assert clock.reference(0.5, 1.0) == pytest.approx(0.5 * ref / 0.015)
    # an interval that spans a checkpoint leaves out the probes' own CPU time
    assert clock.reference(0.5, 2.0) == pytest.approx(0.5 * ref / 0.015 + 0.5 * ref / 0.025)
    clock.forget()
    assert clock.reference(0.5, 2.0) == 0.0
