"""Command-line entry points: simulate, run, eval, export-plot."""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .config import ConfigError, load_config, serialize_config
from .logio import (
    LogFormatError,
    read_measurements,
    read_metrics,
    read_odometry,
    read_trajectory,
    write_map,
    write_measurements,
    write_metrics,
    write_odometry,
    write_trajectory,
)
from .pipeline import evaluate, run_pipeline
from .sim import generate_world, simulate


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    world = generate_world(cfg)
    measurements, increments = simulate(world)
    os.makedirs(args.out, exist_ok=True)
    write_measurements(os.path.join(args.out, "measurements.csv"), measurements)
    write_odometry(os.path.join(args.out, "odometry.csv"), increments)
    write_trajectory(os.path.join(args.out, "ground_truth.csv"), world.trajectory)
    with open(os.path.join(args.out, "config.txt"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_config(cfg))
    n_meas = sum(len(m) for m in measurements)
    print(f"simulated {cfg.steps} steps, {n_meas} measurements -> {args.out}")
    return 0


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    increments = read_odometry(os.path.join(args.logs, "odometry.csv"))
    n_steps = len(increments) + 1
    measurements = read_measurements(os.path.join(args.logs, "measurements.csv"), cfg.n_classes, n_steps)
    gt_path = os.path.join(args.logs, "ground_truth.csv")
    ground_truth = None
    if os.path.exists(gt_path):
        _, ground_truth = read_trajectory(gt_path)
    result = run_pipeline(cfg, measurements, increments, ground_truth)
    os.makedirs(args.out, exist_ok=True)
    write_trajectory(os.path.join(args.out, "trajectory.csv"), result.trajectory)
    write_map(os.path.join(args.out, "map.csv"), result.fused_map)
    write_metrics(os.path.join(args.out, "metrics.csv"), result.metrics_rows())
    msg = (
        f"{cfg.mode}: {len(result.trajectory)} frames, "
        f"{len(result.fused_map)} landmarks, "
        f"{result.n_loop_closures} loop closures, "
        f"mean hypotheses {result.mean_hypotheses:.2f}"
    )
    if result.final_rmse is not None:
        raw = evaluate(result.raw_odometry, ground_truth)
        msg += f", rmse {result.final_rmse:.4f} (raw odometry {raw.rmse:.4f})"
    print(msg)
    return 0


def cmd_eval(args) -> int:
    times_t, traj = read_trajectory(args.trajectory)
    times_g, gt = read_trajectory(args.ground_truth)
    if len(traj) != len(gt):
        raise LogFormatError("trajectory and ground truth lengths differ")
    report = evaluate(traj, gt, times_t, times_g)
    hyp = [1] * len(traj)
    lms = [0] * len(traj)
    lcs = [0] * len(traj)
    if args.run_metrics:
        rows = read_metrics(args.run_metrics)
        if len(rows) != len(traj):
            raise LogFormatError("run metrics length does not match trajectory")
        hyp = [r[2] for r in rows]
        lms = [r[3] for r in rows]
        lcs = [r[4] for r in rows]
    if args.out:
        write_metrics(
            args.out,
            [(t, report.per_frame_error[t], hyp[t], lms[t], lcs[t]) for t in range(len(traj))],
        )
    print(
        f"rmse {report.rmse:.6f} mean {report.mean_error:.6f} max {report.max_error:.6f} "
        f"frames {len(traj)}"
    )
    return 0


def cmd_export_plot(args) -> int:
    rows = read_metrics(args.metrics)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("frame,rmse\n")
        for frame, err, _, _, _ in rows:
            fh.write(f"{frame},{format(err, '.9g')}\n")
    print(f"wrote {len(rows)} frames -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="semslam", description="Multi-hypothesis semantic SLAM pipeline")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("simulate", help="generate synthetic logs and ground truth")
    s.add_argument("--config", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_simulate)

    r = sub.add_parser("run", help="run the estimator over logs")
    r.add_argument("--config", required=True)
    r.add_argument("--logs", required=True)
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_run)

    e = sub.add_parser("eval", help="compare a trajectory against ground truth")
    e.add_argument("--trajectory", required=True)
    e.add_argument("--ground-truth", required=True)
    e.add_argument("--run-metrics", default=None, help="metrics.csv from `run` to merge hypothesis counts")
    e.add_argument("--out", default=None, help="write a merged metrics CSV")
    e.set_defaults(func=cmd_eval)

    x = sub.add_parser("export-plot", help="per-frame RMSE series for plotting")
    x.add_argument("--metrics", required=True)
    x.add_argument("--out", required=True)
    x.set_defaults(func=cmd_export_plot)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, LogFormatError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
