"""End-to-end benchmark of the semslam estimator.

    python3 perfbench/run.py --workload loop --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout, in one process with one BLAS
thread. Set-up simulates every log of the workload with `semslam simulate`;
the timed part calls `semslam run` once per job through `semslam.cli.main`,
in whole rounds over the workload's jobs, at least two, until the next
round would end after `--seconds`. Every timed piece of work is taken in
CPU seconds and scaled to reference seconds by the speed probe, which runs
between jobs and after every submap (speed.py): on a shared host the CPU's
speed changes for minutes at a time, and a run can lie wholly in a slow
spell. Timings are medians over rounds. Every run's outputs are checked
(see outputs.py and workloads.py). The last line of standard output is one
JSON object: end-to-end metrics with `--trace 0`, per-layer metrics with
`--trace 1`.
"""

from __future__ import annotations

import os

# before anything imports numpy: BLAS threads would contend for the 2 cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import traceback
from time import perf_counter, process_time
from typing import Dict, List, Optional, Sequence, Tuple

from outputs import OutputError, RunOutputs, check_run
from tracing import Patches, Tracer
from workloads import WORKLOADS, Job, Workload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 5
MIN_ROUNDS = 2


Span = Tuple[float, float]  # process_time() at the start and at the end


class SetupError(RuntimeError):
    pass


def import_semslam():
    """Import the checkout's semslam and time it; raise if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "semslam", "__init__.py")):
        raise SetupError(f"no semslam sources under {SRC}")
    sys.path.insert(0, SRC)
    t0 = process_time()
    cli = importlib.import_module("semslam.cli")
    seconds = process_time() - t0
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SetupError(f"semslam was imported from {cli.__file__}, not from {SRC}")
    return cli, seconds


def write_config(path: str, values: Dict[str, object]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, val in values.items():
            fh.write(f"{key} = {val}\n")


def read_config_value(path: str, key: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            name, _, val = line.partition("=")
            if name.strip() == key:
                return val.strip()
    raise OutputError(f"{path}: no {key}")


class FrameClock:
    """Per-frame latency as CPU intervals: `Pipeline.process_scene`, plus
    `Pipeline.finalize_submap` on a frame that closes a submap. After each
    submap, outside the timed intervals, it checkpoints the speed clock."""

    def __init__(self, speed):
        self.frames: Dict[int, List[Span]] = {}
        self.speed = speed

    def install(self, patches: Patches) -> None:
        frames = self.frames
        speed = self.speed

        def scene(original):
            def process_scene(pipe, step, *args, **kwargs):
                t0 = process_time()
                try:
                    return original(pipe, step, *args, **kwargs)
                finally:
                    frames[step] = [(t0, process_time())]

            return process_scene

        def submap(original):
            def finalize_submap(pipe, last_step, *args, **kwargs):
                t0 = process_time()
                try:
                    return original(pipe, last_step, *args, **kwargs)
                finally:
                    frames[last_step].append((t0, process_time()))
                    speed.checkpoint()

            return finalize_submap

        patches.replace("semslam.pipeline", "Pipeline.process_scene", scene)
        patches.replace("semslam.pipeline", "Pipeline.finalize_submap", submap)


class Bench:
    def __init__(self, cli, workload: Workload, seed: int, work: str, tracer: Optional[Tracer]):
        self.cli = cli
        self.workload = workload
        self.jobs = workload.jobs(seed)
        self.work = work
        self.tracer = tracer
        self.worlds = list(dict.fromkeys(job.world for job in self.jobs))

    def _main(self, name: str, argv: List[str]) -> Tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            if self.tracer is None:
                rc = self.cli.main(argv)
            else:
                rc = self.tracer.call(name, self.cli.main, argv)
        return rc, buf.getvalue()

    def log_dir(self, world: int) -> str:
        return os.path.join(self.work, "logs", f"{self.workload.name}-{world}")

    def config_path(self, job: Job) -> str:
        return os.path.join(self.work, f"{job.log}-{job.mode}.cfg")

    def set_up(self) -> Span:
        """Write every config and simulate every log; returns the CPU interval."""
        shutil.rmtree(os.path.join(self.work, "logs"), ignore_errors=True)
        t0 = process_time()
        for job in self.jobs:
            values = dict(self.workload.world_config(job.world), mode=job.mode, **dict(job.overrides))
            write_config(self.config_path(job), values)
        for world in self.worlds:
            job = next(j for j in self.jobs if j.world == world)
            rc, text = self._main("cli.simulate", ["simulate", "--config", self.config_path(job), "--out", self.log_dir(world)])
            if rc != 0:
                raise SetupError(f"semslam simulate failed for world {world}: {text.strip()}")
        return t0, process_time()

    def run_job(self, job: Job) -> Tuple[Span, Optional[RunOutputs], str]:
        """One `semslam run`, timed as a CPU interval, and its output checks."""
        logs = self.log_dir(job.world)
        out = os.path.join(self.work, "out")
        shutil.rmtree(out, ignore_errors=True)
        argv = ["run", "--config", self.config_path(job), "--logs", logs, "--out", out]
        t0 = process_time()
        try:
            rc, text = self._main("cli.run", argv)
        except Exception:  # a crash is one failed run; the others still count
            return (t0, process_time()), None, traceback.format_exc()
        span = (t0, process_time())
        if rc != 0:
            return span, None, f"semslam run returned {rc}: {text.strip()}"
        try:
            max_hyp = int(read_config_value(os.path.join(logs, "config.txt"), "max_hypotheses"))
            outputs = check_run(logs, out, max_hyp)
        except (OutputError, OSError, ValueError) as exc:
            return span, None, f"output check: {exc}"
        problem = self.workload.run_check(outputs) if self.workload.run_check else None
        if problem:
            return span, None, problem
        return span, outputs, ""


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def measure(args) -> dict:
    workload = WORKLOADS[args.workload]
    cli, import_s = import_semslam()
    # imported only now: the probe loads numpy, and `setup_s` times the
    # first numpy import as part of importing semslam
    from speed import SpeedClock

    speed = SpeedClock()
    import_s *= speed.first_scale
    work = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    tracer = Tracer() if args.trace else None
    patches = Patches()
    clock = FrameClock(speed)
    try:
        os.makedirs(work, exist_ok=True)
        if tracer is not None:
            tracer.install(patches)
        else:
            clock.install(patches)
        bench = Bench(cli, workload, args.seed, work, tracer)
        setups = []
        for _ in range(SETUP_REPEATS):
            span = bench.set_up()
            speed.checkpoint()
            setups.append(speed.reference(*span))
            speed.forget()
        if tracer is not None:
            tracer.phase = "run"

        first: Dict[Job, RunOutputs] = {}
        # reference seconds of each round of each job, and of each frame
        times: Dict[Job, List[float]] = {}
        frame_times: Dict[Tuple[Job, int], List[float]] = {}
        attempted = failed = rounds = 0
        problems: List[str] = []
        nondeterministic = False
        t_start = perf_counter()
        while True:
            r0 = perf_counter()
            for job in bench.jobs:
                clock.frames.clear()
                span, outputs, problem = bench.run_job(job)
                speed.checkpoint()
                attempted += 1
                if outputs is None:
                    failed += 1
                    problems.append(f"{job.log} {job.mode}: {problem}")
                    speed.forget()
                    continue
                times.setdefault(job, []).append(speed.reference(*span))
                for step, spans in clock.frames.items():
                    frame_times.setdefault((job, step), []).append(sum(speed.reference(*sp) for sp in spans))
                speed.forget()
                if job not in first:
                    first[job] = outputs
                elif first[job] != outputs:
                    nondeterministic = True
                    problems.append(f"{job.log} {job.mode}: outputs differ between rounds")
            rounds += 1
            now = perf_counter()
            if rounds >= MIN_ROUNDS and now - t_start + (now - r0) > args.seconds:
                break
        if not first:
            raise SetupError("every run failed: " + "; ".join(problems[:3]))

        results = [(job, first[job]) for job in bench.jobs if job in first]
        problem = workload.workload_check(results) if workload.workload_check else None
        if problem:
            problems.append(problem)
        correct = problem is None and not nondeterministic
        for p in problems[:10]:
            print(f"perfbench: {p}", file=sys.stderr)

        job_s = [statistics.median(v) for v in times.values()]
        if tracer is not None:
            runs = attempted - failed
            metrics = tracer.layer_metrics(runs, len(bench.worlds) * SETUP_REPEATS)
            metrics["trace.run_s"] = (statistics.median(job_s), "s")
            tracer.write(os.path.join(OUT_DIR, f"trace-{workload.name}-seed{args.seed}"), runs)
        else:
            dpmhm = [o for job, o in results if job.mode == "dpmhm"]
            frame_s = [statistics.median(v) for v in frame_times.values()]
            metrics = {
                "setup_s": (import_s + statistics.median(setups), "s"),
                "run_s": (statistics.median(job_s), "s"),
                "frames_per_s": (len(frame_s) / sum(job_s), "frames/s"),
                "frame_ms_p50": (1e3 * percentile(frame_s, 50), "ms"),
                "frame_ms_p95": (1e3 * percentile(frame_s, 95), "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
                "rmse_ratio": (statistics.fmean(o.rmse_ratio for o in dpmhm), "ratio"),
                "mean_hypotheses": (statistics.fmean(o.mean_hypotheses for o in dpmhm), "leaves/frame"),
            }
    finally:
        patches.restore()
        shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result = measure(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
