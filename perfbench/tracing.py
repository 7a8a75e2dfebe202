"""Spans and counts around semslam's layers, recorded from outside the package.

Each public function of a layer is wrapped where its caller looks it up
(`semslam.pipeline.optimize`, `semslam.kernels.lap_solve`, a method on
its class, ...), so nothing in `src/` changes. A span records its name,
its parent span, its start and its end; a layer's self time is its spans'
time minus the time of their child spans. Counts are taken from the
arguments and results at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("sim", "logio", "pipeline", "assoc", "mht", "estimation", "kernels", "placerec", "graph")

Counter = Callable[[Dict[str, float], tuple, object], None]


def _count(key: str) -> Counter:
    def add(c, args, result):
        c[key] = c.get(key, 0.0) + 1.0

    return add


def _count_len(key: str) -> Counter:
    def add(c, args, result):
        c[key] = c.get(key, 0.0) + len(result)

    return add


def _lap(c, args, result):
    c["kernels.lap_solve_calls"] = c.get("kernels.lap_solve_calls", 0.0) + 1.0
    c["kernels.lap_solve_cells"] = c.get("kernels.lap_solve_cells", 0.0) + float(args[0].size)


def _ransac(c, args, result):
    c["kernels.ransac_samples"] = c.get("kernels.ransac_samples", 0.0) + float(args[2].shape[0])


def _resample(c, args, result):
    c["mht.resamples"] = c.get("mht.resamples", 0.0) + float(bool(result))


def _detect(c, args, result):
    c["placerec.queries"] = c.get("placerec.queries", 0.0) + 1.0
    c["placerec.closures"] = c.get("placerec.closures", 0.0) + len(result)


def _optimize(c, args, result):
    state = result.state
    c["graph.optimize_calls"] = c.get("graph.optimize_calls", 0.0) + 1.0
    c["graph.lm_iterations"] = c.get("graph.lm_iterations", 0.0) + result.iterations
    c["graph.variables"] = c.get("graph.variables", 0.0) + len(state.poses) + len(state.landmarks)
    c["graph.factors"] = c.get("graph.factors", 0.0) + len(state.factors)


# (module the caller looks the name up in, attribute path, span name, counter)
PATCHES: Tuple[Tuple[str, str, str, Optional[Counter]], ...] = (
    ("semslam.cli", "generate_world", "sim.generate_world", None),
    ("semslam.cli", "simulate", "sim.simulate", None),
    ("semslam.cli", "write_measurements", "logio.write_measurements", None),
    ("semslam.cli", "write_odometry", "logio.write_odometry", None),
    ("semslam.cli", "read_odometry", "logio.read_odometry", None),
    ("semslam.cli", "read_measurements", "logio.read_measurements", None),
    ("semslam.cli", "read_trajectory", "logio.read_trajectory", None),
    ("semslam.cli", "write_trajectory", "logio.write_trajectory", None),
    ("semslam.cli", "write_map", "logio.write_map", None),
    ("semslam.cli", "write_metrics", "logio.write_metrics", None),
    ("semslam.cli", "run_pipeline", "pipeline.run_pipeline", None),
    ("semslam.cli", "evaluate", "pipeline.evaluate", None),
    ("semslam.pipeline", "Pipeline.process_scene", "pipeline.process_scene", None),
    ("semslam.pipeline", "Pipeline.finalize_submap", "pipeline.finalize_submap", None),
    ("semslam.pipeline", "build_cost_matrix", "assoc.build_cost_matrix", None),
    ("semslam.pipeline", "solve_assignment", "assoc.solve_assignment", _count("assoc.leaves_solved")),
    ("semslam.pipeline", "generate_branches", "assoc.generate_branches", _count_len("assoc.branches")),
    ("semslam.mht", "measurement_set_log_likelihood", "assoc.measurement_set_log_likelihood", None),
    ("semslam.mht", "assignment_prior_log", "assoc.assignment_prior_log", None),
    ("semslam.mht", "HypothesisTree.extend", "mht.extend", _count_len("mht.children")),
    ("semslam.mht", "HypothesisTree.resample", "mht.resample", _resample),
    ("semslam.mht", "HypothesisTree.prune_to_best", "mht.prune_to_best", None),
    ("semslam.mht", "ukf_update_safe", "estimation.ukf_update", _count("estimation.ukf_updates")),
    ("semslam.pipeline", "fuse_hypotheses", "estimation.fuse", None),
    ("semslam.kernels", "lap_solve", "kernels.lap_solve", _lap),
    ("semslam.kernels", "ransac_best_mask", "kernels.ransac_best_mask", _ransac),
    ("semslam.kernels", "systematic_resample", "kernels.systematic_resample", None),
    ("semslam.placerec", "LoopClosureDetector.detect", "placerec.detect", _detect),
    ("semslam.placerec", "LoopClosureDetector.add_submap", "placerec.add_submap", None),
    ("semslam.placerec", "query_candidates", "placerec.query_candidates", _count_len("placerec.retrieved")),
    ("semslam.placerec", "scene_match", "placerec.scene_match", _count("placerec.matched")),
    ("semslam.placerec", "ransac_verify", "placerec.ransac_verify", _count("placerec.ransac_runs")),
    ("semslam.pipeline", "optimize", "graph.optimize", _optimize),
    ("semslam.pipeline", "rmse", "graph.rmse", None),
)


# self times reported per run, by span-name prefix
SELF_TIMES = (
    "pipeline.process_scene",
    "pipeline.finalize_submap",
    "assoc.build_cost_matrix",
    "assoc.solve_assignment",
    "assoc.generate_branches",
    "mht.extend",
    "mht.resample",
    "mht.prune_to_best",
    "estimation.ukf_update",
    "estimation.fuse",
    "kernels.lap_solve",
    "kernels.ransac_best_mask",
    "kernels.systematic_resample",
    "placerec.detect",
    "placerec.query_candidates",
    "placerec.scene_match",
    "placerec.ransac_verify",
    "graph.optimize",
    "logio.read",
    "logio.write",
)

COUNTS = (
    "assoc.leaves_solved",
    "assoc.branches",
    "mht.children",
    "mht.resamples",
    "estimation.ukf_updates",
    "kernels.lap_solve_calls",
    "kernels.lap_solve_cells",
    "kernels.ransac_samples",
    "placerec.queries",
    "placerec.retrieved",
    "placerec.matched",
    "placerec.ransac_runs",
    "placerec.closures",
    "graph.optimize_calls",
    "graph.lm_iterations",
)


def _owner(module: str, path: str):
    obj = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        obj = getattr(obj, name)
    return obj, attr


class Patches:
    """Replaces attributes and puts the originals back on `restore`."""

    def __init__(self):
        self._saved: List[Tuple[object, str, object]] = []

    def replace(self, module: str, path: str, make: Callable[[Callable], Callable]) -> None:
        owner, attr = _owner(module, path)
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


class Tracer:
    """In-memory span recorder. `phase` ("setup" or "run") tags the
    aggregates, so set-up work is kept apart from the timed runs."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: List[List] = []  # [span index, time covered by children, name]
        self.phase = "setup"
        self.stats: Dict[Tuple[str, str], Stat] = {}
        self.counts: Dict[str, Dict[str, float]] = {"setup": {}, "run": {}}

    def _enter(self, name: str) -> List:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        frame = [len(self.span_start), 0.0, name]
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(frame)
        self.span_start.append(perf_counter())
        return frame

    def _exit(self, frame: List) -> None:
        end = perf_counter()
        self._stack.pop()
        idx, children, name = frame
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        if self._stack:
            self._stack[-1][1] += dur
        key = (self.phase, name)
        s = self.stats.get(key)
        if s is None:
            s = self.stats[key] = Stat()
        s.calls += 1
        s.total += dur
        s.self_time += dur - children

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn as a root span (the benchmark's own call into the CLI)."""
        frame = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(frame)

    def wrap(self, name: str, count: Optional[Counter]) -> Callable[[Callable], Callable]:
        def make(fn):
            def traced(*args, **kwargs):
                frame = self._enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._exit(frame)
                if count is not None:
                    count(self.counts[self.phase], args, result)
                return result

            return traced

        return make

    def install(self, patches: Patches) -> None:
        for module, path, name, count in PATCHES:
            patches.replace(module, path, self.wrap(name, count))

    # -- reduction ---------------------------------------------------------

    def self_time(self, phase: str, prefix: str) -> float:
        """Self seconds of every span whose name starts with `prefix`."""
        return sum(s.self_time for (p, name), s in self.stats.items() if p == phase and name.startswith(prefix))

    def layer_metrics(self, runs: int, logs_simulated: int) -> Dict[str, Tuple[float, str]]:
        """Per-layer metrics: self seconds and counts per `semslam run`; set-up
        work per log simulated; graph sizes per optimize call."""
        c = self.counts["run"]

        def ratio(num: str, den: str) -> float:
            return c.get(num, 0.0) / c[den] if c.get(den) else 0.0

        m: Dict[str, Tuple[float, str]] = {}
        for layer in LAYERS[1:]:
            m[f"{layer}.self_s"] = (self.self_time("run", layer + ".") / runs, "s")
        m["sim.self_s"] = (self.self_time("setup", "sim.") / logs_simulated, "s")
        m["sim.simulate_s"] = (self.self_time("setup", "sim.simulate") / logs_simulated, "s")
        # the root span's self time: argument parsing, config loading and
        # everything else in `semslam run` that no layer accounts for
        m["unattributed_s"] = (self.self_time("run", "cli.run") / runs, "s")
        for prefix in SELF_TIMES:
            m[prefix + "_s"] = (self.self_time("run", prefix) / runs, "s")
        for key in COUNTS:
            m[key] = (c.get(key, 0.0) / runs, "count")
        m["assoc.branches_per_leaf"] = (ratio("assoc.branches", "assoc.leaves_solved"), "ratio")
        m["placerec.closure_yield"] = (ratio("placerec.closures", "placerec.ransac_runs"), "ratio")
        m["graph.variables"] = (ratio("graph.variables", "graph.optimize_calls"), "count")
        m["graph.factors"] = (ratio("graph.factors", "graph.optimize_calls"), "count")
        return m

    def write(self, path: str, runs: int) -> None:
        """Spans to `<path>.npz`, per-name aggregates to `<path>.json`."""
        # imported here, not at the top: `setup_s` times the first numpy
        # import as part of importing semslam
        import numpy as np

        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path + ".npz",
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
        summary = {
            "runs": runs,
            "spans": len(self.span_start),
            "stats": [
                {"phase": p, "name": n, "calls": s.calls, "total_s": s.total, "self_s": s.self_time}
                for (p, n), s in sorted(self.stats.items())
            ],
            "counts": self.counts,
        }
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
