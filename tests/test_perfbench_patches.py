"""The benchmark's tracer wraps semslam functions by name (`PATCHES` in
perfbench/tracing.py). A rename in `src/` would break `--trace 1` without
failing anything else, so every name it patches must resolve, and a refactor
that routes around a patched name would leave its span empty, so the main
ones must record calls on a real run."""

import importlib
import importlib.util
import os
import sys

from semslam import cli, sim
from semslam.config import RunConfig, serialize_config

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracing.py")


def load_tracing():
    """Load the tracer module from its file, without installing anything."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_patched_name_resolves():
    patches = load_tracing().PATCHES
    assert patches
    missing = []
    for module, path, span, count in patches:
        obj = importlib.import_module(module)
        for part in path.split("."):
            obj = getattr(obj, part, None)
            if obj is None:
                break
        if not callable(obj):
            missing.append(f"{module}.{path} ({span})")
        assert count is None or callable(count)
    assert missing == []


def test_patched_names_are_called(tmp_path):
    tracing = load_tracing()
    tracer, patches = tracing.Tracer(), tracing.Patches()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(serialize_config(RunConfig()))
    logs, out = str(tmp_path / "logs"), str(tmp_path / "out")
    tracer.install(patches)
    try:
        assert cli.main(["simulate", "--config", str(cfg), "--out", logs]) == 0
        assert cli.main(["run", "--config", str(cfg), "--logs", logs, "--out", out]) == 0
    finally:
        patches.restore()
    assert cli.generate_world is sim.generate_world
    called = {name for (_, name), stat in tracer.stats.items() if stat.calls}
    expected = {
        "sim.generate_world",
        "sim.simulate",
        "logio.write_measurements",
        "logio.read_measurements",
        "logio.write_odometry",
        "logio.read_odometry",
        "logio.write_trajectory",
        "logio.read_trajectory",
        "pipeline.run_pipeline",
        "pipeline.process_scene",
        "assoc.build_cost_matrix",
        "mht.extend",
        "estimation.ukf_update",
        "estimation.fuse",
        "placerec.query_candidates",
        "placerec.detect",
        "kernels.lap_solve",
        "kernels.ransac_best_mask",
    }
    assert expected <= called, expected - called
