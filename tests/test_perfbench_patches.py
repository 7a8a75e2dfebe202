"""The benchmark's tracer wraps semslam functions by name (`PATCHES` in
perfbench/tracing.py). A rename in `src/` would break `--trace 1` without
failing anything else, so every name it patches must resolve."""

import importlib
import importlib.util
import os
import sys

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
