"""Multiple-hypothesis semantic SLAM toolkit.

Dirichlet-process data association over a hypothesis tree, per-landmark Kalman
estimation, semantic loop-closure detection, and robust SE(3) pose-graph
optimization, plus a deterministic synthetic-world simulator and CLI.
The exports load on first use: `python -m semslam` sets BLAS threads first.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {"ContractViolation": "core", "LandmarkTable": "core", "MeasurementTable": "core", "Pose": "geometry", "PoseTable": "core"}

__all__ = [*sorted(_EXPORTS), "__version__"]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
