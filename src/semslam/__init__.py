"""Multiple-hypothesis semantic SLAM toolkit.

Dirichlet-process data association over a hypothesis tree, per-landmark UKF
estimation, semantic loop-closure detection, and robust SE(3) pose-graph
optimization, plus a deterministic synthetic-world simulator and CLI.
"""

from .core import ContractViolation, Landmark, SemanticMeasurement
from .geometry import Pose

__version__ = "0.1.0"

__all__ = [
    "ContractViolation",
    "Landmark",
    "Pose",
    "SemanticMeasurement",
    "__version__",
]
