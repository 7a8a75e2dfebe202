"""The benchmark's workloads: which logs each one simulates, which
`semslam run` jobs it makes from them, and the checks its outputs must pass.

Every world uses the same number as world seed and run seed, as the
acceptance tests do. Each workload runs a fixed panel of worlds and --seed
sets the order of its jobs. The panel is fixed because run time and drift
vary a lot between worlds (mhm_threshold takes 4-23 s, the RMSE ratio of a
loop world lies anywhere in 0.41-1.11), so a panel drawn anew for each seed
would spread the figures of runs by more than their bounds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from outputs import RunOutputs

# the setting of acceptance criterion 10: wide enough that branching occurs
BRANCHING_GAP = 100.0
# acceptance criterion 10: dpmhm keeps at most this share of the baseline's leaves
HYPOTHESIS_SHARE = 0.7


@dataclass(frozen=True)
class Job:
    """One `semslam run`: a log directory and the config overrides it runs with."""

    world: int
    log: str
    mode: str
    overrides: Tuple[Tuple[str, object], ...]


@dataclass(frozen=True)
class Workload:
    name: str
    trajectory: str
    modes: Tuple[str, ...]
    overrides: Tuple[Tuple[str, object], ...]
    worlds: Tuple[int, ...]
    run_check: Optional[Callable[[RunOutputs], Optional[str]]] = None
    workload_check: Optional[Callable[[Sequence[Tuple[Job, RunOutputs]]], Optional[str]]] = None

    def jobs(self, seed: int) -> List[Job]:
        """The panel's jobs, in an order drawn by --seed."""
        worlds = list(self.worlds)
        random.Random(seed).shuffle(worlds)
        out = []
        for w in worlds:
            for mode in self.modes:
                out.append(Job(w, f"{self.name}-{w}", mode, self.overrides))
        return out

    def world_config(self, world: int) -> Dict[str, object]:
        """Config of the log a world's jobs share (what `semslam simulate` reads)."""
        return {"trajectory": self.trajectory, "world_seed": world, "run_seed": world}


def _needs_closure(o: RunOutputs) -> Optional[str]:
    return None if o.closures >= 1 else "loop world accepted no loop closure"


def _no_closure(o: RunOutputs) -> Optional[str]:
    return None if o.closures == 0 else f"line world accepted {o.closures} loop closures"


def _drift_reduced(results) -> Optional[str]:
    ratios = [o.rmse_ratio for job, o in results if job.mode == "dpmhm"]
    mean = sum(ratios) / len(ratios)
    return None if mean < 1.0 else f"mean RMSE ratio {mean:.3f} is not below raw odometry"


def _fewer_hypotheses(results) -> Optional[str]:
    means = {}
    for mode in ("dpmhm", "mhm_threshold"):
        vals = [o.mean_hypotheses for job, o in results if job.mode == mode]
        means[mode] = sum(vals) / len(vals)
    if means["dpmhm"] <= HYPOTHESIS_SHARE * means["mhm_threshold"]:
        return None
    return f"dpmhm keeps {means['dpmhm']:.2f} leaves against {means['mhm_threshold']:.2f} for mhm_threshold"


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "loop",
            "square_loop",
            ("dpmhm",),
            (),
            tuple(range(1, 6)),
            _needs_closure,
            _drift_reduced,
        ),
        Workload(
            "branching",
            "square_loop",
            ("dpmhm", "mhm_threshold"),
            (("plausibility_gap", BRANCHING_GAP),),
            # three of criterion 10's worlds; 0 and 2 are left out only to keep
            # a run's two rounds short (mhm_threshold takes 8 and 16 s on them,
            # 4-6 s on these)
            (1, 3, 4),
            None,
            _fewer_hypotheses,
        ),
        Workload(
            "line",
            "line",
            ("dpmhm",),
            (),
            tuple(range(5)),
            _no_closure,
            None,
        ),
    )
}
