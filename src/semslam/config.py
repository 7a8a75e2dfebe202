"""Flat key = value run configuration.

Every tunable of the pipeline lives here. Unknown keys are hard errors;
parse -> serialize -> parse is a fixed point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Tuple

MODES = ("dpmhm", "mhm_threshold", "single_ukf")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    # estimator selection
    mode: str = "dpmhm"

    # world
    world_seed: int = 0
    run_seed: int = 0
    arena_size: float = 30.0
    n_classes: int = 8
    n_landmarks: int = 60
    trajectory: str = "square_loop"
    steps: int = 48
    step_length: float = 1.0

    # detector
    detection_range: float = 10.0
    fov_deg: float = 360.0
    miss_rate: float = 0.0
    sim_fp_rate: float = 0.0
    confusion_eps: float = 0.0
    meas_noise_std: float = 0.2

    # odometry
    odom_sigma_t: float = 0.02
    odom_sigma_r: float = 0.002
    odom_bias_drift: float = 0.0

    # association model
    meas_cov_scale: float = 0.04
    trans_cov_scale: float = 0.25
    dirichlet_alpha: float = 1.0
    fp_rate: float = 0.01
    map_volume: float = 50.0
    lambda_new: float = 0.5
    lambda_fp: float = 0.2
    prior_volume: float = 1.0
    dirac_class_ids: Tuple[int, ...] = ()
    dp_weight_mode: str = "exp"

    # hypothesis tree
    ess_fraction: float = 0.5
    kld_epsilon: float = 0.05
    kld_delta: float = 0.01
    max_hypotheses: int = 20
    max_branches: int = 5
    plausibility_gap: float = 6.0
    kld_cube_bracket: bool = False

    # UKF
    ukf_alpha: float = 0.1
    ukf_beta: float = 2.0
    ukf_kappa: float = 0.0

    # submaps and gate
    submap_length: int = 12
    tfidf_doc_unit: str = "submap"
    gate_min_landmarks: int = 8
    # idf is 0 for a class seen in every earlier submap, so a positive value can
    # skip all loop search (17 of the 20 square-loop submaps of worlds 1-5 score 0)
    gate_min_tfidf: float = 0.0

    # place recognition
    tau_jsd: float = 0.2
    r_l2: float = 0.6
    exclusion_window: int = 20
    edge_radius: float = 6.0
    penalty_p: float = 0.5
    dist_norm_scale: float = 5.0
    scene_term_mode: str = "as_printed"
    tau_verify: float = 4.0
    ransac_iters: int = 100
    ransac_tol: float = 0.5
    ransac_min_inliers: int = 6

    # factor graph
    cauchy_c: float = 1.0
    lm_max_iters: int = 12
    lm_grad_tol: float = 1e-6
    loop_info_scale: float = 25.0

    # single-UKF baseline
    nn_new_dist: float = 2.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name in (
            "n_classes", "n_landmarks", "steps", "submap_length", "max_hypotheses", "max_branches",
            "ransac_iters", "ransac_min_inliers",
        ):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        # each range test is written so that NaN fails it. RANSAC scans |tol| but its
        # refit keeps residuals <= tol, so a negative ransac_tol would reject every loop;
        # the association model takes logs of its rates and volumes; the UKF divides by ukf_alpha
        for name in ("ransac_tol", "cauchy_c", "loop_info_scale", "meas_cov_scale", "trans_cov_scale",
                     "dirichlet_alpha", "fp_rate", "map_volume", "lambda_new", "lambda_fp", "prior_volume", "ukf_alpha"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and positive, got {getattr(self, name)!r}")
        for name in ("odom_sigma_t", "odom_sigma_r", "lm_grad_tol"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and non-negative, got {getattr(self, name)!r}")
        if not 0.0 < self.ess_fraction <= 1.0:
            raise ConfigError(f"ess_fraction must lie in (0, 1], got {self.ess_fraction!r}")
        if not self.kld_epsilon > 0.0:
            raise ConfigError(f"kld_epsilon must be positive, got {self.kld_epsilon!r}")
        if not 0.0 < self.kld_delta < 1.0:
            raise ConfigError(f"kld_delta must lie in (0, 1), got {self.kld_delta!r}")
        if self.tfidf_doc_unit not in ("submap", "scene"):
            raise ConfigError("tfidf_doc_unit must be 'submap' or 'scene'")
        if self.scene_term_mode not in ("as_printed", "distance_weighted"):
            raise ConfigError("scene_term_mode must be 'as_printed' or 'distance_weighted'")
        if self.dp_weight_mode not in ("exp", "linear"):
            raise ConfigError("dp_weight_mode must be 'exp' or 'linear'")
        if any(not (0 <= c < self.n_classes) for c in self.dirac_class_ids):
            raise ConfigError(f"dirac_class_ids must lie in [0, n_classes = {self.n_classes})")


def _parse_value(name: str, text: str, kind):
    text = text.strip()
    try:
        if kind is bool:
            if text not in ("true", "false"):
                raise ConfigError(f"{name}: booleans must be 'true' or 'false', got {text!r}")
            return text == "true"
        if kind is int:
            return int(text)
        if kind is float:
            return float(text)
        if kind is str:
            return text
        if kind == Tuple[int, ...]:
            if not text:
                return ()
            return tuple(int(x) for x in text.split(","))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {text!r}") from exc
    raise ConfigError(f"unsupported field type for {name}")


def parse_config(text: str) -> RunConfig:
    known = {f.name: f.type for f in fields(RunConfig)}
    # dataclass field types come back as strings under future annotations
    type_map = {
        "int": int,
        "float": float,
        "str": str,
        "bool": bool,
        "Tuple[int, ...]": Tuple[int, ...],
    }
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        kind = known[key]
        if isinstance(kind, str):
            kind = type_map[kind]
        values[key] = _parse_value(key, val, kind)
    return RunConfig(**values)


def serialize_config(cfg: RunConfig) -> str:
    lines = []
    for f in fields(RunConfig):
        v = getattr(cfg, f.name)
        if isinstance(v, bool):
            text = "true" if v else "false"
        elif isinstance(v, tuple):
            text = ",".join(str(x) for x in v)
        elif isinstance(v, float):
            text = repr(v)
        else:
            text = str(v)
        lines.append(f"{f.name} = {text}")
    return "\n".join(lines) + "\n"


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
