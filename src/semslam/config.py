"""Flat key = value run configuration.

Every tunable of the pipeline lives here. Each key declares its domain
next to its default, and RunConfig checks every value against it when it
is built, so a bad value fails at load with an error that names the key.
Unknown keys are hard errors; parse -> serialize -> parse is a fixed point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Tuple, get_type_hints

MODES = ("dpmhm", "mhm_threshold", "single_ukf")
TRAJECTORY_SHAPES = ("square_loop", "figure_eight", "line")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Domain:
    """The values a key accepts: those for which test(value, cfg) holds. A
    value outside it fails with "<key> must <says>", says formatted with cfg.
    Every test is written so that NaN fails it."""

    test: Callable[[Any, Any], bool]
    says: str


POSITIVE = Domain(lambda v, _: 0.0 < v < math.inf, "be finite and positive")
NON_NEGATIVE = Domain(lambda v, _: 0.0 <= v < math.inf, "be finite and non-negative")
FINITE = Domain(lambda v, _: math.isfinite(v), "be finite")
# ORDERED, ABOVE_0 and AT_LEAST_0 take inf, a threshold or limit that inf
# switches off; AT_LEAST_0 and AT_LEAST_1 also bound integers
ORDERED = Domain(lambda v, _: v == v, "not be NaN")
ABOVE_0 = Domain(lambda v, _: v > 0, "be positive")
AT_LEAST_0 = Domain(lambda v, _: v >= 0, "be >= 0")
AT_LEAST_1 = Domain(lambda v, _: v >= 1, "be >= 1")
BOOL = Domain(lambda v, _: isinstance(v, bool), "be true or false")
# confusion_eps spreads its mass over the other classes, which one class lacks
CONFUSION = Domain(
    lambda v, c: 0.0 <= v <= (1.0 if c.n_classes > 1 else 0.0), "lie in [0, 1], and be 0 when n_classes = 1"
)
CLASS_IDS = Domain(lambda v, c: all(0 <= i < c.n_classes for i in v), "lie in [0, n_classes = {cfg.n_classes})")


def interval(lo: float, hi: float, open_lo: bool = False, open_hi: bool = False) -> Domain:
    def test(v, _):
        return (lo < v if open_lo else lo <= v) and (v < hi if open_hi else v <= hi)

    return Domain(test, f"lie in {'(' if open_lo else '['}{lo:g}, {hi:g}{')' if open_hi else ']'}")


def choice(*options) -> Domain:
    text = " or ".join([", ".join(map(repr, options[:-1])), repr(options[-1])])
    return Domain(lambda v, _: v in options, f"be {text}")


def key(default, domain: Domain):
    """A config field: its default and its domain."""
    return field(default=default, metadata={"domain": domain})


@dataclass(frozen=True)
class RunConfig:
    # estimator selection
    mode: str = key("dpmhm", choice(*MODES))

    # world
    world_seed: int = key(0, AT_LEAST_0)
    run_seed: int = key(0, AT_LEAST_0)
    arena_size: float = key(30.0, POSITIVE)
    n_classes: int = key(8, AT_LEAST_1)
    n_landmarks: int = key(60, AT_LEAST_1)
    trajectory: str = key("square_loop", choice(*TRAJECTORY_SHAPES))
    steps: int = key(48, AT_LEAST_1)
    step_length: float = key(1.0, POSITIVE)

    # detector
    detection_range: float = key(10.0, NON_NEGATIVE)
    fov_deg: float = key(360.0, interval(0.0, 360.0))
    miss_rate: float = key(0.0, interval(0.0, 1.0, open_hi=True))
    sim_fp_rate: float = key(0.0, NON_NEGATIVE)  # expected false positives per step
    confusion_eps: float = key(0.0, CONFUSION)
    meas_noise_std: float = key(0.2, NON_NEGATIVE)

    # odometry: per-step noise per axis, and a constant body-x translation bias per step
    odom_sigma_t: float = key(0.02, NON_NEGATIVE)
    odom_sigma_r: float = key(0.002, NON_NEGATIVE)
    odom_bias_drift: float = key(0.0, FINITE)

    # association model: it takes logs of its rates and volumes
    meas_cov_scale: float = key(0.04, POSITIVE)
    trans_cov_scale: float = key(0.25, POSITIVE)
    dirichlet_alpha: float = key(1.0, POSITIVE)
    fp_rate: float = key(0.01, POSITIVE)
    map_volume: float = key(50.0, POSITIVE)
    lambda_new: float = key(0.5, POSITIVE)
    lambda_fp: float = key(0.2, POSITIVE)
    dirac_class_ids: Tuple[int, ...] = key((), CLASS_IDS)
    dp_weight_mode: str = key("exp", choice("exp", "linear"))

    # hypothesis tree
    ess_fraction: float = key(0.5, interval(0.0, 1.0, open_lo=True))
    kld_epsilon: float = key(0.05, ABOVE_0)
    kld_delta: float = key(0.01, interval(0.0, 1.0, open_lo=True, open_hi=True))
    max_hypotheses: int = key(20, AT_LEAST_1)
    max_branches: int = key(5, AT_LEAST_1)
    plausibility_gap: float = key(6.0, AT_LEAST_0)
    kld_cube_bracket: bool = key(False, BOOL)

    # submaps and gate
    submap_length: int = key(12, AT_LEAST_1)
    tfidf_doc_unit: str = key("submap", choice("submap", "scene"))
    gate_min_landmarks: int = key(8, AT_LEAST_0)
    # idf is 0 for a class seen in every earlier submap, so a positive value can
    # skip all loop search (17 of the 20 square-loop submaps of worlds 1-5 score 0)
    gate_min_tfidf: float = key(0.0, AT_LEAST_0)

    # place recognition
    tau_jsd: float = key(0.2, AT_LEAST_0)
    r_l2: float = key(0.6, AT_LEAST_0)
    exclusion_window: int = key(20, AT_LEAST_0)
    edge_radius: float = key(6.0, AT_LEAST_0)
    penalty_p: float = key(0.5, FINITE)
    dist_norm_scale: float = key(5.0, POSITIVE)
    scene_term_mode: str = key("as_printed", choice("as_printed", "distance_weighted"))
    tau_verify: float = key(4.0, ORDERED)
    ransac_iters: int = key(100, AT_LEAST_1)
    # RANSAC scans |tol| but its refit keeps residuals <= tol, so a
    # negative ransac_tol would reject every loop
    ransac_tol: float = key(0.5, POSITIVE)
    ransac_min_inliers: int = key(6, AT_LEAST_1)

    # factor graph
    cauchy_c: float = key(1.0, POSITIVE)
    lm_max_iters: int = key(12, AT_LEAST_0)
    lm_grad_tol: float = key(1e-6, NON_NEGATIVE)
    loop_info_scale: float = key(25.0, POSITIVE)

    # single-UKF baseline
    nn_new_dist: float = key(2.0, NON_NEGATIVE)

    def __post_init__(self):
        for f in fields(self):
            value, domain = getattr(self, f.name), f.metadata["domain"]
            if not domain.test(value, self):
                raise ConfigError(f"{f.name} must {domain.says.format(cfg=self)}, got {value!r}")


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
    known = get_type_hints(RunConfig)  # the field types, resolved from their annotation strings
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
        values[key] = _parse_value(key, val, known[key])
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
