"""Flat key = value configuration: fixed-point round trip, strictness, a
domain for every key, and no key that the pipeline never reads."""

import ast
import math
import os
import re
from dataclasses import fields

import pytest

import semslam
from semslam.cli import main
from semslam.config import ConfigError, Domain, RunConfig, load_config, parse_config, serialize_config
from semslam.placerec import score_bound

SRC = os.path.dirname(os.path.abspath(semslam.__file__))


class TestRoundTrip:
    def test_defaults_fixed_point(self):
        cfg = RunConfig()
        text = serialize_config(cfg)
        assert parse_config(text) == cfg
        assert serialize_config(parse_config(text)) == text

    def test_non_default_values_survive(self):
        cfg = RunConfig(
            mode="mhm_threshold",
            steps=12,
            meas_noise_std=0.125,
            plausibility_gap=100.0,
            dirac_class_ids=(1, 3),
            kld_cube_bracket=True,
            tfidf_doc_unit="scene",
        )
        assert parse_config(serialize_config(cfg)) == cfg

    def test_empty_text_gives_defaults(self):
        assert parse_config("") == RunConfig()

    def test_comments_and_blank_lines_ignored(self):
        text = "# a comment\n\nsteps = 9  # trailing comment\n"
        assert parse_config(text) == RunConfig(steps=9)

    def test_load_config(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(serialize_config(RunConfig(steps=7)))
        assert load_config(str(path)) == RunConfig(steps=7)


class TestErrors:
    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2.*unknown key"):
            parse_config("steps = 5\nnot_a_key = 1\n")

    @pytest.mark.parametrize("name", ["ukf_alpha", "ukf_beta", "ukf_kappa"])
    def test_sigma_point_keys_are_unknown(self, name):
        """The landmark update is the closed-form Kalman update, which has no
        sigma points: a file that still sets their keys fails to load."""
        with pytest.raises(ConfigError, match=f"line 3: unknown key '{name}'"):
            parse_config(f"steps = 5\n\n{name} = 0.5\n")

    def test_prior_volume_is_unknown(self):
        """lambda_new and lambda_fp are the per-scene Poisson means; the key
        that only scaled both is gone, and a file that sets it fails to load."""
        with pytest.raises(ConfigError, match="line 2: unknown key 'prior_volume'"):
            parse_config("steps = 5\nprior_volume = 1.0\n")

    def test_duplicate_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 3.*duplicate"):
            parse_config("steps = 5\n\nsteps = 6\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="bad value for steps"):
            parse_config("steps = many")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("steps 5")

    def test_bad_bool(self):
        with pytest.raises(ConfigError, match="true.*false"):
            parse_config("kld_cube_bracket = yes")

    def test_bad_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            parse_config("mode = kalman_only")

    def test_non_positive_steps(self):
        with pytest.raises(ConfigError):
            parse_config("steps = 0")

    @pytest.mark.parametrize("text", ["ransac_tol = -0.5", "ransac_tol = 0", "ransac_tol = nan", "ransac_tol = inf"])
    def test_ransac_tol_must_be_finite_and_positive(self, text):
        with pytest.raises(ConfigError, match="ransac_tol must be finite and positive"):
            parse_config(text)

    @pytest.mark.parametrize("name", ["ransac_iters", "ransac_min_inliers"])
    def test_ransac_counts_must_be_positive(self, name):
        with pytest.raises(ConfigError, match=f"{name} must be >= 1"):
            parse_config(f"{name} = 0")
        assert getattr(parse_config(f"{name} = 1"), name) == 1

    @pytest.mark.parametrize("name", ["cauchy_c", "loop_info_scale", "meas_cov_scale", "trans_cov_scale"])
    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_graph_and_covariance_scales_must_be_finite_and_positive(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite and positive"):
            parse_config(f"{name} = {value}")
        assert getattr(parse_config(f"{name} = 1e-9"), name) == 1e-9

    @pytest.mark.parametrize("name", ["dirichlet_alpha", "fp_rate", "map_volume", "lambda_new", "lambda_fp"])
    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_association_and_ukf_keys_must_be_finite_and_positive(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite and positive"):
            parse_config(f"{name} = {value}")
        assert getattr(parse_config(f"{name} = 1e-09"), name) == 1e-9

    @pytest.mark.parametrize("name", ["odom_sigma_t", "odom_sigma_r", "lm_grad_tol"])
    @pytest.mark.parametrize("value", ["-1e-9", "nan", "inf"])
    def test_noise_and_tolerance_must_be_finite_and_non_negative(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite and non-negative"):
            parse_config(f"{name} = {value}")
        assert getattr(parse_config(f"{name} = 0"), name) == 0.0

    @pytest.mark.parametrize(
        "text, message",
        [
            ("ess_fraction = 0", r"ess_fraction must lie in \(0, 1\]"),
            ("ess_fraction = nan", r"ess_fraction must lie in \(0, 1\]"),
            ("kld_delta = 1", r"kld_delta must lie in \(0, 1\)"),
            ("kld_delta = nan", r"kld_delta must lie in \(0, 1\)"),
            ("kld_epsilon = 0", "kld_epsilon must be positive"),
            ("kld_epsilon = nan", "kld_epsilon must be positive"),
        ],
    )
    def test_resampling_ranges(self, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(text)

    def test_score_bound_premises_fail_at_load(self):
        """placerec.score_bound holds for a finite penalty_p and a finite,
        positive dist_norm_scale; their domains reject every other value."""
        base = RunConfig(edge_radius=5.0, tau_verify=-10.0)
        assert score_bound(5, base) > base.tau_verify
        for name, value in (
            ("penalty_p", math.inf),
            ("penalty_p", -math.inf),
            ("penalty_p", math.nan),
            ("dist_norm_scale", 0.0),
            ("dist_norm_scale", -5.0),
            ("dist_norm_scale", math.inf),
        ):
            with pytest.raises(ConfigError, match=f"{name} must be finite"):
                RunConfig(edge_radius=5.0, tau_verify=-10.0, **{name: value})

    def test_bad_dp_weight_mode(self):
        with pytest.raises(ConfigError, match="dp_weight_mode must be 'exp' or 'linear'"):
            parse_config("dp_weight_mode = log")

    def test_bad_doc_unit(self):
        with pytest.raises(ConfigError):
            parse_config("tfidf_doc_unit = corpus")


class TestTupleField:
    def test_empty_tuple(self):
        assert parse_config("dirac_class_ids = ").dirac_class_ids == ()

    def test_values(self):
        assert parse_config("dirac_class_ids = 0,2,5").dirac_class_ids == (0, 2, 5)

    def test_bad_entry(self):
        with pytest.raises(ConfigError):
            parse_config("dirac_class_ids = 1,x")

    @pytest.mark.parametrize("text", ["dirac_class_ids = 9", "dirac_class_ids = 0,8", "dirac_class_ids = -1"])
    def test_class_id_outside_n_classes_rejected(self, text):
        with pytest.raises(ConfigError, match=r"dirac_class_ids must lie in \[0, n_classes = 8\)"):
            parse_config(text)

    def test_range_follows_n_classes(self):
        assert parse_config("n_classes = 10\ndirac_class_ids = 9").dirac_class_ids == (9,)
        with pytest.raises(ConfigError):
            RunConfig(n_classes=3, dirac_class_ids=(3,))


def attribute_reads(source: str):
    """Every attribute name that `source` reads (`x.name` in load context)."""
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_attribute_reads_are_found():
    source = "cfg.a + f(x.b)\ncfg.c = 1\ndel cfg.d\n"
    assert attribute_reads(source) == {"a", "b"}


def test_every_config_key_is_read_outside_config():
    """A key that no stage reads is inert: setting it changes nothing."""
    read = set()
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py") and name != "config.py":
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                read |= attribute_reads(fh.read())
    assert [f.name for f in fields(RunConfig) if f.name not in read] == []


NUMERIC_KEYS = [f.name for f in fields(RunConfig) if f.type in ("int", "float")]
SWEEP_BASE = {"steps": "12", "submap_length": "4"}


def test_every_config_key_declares_a_domain():
    """A key without a domain would take any value: RunConfig checks each
    key's value against the domain declared next to its default."""
    assert [f.name for f in fields(RunConfig) if not isinstance(f.metadata.get("domain"), Domain)] == []
    assert len(NUMERIC_KEYS) == 47  # the keys the sweep covers: all but 5 choices, 1 flag and 1 tuple


def sweep_values(name):
    """NaN, +-inf, -1, 0 and the numbers that bound the key's domain."""
    says = {f.name: f.metadata["domain"].says for f in fields(RunConfig)}[name]
    return list(dict.fromkeys(["nan", "inf", "-inf", "-1", "0", *re.findall(r"\d+(?:\.\d+)?", says)]))


def finite_csv(path):
    with open(path, encoding="utf-8") as fh:
        return all(math.isfinite(float(x)) for line in fh.read().splitlines()[1:] for x in line.split(","))


@pytest.mark.parametrize("name", NUMERIC_KEYS)
def test_domain_sweep(tmp_path, capsys, name):
    """Every value of the sweep either fails at load, naming the key, or
    loads, round-trips, and simulates and runs a 12-step world to exit 0
    with finite outputs."""
    for value in sweep_values(name):
        text = "".join(f"{k} = {v}\n" for k, v in {**SWEEP_BASE, name: value}.items())
        try:
            cfg = parse_config(text)
        except ConfigError as exc:
            assert name in str(exc), (value, str(exc))
            continue
        assert parse_config(serialize_config(cfg)) == cfg
        work = tmp_path / value
        work.mkdir()
        (work / "run.cfg").write_text(text)
        cfg_path, logs, out = str(work / "run.cfg"), str(work / "logs"), str(work / "out")
        assert main(["simulate", "--config", cfg_path, "--out", logs]) == 0, (value, capsys.readouterr().err)
        assert main(["run", "--config", cfg_path, "--logs", logs, "--out", out]) == 0, (value, capsys.readouterr().err)
        for f in ("trajectory.csv", "map.csv", "metrics.csv"):
            assert finite_csv(os.path.join(out, f)), (value, f)
