"""CLI: simulate -> run -> eval -> export-plot round trip and error paths."""

import os
import subprocess
import sys

import pytest

import semslam
from semslam.cli import main
from semslam.config import RunConfig, serialize_config


SMALL = RunConfig(
    steps=16,
    n_landmarks=16,
    n_classes=4,
    meas_noise_std=0.1,
    odom_sigma_t=0.01,
    odom_sigma_r=0.001,
    submap_length=8,
)


@pytest.fixture
def cfg_path(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(serialize_config(SMALL))
    return str(p)


def test_full_round_trip(tmp_path, cfg_path, capsys):
    logs = str(tmp_path / "logs")
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfg_path, "--out", logs]) == 0
    for name in ("measurements.csv", "odometry.csv", "ground_truth.csv", "config.txt"):
        assert os.path.exists(os.path.join(logs, name))
    assert main(["run", "--config", cfg_path, "--logs", logs, "--out", out]) == 0
    for name in ("trajectory.csv", "map.csv", "metrics.csv"):
        assert os.path.exists(os.path.join(out, name))
    merged = str(tmp_path / "merged.csv")
    assert (
        main(
            [
                "eval",
                "--trajectory",
                os.path.join(out, "trajectory.csv"),
                "--ground-truth",
                os.path.join(logs, "ground_truth.csv"),
                "--run-metrics",
                os.path.join(out, "metrics.csv"),
                "--out",
                merged,
            ]
        )
        == 0
    )
    assert os.path.exists(merged)
    plot = str(tmp_path / "plot.csv")
    assert main(["export-plot", "--metrics", merged, "--out", plot]) == 0
    lines = open(plot).read().splitlines()
    assert lines[0] == "frame,rmse"
    assert len(lines) == 1 + SMALL.steps
    captured = capsys.readouterr()
    assert "rmse" in captured.out


def test_run_with_a_submap_that_fuses_no_landmark(tmp_path, capsys):
    # two landmarks, short range and heavy clutter: submap 1 fuses no
    # landmark, and gate_min_landmarks = 0 lets it through the gate
    cfg = RunConfig(world_seed=0, run_seed=0, gate_min_landmarks=0, n_landmarks=2, detection_range=3.0, lambda_fp=5.0)
    path = tmp_path / "run.cfg"
    path.write_text(serialize_config(cfg))
    logs, out = str(tmp_path / "logs"), str(tmp_path / "out")
    assert main(["simulate", "--config", str(path), "--out", logs]) == 0
    assert main(["run", "--config", str(path), "--logs", logs, "--out", out]) == 0
    assert "error" not in capsys.readouterr().err


def test_run_outputs_deterministic(tmp_path, cfg_path):
    logs = str(tmp_path / "logs")
    main(["simulate", "--config", cfg_path, "--out", logs])
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    main(["run", "--config", cfg_path, "--logs", logs, "--out", out1])
    main(["run", "--config", cfg_path, "--logs", logs, "--out", out2])
    for name in ("trajectory.csv", "map.csv", "metrics.csv"):
        a = open(os.path.join(out1, name), "rb").read()
        b = open(os.path.join(out2, name), "rb").read()
        assert a == b, name


def test_run_outputs_do_not_depend_on_timestamps(tmp_path, cfg_path):
    """Landmarks are keyed to scenes by scene id: shifting and scaling the
    measurement timestamps leaves every output byte-identical."""
    logs = str(tmp_path / "logs")
    assert main(["simulate", "--config", cfg_path, "--out", logs]) == 0
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert main(["run", "--config", cfg_path, "--logs", logs, "--out", out1]) == 0
    path = os.path.join(logs, "measurements.csv")
    header, *rows = open(path).read().splitlines()
    shifted = [format(1000.0 + 0.1 * float(t), ".9g") + "," + rest for t, rest in (r.split(",", 1) for r in rows)]
    assert shifted != rows
    with open(path, "w") as fh:
        fh.write("\n".join([header] + shifted) + "\n")
    assert main(["run", "--config", cfg_path, "--logs", logs, "--out", out2]) == 0
    for name in ("trajectory.csv", "map.csv", "metrics.csv"):
        a = open(os.path.join(out1, name), "rb").read()
        b = open(os.path.join(out2, name), "rb").read()
        assert a == b, name


def test_missing_config_exit_code(tmp_path, capsys):
    rc = main(["simulate", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_bad_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("definitely_not_a_key = 1\n")
    rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "unknown key" in capsys.readouterr().err


def test_simulate_with_out_of_range_value_exit_code(tmp_path, capsys):
    """A config value outside its range fails when the config is loaded,
    before any simulation, and the error names the key."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("cauchy_c = nan\n")
    out = tmp_path / "logs"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "cauchy_c must be finite and positive" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [("dirichlet_alpha", "nan"), ("fp_rate", "nan"), ("lambda_new", "nan")],
)
def test_run_with_bad_model_value_exit_code(tmp_path, cfg_path, capsys, key, value):
    """A model key outside its domain stops `run` at config load, with an
    error line that names the key, instead of a traceback or a silent run."""
    logs, out = str(tmp_path / "logs"), tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", logs]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.cfg"
    lines = serialize_config(SMALL).splitlines(keepends=True)
    bad.write_text("".join(f"{key} = {value}\n" if line.startswith(f"{key} = ") else line for line in lines))
    rc = main(["run", "--config", str(bad), "--logs", logs, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{key} must be finite and positive" in err
    assert not out.exists()


def test_simulate_with_bad_confusion_exit_code(tmp_path, capsys):
    """confusion_eps > 1 would put a negative entry on the diagonal; the
    config rejects it at load, before any draw."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(serialize_config(SMALL).replace("confusion_eps = 0.0", "confusion_eps = 1.5"))
    out = tmp_path / "logs"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "confusion_eps must lie in [0, 1]" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, key, text",
    [
        ("simulate", "arena_size", "arena_size = nan"),
        ("simulate", "meas_noise_std", "meas_noise_std = nan"),
        ("simulate", "step_length", "step_length = nan"),
        ("simulate", "confusion_eps", "n_classes = 1\nconfusion_eps = 0.1"),
        ("run", "tau_verify", "tau_verify = nan"),
        ("run", "r_l2", "r_l2 = nan"),
        ("run", "tau_jsd", "tau_jsd = nan"),
        ("run", "penalty_p", "penalty_p = nan"),
        ("run", "plausibility_gap", "plausibility_gap = nan"),
    ],
)
def test_value_outside_its_domain_exit_code(tmp_path, cfg_path, capsys, command, key, text):
    """A simulator or estimator key outside its domain stops the command at
    config load, with an error line that names the key, instead of a
    traceback, a late failure or a silent run."""
    logs, out = tmp_path / "logs", tmp_path / "out"
    bad = tmp_path / "bad.cfg"
    bad.write_text(text + "\n")
    if command == "simulate":
        argv = ["simulate", "--config", str(bad), "--out", str(logs)]
    else:
        assert main(["simulate", "--config", cfg_path, "--out", str(logs)]) == 0
        capsys.readouterr()
        argv = ["run", "--config", str(bad), "--logs", str(logs), "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{key} must" in err
    assert not out.exists() and (command == "run" or not logs.exists())


def test_eval_length_mismatch_exit_code(tmp_path, cfg_path, capsys):
    logs = str(tmp_path / "logs")
    main(["simulate", "--config", cfg_path, "--out", logs])
    short = tmp_path / "short.csv"
    gt_lines = open(os.path.join(logs, "ground_truth.csv")).read().splitlines()
    short.write_text("\n".join(gt_lines[:-2]) + "\n")
    rc = main(
        [
            "eval",
            "--trajectory",
            str(short),
            "--ground-truth",
            os.path.join(logs, "ground_truth.csv"),
        ]
    )
    assert rc == 1
    assert "differ" in capsys.readouterr().err


def eval_with_run_metrics(tmp_path, cfg_path, rows):
    """The exit code of `semslam eval` of the ground truth against itself,
    merging a metrics file of these data rows."""
    logs = str(tmp_path / "logs")
    assert main(["simulate", "--config", cfg_path, "--out", logs]) == 0
    gt = os.path.join(logs, "ground_truth.csv")
    metrics = tmp_path / "metrics.csv"
    metrics.write_text("\n".join(["frame,rmse,n_hypotheses,n_landmarks,n_loop_closures", *rows]) + "\n")
    return main(["eval", "--trajectory", gt, "--ground-truth", gt, "--run-metrics", str(metrics)])


def run_rows(n):
    """Metrics rows as `semslam run` writes them, for n frames."""
    return [f"{t},0,1,{t},0" for t in range(n)]


def test_eval_run_metrics_length_mismatch_exit_code(tmp_path, cfg_path, capsys):
    assert eval_with_run_metrics(tmp_path, cfg_path, run_rows(SMALL.steps - 1)) == 1
    assert "error: run metrics length does not match trajectory" in capsys.readouterr().err


def test_eval_shuffled_run_metrics_exit_code(tmp_path, cfg_path, capsys):
    rows = run_rows(SMALL.steps)
    rows[0], rows[1] = rows[1], rows[0]
    assert eval_with_run_metrics(tmp_path, cfg_path, rows) == 1
    assert "metrics.csv: line 2: frame 1 is not row 0" in capsys.readouterr().err


def test_eval_negative_run_metrics_count_exit_code(tmp_path, cfg_path, capsys):
    rows = run_rows(SMALL.steps)
    rows[4] = "4,0,1,-2,0"
    assert eval_with_run_metrics(tmp_path, cfg_path, rows) == 1
    assert "metrics.csv: line 6: counts must be non-negative" in capsys.readouterr().err


def test_run_on_corrupt_logs_exit_code(tmp_path, cfg_path, capsys):
    logs = str(tmp_path / "logs")
    main(["simulate", "--config", cfg_path, "--out", logs])
    with open(os.path.join(logs, "odometry.csv"), "a") as fh:
        fh.write("1,2,3\n")
    rc = main(["run", "--config", cfg_path, "--logs", logs, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_run_on_out_of_range_class_exit_code(tmp_path, cfg_path, capsys):
    logs = str(tmp_path / "logs")
    assert main(["simulate", "--config", cfg_path, "--out", logs]) == 0
    path = os.path.join(logs, "measurements.csv")
    header, first, *rest = open(path).read().splitlines()
    t, scene, _, *xyz = first.split(",")
    with open(path, "w") as fh:
        fh.write("\n".join([header, ",".join([t, scene, "9", *xyz]), *rest]) + "\n")
    rc = main(["run", "--config", cfg_path, "--logs", logs, "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "measurements.csv: line 2: class id 9 out of range [0, 4)" in err


@pytest.mark.parametrize("log, column", [("measurements.csv", 3), ("odometry.csv", 1)])
def test_run_on_non_finite_log_value_exit_code(tmp_path, cfg_path, capsys, log, column):
    logs = str(tmp_path / "logs")
    assert main(["simulate", "--config", cfg_path, "--out", logs]) == 0
    path = os.path.join(logs, log)
    lines = open(path).read().splitlines()
    fields = lines[1].split(",")
    fields[column] = "nan"
    lines[1] = ",".join(fields)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    rc = main(["run", "--config", cfg_path, "--logs", logs, "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{log}: line 2: " in err and "must be finite" in err


def test_eval_on_non_finite_trajectory_exit_code(tmp_path, cfg_path, capsys):
    logs = str(tmp_path / "logs")
    assert main(["simulate", "--config", cfg_path, "--out", logs]) == 0
    gt = os.path.join(logs, "ground_truth.csv")
    traj = str(tmp_path / "trajectory.csv")
    lines = open(gt).read().splitlines()
    fields = lines[3].split(",")
    fields[1] = "nan"  # x
    lines[3] = ",".join(fields)
    with open(traj, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["eval", "--trajectory", traj, "--ground-truth", gt]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "trajectory.csv: line 4: trajectory pose must be finite" in captured.err


def test_run_on_non_finite_times_exit_code(tmp_path, cfg_path, capsys):
    """nan and -inf times in two rows of the measurement log: the run stops
    at the first of them, naming its file and line."""
    logs = str(tmp_path / "logs")
    assert main(["simulate", "--config", cfg_path, "--out", logs]) == 0
    path = os.path.join(logs, "measurements.csv")
    lines = open(path).read().splitlines()
    for row, value in ((3, "nan"), (5, "-inf")):
        lines[row] = value + "," + lines[row].split(",", 1)[1]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    capsys.readouterr()
    out = tmp_path / "o"
    assert main(["run", "--config", cfg_path, "--logs", logs, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "measurements.csv: line 4: measurement time must be finite" in err
    assert not out.exists()


def test_zero_rotation_exit_code(tmp_path, cfg_path, capsys):
    """A zero quaternion in the odometry log, after a blank line, stops
    `run`, and one in a trajectory stops `eval`, each naming its file and
    line."""
    logs = str(tmp_path / "logs")
    assert main(["simulate", "--config", cfg_path, "--out", logs]) == 0
    for name, command in (("odometry.csv", "run"), ("ground_truth.csv", "eval")):
        path = os.path.join(logs, name)
        lines = open(path).read().splitlines()
        lines[4] = ",".join(lines[4].split(",")[:4] + ["0"] * 4)
        with open(path, "w") as fh:
            fh.write("\n".join(lines[:2] + [""] + lines[2:]) + "\n")
        if command == "run":
            argv = ["run", "--config", cfg_path, "--logs", logs, "--out", str(tmp_path / "o")]
            what = "odometry increment"
        else:
            argv = ["eval", "--trajectory", path, "--ground-truth", path]
            what = "trajectory pose"
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{name}: line 6: {what} has a zero-norm rotation" in err


def test_overflowing_rotation_exit_code(tmp_path, cfg_path, capsys):
    """An odometry rotation whose fields are finite but whose norm overflows
    stops `run`, naming the file and line, instead of reading as a zero
    rotation."""
    logs = str(tmp_path / "logs")
    assert main(["simulate", "--config", cfg_path, "--out", logs]) == 0
    path = os.path.join(logs, "odometry.csv")
    lines = open(path).read().splitlines()
    lines[3] = ",".join(lines[3].split(",")[:4] + ["1e200", "0", "0", "0"])
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    capsys.readouterr()
    out = tmp_path / "o"
    assert main(["run", "--config", cfg_path, "--logs", logs, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "odometry.csv: line 4: odometry increment has a rotation whose norm overflows" in err
    assert not out.exists()


def test_import_loads_no_slow_scipy_submodules():
    """Importing scipy costs each process about 0.2 s of CPU and 24 MB of
    memory; the CLI needs no scipy module at all."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(semslam.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import semslam.cli, sys; "
        "print(','.join(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == ""


@pytest.mark.parametrize("preset", [None, "3"])
def test_launcher_defaults_blas_threads_before_numpy(preset):
    """`python -m semslam` sets one BLAS thread unless the caller chose a
    count, and the package loads no numpy before it does."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(semslam.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(var, None)
        if preset is not None:
            env[var] = preset
    code = (
        "import os, sys, semslam.__main__ as launcher; "
        "before = 'numpy' in sys.modules; "
        "code = launcher.main(['eval', '--trajectory', 'missing.csv', '--ground-truth', 'missing.csv']); "
        "print(before, code, 'numpy' in sys.modules, "
        "*(os.environ[v] for v in ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "1", "True", *[preset or "1"] * 3]


def test_run_with_loop_closures_loads_no_numpy_ma(tmp_path):
    """A square-loop run that accepts closures never imports numpy.ma
    (about 43 ms of CPU and 1.2 MB of memory): numpy 2.4's bare np.unique
    does, so the closure check counts distinct ids another way."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(semslam.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(serialize_config(RunConfig(trajectory="square_loop", world_seed=1, run_seed=1)))
    logs, out = str(tmp_path / "logs"), str(tmp_path / "out")
    code = (
        "import sys, semslam.__main__ as launcher; "
        f"assert launcher.main(['simulate', '--config', {str(cfg)!r}, '--out', {logs!r}]) == 0; "
        f"assert launcher.main(['run', '--config', {str(cfg)!r}, '--logs', {logs!r}, '--out', {out!r}]) == 0; "
        "print('numpy.ma' in sys.modules)"
    )
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    summary, loaded = run.stdout.strip().splitlines()[-2:]
    assert int(summary.split(" loop closures")[0].split()[-1]) >= 1, summary
    assert loaded == "False"
