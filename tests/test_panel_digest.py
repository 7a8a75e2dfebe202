"""tools/panel_digest.py: one digest line per panel job, hashing the files
that `semslam simulate` and `semslam run` write for that job."""

import hashlib
import importlib.util
import os
import subprocess
import sys

import pytest

import semslam
from semslam.config import RunConfig, serialize_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LOGS = ("measurements.csv", "odometry.csv", "ground_truth.csv")
OUTPUTS = ("trajectory.csv", "map.csv", "metrics.csv")


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _launcher_env():
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    src = os.path.dirname(os.path.dirname(os.path.abspath(semslam.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _check_job(tmp_path, job, config):
    """The tool's line for `job` equals the hashes of what `python -m semslam`
    writes and prints for `config`, then a `graph=` field."""
    env = _launcher_env()
    tool = os.path.join(ROOT, "tools", "panel_digest.py")
    out = subprocess.run([sys.executable, tool, "--job", job], env=env, capture_output=True, text=True, check=True)
    name, *fields = out.stdout.split()
    assert name == job

    cfg = tmp_path / "run.cfg"
    cfg.write_text(serialize_config(config))
    logs, run = tmp_path / "logs", tmp_path / "out"
    semslam_cli = [sys.executable, "-m", "semslam"]
    subprocess.run([*semslam_cli, "simulate", "--config", cfg, "--out", logs], env=env, capture_output=True, check=True)
    summary = subprocess.run(
        [*semslam_cli, "run", "--config", cfg, "--logs", logs, "--out", run], env=env, capture_output=True, check=True
    ).stdout
    expect = []
    for d, files in ((logs, LOGS), (run, OUTPUTS)):
        expect += [f"{f}={sha((d / f).read_bytes())}" for f in files]
    assert fields[:-1] == [*expect, f"summary={sha(summary)}"]
    # the optimize results, hashed in the tool's own process
    key, value = fields[-1].split("=")
    assert key == "graph" and len(value) == 16 and int(value, 16) >= 0


def test_digest_of_one_job_hashes_its_outputs(tmp_path):
    """The line-0 digest. Both sides run with the launcher's BLAS threads:
    the round-off printed for the first pose depends on the thread count."""
    _check_job(tmp_path, "line-0", RunConfig(trajectory="line", world_seed=0, run_seed=0))


def test_digest_of_a_degraded_job_hashes_its_outputs(tmp_path):
    _check_job(tmp_path, "clutter-2", RunConfig(world_seed=2, run_seed=2, sim_fp_rate=2.0))


def _tool():
    spec = importlib.util.spec_from_file_location("panel_digest", os.path.join(ROOT, "tools", "panel_digest.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_graph_digest_hashes_every_result_at_full_precision():
    """The graph field hashes each optimize result in call order; a one-ulp
    change in a pose, a landmark or the cost, or any other result field
    changes its bytes."""
    import dataclasses

    import numpy as np

    from semslam import pipeline
    from semslam.core import PoseTable
    from semslam.geometry import Pose
    from semslam.graph import GraphState, LandmarkFactor, PriorFactor, RelativePoseFactor

    tool = _tool()
    g = GraphState(PoseTable.of([Pose(), Pose(np.array([1.0, 0.2, 0.0]))]), landmarks={4: np.array([2.0, 1.0, 0.5])})
    g.factors = [
        PriorFactor(0, Pose(), 1e6 * np.eye(6)),
        RelativePoseFactor(0, 1, Pose(np.array([1.0, 0.0, 0.0])), np.eye(6)),
        LandmarkFactor(1, 4, np.array([1.0, 1.0, 0.5]), np.eye(3), robust_c=1.0),
    ]
    optimize = pipeline.optimize
    h = hashlib.sha256()
    with tool.hashing_optimize(h):
        first, second = pipeline.optimize(g, 1), pipeline.optimize(g, 5)
    assert pipeline.optimize is optimize
    assert h.digest() == hashlib.sha256(tool.result_bytes(first) + tool.result_bytes(second)).digest()

    base = tool.result_bytes(second)
    state = second.state
    moved = []
    for column in ("translations", "rotations"):
        a = getattr(state.poses, column).copy()
        a[1] = np.nextafter(a[1], np.inf)
        moved.append(dataclasses.replace(state, poses=dataclasses.replace(state.poses, **{column: a})))
    moved.append(dataclasses.replace(state, landmarks={4: np.nextafter(state.landmarks[4], np.inf)}))
    changed = [
        *(dataclasses.replace(second, state=s) for s in moved),
        dataclasses.replace(second, cost=float(np.nextafter(second.cost, np.inf))),
        dataclasses.replace(second, initial_cost=float(np.nextafter(second.initial_cost, np.inf))),
        dataclasses.replace(second, iterations=second.iterations + 1),
        dataclasses.replace(second, converged=not second.converged),
        dataclasses.replace(second, rejected_steps=second.rejected_steps + 1),
    ]
    assert all(tool.result_bytes(r) != base for r in changed)


def test_degraded_jobs_lie_outside_the_default_panel():
    """The degraded, single_ukf baseline, knob, RANSAC fallback, simulator,
    corpus and Dirac jobs run only when named."""
    tool = _tool()
    panel, degraded, baselines, knobs = tool.panel(), tool.degraded(), tool.baselines(), tool.knobs()
    fallbacks, simulator, corpus, dirac = tool.fallbacks(), tool.simulator(), tool.corpus(), tool.dirac()
    assert len(panel) == 16 and len(degraded) == 7 and len(baselines) == 3 and len(knobs) == 4 and len(fallbacks) == 1
    assert len(simulator) == 2 and len(corpus) == 1 and len(dirac) == 1
    groups = [set(panel), set(degraded), set(baselines), set(knobs), set(fallbacks), set(simulator), set(corpus), set(dirac)]
    assert sum(map(len, groups)) == len(set().union(*groups))
    for name, overrides in {**degraded, **baselines, **knobs, **fallbacks, **simulator, **corpus, **dirac}.items():
        RunConfig(**overrides)  # every override is a config key
        assert name.endswith(f"-{overrides['world_seed']}") and overrides["run_seed"] == overrides["world_seed"]
    assert {overrides["mode"] for overrides in baselines.values()} == {"single_ukf"}
    assert {overrides.get("mode", "dpmhm") for overrides in knobs.values()} == {"dpmhm", "mhm_threshold"}
    # every knob job moves the same keys off their defaults
    default = RunConfig()
    moved = [{k for k, v in o.items() if v != getattr(default, k)} - {"world_seed", "run_seed", "mode"} for o in knobs.values()]
    assert len(moved[0]) == 18 and all(m == moved[0] for m in moved)
    # sim-knobs-1 moves the simulator keys that no other job moves, with a
    # landmark count that the classes do not divide
    sim = simulator["sim-knobs-1"]
    others = {k for o in {**panel, **degraded, **baselines, **knobs, **fallbacks}.values() for k in o}
    assert set(sim) - {"world_seed", "run_seed"} == {
        "arena_size", "n_classes", "n_landmarks", "steps", "step_length", "detection_range", "odom_sigma_t", "odom_sigma_r",
    }
    assert not (set(sim) - {"world_seed", "run_seed"}) & others and sim["n_landmarks"] % sim["n_classes"] != 0
    assert simulator["noiseless-1"]["meas_noise_std"] == 0.0


def test_all_digests_the_panel_then_every_named_job(monkeypatch, capsys):
    """`--all` digests all 35 jobs, the 16 panel jobs first, each once with
    its own overrides; it does not combine with `--job`."""
    tool = _tool()
    seen = []
    monkeypatch.setattr(tool, "digest", lambda name, overrides, work: seen.append((name, overrides)) or name)
    assert tool.main(["--all"]) == 0
    panel = tool.panel()
    named = {
        **tool.degraded(), **tool.baselines(), **tool.knobs(), **tool.fallbacks(), **tool.simulator(), **tool.corpus(),
        **tool.dirac(),
    }
    assert [name for name, _ in seen] == [*panel, *named] and len(seen) == 35
    assert dict(seen) == {**panel, **named}
    assert capsys.readouterr().out.split() == [name for name, _ in seen]
    with pytest.raises(SystemExit):
        tool.main(["--all", "--job", "line-0"])


def test_fallback_job_has_scans_an_adaptive_stop_could_end(tmp_path, monkeypatch):
    """The fallback job has scans past the consensus screen that adaptive
    RANSAC could end early on a count below m: 2 of its 58. It closes loops."""
    from conftest import adaptive_stop
    from semslam import placerec

    bound, scans = placerec._sample_bound, []

    def counted(src, dst, picks, core, tol):
        scans.append((src.shape[0], picks.shape[0]))
        return bound(src, dst, picks, core, tol)

    monkeypatch.setattr(placerec, "_sample_bound", counted)
    tool = _tool()
    overrides = tool.fallbacks()["ransac-fallback-1"]
    tool.digest("ransac-fallback-1", overrides, str(tmp_path))
    m = max(overrides["ransac_min_inliers"], 3)
    assert sum(adaptive_stop(m - 1, n) < iters for n, iters in scans) == 2 and len(scans) == 58
    header, *_, last = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
    assert int(last.split(",")[header.split(",").index("n_loop_closures")]) > 0


def test_corpus_job_gate_checks_and_skips_submaps(tmp_path, monkeypatch):
    """The corpus job adds one tf-idf document per scene, and its tf-idf
    threshold lets the gate check some submaps and skip others."""
    from semslam import pipeline

    gate, decisions = pipeline.gate, []
    monkeypatch.setattr(pipeline, "gate", lambda summary, cfg: decisions.append(gate(summary, cfg)) or decisions[-1])
    add, documents = pipeline.Corpus.add, []
    monkeypatch.setattr(pipeline.Corpus, "add", lambda corpus, docs: documents.append(len(docs)) or add(corpus, docs))
    tool = _tool()
    overrides = tool.corpus()["tfidf-scene-4"]
    assert overrides["tfidf_doc_unit"] == "scene" and overrides["gate_min_tfidf"] > RunConfig().gate_min_tfidf
    tool.digest("tfidf-scene-4", overrides, str(tmp_path))
    assert "check" in decisions and "skip" in decisions
    assert len(documents) == len(decisions) and sum(documents) > len(documents)


def test_dirac_job_takes_the_gathered_covariance_groups(tmp_path, monkeypatch):
    """The Dirac job's previous landmarks fall in two covariance groups, so
    some cost-matrix builds take `assoc._cov_groups`' gathered path (index
    arrays, not slices), which no other job reaches. It closes loops."""
    import numpy as np

    from semslam import assoc

    groups, gathered = assoc._cov_groups, []

    def counted(leaf, params):
        out = groups(leaf, params)
        gathered.append(any(isinstance(cols, np.ndarray) for cols, *_ in out))
        return out

    monkeypatch.setattr(assoc, "_cov_groups", counted)
    tool = _tool()
    overrides = tool.dirac()["dirac-1"]
    assert overrides["dirac_class_ids"] and not RunConfig().dirac_class_ids
    tool.digest("dirac-1", overrides, str(tmp_path))
    assert sum(gathered) == 36
    header, *_, last = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
    assert int(last.split(",")[header.split(",").index("n_loop_closures")]) == 4
