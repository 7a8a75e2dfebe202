"""Digest the outputs of `semslam simulate` and `semslam run` on the panel.

The panel is 16 jobs: square-loop worlds 1-5 and line worlds 0-4 at the
default config, and square-loop worlds 1, 3 and 4 at plausibility_gap = 100
under both dpmhm and mhm_threshold. World seed and run seed are the world
number. For each job the script prints one line: the job name, then the
first 16 hex digits of the sha256 of every output CSV, of the printed
run summary and of every pose-graph result (`semslam.pipeline.optimize`),
in call order, at full precision. The CSVs print 9 significant digits, so
they can hide a last-bit change in the optimizer; the `graph=` field cannot.

It imports semslam from the `src/` directory next to it, so run in two
checkouts it shows whether a change keeps every output byte-identical:

    python3 tools/panel_digest.py --all > after.txt
    (cd ../parent && python3 tools/panel_digest.py --all) > before.txt
    diff before.txt after.txt

`--job NAME` (repeatable) digests only the named jobs, and `--all` digests
the panel and then every named job. `--job` also names jobs outside the
panel, which run otherwise only under `--all`: the degraded jobs, each on a
simulator branch the panel never reaches (clutter, misses, heavier noise,
class confusion, a 60 degree field of view, the figure-eight path and
odometry drift), the single_ukf baseline jobs on square-loop worlds 1
and 3 and line world 0, the knob jobs on square-loop worlds 1 and 3,
which set every tunable of the resampler, verification,
retrieval, RANSAC and the gate away from its default, so a stage
that reads the wrong config key changes some digest, the RANSAC
fallback job on square-loop world 1, the one job with scans that adaptive
RANSAC (stopping at 99.9% confidence) could end before its last sample
on a count below `ransac_min_inliers`, and
the simulator jobs on square-loop world 1 (one sets every world, range and
odometry-noise key that no other job moves away from its default, with a
landmark count that the classes do not divide, and one turns the
measurement noise off), and the corpus job on square-loop world 4, whose
tf-idf corpus holds one document per scene and whose tf-idf threshold
makes the gate skip some submaps, and the Dirac job on square-loop world
1, whose Dirac classes put the previous landmarks' cost-matrix columns in
two covariance groups (`assoc._cov_groups`' gathered path).
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from semslam.__main__ import main as semslam  # noqa: E402  (the launcher: one BLAS thread by default)
from semslam.config import RunConfig, serialize_config  # noqa: E402

LOGS = ("measurements.csv", "odometry.csv", "ground_truth.csv")
OUTPUTS = ("trajectory.csv", "map.csv", "metrics.csv")


def panel():
    """Job name -> config overrides, in panel order."""
    jobs = {f"loop-{w}": {"trajectory": "square_loop", "world_seed": w} for w in range(1, 6)}
    jobs.update((f"line-{w}", {"trajectory": "line", "world_seed": w}) for w in range(5))
    for w in (1, 3, 4):
        for mode in ("dpmhm", "mhm_threshold"):
            jobs[f"branching-{w}-{mode}"] = {"world_seed": w, "plausibility_gap": 100.0, "mode": mode}
    for overrides in jobs.values():
        overrides["run_seed"] = overrides["world_seed"]
    return jobs


def degraded():
    """Job name -> config overrides of the degraded jobs, named `<what>-<world>`."""
    jobs = {
        "clutter-2": {"world_seed": 2, "sim_fp_rate": 2.0},
        "misses-1": {"world_seed": 1, "miss_rate": 0.4},
        "noise-1": {"world_seed": 1, "meas_noise_std": 0.6},
        "confusion-2": {"world_seed": 2, "confusion_eps": 0.1},
        "fov60-1": {"world_seed": 1, "fov_deg": 60.0},
        "figure8-1": {"world_seed": 1, "trajectory": "figure_eight"},
        "drift-1": {"world_seed": 1, "odom_bias_drift": 0.05},
    }
    for overrides in jobs.values():
        overrides["run_seed"] = overrides["world_seed"]
    return jobs


def baselines():
    """Job name -> config overrides of the single_ukf baseline jobs."""
    jobs = {
        "single-ukf-1": {"world_seed": 1},
        "single-ukf-3": {"world_seed": 3},
        "single-ukf-line-0": {"world_seed": 0, "trajectory": "line"},
    }
    for overrides in jobs.values():
        overrides.update(mode="single_ukf", run_seed=overrides["world_seed"])
    return jobs


def knobs():
    """Job name -> config overrides of the knob jobs, `knobs[-mhm]-<world>`
    (`mhm`: mode = mhm_threshold)."""
    knob_values = {
        "ess_fraction": 0.8, "kld_epsilon": 0.1, "kld_delta": 0.05, "kld_cube_bracket": True,
        "max_hypotheses": 8, "plausibility_gap": 100.0,
        "tau_verify": 8.0, "edge_radius": 5.0, "penalty_p": 0.4, "dist_norm_scale": 4.0,
        "scene_term_mode": "distance_weighted",
        "r_l2": 0.7, "tau_jsd": 0.25, "exclusion_window": 15,
        "ransac_iters": 150, "ransac_tol": 0.6, "ransac_min_inliers": 5, "gate_min_landmarks": 4,
    }
    jobs = {}
    for w in (1, 3):
        jobs[f"knobs-{w}"] = dict(knob_values, world_seed=w, run_seed=w)
        jobs[f"knobs-mhm-{w}"] = dict(knob_values, world_seed=w, run_seed=w, mode="mhm_threshold")
    return jobs


def fallbacks():
    """Job name -> config overrides of the RANSAC fallback job: 10 inliers
    within 1.5 out of 400 samples, so a count below 10 could end a scan
    early under an adaptive stop. RANSAC here scans all 400."""
    return {
        "ransac-fallback-1": {
            "world_seed": 1, "run_seed": 1, "ransac_tol": 1.5, "ransac_min_inliers": 10, "ransac_iters": 400,
        }
    }


def simulator():
    """Job name -> config overrides of the simulator jobs."""
    return {
        "sim-knobs-1": {
            "world_seed": 1, "run_seed": 1, "arena_size": 26.0, "n_classes": 6, "n_landmarks": 50, "steps": 52,
            "step_length": 0.9, "detection_range": 9.0, "odom_sigma_t": 0.03, "odom_sigma_r": 0.003,
        },
        "noiseless-1": {"world_seed": 1, "run_seed": 1, "meas_noise_std": 0.0},
    }


def corpus():
    """Job name -> config overrides of the corpus job: one tf-idf document
    per scene, under a gate threshold that checks some submaps and skips
    others."""
    return {"tfidf-scene-4": {"world_seed": 4, "run_seed": 4, "tfidf_doc_unit": "scene", "gate_min_tfidf": 0.04}}


def dirac():
    """Job name -> config overrides of the Dirac job: classes 0 and 1 take
    no transitional covariance, the other classes the shared one."""
    return {"dirac-1": {"world_seed": 1, "run_seed": 1, "dirac_class_ids": (0, 1)}}


def named_jobs():
    """Job name -> config overrides of every job `--job` can name: the panel,
    then the jobs outside it."""
    return {**panel(), **degraded(), **baselines(), **knobs(), **fallbacks(), **simulator(), **corpus(), **dirac()}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def result_bytes(result) -> bytes:
    """An optimize result at full precision: the float64 bytes of every pose
    (translation, then rotation) and landmark by id, then the scalars. A pose
    id is a row of the pose table."""
    state = result.state
    arrays = [a for row in zip(state.poses.translations, state.poses.rotations) for a in row]
    arrays += [state.landmarks[lid] for lid in sorted(state.landmarks)]
    floats = (result.cost, result.initial_cost)
    scalars = [float(x).hex() for x in floats] + [repr(int(result.iterations)), repr(bool(result.converged)), repr(int(result.rejected_steps))]
    return b"".join(a.astype("<f8").tobytes() for a in arrays) + " ".join(scalars).encode()


@contextlib.contextmanager
def hashing_optimize(h):
    """Feed `h` every `semslam.pipeline.optimize` result while the block runs.
    Import the pipeline only here: by now the launcher has set the BLAS threads."""
    from semslam import pipeline

    optimize = pipeline.optimize

    def hashed(*args, **kwargs):
        result = optimize(*args, **kwargs)
        h.update(result_bytes(result))
        return result

    pipeline.optimize = hashed
    try:
        yield
    finally:
        pipeline.optimize = optimize


def digest(name, overrides, work) -> str:
    """Simulate and run one job in `work`; its digest line."""
    cfg = os.path.join(work, "run.cfg")
    logs, out = os.path.join(work, "logs"), os.path.join(work, "out")
    with open(cfg, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_config(RunConfig(**overrides)))
    summary = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()):
        if semslam(["simulate", "--config", cfg, "--out", logs]) != 0:
            raise SystemExit(f"{name}: simulate failed")
    results = hashlib.sha256()
    with contextlib.redirect_stdout(summary), hashing_optimize(results):
        if semslam(["run", "--config", cfg, "--logs", logs, "--out", out]) != 0:
            raise SystemExit(f"{name}: run failed")
    fields = [name]
    for d, files in ((logs, LOGS), (out, OUTPUTS)):
        for f in files:
            with open(os.path.join(d, f), "rb") as fh:
                fields.append(f"{f}={sha(fh.read())}")
    fields.append(f"summary={sha(summary.getvalue().encode())}")
    fields.append(f"graph={results.hexdigest()[:16]}")
    return " ".join(fields)


def main(argv=None) -> int:
    jobs, named = panel(), named_jobs()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = p.add_mutually_exclusive_group()
    which.add_argument("--job", action="append", choices=list(named), help="digest only this job (repeatable)")
    which.add_argument("--all", action="store_true", help="digest the panel, then every job outside it")
    args = p.parse_args(argv)
    for name in args.job or (named if args.all else jobs):
        with tempfile.TemporaryDirectory() as work:
            print(digest(name, named[name], work), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
