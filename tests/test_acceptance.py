"""Acceptance criteria for the release.

Each test prints exactly one PASS/FAIL line (visible even under captured
output) and then asserts, so `pytest -v` shows both the line and the verdict.
"""

import itertools
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import multivariate_normal, norm

from semslam import kernels
from semslam.assoc import (
    AssocParams,
    CostMatrix,
    build_cost_matrix,
    solve_assignment,
)
from semslam.cli import main as cli_main
from semslam.config import RunConfig, serialize_config
from semslam.estimation import ukf_update
from semslam.core import PoseTable
from semslam.geometry import Pose
from semslam.graph import GraphState, LandmarkFactor, PriorFactor, RelativePoseFactor
from semslam.mht import kld_bound
from semslam.placerec import jsd
from semslam.submap import Corpus, gaussian_entropy, tfidf_score

from conftest import (
    brute_force_assignment,
    exhaustive_posterior_best,
    landmark,
    meas,
    random_spd,
    scene_of,
    simple_params,
    tree_combo_branches,
)
from test_assoc import convolution_oracle, state_with
from test_estimation import kalman_oracle
from test_graph import assert_jacobians_match, random_pose
from test_mht import default_tree
from test_pipeline import run_for


def report(capsys, num, name, ok, extra=""):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[criterion {num:2d}] {name}: {verdict}{(' (' + extra + ')') if extra else ''}")
    assert ok, f"criterion {num} ({name}) failed {extra}"


def test_criterion_01_assignment_oracle(capsys):
    """500 random cost matrices up to 7x7: exact match with brute force."""
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    ok = True
    for _ in range(500):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(n, 8))
        block = rng.uniform(0.0, 10.0, (n, m))
        mat = np.full((n, m + 2 * n), kernels.BIG)
        mat[:, :m] = block
        for i in range(n):
            mat[i, m + i] = 1e6  # New, never optimal here
            mat[i, m + n + i] = 1e6  # FalsePositive, never optimal here
        a = solve_assignment(CostMatrix(mat, np.arange(m), m, np.zeros(m), np.zeros(n)))
        _, best_total = brute_force_assignment(block)
        if abs(a.total_cost - best_total) > 1e-9:
            ok = False
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    report(capsys, 1, "assignment equals brute force on 500 matrices", ok, f"{elapsed:.2f}s")


def test_criterion_02_posterior_oracle(capsys):
    """50 episodes (T<=3, <=3 meas/step): best leaf equals exhaustive argmax."""
    params = simple_params(fp_rate=0.05, map_volume=100.0)
    t0 = time.perf_counter()
    ok = True
    for episode in range(50):
        ep_rng = np.random.default_rng(500 + episode)
        steps = int(ep_rng.integers(1, 4))
        counts = [int(ep_rng.integers(1, 4)) for _ in range(steps)]
        while sum(counts) > 5:  # keep exhaustive enumeration tractable
            counts[int(np.argmax(counts))] -= 1
        episodes = [
            [
                meas(
                    ep_rng.uniform(-2, 2, 3),
                    class_id=int(ep_rng.integers(2)),
                    scene_id=t,
                    time=float(t),
                )
                for _ in range(counts[t])
            ]
            for t in range(steps)
        ]
        tree = default_tree(max_hypotheses=10**9)
        for t, ms in enumerate(episodes):
            scene = scene_of(ms)
            for leaf in list(tree.leaves):
                cm = build_cost_matrix(scene, leaf, params)
                tree.extend(leaf, tree_combo_branches(ms, leaf, cm), scene, params, cm)
        best = tree.best_leaf().log_weight
        expect = exhaustive_posterior_best(episodes, params)
        if abs(best - expect) > 1e-6:
            ok = False
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    report(capsys, 2, "MHT best leaf equals exhaustive posterior argmax", ok, f"{elapsed:.1f}s")


def test_criterion_03_convolution_identity(capsys):
    """Closed-form Gaussian convolution, read from the Previous cell of the
    association cost matrix, vs 3-D numerical integration."""
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        cov_z = random_spd(rng)
        cov_a = random_spd(rng)
        p = rng.uniform(-2, 2, 3)
        pi = rng.uniform(-2, 2, 3)
        params = simple_params(meas_cov=cov_z, trans_cov_by_class={0: cov_a})
        state = state_with(previous=[landmark(5, pi)])
        cm = build_cost_matrix(scene_of([meas(p)]), state, params)
        closed = float(np.exp(-cm.matrix[0, 0]))  # column 0 is Previous(5)
        numeric = convolution_oracle(p, pi, cov_z, cov_a)
        worst = max(worst, abs(closed - numeric) / closed)
    ok = worst < 1e-4
    report(capsys, 3, "convolution identity on 20 SPD pairs", ok, f"worst rel err {worst:.2e}")


def test_criterion_04_kld_bound(capsys):
    # independent evaluation of the printed formula
    def independent(k, eps, delta):
        z = norm.ppf(1.0 - delta)
        kk = k - 1
        return int((kk / (2.0 * eps)) * (1.0 - 2.0 / (9.0 * kk) + np.sqrt(2.0 / (9.0 * kk)) * z))

    ok = (
        kld_bound(2, 0.05, 0.01) == 18
        and kld_bound(10, 0.05, 0.01) == 120
        and kld_bound(2, 0.05, 0.01) == independent(2, 0.05, 0.01)
        and kld_bound(10, 0.05, 0.01) == independent(10, 0.05, 0.01)
    )
    report(capsys, 4, "KLD bound spot values 18 and 120", ok)


def test_criterion_05_resampling_unbiased(capsys):
    """Mean copy counts over 1000 seeds match n * w within 0.02."""
    weights = np.array([0.97, 0.01, 0.01, 0.01])
    n = 4
    totals = np.zeros(4)
    n_seeds = 1000
    for seed in range(n_seeds):
        u0 = float(np.random.default_rng(seed).random())
        idx = kernels.systematic_resample(weights, n, u0)
        for i in idx:
            totals[int(i)] += 1
    means = totals / n_seeds
    dev = float(np.max(np.abs(means - n * weights)))
    ok = dev < 0.02
    report(capsys, 5, "systematic resampling unbiased on 4-leaf example", ok, f"max dev {dev:.4f}")


def test_criterion_06_ukf_equals_kalman(capsys):
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(100):
        P = random_spd(rng)
        R = random_spd(rng)
        mu = rng.standard_normal(3)
        z = rng.standard_normal(3)
        mean, cov = ukf_update(mu, P, z, R, RunConfig())
        em, ec = kalman_oracle(mu, P, z, R)
        worst = max(worst, float(np.max(np.abs(mean - em))), float(np.max(np.abs(cov - ec))))
    ok = worst < 1e-9
    report(capsys, 6, "UKF equals Kalman on 100 random priors", ok, f"worst abs err {worst:.2e}")


def test_criterion_07_jacobians(capsys):
    rng = np.random.default_rng(7)
    ok = True
    try:
        for _ in range(34):
            state = GraphState(PoseTable.of([random_pose(rng)]))
            assert_jacobians_match(PriorFactor(0, random_pose(rng), np.eye(6)), state)
        for _ in range(33):
            state = GraphState(PoseTable.of([random_pose(rng), random_pose(rng)]))
            assert_jacobians_match(RelativePoseFactor(0, 1, random_pose(rng), np.eye(6)), state)
        for _ in range(33):
            state = GraphState(PoseTable.of([random_pose(rng)]), landmarks={5: rng.standard_normal(3)})
            assert_jacobians_match(LandmarkFactor(0, 5, rng.standard_normal(3), np.eye(3)), state)
    except AssertionError:
        ok = False
    report(capsys, 7, "factor Jacobians match central differences at 100 points", ok)


def test_criterion_08_spot_values(capsys):
    entropy = gaussian_entropy(np.eye(3))
    div = jsd(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
    corpus = Corpus(3)  # class ids: tree, pole, other
    for counts in ([2, 1, 0], [1, 0, 0], [0, 0, 1], [0, 0, 2]):
        corpus.add(np.array([counts]))
    tfidf = tfidf_score(np.array([2, 1, 0]), corpus)
    ok = (
        abs(entropy - 4.2568) < 1e-4
        and abs(div - 0.2158) < 1e-4
        and abs(tfidf - 0.9242) < 1e-4
    )
    report(
        capsys,
        8,
        "closed-form spot values",
        ok,
        f"entropy {entropy:.4f}, jsd {div:.4f}, tfidf {tfidf:.4f}",
    )


def test_criterion_09_end_to_end_loop_world(capsys):
    """100 square-loop seeds: estimator beats raw odometry in >= 95, each run
    accepts >= 1 loop closure; line world accepts none; under 5 minutes."""
    t0 = time.perf_counter()
    wins = 0
    min_closures = None
    for seed in range(100):
        cfg = replace(RunConfig(), world_seed=seed, run_seed=seed)
        result, world = run_for(cfg)
        raw_errs = [
            float(np.sum((a - b) ** 2))
            for a, b in zip(result.raw_odometry.translations, world.trajectory.translations)
        ]
        raw_rmse = float(np.sqrt(np.mean(raw_errs)))
        if result.final_rmse < raw_rmse:
            wins += 1
        nc = result.n_loop_closures
        min_closures = nc if min_closures is None else min(min_closures, nc)
    line_closures = 0
    for seed in range(3):
        cfg = replace(RunConfig(), trajectory="line", world_seed=seed, run_seed=seed)
        result, _ = run_for(cfg)
        line_closures += result.n_loop_closures
    elapsed = time.perf_counter() - t0
    ok = wins >= 95 and min_closures >= 1 and line_closures == 0 and elapsed < 300.0
    report(
        capsys,
        9,
        "end-to-end loop world",
        ok,
        f"{wins}/100 wins, min closures {min_closures}, line closures {line_closures}, {elapsed:.0f}s",
    )


def test_criterion_10_hypothesis_count_direction(capsys):
    """Mean leaf count of dpmhm <= 0.7x that of naive thresholding, 20 seeds.

    The default plausibility gap keeps both modes near one hypothesis; widen
    it so branching actually occurs and the pruning policies differ.
    """
    means = {}
    for mode in ("dpmhm", "mhm_threshold"):
        vals = []
        for seed in range(20):
            cfg = replace(
                RunConfig(), mode=mode, world_seed=seed, run_seed=seed, plausibility_gap=100.0
            )
            result, _ = run_for(cfg)
            vals.append(result.mean_hypotheses)
        means[mode] = float(np.mean(vals))
    ratio = means["dpmhm"] / means["mhm_threshold"]
    ok = means["dpmhm"] <= 0.7 * means["mhm_threshold"]
    report(
        capsys,
        10,
        "hypothesis-count direction",
        ok,
        f"dpmhm {means['dpmhm']:.2f} vs threshold {means['mhm_threshold']:.2f}, ratio {ratio:.2f}",
    )


def test_criterion_11_determinism(capsys, tmp_path):
    cfg = RunConfig(
        steps=16,
        n_landmarks=16,
        n_classes=4,
        meas_noise_std=0.1,
        odom_sigma_t=0.01,
        odom_sigma_r=0.001,
        submap_length=8,
    )
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(serialize_config(cfg))
    logs = str(tmp_path / "logs")
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", logs]) == 0
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert cli_main(["run", "--config", str(cfg_path), "--logs", logs, "--out", out1]) == 0
    assert cli_main(["run", "--config", str(cfg_path), "--logs", logs, "--out", out2]) == 0
    a = open(f"{out1}/metrics.csv", "rb").read()
    b = open(f"{out2}/metrics.csv", "rb").read()
    ok = a == b
    report(capsys, 11, "byte-identical metrics.csv across identical runs", ok)
