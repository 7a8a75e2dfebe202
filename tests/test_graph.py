"""Factor graph: Cauchy loss, analytic vs numerical Jacobians, gauge
behavior, robust optimization, and trajectory RMSE."""

import dataclasses
import math

import numpy as np
import pytest

from semslam.core import ContractViolation, PoseTable
from semslam.geometry import Pose, log_so3, quat_from_rotvec, quat_from_yaw, quat_mul, quat_normalize, quat_to_rot
from semslam.graph import (
    GraphState,
    LandmarkFactor,
    PriorFactor,
    RelativePoseFactor,
    StructuralError,
    _Problem,
    cauchy_cost,
    cauchy_weight,
    optimize,
    rmse,
)

from conftest import (
    _scalar_factor_terms,
    _scalar_total_cost,
    pose_approx_equal,
    random_spd,
    scalar_optimize,
    scalar_quat_from_rotvec,
    scalar_quat_mul,
    scalar_quat_normalize,
)


def random_pose(rng, scale=2.0):
    return Pose(scale * rng.standard_normal(3), quat_normalize(rng.standard_normal(4)))


def poses_of(table):
    """The rows of a pose table, as poses."""
    return [table.pose(p) for p in range(len(table))]


def perturb(state, var, delta):
    """Apply a minimal-parameterization increment to one variable."""
    kind, vid = var
    if kind == "landmark":
        return dataclasses.replace(state, landmarks={**state.landmarks, vid: state.landmarks[vid] + delta})
    poses = poses_of(state.poses)
    q = scalar_quat_normalize(scalar_quat_mul(poses[vid].rotation, scalar_quat_from_rotvec(delta[3:])))
    poses[vid] = Pose(poses[vid].translation + delta[:3], q)
    return dataclasses.replace(state, poses=PoseTable.of(poses))


def stacked_terms(factor, state):
    """One factor's residual and its Jacobians by (kind, id) variable, as
    `optimize` evaluates them: the only row of its stack in a one-factor
    problem. A prior's first pose is the fixed origin, which has none."""
    prob = _Problem(GraphState(state.poses, state.landmarks, [factor]))
    R = quat_to_rot(prob.q0)
    if isinstance(factor, LandmarkFactor):
        r, J = prob.marks.terms(prob.t0, R, prob.L0)
        variables = [("pose", factor.pose_id), ("landmark", factor.landmark_id)]
    elif isinstance(factor, PriorFactor):
        r, J = prob.edges.terms(prob.t0, R)
        J, variables = J[:, :, 6:], [("pose", factor.pose_id)]
    else:
        r, J = prob.edges.terms(prob.t0, R)
        variables = [("pose", factor.pose_i), ("pose", factor.pose_j)]
    return r[0], dict(zip(variables, np.split(J[0], [6], axis=1)))


def fd_jacobian(factor, state, var, dim, h=1e-6):
    r0 = stacked_terms(factor, state)[0]
    J = np.zeros((r0.size, dim))
    for k in range(dim):
        d = np.zeros(dim)
        d[k] = h
        rp = stacked_terms(factor, perturb(state, var, d))[0]
        rm = stacked_terms(factor, perturb(state, var, -d))[0]
        J[:, k] = (rp - rm) / (2.0 * h)
    return J


def assert_jacobians_match(factor, state, tol=1e-5):
    """The Jacobians `optimize` stacks for `factor` match central
    differences of the residual it stacks."""
    for var, J in stacked_terms(factor, state)[1].items():
        dim = J.shape[1]
        Jn = fd_jacobian(factor, state, var, dim)
        scale = max(1.0, float(np.max(np.abs(Jn))))
        assert np.max(np.abs(J - Jn)) / scale < tol, (factor, var)


class TestCauchy:
    def test_zero_residual(self):
        assert cauchy_weight(0.0, 1.0) == 1.0

    def test_unit_residual(self):
        assert cauchy_weight(1.0, 1.0) == 0.5

    def test_three_c(self):
        assert cauchy_weight(3.0, 1.0) == pytest.approx(0.1)

    def test_cost_matches_weight_derivative(self):
        # d/dr [0.5 c^2 log(1 + (r/c)^2)] = r * w(r)
        c, r, h = 1.3, 0.7, 1e-6
        num = (cauchy_cost(r + h, c) - cauchy_cost(r - h, c)) / (2 * h)
        assert num == pytest.approx(r * cauchy_weight(r, c), rel=1e-6)

    def test_non_positive_scale_rejected(self):
        with pytest.raises(ContractViolation):
            cauchy_weight(1.0, 0.0)


class TestJacobians:
    def test_prior_factor(self, rng):
        for _ in range(30):
            state = GraphState(PoseTable.of([random_pose(rng)]))
            f = PriorFactor(0, random_pose(rng), np.eye(6))
            assert_jacobians_match(f, state)

    def test_relative_pose_factor(self, rng):
        for _ in range(30):
            state = GraphState(PoseTable.of([random_pose(rng), random_pose(rng)]))
            f = RelativePoseFactor(0, 1, random_pose(rng), np.eye(6))
            assert_jacobians_match(f, state)

    def test_landmark_factor(self, rng):
        for _ in range(30):
            state = GraphState(PoseTable.of([random_pose(rng)]), landmarks={5: rng.standard_normal(3)})
            f = LandmarkFactor(0, 5, rng.standard_normal(3), np.eye(3))
            assert_jacobians_match(f, state)


class TestStructure:
    def test_missing_prior_rejected(self):
        g = GraphState(PoseTable.of([Pose(), Pose()]))
        g.factors.append(RelativePoseFactor(0, 1, Pose(), np.eye(6)))
        with pytest.raises(StructuralError):
            optimize(g)

    def test_factor_referencing_missing_pose_rejected(self):
        g = GraphState(PoseTable.of([Pose()]))
        g.factors.append(PriorFactor(0, Pose(), np.eye(6)))
        g.factors.append(RelativePoseFactor(0, 3, Pose(), np.eye(6)))
        with pytest.raises(StructuralError):
            optimize(g)

    @pytest.mark.parametrize("kind", ["prior", "relative", "landmark"])
    def test_negative_pose_id_rejected(self, kind):
        """A pose id is a row of the pose table: -1 names no pose, though
        indexing the table with it would wrap round to the last row."""
        g = GraphState(PoseTable.of([Pose(), Pose()]), landmarks={5: np.zeros(3)})
        g.factors = [PriorFactor(-1 if kind == "prior" else 0, Pose(), np.eye(6)), RelativePoseFactor(0, 1, Pose(), np.eye(6))]
        if kind == "relative":
            g.factors.append(RelativePoseFactor(1, -1, Pose(), np.eye(6)))
        g.factors.append(LandmarkFactor(-1 if kind == "landmark" else 1, 5, np.zeros(3), np.eye(3)))
        with pytest.raises(StructuralError, match="missing pose"):
            optimize(g)

    def test_landmark_factor_referencing_missing_landmark_rejected(self):
        g = GraphState(PoseTable.of([Pose()]), landmarks={5: np.zeros(3)})
        g.factors = [PriorFactor(0, Pose(), np.eye(6)), LandmarkFactor(0, 5, np.zeros(3), np.eye(3))]
        g.factors.append(LandmarkFactor(0, 7, np.zeros(3), np.eye(3)))
        with pytest.raises(StructuralError, match="missing landmark 7"):
            optimize(g)

    def test_landmark_without_factor_rejected(self):
        g = GraphState(PoseTable.of([Pose()]), landmarks={5: np.zeros(3), 7: np.ones(3)})
        g.factors = [PriorFactor(0, Pose(), np.eye(6)), LandmarkFactor(0, 5, np.zeros(3), np.eye(3))]
        with pytest.raises(StructuralError, match="landmark 7 has no factor"):
            optimize(g)

    def test_disconnected_variable_rejected(self):
        g = GraphState(PoseTable.of([Pose(), Pose()]))
        g.factors.append(PriorFactor(0, Pose(), np.eye(6)))
        with pytest.raises(StructuralError):
            optimize(g)


def chain_graph(increments, start=None, info_scale=1.0):
    poses = [start if start is not None else Pose()]
    for inc in increments:
        poses.append(poses[-1].compose(inc))
    g = GraphState(PoseTable.of(poses), factors=[PriorFactor(0, poses[0], 1e6 * np.eye(6))])
    g.factors += [RelativePoseFactor(i, i + 1, inc, info_scale * np.eye(6)) for i, inc in enumerate(increments)]
    return g


def moved_start(g, rng):
    """`g` with every pose but the first moved by 0.3 m normal noise."""
    t = g.poses.translations.copy()
    t[1:] += 0.3 * rng.standard_normal(t[1:].shape)
    return dataclasses.replace(g, poses=PoseTable(t, g.poses.rotations))


def perturbed_chain(rng):
    incs = [Pose(rng.uniform(-1, 1, 3), quat_from_rotvec(0.2 * rng.standard_normal(3))) for _ in range(5)]
    return moved_start(chain_graph(incs), rng)


def random_information(rng, dim):
    A = rng.standard_normal((dim, dim))
    return rng.uniform(1.0, 100.0) * (A @ A.T / dim + np.eye(dim))


PARITY_KINDS = ("mixed", "landmark_free", "near_pi", "zero_residual", "moved_prior")


def parity_graph(rng, kind):
    """A random graph of one kind and an iteration cap for it.

    mixed: poses with odometry, loop and landmark factors, some robust, some
    landmarks seen from several poses, a perturbed start. landmark_free: the
    same without landmarks. near_pi: an odometry residual rotation within
    1e-6 of pi at the start. zero_residual: every residual exactly zero, or
    only x-translation residuals with identity rotations and information.
    moved_prior: as mixed, but the prior sits on a random pose with a random
    SE(3) measurement, is sometimes robust and lies anywhere in the factor
    list. Every other kind has a non-robust identity prior on pose 0, first.
    """
    max_iters = int(rng.choice([1, 3, 12, 50]))
    robust = lambda: float(rng.uniform(0.5, 3.0)) if rng.random() < 0.5 else None
    g = GraphState()
    if kind == "zero_residual":
        n, scale = int(rng.integers(2, 6)), float(rng.uniform(1.0, 50.0))
        xs = np.cumsum(rng.integers(1, 4, n)).astype(float)
        g.poses = PoseTable.of([Pose(np.array([x, 0.0, 0.0])) for x in xs])
        g.factors.append(PriorFactor(0, Pose(np.array([xs[0], 0.0, 0.0])), 1e6 * np.eye(6)))
        shift = 0.25 if rng.random() < 0.5 else 0.0
        for p in range(1, n):
            step = Pose(np.array([xs[p] - xs[p - 1] + shift, 0.0, 0.0]))
            g.factors.append(RelativePoseFactor(p - 1, p, step, scale * np.eye(6), robust_c=robust()))
        for lid in range(int(rng.integers(0, 4))):
            x = float(rng.integers(-5, 15))
            g.landmarks[lid] = np.array([x, 0.0, 0.0])
            for p in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False):
                z = np.array([x - xs[p] - shift, 0.0, 0.0])
                g.factors.append(LandmarkFactor(int(p), lid, z, scale * np.eye(3), robust_c=robust()))
        return g, max_iters
    n = int(rng.integers(2, 7))
    moved = kind == "moved_prior"
    p0 = int(rng.integers(n)) if moved else 0
    truth = [random_pose(rng) if moved else Pose()] + [random_pose(rng) for _ in range(n - 1)]
    starts = [
        truth[p] if p == p0 else Pose(
            truth[p].translation + 0.3 * rng.standard_normal(3),
            quat_mul(truth[p].rotation, quat_from_rotvec(0.2 * rng.standard_normal(3))),
        )
        for p in range(n)
    ]
    prior_info = 1e6 * np.eye(6) if rng.random() < 0.5 else random_information(rng, 6)
    prior = PriorFactor(p0, truth[p0], prior_info, robust_c=robust() if moved else None)
    if not moved:
        g.factors.append(prior)

    def noisy_relative(i, j):
        rel = truth[j].relative_to(truth[i])
        return Pose(rel.translation + 0.05 * rng.standard_normal(3),
                    quat_mul(rel.rotation, quat_from_rotvec(0.05 * rng.standard_normal(3))))

    for p in range(1, n):
        g.factors.append(RelativePoseFactor(p - 1, p, noisy_relative(p - 1, p), random_information(rng, 6), robust_c=robust()))
    if n > 2 and rng.random() < 0.5:
        g.factors.append(RelativePoseFactor(0, n - 1, noisy_relative(0, n - 1), random_information(rng, 6), robust_c=robust()))
    if kind == "near_pi":
        # pose 1 starts rotated by pi - 5e-7 about a random axis from an
        # identity-rotation odometry measurement out of an identity pose 0
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        half = 0.5 * (math.pi - 5e-7)
        starts[1] = Pose(starts[1].translation, np.concatenate([[math.cos(half)], math.sin(half) * axis]))
        g.factors[1] = RelativePoseFactor(0, 1, Pose(rng.uniform(-1, 1, 3)), random_information(rng, 6), robust_c=robust())
    g.poses = PoseTable.of(starts)
    if kind in ("mixed", "near_pi", "moved_prior"):
        for lid in range(int(rng.integers(1, 7))):
            where = 3.0 * rng.standard_normal(3)
            g.landmarks[10 + lid] = where + 0.3 * rng.standard_normal(3)
            for p in rng.choice(n, size=int(rng.integers(1, min(3, n) + 1)), replace=False):
                z = truth[p].transform_points_inverse(where[None])[0] + 0.05 * rng.standard_normal(3)
                g.factors.append(LandmarkFactor(int(p), 10 + lid, z, random_spd(rng, rng.uniform(1.0, 30.0)), robust_c=robust()))
    if moved:
        g.factors.insert(int(rng.integers(len(g.factors) + 1)), prior)
    return g, max_iters


class TestOptimize:
    def test_consistent_graph_stays_put(self):
        incs = [Pose(np.array([1.0, 0.0, 0.0]), quat_from_yaw(0.3)) for _ in range(3)]
        g = chain_graph(incs)
        result = optimize(g)
        assert result.cost == pytest.approx(0.0, abs=1e-12)
        for got, start in zip(poses_of(result.state.poses), poses_of(g.poses)):
            assert pose_approx_equal(got, start, tol=1e-9)

    def test_loop_factor_corrects_drift(self):
        # L-shaped path so per-step body-frame translation drift accumulates
        # rather than canceling around a closed loop
        incs = (
            [Pose(np.array([1.0, 0.0, 0.0])) for _ in range(10)]
            + [Pose(np.zeros(3), quat_from_yaw(math.pi / 2))]
            + [Pose(np.array([1.0, 0.0, 0.0])) for _ in range(10)]
        )
        true_poses = chain_graph(incs).poses
        drift = np.array([0.02, 0.0, 0.0])
        g2 = chain_graph([Pose(inc.translation + drift, inc.rotation) if inc.translation.any() else inc for inc in incs])
        last = len(incs)
        endpoint_err_before = np.linalg.norm(g2.poses.translations[last] - true_poses.translations[last])
        assert endpoint_err_before > 0.2
        # exact loop factor with information far above odometry
        measured = true_poses.pose(last).relative_to(true_poses.pose(0))
        g2.factors.append(RelativePoseFactor(0, last, measured, 1e4 * np.eye(6)))
        result = optimize(g2, max_iters=50)
        endpoint_err_after = np.linalg.norm(result.state.poses.translations[last] - true_poses.translations[last])
        assert endpoint_err_after < 0.1 * endpoint_err_before

    def test_cauchy_downweights_outlier_loop(self):
        # odometry stiff enough that bending the chain to meet the bogus loop
        # costs far more than the Cauchy-capped loop residual
        incs = [Pose(np.array([1.0, 0.0, 0.0])) for _ in range(10)]
        clean = optimize(chain_graph(incs, info_scale=100.0))
        g = chain_graph(incs, info_scale=100.0)
        bogus = Pose(np.array([-5.0, 3.0, 1.0]), quat_from_yaw(1.0))
        g.factors.append(
            RelativePoseFactor(0, 10, bogus, 100.0 * np.eye(6), robust_c=1.0)
        )
        robust = optimize(g, max_iters=50)
        errs = np.linalg.norm(robust.state.poses.translations - clean.state.poses.translations, axis=1)
        assert max(errs) < 0.35  # clean chain spans 10 m; outlier barely moves it

    def test_gauge_transport(self, rng):
        """Rigidly moving the prior moves the whole solution rigidly."""
        incs = [
            Pose(rng.uniform(-1, 1, 3), quat_from_rotvec(0.2 * rng.standard_normal(3)))
            for _ in range(5)
        ]
        base = optimize(chain_graph(incs)).state
        offset = Pose(np.array([10.0, -4.0, 2.0]), quat_from_yaw(0.7))
        moved = optimize(chain_graph(incs, start=offset)).state
        for pose, got in zip(poses_of(base.poses), poses_of(moved.poses)):
            assert pose_approx_equal(got, offset.compose(pose), tol=1e-6)

    def test_cost_non_increasing(self, rng):
        incs = [Pose(rng.uniform(-1, 1, 3)) for _ in range(6)]
        # perturb the initial guess away from the optimum
        g = moved_start(chain_graph(incs), rng)
        start_cost = _scalar_total_cost(g)
        result = optimize(g, max_iters=30)
        assert result.cost <= start_cost + 1e-12

    def test_landmark_factors_recover_positions(self, rng):
        g = GraphState(PoseTable.of([Pose()]), factors=[PriorFactor(0, Pose(), 1e6 * np.eye(6))])
        true_lm = rng.uniform(-3, 3, (3, 3))
        for i, lm in enumerate(true_lm):
            g.landmarks[i] = lm + 0.5 * rng.standard_normal(3)
            g.factors.append(LandmarkFactor(0, i, lm.copy(), 10.0 * np.eye(3)))
        result = optimize(g, max_iters=30)
        for i, lm in enumerate(true_lm):
            assert np.allclose(result.state.landmarks[i], lm, atol=1e-6)

    def test_quaternions_stay_normalized(self, rng):
        incs = [Pose(rng.uniform(-1, 1, 3), quat_from_rotvec(0.3 * rng.standard_normal(3))) for _ in range(5)]
        result = optimize(chain_graph(incs))
        assert (abs(np.linalg.norm(result.state.poses.rotations, axis=1) - 1.0) < 1e-9).all()

    def test_zero_cauchy_scale_rejected(self):
        g = chain_graph([Pose(np.array([1.0, 0.0, 0.0]))])
        g.factors.append(RelativePoseFactor(0, 1, Pose(), np.eye(6), robust_c=0.0))
        with pytest.raises(ContractViolation):
            optimize(g)

    def test_non_spd_information_rejected(self):
        g = chain_graph([Pose(np.array([1.0, 0.0, 0.0]))])
        g.factors.append(RelativePoseFactor(0, 1, Pose(), -np.eye(6)))
        with pytest.raises(np.linalg.LinAlgError):
            optimize(g)

    def test_iteration_cap_reports_not_converged(self, rng):
        g = perturbed_chain(rng)
        result = optimize(g, max_iters=1)
        assert result.iterations == 1
        assert result.converged is False
        assert result.cost < result.initial_cost

    def test_stall_reports_not_converged(self):
        # a prior at its own mean costs 0, so no trial step can lower the
        # cost; with grad_tol 0 the zero gradient does not stop the run first
        g = GraphState(PoseTable.of([Pose()]), factors=[PriorFactor(0, Pose(), np.eye(6))])
        for result in (optimize(g, grad_tol=0.0), scalar_optimize(g, grad_tol=0.0)):
            assert (result.iterations, result.rejected_steps) == (1, 12)
            assert result.converged is False

    def test_zero_iterations_return_initial_cost(self, rng):
        g = perturbed_chain(rng)
        result = optimize(g, max_iters=0)
        assert result.iterations == 0 and result.converged is False
        assert result.cost == result.initial_cost == pytest.approx(_scalar_total_cost(g), rel=1e-12)
        assert np.array_equal(result.state.poses.translations, g.poses.translations)
        assert np.array_equal(result.state.poses.rotations, g.poses.rotations)

    def test_zero_iterations_hand_back_every_bit(self):
        """No pose is renormalised on its way through `optimize`: 200 random
        unit poses come back with every bit, though renormalising a unit
        quaternion can change its last bit."""
        rng = np.random.default_rng(0)
        g = GraphState(PoseTable.of([random_pose(rng) for _ in range(200)]), factors=[PriorFactor(0, Pose(), np.eye(6))])
        g.factors += [RelativePoseFactor(p, p + 1, Pose(), np.eye(6)) for p in range(199)]
        got = optimize(g, 0).state.poses
        assert got.translations.tobytes() == g.poses.translations.tobytes()
        assert got.rotations.tobytes() == g.poses.rotations.tobytes()

    def test_counts_rejected_steps(self):
        # a pose started 2 rad of yaw away from where its landmarks put it:
        # near-Gauss-Newton steps overshoot the rotation and are rejected
        g = GraphState(PoseTable.of([Pose(), Pose(np.array([1.0, 0.0, 0.0]), quat_from_yaw(2.0))]))
        g.factors.append(PriorFactor(0, Pose(), 1e6 * np.eye(6)))
        g.factors.append(RelativePoseFactor(0, 1, Pose(np.array([1.0, 0.0, 0.0])), 1e-2 * np.eye(6)))
        for lid, lm in enumerate([[3.0, 1.0, 0.0], [2.0, -2.0, 0.5], [5.0, 0.0, -1.0]]):
            g.landmarks[lid] = np.array(lm)
            g.factors.append(LandmarkFactor(1, lid, np.array(lm) - [1.0, 0.0, 0.0], np.eye(3)))
        result = optimize(g, max_iters=50, lm_lambda0=1e-12)
        assert result.rejected_steps > 0
        assert result.rejected_steps == scalar_optimize(g, 50, 1e-8, 1e-12).rejected_steps
        assert result.converged and result.cost < 1e-12 < result.initial_cost

    def test_singular_solve_retries_with_more_damping(self, monkeypatch):
        """A singular Schur system is a rejected step: the damping grows
        tenfold and the same linearisation is solved again, so the run is
        the run from ten times the damping, with one more rejected step."""
        from semslam import graph

        solve = graph._Problem.solve
        lams = []

        def singular_once(self, lin, lam):
            lams.append(lam)
            if len(lams) == 1:
                raise np.linalg.LinAlgError("singular matrix")
            return solve(self, lin, lam)

        kinds = [kind for kind in PARITY_KINDS if kind != "zero_residual"]  # which may stop before a solve
        for seed in range(12):
            g, max_iters = parity_graph(np.random.default_rng(2000 + seed), kinds[seed % len(kinds)])
            want = optimize(g, max_iters, lm_lambda0=10.0 * 1e-4)
            with monkeypatch.context() as m:
                m.setattr(graph._Problem, "solve", singular_once)
                lams.clear()
                got = optimize(g, max_iters, lm_lambda0=1e-4)
            assert lams[:2] == [1e-4, 10.0 * 1e-4], seed
            assert got.rejected_steps == want.rejected_steps + 1, seed
            assert (got.iterations, got.converged) == (want.iterations, want.converged), seed
            assert (got.cost, got.initial_cost) == (want.cost, want.initial_cost), seed
            for a, b in ((got.state.poses.translations, want.state.poses.translations), (got.state.poses.rotations, want.state.poses.rotations)):
                assert a.tobytes() == b.tobytes(), seed
            assert all(got.state.landmarks[lid].tobytes() == want.state.landmarks[lid].tobytes() for lid in g.landmarks), seed

    def test_linearises_each_point_once(self, monkeypatch):
        """The start point and each trial point are linearised once, and the
        linearisation gives their cost: no separate cost pass exists."""
        from semslam import graph

        assert not hasattr(graph._Problem, "cost")
        calls = []
        linearize = graph._Problem.linearize

        def counted(self, t, q, L):
            calls.append(1)
            return linearize(self, t, q, L)

        monkeypatch.setattr(graph._Problem, "linearize", counted)
        rejected = 0
        for seed in range(40):
            rng = np.random.default_rng(1000 + seed)
            g, max_iters = parity_graph(rng, PARITY_KINDS[seed % len(PARITY_KINDS)])
            calls.clear()
            result = optimize(g, max_iters)
            assert 1 <= len(calls) <= 1 + result.iterations + result.rejected_steps, seed
            rejected += result.rejected_steps
        assert rejected > 0

    def test_matches_scalar_optimize(self):
        """The batched Schur-complement LM takes the per-factor dense LM's
        steps: same poses, landmarks, cost and decisions."""
        seen = dict.fromkeys(
            ("all_types", "robust", "non_robust", "landmark_free", "shared_landmark", "near_pi",
             "zero_residual", "rejected", "capped", "converged"),
            0,
        )
        for seed in range(120):
            rng = np.random.default_rng(1000 + seed)
            kind = PARITY_KINDS[seed % len(PARITY_KINDS)]
            g, max_iters = parity_graph(rng, kind)
            observed = {}
            for f in g.factors:
                seen["robust" if f.robust_c is not None else "non_robust"] += 1
                if isinstance(f, LandmarkFactor):
                    observed[f.landmark_id] = observed.get(f.landmark_id, 0) + 1
            seen["shared_landmark"] += any(n > 1 for n in observed.values())
            seen["landmark_free"] += not g.landmarks
            residuals = [(f, _scalar_factor_terms(f, g)[0]) for f in g.factors]
            rot = [np.linalg.norm(r[3:]) for f, r in residuals if not isinstance(f, LandmarkFactor)]
            seen["near_pi"] += any(math.pi - a < 1e-6 for a in rot)
            seen["zero_residual"] += all(np.all(r == 0.0) for _, r in residuals)
            seen["all_types"] += {type(f) for f in g.factors} == {PriorFactor, RelativePoseFactor, LandmarkFactor}

            got = optimize(g, max_iters)
            want = scalar_optimize(g, max_iters)
            assert got.iterations == want.iterations, seed
            assert got.converged == want.converged, seed
            assert got.rejected_steps == want.rejected_steps, seed
            for pid, (a, b) in enumerate(zip(poses_of(got.state.poses), poses_of(want.state.poses))):
                assert pose_approx_equal(a, b, tol=1e-9), (seed, pid)
            for lid in g.landmarks:
                assert np.allclose(got.state.landmarks[lid], want.state.landmarks[lid], rtol=0, atol=1e-9)
            # a cost below 1e-15 is rounding left at an exact fit: no digit of it agrees
            for name, floor in (("cost", 1e-15), ("initial_cost", 0.0)):
                a, b = getattr(got, name), getattr(want, name)
                assert a == b or abs(a - b) <= 1e-9 * abs(b) + floor, (seed, name, a, b)
            seen["rejected"] += got.rejected_steps > 0
            seen["capped"] += not got.converged
            seen["converged"] += got.converged
        assert all(n > 0 for n in seen.values()), seen


class TestPriorFold:
    """The pose-pose stack holds a prior as an edge from a fixed origin
    (t = 0, R = I). These are the facts that keep it bit for bit."""

    def test_origin_edge_is_the_prior(self, rng):
        """The relative terms from the origin are the prior's own: t - t_m,
        log(R_m^T R), and the Jacobian diag(I, J_r^-1) with J_r^-1(phi) =
        J_l^-1(-phi); the stack's first row gives them bit for bit."""
        from semslam.graph import _left_jacobian_inv

        for _ in range(40):
            pose_id = int(rng.integers(3))
            g = GraphState(PoseTable.of([random_pose(rng) for p in range(3)]))
            prior = PriorFactor(pose_id, random_pose(rng), np.eye(6))
            g.factors = [prior] + [RelativePoseFactor(p, p + 1, random_pose(rng), np.eye(6)) for p in range(2)]
            pose, meas = g.poses.pose(pose_id), prior.prior
            phi = log_so3(meas.rot()[None].transpose(0, 2, 1) @ pose.rot()[None])
            r = np.concatenate([pose.translation - meas.translation, phi[0]])
            J = np.zeros((6, 6))
            J[:3, :3] = np.eye(3)
            J[3:, 3:] = _left_jacobian_inv(-phi)[0]
            prob = _Problem(g)
            rs, Js = prob.edges.terms(prob.t0, quat_to_rot(prob.q0))
            assert np.array_equal(rs[0], r) and np.array_equal(Js[0, :, 6:], J)

    def test_right_jacobian_inverse_is_the_left_transposed(self, rng):
        """J_l^-1(-phi) equals J_l^-1(phi) transposed, entry for entry, so a
        relative factor needs one inverse Jacobian for both of its poses."""
        from semslam.graph import _left_jacobian_inv

        axes = rng.standard_normal((300, 3))
        axes /= np.linalg.norm(axes, axis=1)[:, None]
        for phi in (
            rng.uniform(0.0, 3.0, (300, 1)) * axes,  # random
            rng.uniform(0.0, 1e-6, (300, 1)) * axes,  # the small-angle series
            (math.pi - rng.uniform(0.0, 1e-6, (300, 1))) * axes,  # within 1e-6 of pi
        ):
            assert np.array_equal(_left_jacobian_inv(-phi), _left_jacobian_inv(phi).transpose(0, 2, 1))

    def test_linearize_evaluates_two_stacks(self, monkeypatch):
        from semslam import graph

        calls = []
        for stack in (graph._EdgeStack, graph._LandmarkStack):
            terms = stack.terms
            monkeypatch.setattr(stack, "terms", lambda self, *a, f=terms: calls.append(type(self)) or f(self, *a))
        g, _ = parity_graph(np.random.default_rng(7), "moved_prior")
        prob = graph._Problem(g)
        prob.linearize(prob.t0, prob.q0, prob.L0)
        assert calls == [graph._EdgeStack, graph._LandmarkStack]


def table(*points):
    return PoseTable.of([Pose(np.array(p, dtype=float)) for p in points])


class TestRmse:
    def test_identical_is_zero(self):
        t = table(*([i, 0, 0] for i in range(4)))
        assert rmse(t, t) == 0.0

    def test_constant_offset(self):
        a = table(*([i, 0, 0] for i in range(4)))
        b = table(*([i, 1, 0] for i in range(4)))
        assert rmse(a, b) == pytest.approx(1.0)

    def test_mixed_offsets(self):
        a, b = table([1, 0, 0], [0, 2, 0]), table([0, 0, 0], [0, 0, 0])
        assert rmse(a, b) == pytest.approx(math.sqrt(2.5), rel=1e-12)
        assert rmse(a, b) == pytest.approx(1.5811, abs=1e-4)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            rmse(table([0, 0, 0]), table([0, 0, 0], [0, 0, 0]))

    def test_empty_is_zero(self):
        assert rmse(table(), table()) == 0.0
