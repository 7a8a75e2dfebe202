"""Landmark updates (one and batched, against the closed-form Kalman
oracle) and Gaussian-mixture fusion of weighted hypotheses."""

import numpy as np
import pytest

from semslam.config import RunConfig
from semslam.core import ContractViolation
from semslam.estimation import fuse_hypotheses, spd_project, ukf_update, ukf_update_safe

from conftest import landmark, meas, random_spd, rows_of, table_of

CFG = RunConfig()


def kalman_oracle(prior_mean, prior_cov, z, meas_cov):
    """Exact linear Kalman update for the identity measurement model."""
    P = np.asarray(prior_cov)
    K = P @ np.linalg.inv(P + np.asarray(meas_cov))
    mean = prior_mean + K @ (np.asarray(z) - prior_mean)
    cov = (np.eye(3) - K) @ P
    return mean, cov


class TestUkfUpdate:
    def test_equals_kalman_spot_case(self):
        # prior N(0, I), measurement (1,0,0), meas cov I -> posterior
        # mean (0.5,0,0), cov 0.5 I
        mean, cov = ukf_update(np.zeros(3), np.eye(3), [1.0, 0.0, 0.0], np.eye(3), CFG)
        assert np.allclose(mean, [0.5, 0.0, 0.0], atol=1e-9)
        assert np.allclose(cov, 0.5 * np.eye(3), atol=1e-9)

    def test_equals_kalman_random(self, rng):
        for _ in range(30):
            P = random_spd(rng)
            R = random_spd(rng)
            mu = rng.standard_normal(3)
            z = rng.standard_normal(3)
            mean, cov = ukf_update(mu, P, z, R, CFG)
            em, ec = kalman_oracle(mu, P, z, R)
            assert np.allclose(mean, em, atol=1e-9)
            assert np.allclose(cov, ec, atol=1e-9)

    def test_confident_prior_ignores_measurement(self):
        mean, _ = ukf_update([1.0, 2.0, 3.0], 1e-12 * np.eye(3) + 1e-13 * np.eye(3), [9.0, 9.0, 9.0], np.eye(3), CFG)
        assert np.allclose(mean, [1.0, 2.0, 3.0], atol=1e-6)

    def test_information_grows_with_repeated_measurements(self):
        mean, cov = np.zeros(3), np.eye(3)
        prev = np.linalg.eigvalsh(cov)
        for _ in range(3):
            mean, cov = ukf_update(mean, cov, [0.5, 0.0, 0.0], np.eye(3), CFG)
            cur = np.linalg.eigvalsh(cov)
            assert np.all(cur < prev)
            prev = cur

    def test_zero_prior_variance_stays_zero(self):
        """A prior with a zero variance is PSD, so S = P + R is SPD and the
        update is exact: the posterior keeps that variance at 0, and the
        batch's SPD check rejects it."""
        mu, P, z = np.zeros(3), np.diag([1.0, 2.0, 0.0]), np.array([1.0, 0.0, 0.0])
        mean, cov = ukf_update(mu, P, z, np.eye(3), CFG)
        em, ec = kalman_oracle(mu, P, z, np.eye(3))
        assert np.max(np.abs(mean - em)) <= 1e-15 and np.max(np.abs(cov - ec)) <= 1e-15
        assert cov[2, 2] == 0.0 and np.all(cov[2] == 0.0)
        with pytest.raises(ContractViolation, match="not positive definite"):
            ukf_update_safe(mu[None], P[None], z[None], np.eye(3))


def safe_batch(lms, ms, meas_cov):
    """ukf_update_safe of the rows `lms` by the measurements `ms`."""
    return ukf_update_safe(
        np.reshape([lm.mean for lm in lms], (-1, 3)),
        np.reshape([lm.cov for lm in lms], (-1, 3, 3)),
        np.reshape([m.position for m in ms], (-1, 3)),
        meas_cov,
    )


class TestUkfBatch:
    """The batched ukf_update_safe against the per-landmark Kalman oracle."""

    def test_matches_scalar_oracle(self, rng):
        for size in (1, 2, 21):
            lms = [landmark(i, rng.standard_normal(3), cov=random_spd(rng)) for i in range(size)]
            ms = [meas(rng.standard_normal(3), scene_id=10 + i) for i in range(size)]
            R = random_spd(rng)
            means, covs = safe_batch(lms, ms, R)
            assert means.shape == (size, 3) and covs.shape == (size, 3, 3)
            for lm, m, got_mean, got_cov in zip(lms, ms, means, covs):
                want_mean, want_cov = kalman_oracle(lm.mean, lm.cov, m.position, R)
                assert np.max(np.abs(got_mean - want_mean)) <= 1e-12
                assert np.max(np.abs(got_cov - want_cov)) <= 1e-12

    def test_empty_and_misaligned(self):
        means, covs = ukf_update_safe(np.empty((0, 3)), np.empty((0, 3, 3)), np.empty((0, 3)), np.eye(3))
        assert means.shape == (0, 3) and covs.shape == (0, 3, 3)
        with pytest.raises(ContractViolation):
            ukf_update_safe(np.zeros((1, 3)), np.eye(3)[None], np.empty((0, 3)), np.eye(3))


class TestSpdProject:
    def test_passes_spd_through(self, rng):
        cov = random_spd(rng)
        assert np.allclose(spd_project(cov), cov)

    def test_floors_negative_eigenvalues(self):
        bad = np.diag([1.0, 1.0, -0.5])
        out = spd_project(bad)
        assert np.min(np.linalg.eigvalsh(out)) >= 1e-12 - 1e-15


class _Leaf:
    def __init__(self, landmarks):
        self.existing = table_of(landmarks)


def fuse(leaves, weights):
    """fuse_hypotheses as landmark id -> row."""
    return rows_of(fuse_hypotheses(leaves, weights))


class TestFuseHypotheses:
    def test_single_hypothesis_pass_through(self, rng):
        lm = landmark(0, rng.standard_normal(3), cov=random_spd(rng))
        fused = fuse([_Leaf([lm])], [1.0])
        assert np.allclose(fused[0].mean, lm.mean)
        assert np.allclose(fused[0].cov, lm.cov, atol=1e-9)
        assert np.array_equal(fused[0].mean, lm.mean)

    def test_two_component_spot_case(self):
        # equal weights at (+-1, 0, 0), both unit covariance:
        # mixture mean 0, covariance diag(2, 1, 1)
        a = landmark(0, [1.0, 0.0, 0.0])
        b = landmark(0, [-1.0, 0.0, 0.0])
        fused = fuse([_Leaf([a]), _Leaf([b])], [0.5, 0.5])
        assert np.allclose(fused[0].mean, np.zeros(3), atol=1e-12)
        assert np.allclose(fused[0].cov, np.diag([2.0, 1.0, 1.0]), atol=1e-9)

    def test_zero_weight_component_ignored(self):
        a = landmark(0, [1.0, 0.0, 0.0])
        b = landmark(0, [50.0, 0.0, 0.0])
        fused = fuse([_Leaf([a]), _Leaf([b])], [1.0, 0.0])
        assert np.allclose(fused[0].mean, [1.0, 0.0, 0.0])

    def test_landmark_missing_from_some_leaves_renormalizes(self):
        a = landmark(0, [1.0, 0.0, 0.0])
        fused = fuse([_Leaf([a]), _Leaf([])], [0.6, 0.4])
        # the one carrying leaf has weight 0.6 / 0.6 = 1, so the landmark passes through
        assert np.array_equal(fused[0].mean, a.mean)
        assert np.allclose(fused[0].cov, a.cov, atol=1e-12)

    def test_order_invariance(self, rng):
        lms = [landmark(i, rng.standard_normal(3), cov=random_spd(rng)) for i in range(3)]
        alt = [landmark(i, rng.standard_normal(3), cov=random_spd(rng)) for i in range(3)]
        w = [0.7, 0.3]
        f1 = fuse([_Leaf(lms), _Leaf(alt)], w)
        f2 = fuse([_Leaf(alt), _Leaf(lms)], list(reversed(w)))
        for lid in f1:
            assert np.allclose(f1[lid].mean, f2[lid].mean, atol=1e-12)
            assert np.allclose(f1[lid].cov, f2[lid].cov, atol=1e-12)

    def test_output_covariance_spd(self, rng):
        leaves = [
            _Leaf([landmark(0, rng.uniform(-5, 5, 3), cov=random_spd(rng, 0.1))]) for _ in range(4)
        ]
        w = np.asarray(np.random.default_rng(1).dirichlet(np.ones(4)))
        fused = fuse(leaves, list(w))
        assert np.min(np.linalg.eigvalsh(fused[0].cov)) > 0

    def test_unnormalized_weights_rejected(self):
        with pytest.raises(ContractViolation):
            fuse_hypotheses([_Leaf([])], [0.5])

    def test_assign_count_and_last_seen_aggregate(self):
        a = landmark(0, [0.0, 0.0, 0.0], assign_count=2, last_scene=9)
        b = landmark(0, [0.0, 0.0, 0.0], assign_count=5, last_scene=4)
        fused = fuse([_Leaf([a]), _Leaf([b])], [0.5, 0.5])
        assert fused[0].assign_count == 5
        assert fused[0].last_scene == 9
