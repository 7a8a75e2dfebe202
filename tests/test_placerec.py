"""Loop-closure detection: JSD, two-stage retrieval, Laplacian NCC, scene
similarity, RANSAC, and the end-to-end detector."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semslam import kernels, placerec
from semslam.config import RunConfig
from semslam.core import ContractViolation, MeasurementTable
from semslam.geometry import Pose, quat_from_yaw, rot_to_quat
from semslam.placerec import (
    LoopClosureDetector,
    consensus_possible,
    jsd,
    ncc_score,
    pair_scores,
    query_candidates,
    ransac_verify,
    rigid_transform_svd,
    scene_laplacian,
    scene_histogram,
    scene_match,
    score_bound,
    similar_submaps,
    verify_pair,
)

from conftest import (
    pose_approx_equal,
    scalar_consensus_possible,
    scalar_detect,
    scalar_exp_so3,
    scalar_ransac_best_mask,
    scalar_ransac_verify,
    scalar_scene_match,
)


def scene(scene_id, positions, class_ids):
    """A body-frame scene table; its times are all 0."""
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    return MeasurementTable.build(scene_id, np.zeros(len(class_ids)), positions, class_ids)


def hist(s, dim=4):
    return scene_histogram(s.labels, dim)


def detect(det, q):
    """det.detect for a query whose submap histogram is its own histogram."""
    return det.detect(similar_submaps(det, hist(q)), q)


class TestJsd:
    def test_identical_is_zero(self):
        h = np.array([0.25, 0.25, 0.5])
        assert jsd(h, h) == 0.0

    def test_disjoint_supports_hit_ln2(self):
        assert jsd(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(math.log(2), rel=1e-12)

    def test_spot_value(self):
        assert jsd(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == pytest.approx(0.2158, abs=1e-4)

    def test_symmetry_and_bounds(self, rng):
        for _ in range(20):
            h1 = rng.dirichlet(np.ones(5))
            h2 = rng.dirichlet(np.ones(5))
            d = jsd(h1, h2)
            assert d == pytest.approx(jsd(h2, h1), abs=1e-12)
            assert -1e-12 <= d <= math.log(2) + 1e-12

    def test_unnormalized_rejected(self):
        with pytest.raises(ContractViolation):
            jsd(np.array([0.5, 0.2]), np.array([0.5, 0.5]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            jsd(np.array([1.0]), np.array([0.5, 0.5]))

    def test_smallest_subnormal_against_zero_is_finite(self):
        # the mixture entry 0.5 * (5e-324 + 0) underflows to 0
        d = jsd(np.array([5e-324, 1.0]), np.array([0.0, 1.0]))
        assert math.isfinite(d) and 0.0 <= d <= 1e-300

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(2, 8).flatmap(
            lambda n: st.tuples(*[st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).filter(any)] * 2)
        ),
        st.floats(0.0, math.log(2.0), exclude_min=True),
    )
    def test_within_tau_implies_l2_radius(self, weights, tau):
        # Pinsker on each half: JSD >= ||p - q||_1^2 / 8 >= ||p - q||_2^2 / 8,
        # so an L2 radius of sqrt(8 tau) can drop no submap the JSD test keeps.
        # 1e-14 covers jsd's rounding near 0, where it can come out below 0
        p, q = (np.array(w) / sum(w) for w in weights)
        if jsd(p, q) <= tau:
            assert np.linalg.norm(p - q) ** 2 <= 8.0 * tau + 1e-14


class TestQueryCandidates:
    def test_wrong_dimension_rejected(self):
        with pytest.raises(ContractViolation):
            detector().add_submap(0, np.full(3, 1.0 / 3.0), [])

    def test_empty_index(self):
        det = detector(tau_jsd=0.2, r_l2=0.6, exclusion_window=10)
        q = scene(100, [[0, 0, 0]], [0])
        assert query_candidates(det, similar_submaps(det, hist(q)), q) == []

    def test_exact_copy_found(self):
        det = detector(tau_jsd=0.2, r_l2=0.6, exclusion_window=10)
        s = scene(5, [[0, 0, 0], [1, 0, 0]], [0, 1])
        det.add_submap(0, hist(s), [s])
        q = scene(100, [[0, 0, 0], [1, 0, 0]], [0, 1])
        found = query_candidates(det, similar_submaps(det, hist(q)), q)
        assert found == [s]

    def test_exclusion_window_drops_self(self):
        s = scene(95, [[0, 0, 0]], [0])
        q = scene(100, [[0, 0, 0]], [0])
        for window, expect in ((10, []), (4, [95])):
            det = detector(tau_jsd=0.2, r_l2=0.6, exclusion_window=window)
            det.add_submap(0, hist(s), [s])
            submaps = similar_submaps(det, hist(q))
            assert submaps == [0]
            assert [c.scene_id for c in query_candidates(det, submaps, q)] == expect

    def test_matches_brute_force(self, rng):
        """The candidates are the scenes within both radii, ranked by
        histogram distance, ties by scene id."""
        dim, tau_jsd, r_l2 = 5, 0.15, 0.5
        det = detector(n_classes=dim, tau_jsd=tau_jsd, r_l2=r_l2, exclusion_window=10)

        def random_scene(sid):
            labels = rng.integers(0, dim, int(rng.integers(1, 9)))
            return scene(sid, np.zeros((len(labels), 3)), labels)

        scenes = [random_scene(sid) for sid in range(200)]
        for s in scenes:
            det.add_submap(s.scene_id, hist(s, dim), [s])
        ranked = 0
        for _ in range(10):
            q = random_scene(1000)
            qh = hist(q, dim)
            got = [c.scene_id for c in query_candidates(det, similar_submaps(det, qh), q)]
            dist = {s.scene_id: float(np.linalg.norm(qh - hist(s, dim))) for s in scenes}
            expect = sorted(
                (s.scene_id for s in scenes if jsd(qh, hist(s, dim)) <= tau_jsd and dist[s.scene_id] <= r_l2),
                key=lambda sid: (dist[sid], sid),
            )
            assert got == expect
            ranked += len(set(dist[sid] for sid in got)) > 1
        assert ranked


class TestSceneLaplacian:
    def test_single_landmark(self):
        L = scene_laplacian(scene(0, [[0, 0, 0]], [0]), 5.0)
        assert L.shape == (1, 1) and L[0, 0] == 0.0

    def test_two_close_landmarks(self):
        L = scene_laplacian(scene(0, [[0, 0, 0], [1, 0, 0]], [0, 0]), 5.0)
        assert np.allclose(L, [[1.0, -1.0], [-1.0, 1.0]])

    def test_row_sums_zero(self, rng):
        s = scene(0, rng.uniform(-5, 5, (8, 3)), rng.integers(0, 3, 8).tolist())
        L = scene_laplacian(s, 4.0)
        assert np.allclose(L.sum(axis=1), 0.0)
        assert np.allclose(L, L.T)

    def test_node_order_is_class_then_centroid_distance(self):
        # reordering input landmarks must not change the matrix
        pos = [[0, 0, 0], [3, 0, 0], [0, 2, 0]]
        cls = [1, 0, 1]
        L1 = scene_laplacian(scene(0, pos, cls), 10.0)
        perm = [2, 0, 1]
        L2 = scene_laplacian(scene(0, [pos[i] for i in perm], [cls[i] for i in perm]), 10.0)
        assert np.allclose(L1, L2)

    def test_empty_scene_rejected(self):
        with pytest.raises(ContractViolation):
            scene_laplacian(scene(0, np.zeros((0, 3)), []), 1.0)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 3), st.floats(0.5, 3.0), st.integers(0, 2**32 - 1))
    def test_node_order_breaks_ties_by_row(self, n, n_classes, radius, seed):
        # grid points share classes and centroid distances; the rows are
        # ordered by sorting (class, distance, row), one row at a time
        pos, cls = _grid_scene(np.random.default_rng(seed), n, n_classes)
        want = _laplacian_in_order(pos, radius, _node_order(pos, cls, lambda i: i))
        assert np.array_equal(scene_laplacian(scene(0, pos, cls.tolist()), radius), want)

    def test_tie_order_changes_the_matrix(self):
        # the property above is not vacuous: on some grid scenes, ordering
        # tied rows last row first gives another matrix
        changed = 0
        for seed in range(40):
            pos, cls = _grid_scene(np.random.default_rng(seed), 8, 2)
            by_row, by_reversed_row = (
                _laplacian_in_order(pos, 1.5, _node_order(pos, cls, key)) for key in (lambda i: i, lambda i: -i)
            )
            changed += not np.array_equal(by_row, by_reversed_row)
        assert changed


def _grid_scene(rng, n, n_classes):
    return rng.integers(-1, 2, (n, 3)).astype(float), rng.integers(0, n_classes, n)


def _node_order(pos, cls, tie):
    centroid = pos.mean(axis=0)
    return sorted(range(len(pos)), key=lambda i: (int(cls[i]), float(np.linalg.norm(pos[i] - centroid)), tie(i)))


def _laplacian_in_order(pos, radius, order):
    adj = np.array([[float(i != j and np.linalg.norm(pos[i] - pos[j]) <= radius) for j in order] for i in order])
    return np.diag(adj.sum(axis=1)) - adj


class TestNccScore:
    def test_identical_nonconstant(self):
        L = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert ncc_score(L, L) == 1.0

    def test_negated(self):
        L = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert ncc_score(L, -L) == -1.0

    def test_affine_invariance(self, rng):
        L = rng.standard_normal((4, 4))
        assert ncc_score(3.0 * L + 7.0, L) == pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_formula(self, rng):
        A = rng.standard_normal((4, 4))
        B = rng.standard_normal((4, 4))
        a = A.ravel() - A.mean()
        b = B.ravel() - B.mean()
        expect = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
        assert ncc_score(A, B) == pytest.approx(expect, abs=1e-12)

    def test_zero_padding_of_smaller_matrix(self):
        A = np.array([[1.0, -1.0], [-1.0, 1.0]])
        B3 = np.zeros((3, 3))
        B3[:2, :2] = A
        assert ncc_score(A, B3) == pytest.approx(ncc_score(B3, B3), abs=1e-9)

    def test_both_constant_equal(self):
        assert ncc_score(np.zeros((2, 2)), np.zeros((3, 3))) == 1.0

    def test_one_constant(self):
        assert ncc_score(np.zeros((2, 2)), np.array([[1.0, -1.0], [-1.0, 1.0]])) == 0.0


class TestSceneMatch:
    def test_perfect_overlap_same_classes(self):
        pos = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
        a = scene(0, pos, [0, 1, 2])
        b = scene(1, pos, [0, 1, 2])
        # each same-class pair at distance 0 adds exactly 1
        assert scene_match(a, b) == 3.0

    def test_cross_class_pair_at_zero_distance(self):
        a = scene(0, [[0, 0, 0]], [0])
        b = scene(1, [[0, 0, 0]], [1])
        # a cross-class pair at distance 0 adds exactly 1 - p
        assert scene_match(a, b, penalty_p=0.5) == 0.5

    def test_distant_pair_contributes_one(self):
        # normalized distance capped at 2 makes s_match 0 regardless of class
        a = scene(0, [[0, 0, 0]], [0])
        b = scene(1, [[100, 0, 0]], [1])
        assert scene_match(a, b, penalty_p=0.5, dist_norm_scale=5.0) == pytest.approx(1.0)

    def test_symmetry(self, rng):
        pa = rng.uniform(-3, 3, (4, 3))
        pb = rng.uniform(-3, 3, (4, 3))
        cls = [0, 1, 2, 0]
        a = scene(0, pa, cls)
        b = scene(1, pb, cls)
        assert scene_match(a, b) == pytest.approx(scene_match(b, a), abs=1e-9)

    def test_prefers_same_class_matching(self):
        # two classes arranged so the class-blind nearest pairing is crossed:
        # crossed, the pairs would add 1 - 0.99 * 0.5 each; matched by class,
        # they add exactly 1 each
        a = scene(0, [[0, 0, 0], [1, 0, 0]], [0, 1])
        b = scene(1, [[0.9, 0, 0], [0.1, 0, 0]], [0, 1])
        assert scene_match(a, b) == 2.0

    def test_distance_weighted_mode(self):
        a = scene(0, [[0, 0, 0]], [0])
        b = scene(1, [[0, 0, 0]], [0])
        # same class at distance 0: term 1 - (1-1)(1-0) = 1
        assert scene_match(a, b, term_mode="distance_weighted") == pytest.approx(1.0)
        c = scene(2, [[10.0, 0, 0]], [0])
        # same class at capped distance: s_match 0 -> term 1 - 1*1 = 0
        assert scene_match(a, c, term_mode="distance_weighted") == pytest.approx(0.0)

    def test_empty_scene_rejected(self):
        a = scene(0, [[0, 0, 0]], [0])
        with pytest.raises(ContractViolation):
            scene_match(a, scene(1, np.zeros((0, 3)), []))

    def test_matches_scalar_oracle(self, rng):
        """The score equals the pair-by-pair loop bit for bit, for either
        side the larger, both term modes and any penalty; the loop takes its
        distances by a sum over the difference vectors."""
        for _ in range(60):
            na, nb = rng.integers(1, 9, size=2)
            a = scene(0, rng.uniform(-8, 8, (na, 3)), rng.integers(0, 3, na))
            b = scene(1, rng.uniform(-8, 8, (nb, 3)), rng.integers(0, 3, nb))
            p = float(rng.uniform(-2, 3))
            for mode in ("as_printed", "distance_weighted"):
                assert scene_match(a, b, p, 5.0, mode) == scalar_scene_match(a, b, p, 5.0, mode)


class TestRansacVerify:
    def test_exact_transform_recovered(self, rng):
        src = rng.uniform(-5, 5, (10, 3))
        R = scalar_exp_so3(np.array([0.2, -0.1, 0.4]))
        t = np.array([3.0, -1.0, 0.5])
        dst = src @ R.T + t
        pose, mask = ransac_verify(src, dst, np.random.default_rng(0), 200, 0.5, 4)
        assert mask.all()
        assert np.allclose(pose.rot(), R, atol=1e-9)
        assert np.allclose(pose.translation, t, atol=1e-9)

    def test_half_outliers_rejected_from_consensus(self, rng):
        src = rng.uniform(-5, 5, (12, 3))
        R = scalar_exp_so3(np.array([0.0, 0.0, 0.5]))
        t = np.array([1.0, 2.0, 0.0])
        dst = src @ R.T + t
        dst[6:] += rng.uniform(10.0, 20.0, (6, 3)) * np.sign(rng.standard_normal((6, 3)))
        pose, mask = ransac_verify(src, dst, np.random.default_rng(1), 200, 0.5, 4)
        assert mask[:6].all() and not mask[6:].any()
        assert np.allclose(pose.rot(), R, atol=1e-6)

    def test_two_pairs_rejected(self):
        assert ransac_verify(np.zeros((2, 3)), np.zeros((2, 3)), np.random.default_rng(0), 200, 0.5, 4) is None

    def test_min_inliers_enforced(self, rng):
        src = rng.uniform(-5, 5, (5, 3))
        dst = src.copy()
        assert ransac_verify(src, dst, np.random.default_rng(0), 100, 0.5, min_inliers=6) is None

    def test_deterministic_under_seed(self, rng):
        src = rng.uniform(-5, 5, (10, 3))
        dst = src + np.array([1.0, 0.0, 0.0])
        dst[7:] += 25.0
        a = ransac_verify(src, dst, np.random.default_rng(7), 100, 0.5, 4)
        b = ransac_verify(src, dst, np.random.default_rng(7), 100, 0.5, 4)
        assert a[1].tolist() == b[1].tolist()
        assert pose_approx_equal(a[0], b[0])

    def test_rigid_transform_svd_is_least_squares(self, rng):
        src = rng.uniform(-2, 2, (6, 3))
        R_true = scalar_exp_so3(np.array([0.3, 0.2, -0.1]))
        t_true = np.array([0.5, -0.2, 1.0])
        dst = src @ R_true.T + t_true
        R, t = rigid_transform_svd(src, dst)
        assert np.allclose(R, R_true, atol=1e-9)
        assert np.allclose(t, t_true, atol=1e-9)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-9)


SCREEN_KINDS = ("planted", "scaled", "shared", "collinear", "unrelated")


def _screen_problem(rng, kind, n, tol):
    """Putative pairs (src, dst, k) for the consensus screen: the first k >= 3
    pairs follow a rigid motion as the kind says, the rest are outliers."""
    R, t = scalar_exp_so3(rng.normal(size=3)), rng.uniform(-10.0, 10.0, 3)
    src = rng.uniform(-8.0, 8.0, (n, 3))
    dst = rng.uniform(-8.0, 8.0, (n, 3)) + t
    k = int(rng.integers(3, n + 1))
    if kind == "planted":  # residuals just under tol; for k >= 5 on the last two only, pointing apart
        e = rng.normal(size=(k, 3))
        if k >= 5:
            e[: k - 2] = 0.0
            e[k - 2] = src[k - 2] - src[k - 1]
            e[k - 1] = -e[k - 2]
        norm = np.linalg.norm(e, axis=1, keepdims=True)
        e = np.divide(e * (tol * (1.0 - 1e-9)), norm, out=np.zeros_like(e), where=norm > 0.0)
        dst[:k] = (src[:k] + e) @ R.T + t
    elif kind == "scaled":  # the longest inlier distance grows by 2 tol, one ulp up or down
        span = max(np.linalg.norm(a - b) for a in src[:k] for b in src[:k])
        gap = np.nextafter(2.0 * tol, np.inf if rng.random() < 0.5 else -np.inf)
        dst[:k] = (1.0 + gap / span) * src[:k] @ R.T + t
    elif kind == "shared":  # detect's putatives: every same-class pairing of two scenes
        cand = rng.uniform(-8.0, 8.0, (n, 3))
        query = cand @ R.T + t + rng.uniform(-0.3 * tol, 0.3 * tol, (n, 3))
        query[k:] = rng.uniform(-8.0, 8.0, (n - k, 3))
        ccls, qcls = rng.integers(0, 3, n), rng.integers(0, 3, n)
        qcls[:k] = ccls[:k]
        ia, ib = np.nonzero(qcls[:, None] == ccls[None, :])
        src, dst = cand[ib], query[ia]
    elif kind == "collinear":  # all but one inlier on a line
        src[: k - 1] = src[0] + np.outer(rng.uniform(-2.0, 2.0, k - 1), rng.normal(size=3))
        dst[:k] = src[:k] @ R.T + t
    return src, dst, k


def _truss_problem(rng, n, tol):
    """n putative pairs under one rigid motion: each is moved off it by a
    residual of 0, 0.5, 1 (planted) or 3 (perturbed) times tol."""
    R, t = scalar_exp_so3(rng.normal(size=3)), rng.uniform(-10.0, 10.0, 3)
    src = rng.uniform(-4.0, 4.0, (n, 3))
    e = rng.normal(size=(n, 3))
    e *= tol * rng.choice([0.0, 0.5, 1.0, 3.0], n)[:, None] / np.linalg.norm(e, axis=1, keepdims=True)
    return src, (src + e) @ R.T + t


class TestConsensusScreen:
    def _check(self, src, dst, iters, tol, min_inliers, seed):
        """The screen admits every input whose unscreened scan reaches
        max(min_inliers, 3) inliers (returned), and ransac_verify returns what
        the unscreened verifier returns and leaves the rng where it does."""
        m = max(min_inliers, 3)
        picks = np.argsort(np.random.default_rng(seed).random((iters, src.shape[0])), axis=1)[:, :3]
        reached = scalar_ransac_best_mask(src, dst, picks, tol)[1] >= m
        assert consensus_possible(src, dst, m, tol) is not None or not reached
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = scalar_ransac_verify(src, dst, ref_rng, iters, tol, min_inliers)
        got = ransac_verify(src, dst, rng, iters, tol, min_inliers)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert (got is None) == (want is None)
        if want is not None:
            assert np.array_equal(got[1], want[1])
            assert np.array_equal(got[0].translation, want[0].translation)
            assert np.array_equal(got[0].rotation, want[0].rotation)
        return reached

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(SCREEN_KINDS),
        st.integers(3, 14),
        st.integers(1, 8),
        st.sampled_from([0.05, 0.5, 2.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_screen_admits_every_accepted_scan(self, kind, n, min_inliers, tol, seed):
        src, dst, _ = _screen_problem(np.random.default_rng(seed), kind, n, tol)
        self._check(src, dst, 40, tol, min_inliers, seed)

    def test_every_kind_reaches_m_inliers(self):
        # the property above is not vacuous: each planted kind, and n = 3, has
        # scans that reach m inliers, and the screen rejects other inputs.
        # "planted" asks for all k pairs, the two with opposed residuals too
        reached = dict.fromkeys(SCREEN_KINDS, 0)
        reached_at_3 = screened = 0
        for seed in range(80):
            kind = SCREEN_KINDS[seed % len(SCREEN_KINDS)]
            src, dst, k = _screen_problem(np.random.default_rng(seed), kind, 3 if seed % 2 else 10, 0.5)
            min_inliers = k if kind == "planted" else 3
            if self._check(src, dst, 40, 0.5, min_inliers, seed):
                reached[kind] += 1
                reached_at_3 += len(src) == 3
            screened += consensus_possible(src, dst, max(min_inliers, 3), 0.5) is None
        assert all(reached[kind] for kind in SCREEN_KINDS[:-1]) and reached_at_3, reached
        assert screened

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 24), st.integers(0, 8), st.floats(0.1, 2.0), st.integers(0, 2**32 - 1))
    def test_screen_equals_the_scalar_peel(self, n, m, tol, seed):
        """The screen keeps the m-truss: what is left after peeling links one
        at a time, in any order."""
        src, dst = _truss_problem(np.random.default_rng(seed), n, tol)
        got = consensus_possible(src, dst, m, tol)
        for order in (seed, seed + 1):
            want = scalar_consensus_possible(src, dst, m, tol, order)
            assert (got is None) == (want is None)
            assert want is None or np.array_equal(got, want)

    def test_truss_problems_keep_none_some_and_all(self):
        # the property above is not vacuous: at m >= 3, seeded problems leave
        # no pair, some of the linked pairs and every linked pair
        seen = set()
        for seed in range(60):
            rng = np.random.default_rng(seed)
            n, m, tol = int(rng.integers(4, 25)), int(rng.integers(3, 9)), float(rng.uniform(0.1, 2.0))
            src, dst = _truss_problem(rng, n, tol)
            core, linked = consensus_possible(src, dst, m, tol), consensus_possible(src, dst, 2, tol)
            seen.add("none" if core is None else "all" if np.array_equal(core, linked) else "some")
        assert seen == {"none", "some", "all"}

    @pytest.mark.parametrize("tol", [0.0, 0.05, 0.5])
    def test_compatible_up_to_twice_tol_plus_margin(self, tol):
        # four pairs on a stretched tetrahedron; only the 0-1 distance differs,
        # by 2 tol one ulp up or down (admitted), or by 2 tol + 1e-6 (not)
        src = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [0.0, 3.0, 0.0], [1.0, 1.0, 3.0]])
        up, down = np.nextafter(2.0 * tol, np.inf), np.nextafter(2.0 * tol, -np.inf)
        for gap, ok in ((up, True), (down, True), (2.0 * tol + 1e-6, False)):
            dst = src.copy()
            dst[1, 0] += gap
            assert (consensus_possible(src, dst, 4, tol) is not None) is ok
            assert consensus_possible(src, dst, 3, tol) is not None
        # no pairs: the margin is 1e-9 and no link is left
        assert consensus_possible(np.zeros((0, 3)), np.zeros((0, 3)), 3, tol) is None

    def test_shared_points_need_their_partners_within_twice_tol(self):
        # pairs 0 and 1 share a src point, so they are compatible iff their
        # dst points lie within 2 tol; with them, the three pairs form a clique
        src = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [4.0, 0.0, 0.0]])
        for spread, ok in ((0.99, True), (1.01, False)):
            dst = np.array([[0.0, 0.0, 0.0], [0.0, spread, 0.0], [4.0, 0.0, 0.0]])
            assert (consensus_possible(src, dst, 3, 0.5) is not None) is ok

    def test_screened_call_draws_like_a_full_scan(self, monkeypatch):
        scans = []
        scan = kernels.ransac_best_mask
        monkeypatch.setattr(kernels, "ransac_best_mask", lambda *args: scans.append(1) or scan(*args))
        src, dst, _ = _screen_problem(np.random.default_rng(3), "unrelated", 12, 0.5)
        assert consensus_possible(src, dst, 6, 0.5) is None
        full, screened = np.random.default_rng(9), np.random.default_rng(9)
        assert scalar_ransac_verify(src, dst, full, 100, 0.5, 6) is None
        assert ransac_verify(src, dst, screened, 100, 0.5, 6) is None
        assert scans == []
        assert screened.bit_generator.state == full.bit_generator.state
        assert ransac_verify(src, src, screened, 100, 0.5, 6) is not None
        assert scans == [1]

    @pytest.mark.parametrize(
        "iters, n, kind",
        [(1, 3, "planted"), (40, 5, "unrelated"), (100, 12, "unrelated"), (100, 52, "planted"), (7, 31, "unrelated")],
    )
    def test_screened_call_advances_without_drawing(self, iters, n, kind):
        """A call that the screen rejects draws nothing: it advances the
        generator past the iters x n uniforms of a scan, to the state that
        drawing them leaves."""

        class NoDraws:
            def __init__(self, rng):
                self.bit_generator = rng.bit_generator

            def random(self, *args):
                raise AssertionError("a screened call drew uniforms")

        src, dst, _ = _screen_problem(np.random.default_rng(n), kind, n, 0.5)
        min_inliers = n + 1 if kind == "planted" else 6  # more inliers than pairs, or an unrelated scene
        assert consensus_possible(src, dst, max(min_inliers, 3), 0.5) is None
        drawn, screened = np.random.default_rng(n), np.random.default_rng(n)
        drawn.random((iters, n))
        assert ransac_verify(src, dst, NoDraws(screened), iters, 0.5, min_inliers) is None
        assert screened.bit_generator.state == drawn.bit_generator.state
        assert screened.random() == drawn.random()


def _k33(tol):
    """Six pairs whose compatibility graph at tol is K3,3: pairs 0-2 on a
    triangle that shrinks from side 10 to side 2, pairs 3-5 on its axis,
    moved so that every distance across the two sides keeps its length."""
    ring = np.array([[np.cos(a), np.sin(a), 0.0] for a in (0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0)])
    r, r2 = 10.0 / np.sqrt(3.0), 2.0 / np.sqrt(3.0)
    z = np.array([-10.0, 0.0, 10.0])
    z2 = np.sign(z + 0.5) * np.sqrt(r * r + z * z - r2 * r2)
    src = np.vstack([r * ring, np.outer(z, [0.0, 0.0, 1.0])])
    dst = np.vstack([r2 * ring, np.outer(z2, [0.0, 0.0, 1.0])])
    return src, dst


class TestSampleBound:
    """The truss and the per-sample centroid bound: every sample whose
    fit has m inliers is fit, and ransac_verify returns the unscreened
    scan's result."""

    def test_k33_has_no_triangle_so_no_3_truss(self):
        src, dst = _k33(0.5)
        gap = np.abs(placerec._distances(src, src) - placerec._distances(dst, dst))
        side = np.arange(6) < 3
        cross = side[:, None] != side[None, :]
        assert (gap[cross] < 1e-9).all() and (gap[~cross & ~np.eye(6, dtype=bool)] > 1.0).all()
        # each pair has 3 = m - 1 compatible neighbours, but no link lies on a triangle
        assert consensus_possible(src, dst, 4, 0.5) is None
        assert consensus_possible(src, dst, 3, 0.5) is None
        assert consensus_possible(src, dst, 2, 0.5).all()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(4, 20), st.sampled_from([0.05, 0.5, 2.0]), st.integers(0, 2**32 - 1))
    def test_planted_clique_survives(self, n, tol, seed):
        src, dst, k = _screen_problem(np.random.default_rng(seed), "planted", n, tol)
        core = consensus_possible(src, dst, k, tol)
        assert core is not None and core[:k].all()

    def test_bound_admits_every_sample_that_reaches_m(self):
        """For each sample whose fit has count >= m inliers, the core and the
        sample's bound hold at least count pairs; other samples are ruled out."""
        reached = skipped = 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            kind = ("planted", "shared", "collinear")[seed % 3]
            src, dst, k = _screen_problem(rng, kind, int(rng.integers(6, 14)), 0.5)
            m = max(3, min(k, int(rng.integers(3, 8))))
            picks = np.argsort(rng.random((40, len(src))), axis=1)[:, :3]
            counts = np.array([scalar_ransac_best_mask(src, dst, picks[i : i + 1], 0.5)[1] for i in range(40)])
            core = consensus_possible(src, dst, m, 0.5)
            if core is None:
                assert (counts < m).all()
                continue
            bound = placerec._sample_bound(src, dst, picks, core, 0.5)
            assert (bound[counts >= m] >= counts[counts >= m]).all()
            assert int(core.sum()) >= counts.max()
            reached += int((counts >= m).sum())
            skipped += int((bound < m).sum())
        assert reached and skipped, (reached, skipped)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["planted", "shared"]),
        st.integers(3, 12),
        st.integers(3, 12),
        st.integers(20, 150),
        st.sampled_from([0.2, 0.5, 1.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_verify_matches_full_scan(self, kind, n, min_inliers, iters, tol, seed):
        """ransac_verify returns the unscreened verifier's result, bit for
        bit, and leaves the generator in its state."""
        src, dst, _ = _screen_problem(np.random.default_rng(seed), kind, n, tol)
        TestConsensusScreen()._check(src, dst, iters, tol, min_inliers, seed)

    def test_both_regimes_accept(self):
        # the property above is not vacuous: seeded scenes accept both where
        # the bound drops samples and where it keeps every one
        accepted = {True: 0, False: 0}
        for seed in range(40):
            rng = np.random.default_rng(seed)
            kind, n = ("planted", "shared")[seed % 2], int(rng.integers(5, 12))
            src, dst, k = _screen_problem(rng, kind, n, 0.5)
            m = min(k, 6)
            if TestConsensusScreen()._check(src, dst, 150, 0.5, m, seed):
                picks = np.argsort(np.random.default_rng(seed).random((150, len(src))), axis=1)[:, :3]
                bound = placerec._sample_bound(src, dst, picks, consensus_possible(src, dst, m, 0.5), 0.5)
                accepted[bool((bound >= m).all())] += 1
        assert all(accepted.values()), accepted

    def test_non_finite_putatives_rejected(self):
        src = np.random.default_rng(0).uniform(-5.0, 5.0, (8, 3))
        dst = src.copy()
        dst[5, 1] = np.nan
        src[2, 0] = np.inf
        with pytest.raises(ContractViolation, match=r"putative pairs \[2, 5\] have a non-finite position"):
            ransac_verify(src, dst, np.random.default_rng(0), 100, 0.5, 4)


def verify_cfg(**overrides) -> RunConfig:
    """The verification settings these tests use: the config's, at edge_radius 5."""
    return RunConfig(**{"edge_radius": 5.0, **overrides})


class TestVerifyPair:
    def test_identical_scenes_pass(self):
        pos = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [2, 1, 0], [1, 2, 0]]
        a = scene(0, pos, [0, 1, 2, 3, 0])
        b = scene(50, pos, [0, 1, 2, 3, 0])
        assert verify_pair(a, b, verify_cfg(tau_verify=4.0)) is True
        assert pair_scores(a, b, verify_cfg()) == pytest.approx((1.0, 5.0))

    def test_infinite_threshold_always_fails(self):
        a = scene(0, [[0, 0, 0]], [0])
        assert verify_pair(a, a, verify_cfg(tau_verify=np.inf)) is False

    def test_empty_scene_fails_quietly(self):
        a = scene(0, [[0, 0, 0]], [0])
        empty = scene(1, np.zeros((0, 3)), [])
        assert verify_pair(a, empty, verify_cfg()) is False
        assert verify_pair(empty, a, verify_cfg(tau_verify=-np.inf)) is False

    def test_bound_passes_large_scenes_unscored(self, monkeypatch):
        # as_printed, p = 0.5: every pair scores at least 0.5, so 11 pairs
        # give at least -1 + 5.5 > 4 whatever the geometry
        rng = np.random.default_rng(3)
        a = scene(0, rng.uniform(-9, 9, (11, 3)), [0] * 11)
        b = scene(1, rng.uniform(-9, 9, (12, 3)), [1] * 12)
        a10 = scene(0, a.positions[:10], [0] * 10)
        cfg = verify_cfg()
        assert score_bound(11, cfg) == 4.5
        s_ncc, s_scene = pair_scores(a, b, cfg)
        assert s_ncc + s_scene > cfg.tau_verify
        scored = []
        monkeypatch.setattr(placerec, "pair_scores", lambda *args: scored.append(args) or pair_scores(*args))
        assert verify_pair(a, b, cfg) is True and scored == []
        # 10 pairs cannot be decided by the bound: they are scored
        s_ncc, s_scene = pair_scores(a10, b, cfg)
        assert verify_pair(a10, b, cfg) == (s_ncc + s_scene > 4.0) and len(scored) == 1

    def test_bound_sums_like_the_score(self):
        # the floor is added pair by pair, as scene_match adds its terms, so
        # rounding cannot lift the bound above a score made of floor terms
        cases = (
            (0.9, "as_printed", 1.0 - 0.9),
            (0.3, "distance_weighted", 0.0),
            (-0.7, "distance_weighted", 1.0 - (1.0 - -0.7)),
        )
        for p, mode, floor in cases:
            assert score_bound(0, verify_cfg(penalty_p=p, scene_term_mode=mode)) == -1.0
            total = 0.0
            for n in range(1, 40):
                total += floor
                assert score_bound(n, verify_cfg(penalty_p=p, scene_term_mode=mode)) == -1.0 + total

    @given(
        na=st.integers(0, 13),
        nb=st.integers(0, 13),
        data=st.data(),
        p=st.floats(allow_nan=False, allow_infinity=False),
        mode=st.sampled_from(["as_printed", "distance_weighted"]),
        tau=st.one_of(
            st.floats(-3.0, 14.0),
            st.sampled_from([math.inf, -math.inf, -1.0, 0.0]),
            st.floats(allow_nan=False),
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_bound_is_sound(self, na, nb, data, p, mode, tau):
        """Whenever the bound passes a pair, the exact score passes it too,
        and no exact score falls below the bound."""
        coord = st.one_of(st.floats(-12.0, 12.0), st.floats(allow_nan=False, allow_infinity=False))

        def draw_scene(sid, n):
            pos = np.array(data.draw(st.lists(st.tuples(coord, coord, coord), min_size=n, max_size=n)), dtype=float)
            cls = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
            return scene(sid, pos, cls)

        a, b = draw_scene(0, na), draw_scene(1, nb)
        cfg = verify_cfg(tau_verify=tau, penalty_p=p, scene_term_mode=mode)
        with np.errstate(over="ignore", invalid="ignore"):  # huge coordinates and penalties overflow to inf
            ok = verify_pair(a, b, cfg)
            if na == 0 or nb == 0:
                assert ok is False
                return
            exact = sum(pair_scores(a, b, cfg))
            bound = score_bound(min(na, nb), cfg)
        assert bound <= exact
        assert ok == (exact > tau)


DETECTOR = dict(n_classes=4, r_l2=0.5, edge_radius=5.0, ransac_iters=200, ransac_min_inliers=4)


def detector(**overrides) -> LoopClosureDetector:
    """A detector over 4 classes at r_l2 0.5, edge_radius 5, 200 RANSAC
    samples and 4 inliers; the other settings are the config's."""
    return LoopClosureDetector(RunConfig(**{**DETECTOR, **overrides}))


class TestLoopClosureDetector:
    @staticmethod
    def grid_scene(scene_id, pose, world_points, class_ids):
        """Scene table of world landmarks seen at a given pose."""
        return scene(scene_id, pose.transform_points_inverse(np.asarray(world_points, dtype=float)), class_ids)

    def make_world(self, rng, n=10):
        pts = rng.uniform(-6, 6, (n, 3))
        pts[:, 2] = 0.0
        cls = (np.arange(n) % 4).tolist()
        return pts, cls

    def test_revisit_detected_with_relative_pose(self, rng):
        pts, cls = self.make_world(rng)
        first = Pose(np.zeros(3), quat_from_yaw(0.0))
        revisit = Pose(np.array([0.3, -0.2, 0.0]), quat_from_yaw(0.15))
        det = detector(exclusion_window=10, tau_jsd=0.3, r_l2=0.8)
        s0 = self.grid_scene(0, first, pts, cls)
        det.add_submap(0, hist(s0), [s0])
        q = self.grid_scene(40, revisit, pts, cls)
        closures = detect(det, q)
        assert len(closures) == 1
        lc = closures[0]
        assert lc.candidate_scene == 0 and lc.query_scene == 40
        assert len(lc.inlier_pairs) >= 4
        # relative pose maps candidate body frame onto query body frame:
        # T_rel = T_query^{-1} T_cand
        expect = revisit.inverse().compose(first)
        assert np.allclose(lc.relative_pose.translation, expect.translation, atol=1e-6)

    def test_exclusion_window_blocks_nearby_scene(self, rng):
        pts, cls = self.make_world(rng)
        pose = Pose()
        det = detector(exclusion_window=50)
        s0 = self.grid_scene(0, pose, pts, cls)
        det.add_submap(0, hist(s0), [s0])
        q = self.grid_scene(40, pose, pts, cls)
        assert detect(det, q) == []

    def test_unrelated_scene_rejected(self, rng):
        pts, cls = self.make_world(rng)
        other_pts = rng.uniform(-6, 6, (10, 3))
        other_pts[:, 2] = 0.0
        det = detector(exclusion_window=10, ransac_min_inliers=6)
        s0 = self.grid_scene(0, Pose(), pts, cls)
        det.add_submap(0, hist(s0), [s0])
        q = self.grid_scene(40, Pose(), other_pts, cls)
        assert detect(det, q) == []

    @pytest.mark.parametrize("extra_side", ["query", "candidate"])
    def test_inliers_must_cover_distinct_landmarks_on_both_sides(self, extra_side):
        # four inliers, but two of them share one landmark on one side
        pts = [[0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [0.0, 4.0, 0.0]]
        near = pts + [[0.0, 4.1, 0.0]]
        q_pts, c_pts = (near, pts) if extra_side == "query" else (pts, near)
        det = detector(exclusion_window=5, tau_verify=0.0)
        c = scene(0, c_pts, [0] * len(c_pts))
        det.add_submap(0, hist(c), [c])
        q = scene(40, q_pts, [0] * len(q_pts))
        assert detect(det, q) == []
        # the same run with a fourth distinct landmark on the other side closes
        det = detector(exclusion_window=5, tau_verify=0.0)
        c = scene(0, near, [0] * 4)
        det.add_submap(0, hist(c), [c])
        q = scene(40, near, [0] * 4)
        assert len(detect(det, q)) == 1

    def test_at_most_one_closure_per_query(self, rng):
        pts, cls = self.make_world(rng)
        det = detector(exclusion_window=5)
        s0 = self.grid_scene(0, Pose(), pts, cls)
        s1 = self.grid_scene(10, Pose(np.array([0.1, 0, 0])), pts, cls)
        det.add_submap(0, hist(s0), [s0, s1])
        q = self.grid_scene(40, Pose(np.array([0.2, 0.1, 0.0])), pts, cls)
        closures = detect(det, q)
        assert len(closures) == 1


def _revisit_run(seed, verify):
    """Two laps of a circular route through a random landmark field, cut into
    submaps of six scenes; every scene queries the detector before its submap
    is indexed, as the pipeline does. Scene sizes range from 1 to about 20."""
    rng = np.random.default_rng(seed)
    n_pts, dim = 70, 4
    pts = np.column_stack([rng.uniform(-24, 24, (n_pts, 2)), rng.uniform(0, 2, n_pts)])
    cls = rng.integers(0, dim, n_pts)
    scenes = []
    for sid in range(48):
        ang = 2 * math.pi * (sid % 24) / 24
        jitter = rng.normal(scale=[0.3, 0.3, 0.0]) if sid >= 24 else np.zeros(3)
        centre = np.array([15 * math.cos(ang), 15 * math.sin(ang), 0.0]) + jitter
        pose = Pose(centre, quat_from_yaw(ang + rng.normal(scale=0.05)))
        radius = rng.uniform(3.0, 13.0)
        seen = np.flatnonzero(np.linalg.norm(pts[:, :2] - pose.translation[:2], axis=1) <= radius)
        if seen.size == 0:
            seen = np.array([int(np.argmin(np.linalg.norm(pts - pose.translation, axis=1)))])
        body = pose.transform_points_inverse(pts[seen]) + rng.normal(scale=0.02, size=(seen.size, 3))
        scenes.append(MeasurementTable.build(sid, np.zeros(seen.size), body, cls[seen]))
    # 100 RANSAC samples, the RunConfig default: the reference scans each one in Python
    overrides = dict(tau_jsd=0.3, r_l2=0.8, exclusion_window=10, run_seed=seed, ransac_iters=100, **verify)
    return scenes, detector(**overrides), detector(**overrides)


def _same_closures(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.query_scene, g.candidate_scene, g.inlier_pairs) == (w.query_scene, w.candidate_scene, w.inlier_pairs)
        assert all(type(i) is int for pair in g.inlier_pairs for i in pair)
        assert np.array_equal(g.relative_pose.translation, w.relative_pose.translation)
        assert np.array_equal(g.relative_pose.rotation, w.relative_pose.rotation)


def test_detect_matches_scalar_oracle(monkeypatch):
    """detect (stage 1 once per submap, score bound, integer class ids, one
    verifier, the consensus screen) returns the closures of the exact
    per-candidate detector with the unscreened scan, and leaves the same rng
    state, on seeded revisit runs in both term modes."""
    seen = dict.fromkeys(
        ["bound pass", "scored pass", "scored fail", "distance_weighted", "shared landmark", "closure after bound"]
        + ["screened", "scanned"],
        0,
    )
    verified = []

    def record_verify(a, b, cfg, laplacian=None):
        ok = verify_pair(a, b, cfg, laplacian)
        by_bound = min(len(a), len(b)) > 0 and score_bound(min(len(a), len(b)), cfg) > cfg.tau_verify
        verified.append((a.scene_id, b.scene_id, by_bound))
        seen["bound pass"] += by_bound
        seen["scored pass"] += not by_bound and ok
        seen["scored fail"] += not by_bound and not ok
        seen["distance_weighted"] += cfg.scene_term_mode == "distance_weighted"
        return ok

    def record_ransac(src, dst, rng, iters, tol, min_inliers, gap):
        seen["shared landmark"] += len(np.unique(src, axis=0)) < len(src) or len(np.unique(dst, axis=0)) < len(dst)
        # the detector's cached distances are the putatives' own, bit for bit
        assert gap.tobytes() == (placerec._distances(src, src) - placerec._distances(dst, dst)).tobytes()
        passed = consensus_possible(src, dst, max(min_inliers, 3), tol) is not None
        seen["scanned" if passed else "screened"] += 1
        return ransac_verify(src, dst, rng, iters, tol, min_inliers, gap)

    monkeypatch.setattr(placerec, "verify_pair", record_verify)
    monkeypatch.setattr(placerec, "ransac_verify", record_ransac)
    configs = [
        {},
        dict(tau_verify=6.0, penalty_p=-0.3),
        dict(tau_verify=3.0, penalty_p=1.7),
        dict(tau_verify=2.0, scene_term_mode="distance_weighted"),
    ]
    for seed in range(3):
        for verify in configs:
            scenes, det, ref = _revisit_run(seed, verify)
            for k in range(8):
                batch = scenes[6 * k : 6 * k + 6]
                counts = sum(np.bincount(s.labels, minlength=4) for s in batch)
                submap_hist = counts / counts.sum()
                submaps = similar_submaps(det, submap_hist)  # once per submap, as the pipeline does
                for q in batch:
                    verified.clear()
                    got, want = det.detect(submaps, q), scalar_detect(ref, submap_hist, q)
                    _same_closures(got, want)
                    bound_passed = {(qs, cs) for qs, cs, by_bound in verified if by_bound}
                    seen["closure after bound"] += any(
                        (lc.query_scene, lc.candidate_scene) in bound_passed for lc in got
                    )
                    assert det.rng.bit_generator.state == ref.rng.bit_generator.state
                det.add_submap(k, submap_hist, batch)
                ref.add_submap(k, submap_hist, batch)
    assert all(seen.values()), seen
