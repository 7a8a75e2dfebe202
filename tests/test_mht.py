"""Hypothesis tree: weight recursion, ESS, the KLD count bound, systematic
resampling, the exhaustive posterior oracle on tiny episodes, and the
leaves' copy-on-write landmark tables."""

import dataclasses
import itertools
import math
import statistics

import numpy as np
import pytest
from scipy.special import ndtri

from semslam.assoc import (
    assignment_prior_log,
    build_cost_matrix,
    generate_branches,
    solve_assignment,
)
from semslam.config import RunConfig
from semslam.core import ContractViolation, LandmarkTable
from semslam.estimation import fuse_hypotheses, ukf_update
from semslam.mht import (
    HypothesisNode,
    HypothesisTree,
    effective_sample_size,
    kld_bound,
)

from conftest import (
    Existing,
    FalsePositive,
    New,
    Previous,
    assignment_of,
    landmark,
    meas,
    random_spd,
    rows_of,
    scalar_fuse_hypotheses,
    scene_of,
    simple_params,
    table_of,
    target_of,
)


class TestEffectiveSampleSize:
    def test_uniform(self):
        assert effective_sample_size([0.125] * 8) == pytest.approx(8.0)

    def test_degenerate(self):
        assert effective_sample_size([1.0, 0.0, 0.0]) == pytest.approx(1.0)

    def test_spot_value(self):
        assert effective_sample_size([0.5, 0.25, 0.25]) == pytest.approx(8.0 / 3.0)

    def test_unnormalized_rejected(self):
        with pytest.raises(ContractViolation):
            effective_sample_size([0.5, 0.2])


class TestKldBound:
    def test_spot_values(self):
        assert kld_bound(2, 0.05, 0.01) == 18
        assert kld_bound(10, 0.05, 0.01) == 120

    def test_zero_quantile(self):
        # delta = 0.5 makes the normal quantile 0: floor(90 * (1 - 1/36)) = 87
        assert kld_bound(10, 0.05, 0.5) == 87

    def test_monotone_in_k(self):
        bounds = [kld_bound(k, 0.05, 0.01) for k in range(2, 12)]
        assert bounds == sorted(bounds)

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            kld_bound(1, 0.05, 0.01)

    def test_cube_bracket_variant(self):
        plain = kld_bound(5, 0.05, 0.01, cube_bracket=False)
        cubed = kld_bound(5, 0.05, 0.01, cube_bracket=True)
        z = 2.3263478740408408
        a = 2.0 / (9.0 * 4.0)
        bracket = 1.0 - a + math.sqrt(a) * z
        assert plain == int(4.0 / 0.1 * bracket)
        assert cubed == int(4.0 / 0.1 * bracket**3)

    def test_quantile_matches_scipy_ndtri(self):
        """The standard library's normal quantile agrees with scipy's to
        rounding, and exactly at the default delta."""
        p = np.linspace(1e-6, 1.0 - 1e-6, 20_001)
        ours = np.array([statistics.NormalDist().inv_cdf(float(x)) for x in p])
        ref = ndtri(p)
        assert np.all(np.abs(ours - ref) <= 2e-15 * np.maximum(np.abs(ref), 1e-300) + 1e-300)
        assert statistics.NormalDist().inv_cdf(1.0 - 0.01) == float(ndtri(1.0 - 0.01)) == 2.3263478740408408

    def test_matches_scipy_ndtri_bound(self):
        """kld_bound gives what the bound computed from scipy's quantile gives,
        over a grid of k, epsilon, delta and both brackets."""

        def reference(k, epsilon, delta, cube_bracket):
            z = float(ndtri(1.0 - delta))
            a = 2.0 / (9.0 * (k - 1))
            bracket = 1.0 - a + math.sqrt(a) * z
            if cube_bracket:
                bracket = bracket**3
            return int(math.floor((k - 1) / (2.0 * epsilon) * bracket))

        grid = itertools.product(
            range(2, 2000, 7),
            (0.01, 0.02, 0.05, 0.1, 0.25),
            (1e-4, 1e-3, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.99),
            (False, True),
        )
        mismatches = [args for args in grid if kld_bound(*args) != reference(*args)]
        assert mismatches == []


def default_tree(seed=0, max_hypotheses=20, ess_fraction=0.5, previous=(), landmark_id_start=0):
    return HypothesisTree(
        RunConfig(ess_fraction=ess_fraction, max_hypotheses=max_hypotheses, run_seed=seed),
        previous_landmarks=table_of(previous),
        landmark_id_start=landmark_id_start,
    )


def extend(tree, leaf, branch_targets, measurements, params):
    """Extend `leaf` by one branch per target list, each an assignment on the
    cost matrix of `measurements` against the leaf."""
    scene = scene_of(measurements)
    cm = build_cost_matrix(scene, leaf, params)
    branches = [assignment_of(cm, targets) for targets in branch_targets]
    return tree.extend(leaf, branches, scene, params, cm)


class TestExtend:
    def test_zero_measurements_single_child(self):
        tree = default_tree()
        params = simple_params()
        root = tree.leaves[0]
        children = extend(tree, root, [[]], [], params)
        assert len(children) == 1
        expect = assignment_prior_log(assignment_of(build_cost_matrix(scene_of([]), root, params), []), params)
        assert children[0].log_weight == pytest.approx(expect)

    def test_softmax_of_weight_gap(self):
        # two assignments whose log-weight increments differ by 2 nats:
        # normalized weights are softmax(-1, -3) = (0.881, 0.119)
        tree = default_tree()
        root = tree.leaves[0]
        extend(tree, root, [[], []], [], simple_params())
        tree.leaves[0].log_weight = -1.0
        tree.leaves[1].log_weight = -3.0
        w = tree.normalized_weights()
        assert w[0] == pytest.approx(0.8808, abs=1e-4)
        assert w[1] == pytest.approx(0.1192, abs=1e-4)

    def test_new_target_creates_landmark(self):
        tree = default_tree()
        params = simple_params()
        m = meas([1.0, 2.0, 3.0], scene_id=4, time=9.5)
        children = extend(tree, tree.leaves[0], [[New()]], [m], params)
        (lm,) = rows_of(children[0].existing).values()
        assert np.allclose(lm.mean, m.position) and lm.assign_count == 1
        assert lm.last_scene == 4

    def test_existing_target_updates_and_counts(self):
        tree = default_tree()
        params = simple_params()
        tree.leaves[0].existing = table_of([landmark(0, [0.0, 0.0, 0.0])])
        m = meas([1.0, 0.0, 0.0])
        children = extend(tree, tree.leaves[0], [[Existing(0)]], [m], params)
        lm = rows_of(children[0].existing)[0]
        assert lm.assign_count == 2
        assert 0.0 < lm.mean[0] < 1.0  # pulled toward the measurement

    def test_false_positive_increments_counter(self):
        tree = default_tree()
        children = extend(tree, tree.leaves[0], [[FalsePositive()]], [meas([0, 0, 0])], simple_params())
        assert children[0].n_fp == 1

    def test_previous_target_reanchors_keeping_id(self):
        tree = default_tree(previous=[landmark(7, [0.0, 0.0, 0.0])])
        children = extend(tree, tree.leaves[0], [[Previous(7)]], [meas([0.1, 0.0, 0.0])], simple_params())
        child = children[0]
        assert 7 in child.existing.ids and 7 not in child.previous.ids

    def test_sibling_landmark_states_independent(self):
        tree = default_tree()
        params = simple_params()
        m = meas([1.0, 2.0, 3.0])
        c1, c2 = extend(tree, tree.leaves[0], [[New()], [FalsePositive()]], [m], params)
        assert len(c1.existing) == 1 and len(c2.existing) == 0

    def test_empty_branches_rejected(self):
        tree = default_tree()
        with pytest.raises(ContractViolation):
            extend(tree, tree.leaves[0], [], [], simple_params())

    def test_weights_normalized_after_extend(self):
        tree = default_tree()
        extend(tree, tree.leaves[0], [[], [], []], [], simple_params())
        assert tree.normalized_weights().sum() == pytest.approx(1.0, abs=1e-9)

    def test_update_increments_count_and_sets_scene(self):
        tree = default_tree(previous=[landmark(7, [0.0, 0.0, 0.0], assign_count=5)], landmark_id_start=8)
        tree.leaves[0].existing = table_of([landmark(0, [1.0, 0.0, 0.0], assign_count=3)])
        ms = [meas([1.0, 0.0, 0.0], scene_id=7, time=1000.7), meas([0.0, 0.0, 0.0], scene_id=7, time=1000.7)]
        (child,) = extend(tree, tree.leaves[0], [[Existing(0), Previous(7)]], ms, simple_params())
        assert child.existing.assign_count.tolist() == [4, 6]
        assert child.existing.last_scene.tolist() == [7, 7]

    def test_update_keeps_untouched_fields(self):
        """An update writes the estimate, the count and the scene of its row;
        the id and class stay, and so does every other row."""
        tree = default_tree()
        rows = [landmark(2, [0, 0, 0], class_id=1, assign_count=4), landmark(5, [3, 0, 0], class_id=2)]
        means, covs = [r.mean for r in rows], [r.cov for r in rows]
        tree.leaves[0].existing = LandmarkTable.build([2, 5], [1, 2], means, covs, [4, 1], last_scene=1)
        params = simple_params()
        m = meas([0.5, 0.0, 0.0], class_id=1, scene_id=9)
        (child,) = extend(tree, tree.leaves[0], [[Existing(2)]], [m], params)
        got = child.existing
        assert got.ids.tolist() == [2, 5] and got.labels.tolist() == [1, 2]
        assert got.assign_count.tolist() == [5, 1] and got.last_scene.tolist() == [9, 1]
        mean, cov = ukf_update(rows[0].mean, rows[0].cov, m.position, params.meas_cov, tree.cfg)
        assert np.array_equal(got.means[0], mean) and np.array_equal(got.covs[0], cov)
        assert np.array_equal(got.means[1], rows[1].mean) and np.array_equal(got.covs[1], rows[1].cov)


def table_bytes(table):
    return tuple(getattr(table, f.name).tobytes() for f in dataclasses.fields(table))


def leaf_bytes(leaf):
    return table_bytes(leaf.existing), table_bytes(leaf.previous), leaf.n_fp


def grow_tree(seed, steps=4, gap=100.0):
    """A tree grown from three previous landmarks over `steps` random scenes,
    every leaf extended by its generated branches, as the pipeline does."""
    rng = np.random.default_rng(seed)
    params = simple_params(fp_rate=0.05, map_volume=50.0)
    previous = [
        landmark(i, rng.uniform(-2, 2, 3), class_id=i % 2, cov=random_spd(rng, 0.1), assign_count=1 + i)
        for i in range(3)
    ]
    tree = default_tree(seed=seed, max_hypotheses=10**9, previous=previous, landmark_id_start=3)
    for t in range(steps):
        ms = [
            meas(rng.uniform(-2, 2, 3), class_id=int(rng.integers(2)), scene_id=t, time=float(t))
            for _ in range(int(rng.integers(1, 4)))
        ]
        scene = scene_of(ms)
        for leaf in list(tree.leaves):
            cm = build_cost_matrix(scene, leaf, params)
            branches = generate_branches(cm, solve_assignment(cm), max_branches=3, plausibility_gap=gap)
            tree.extend(leaf, branches, scene, params, cm)
    return tree


class TestLeafTables:
    """Leaves keep their landmarks as tables in cost-matrix column order and
    share the arrays of the leaf they extend until they write them."""

    def test_children_copy_only_what_they_write(self, rng):
        params = simple_params()
        previous = [landmark(i, rng.uniform(-1, 1, 3), cov=random_spd(rng, 0.1)) for i in (1, 4, 6)]
        tree = default_tree(previous=previous, landmark_id_start=10)
        (parent,) = extend(tree, tree.leaves[0], [[New(), New()]], [meas([0, 0, 0]), meas([5, 0, 0])], params)
        assert parent.existing.ids.tolist() == [10, 11]
        before = leaf_bytes(parent)
        ms = [meas([0.3, 0, 0], scene_id=1), meas([-0.2, 0.1, 0], scene_id=1), meas([9, 9, 9], scene_id=1)]
        branches = [
            [Existing(10), Previous(4), New()],  # update, re-anchor and create
            [FalsePositive(), Existing(10), New()],  # update by another measurement, and create
            [Existing(10), FalsePositive(), FalsePositive()],  # update only
            [FalsePositive(), FalsePositive(), FalsePositive()],  # write nothing
        ]
        children = extend(tree, parent, branches, ms, params)
        assert leaf_bytes(parent) == before
        # each child's landmark 10 is the UKF update by its own measurement
        for child, i in zip(children[:3], (0, 1, 0)):
            row = int(np.searchsorted(child.existing.ids, 10))
            mean, cov = ukf_update(parent.existing.means[0], parent.existing.covs[0], ms[i].position, params.meas_cov, tree.cfg)
            assert np.array_equal(child.existing.means[row], mean) and np.array_equal(child.existing.covs[row], cov)
        reanchor, created, updated, idle = children
        assert reanchor.existing.ids.tolist() == [4, 10, 11, 12] and reanchor.previous.ids.tolist() == [1, 6]
        assert created.existing.ids.tolist() == [10, 11, 13] and created.previous is parent.previous
        assert updated.existing.ids.tolist() == [10, 11] and updated.previous is parent.previous
        for f in ("ids", "labels"):
            assert np.shares_memory(getattr(updated.existing, f), getattr(parent.existing, f))
        for f in ("means", "covs", "assign_count", "last_scene"):
            assert not np.shares_memory(getattr(updated.existing, f), getattr(parent.existing, f))
        assert idle.existing is parent.existing and idle.previous is parent.previous and idle.n_fp == 3
        # a grandchild's writes reach neither its parent, its siblings nor theirs
        siblings = [leaf_bytes(c) for c in children]
        extend(tree, updated, [[Existing(10), Previous(1), New()], [Existing(11), Previous(6), New()]], ms, params)
        extend(tree, idle, [[Existing(10), Existing(11), Previous(1)]], ms, params)
        assert [leaf_bytes(c) for c in children] == siblings
        assert leaf_bytes(parent) == before

    def test_reanchored_row_takes_its_sorted_column(self, rng):
        params = simple_params()
        previous = [landmark(i, rng.uniform(-1, 1, 3), class_id=i % 2, cov=random_spd(rng, 0.1)) for i in (1, 3, 5)]
        tree = default_tree(previous=previous, landmark_id_start=10)
        created = [meas([4, 0, 0], class_id=0), meas([0, 4, 0], class_id=1)]
        (leaf,) = extend(tree, tree.leaves[0], [[New(), New()]], created, params)
        (leaf,) = extend(tree, leaf, [[Previous(3)]], [meas([0.1, 0, 0], class_id=1)], params)
        ms = [meas(rng.uniform(-1, 1, 3), class_id=c) for c in (0, 1, 1)]
        scene = scene_of(ms)
        cm = build_cost_matrix(scene, leaf, params)
        assert cm.column_ids.tolist() == [3, 10, 11, 1, 5] and cm.n_existing == 3
        # the same rows, listed out of order, give the same matrix
        rows, prev_rows = rows_of(leaf.existing), rows_of(leaf.previous)
        explicit = HypothesisNode(0.0, table_of(rows[k] for k in (11, 3, 10)), table_of(prev_rows[k] for k in (5, 1)), 0)
        want = build_cost_matrix(scene, explicit, params)
        assert np.array_equal(cm.matrix, want.matrix) and np.array_equal(cm.dp_bonus, want.dp_bonus)
        assert [target_of(cm, j) for j in range(5)] == [Existing(3), Existing(10), Existing(11), Previous(1), Previous(5)]

    @pytest.mark.parametrize("seed", range(6))
    def test_fusion_matches_the_scalar_oracle(self, seed):
        tree = grow_tree(seed)
        assert len(tree.leaves) > 1
        w = tree.normalized_weights()
        # a leaf of weight exactly 0 that alone carries some landmark, which fusion drops
        ids, carriers = np.unique(np.concatenate([leaf.existing.ids for leaf in tree.leaves]), return_counts=True)
        lone = int(ids[np.argmax(carriers == 1)])
        zeroed = w.copy()
        zeroed[[lone in leaf.existing.ids for leaf in tree.leaves]] = 0.0
        zeroed /= zeroed.sum()
        for weights in (w, zeroed):
            got = fuse_hypotheses(tree.leaves, weights)
            want = scalar_fuse_hypotheses(tree.leaves, weights).values()
            assert got.ids.tolist() == [r.id for r in want] and (lone in got.ids) == (weights is w)
            assert got.labels.tolist() == [r.label for r in want]
            assert got.assign_count.tolist() == [r.assign_count for r in want]
            assert got.last_scene.tolist() == [r.last_scene for r in want]
            assert got.means.tobytes() == b"".join(r.mean.tobytes() for r in want)
            assert got.covs.tobytes() == b"".join(r.cov.tobytes() for r in want)


class TestResample:
    @staticmethod
    def tree_with_weights(log_weights, seed=0, max_hypotheses=20):
        tree = default_tree(seed=seed, max_hypotheses=max_hypotheses)
        extend(tree, tree.leaves[0], [[]] * len(log_weights), [], simple_params())
        for leaf, lw in zip(tree.leaves, log_weights):
            leaf.log_weight = lw
        return tree

    def test_single_leaf_unchanged(self):
        tree = default_tree()
        assert tree.resample() is False

    def test_uniform_weights_no_trigger(self):
        tree = self.tree_with_weights([0.0, 0.0, 0.0, 0.0])
        assert tree.resample() is False
        assert len(tree.leaves) == 4

    def test_degenerate_weights_trigger_and_collapse(self):
        w = np.log(np.array([0.97, 0.01, 0.01, 0.01]))
        tree = self.tree_with_weights(list(w))
        assert tree.resample() is True
        assert len(tree.leaves) <= 4
        assert tree.normalized_weights().sum() == pytest.approx(1.0, abs=1e-9)

    def test_dominant_leaf_survives(self):
        for seed in range(20):
            w = np.log(np.array([0.97, 0.01, 0.01, 0.01]))
            tree = self.tree_with_weights(list(w), seed=seed)
            first = tree.leaves[0]
            tree.resample()
            assert first in tree.leaves

    def test_leaf_count_bounded_by_max_hypotheses(self):
        rng = np.random.default_rng(1)
        for seed in range(10):
            lw = list(np.log(rng.dirichlet(np.ones(12))))
            tree = self.tree_with_weights(lw, seed=seed, max_hypotheses=5)
            tree.resample(force=True)
            assert len(tree.leaves) <= 5

    def test_survival_frequency_unbiased(self):
        # systematic resampling: mean survival count of leaf i ~= n * w_i
        w = np.array([0.97, 0.01, 0.01, 0.01])
        n_seeds = 400
        survived = np.zeros(4)
        for seed in range(n_seeds):
            tree = self.tree_with_weights(list(np.log(w)), seed=seed)
            leaves_before = list(tree.leaves)
            tree.resample()
            for i, leaf in enumerate(leaves_before):
                if leaf in tree.leaves:
                    survived[i] += math.exp(leaf.log_weight) * len(leaves_before)
        # resampled counts are stored as weights count/total; compare means
        assert np.allclose(survived / n_seeds, 4 * w, atol=0.05)

    def test_kld_bound_shrinks_the_draw(self, monkeypatch):
        """At kld_epsilon = 0.5 the KLD bound of the k leaves a draw of 20
        picks is below 20, so the draw shrinks to that bound and repeats:
        the draw count ends at the loop's fixed point, the first count whose
        bound does not lie below it, and each survivor weighs log(count / n)."""
        from semslam import kernels

        draws = []
        systematic_resample = kernels.systematic_resample

        def recorded(w, n, u0):
            draws.append((n, systematic_resample(w, n, u0)))
            return draws[-1][1]

        monkeypatch.setattr(kernels, "systematic_resample", recorded)
        rng = np.random.default_rng(3)
        cfg = RunConfig(kld_epsilon=0.5)
        shrinks = 0
        for seed in range(20):
            tree = HypothesisTree(dataclasses.replace(cfg, run_seed=seed))
            extend(tree, tree.leaves[0], [[]] * 20, [], simple_params())
            for leaf, lw in zip(tree.leaves, np.log(rng.dirichlet(np.ones(20)))):
                leaf.log_weight = lw
            before = list(tree.leaves)
            draws.clear()
            assert tree.resample(force=True) is True
            bounds = []
            for _, idx in draws:
                k = len(set(idx.tolist()))
                bound = cfg.max_hypotheses if k < 2 else min(kld_bound(k, 0.5, cfg.kld_delta), cfg.max_hypotheses)
                bounds.append(max(bound, 1))
            ns = [n for n, _ in draws]
            assert ns[0] == 20 and ns[1:] == bounds[:-1] and bounds[-1] >= ns[-1], seed
            shrinks += len(draws) - 1
            n, idx = draws[-1]
            counts = np.bincount(idx, minlength=20)
            assert tree.leaves == [leaf for leaf, c in zip(before, counts) if c]
            assert [leaf.log_weight for leaf in tree.leaves] == [math.log(c / n) for c in counts if c]
        assert shrinks > 0

    def test_prune_to_best(self):
        tree = self.tree_with_weights([-1.0, -5.0, -0.5, -3.0])
        tree.prune_to_best(2)
        assert sorted(l.log_weight for l in tree.leaves) == [-1.0, -0.5]


class TestPosteriorOracle:
    """The best leaf must equal exhaustive enumeration of all assignment
    sequences, scored independently (scipy densities, closed-form Kalman)."""

    def test_best_leaf_matches_exhaustive_argmax(self):
        from conftest import exhaustive_posterior_best, tree_combo_branches

        params = simple_params(fp_rate=0.05, map_volume=100.0)
        for episode in range(6):
            ep_rng = np.random.default_rng(100 + episode)
            steps = int(ep_rng.integers(1, 4))
            episodes = [
                [
                    meas(ep_rng.uniform(-2, 2, 3), class_id=int(ep_rng.integers(2)), scene_id=t, time=float(t))
                    for _ in range(int(ep_rng.integers(1, 3)))
                ]
                for t in range(steps)
            ]
            tree = default_tree(max_hypotheses=10**9)
            for t, ms in enumerate(episodes):
                scene = scene_of(ms)
                for leaf in list(tree.leaves):
                    cm = build_cost_matrix(scene, leaf, params)
                    tree.extend(leaf, tree_combo_branches(ms, leaf, cm), scene, params, cm)
            best = tree.best_leaf()
            expect = exhaustive_posterior_best(episodes, params)
            assert best.log_weight == pytest.approx(expect, abs=1e-6)
