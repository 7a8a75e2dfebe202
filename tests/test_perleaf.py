"""The per-leaf association path against its reference: the cost matrix,
the branch score and the leaf extension equal the one-group-at-a-time
oracles of conftest bit for bit, on seeded inputs that the panel never
produces: non-diagonal covariances, Dirac classes (a covariance group whose
columns are not one run), the linear DP weight, empty landmark tables,
class mismatches throughout, and branches that both re-anchor previous
landmarks and create new ones."""

import dataclasses
import math

import numpy as np

from semslam import kernels
from semslam.assoc import build_cost_matrix, generate_branches, measurement_set_log_likelihood, solve_assignment
from semslam.config import RunConfig
from semslam.core import LandmarkTable, MeasurementTable
from semslam.mht import HypothesisNode, HypothesisTree

from conftest import (
    FalsePositive,
    New,
    assignment_of,
    oracle_cost_matrix,
    oracle_extend,
    oracle_set_log_likelihood,
    random_spd,
    simple_params,
)

N_CLASSES = 3


def same(a, b) -> bool:
    """Equal shape, dtype and bytes: every bit."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_table(a: LandmarkTable, b: LandmarkTable) -> bool:
    return all(same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(LandmarkTable))


def table(rng, ids, spread=2.0, classes=N_CLASSES):
    k = len(ids)
    return LandmarkTable.build(
        ids,
        rng.integers(classes, size=k),
        rng.uniform(-spread, spread, (k, 3)),
        [random_spd(rng, 0.02) for _ in range(k)],
        rng.integers(1, 6, size=k),
        rng.integers(0, 4, size=k),
    )


def random_case(rng, trial):
    """Association parameters, a leaf and a scene. Trials cycle through the
    DP weight modes, Dirac class sets, shared or per-class transitional
    covariances and empty tables; every fifth scene holds only a class that
    no landmark has."""
    dirac = [frozenset(), frozenset({1}), frozenset({0, 2}), frozenset(range(N_CLASSES))][trial % 4]
    shared = random_spd(rng, 0.02)  # every third trial: one transitional covariance, as the pipeline's
    params = simple_params(
        meas_cov=random_spd(rng, 0.02),
        trans_cov_by_class={c: shared if trial % 3 == 0 else random_spd(rng, 0.02) for c in range(N_CLASSES)},
        dirac_classes=dirac,
        dp_weight_mode=("exp", "linear")[trial % 2],
        fp_rate=0.05,
        map_volume=50.0,
        fp_norm_constant=float(rng.uniform(0.5, 2.0)),
    )
    n_ex, n_prev = [(0, 0), (0, 5), (5, 0), (4, 6), (7, 3)][trial % 5]
    mismatched = trial % 5 == 4
    classes = N_CLASSES - 1 if mismatched else N_CLASSES
    previous = table(rng, np.arange(n_prev) * 2, classes=classes)  # even ids, below the existing ones
    existing = table(rng, 20 + np.arange(n_ex), classes=classes)
    leaf = HypothesisNode(float(rng.normal()), existing, previous, int(rng.integers(0, 3)))
    # half the rows near a landmark, the rest anywhere
    n = int(rng.integers(1, 7))
    landmarks = np.concatenate([existing.means, previous.means])
    near = landmarks[rng.integers(len(landmarks), size=n)] if len(landmarks) else np.zeros((n, 3))
    pos = np.where(rng.random((n, 1)) < 0.5, near + rng.normal(0.0, 0.1, (n, 3)), rng.uniform(-3, 3, (n, 3)))
    labels = np.full(n, N_CLASSES - 1) if mismatched else rng.integers(N_CLASSES, size=n)
    scene = MeasurementTable.build(7, np.zeros(n), pos, labels)
    return params, leaf, scene


def freeze(leaf):
    """Make every array of the leaf read-only, so a write into one raises."""
    for t in (leaf.existing, leaf.previous):
        for f in dataclasses.fields(LandmarkTable):
            getattr(t, f.name).setflags(write=False)


class TestCostMatrix:
    def test_equals_the_oracle(self):
        rng = np.random.default_rng(30)
        for trial in range(200):
            params, leaf, scene = random_case(rng, trial)
            got, want = build_cost_matrix(scene, leaf, params), oracle_cost_matrix(scene, leaf, params)
            assert same(got.matrix, want.matrix) and same(got.column_ids, want.column_ids)
            assert same(got.dp_bonus, want.dp_bonus) and same(got.row_log_prior, want.row_log_prior)
            assert got.n_existing == want.n_existing

    def test_cases_reached(self):
        """The trials reach every layout of the covariance groups and scenes
        whose every landmark cell is a class mismatch."""
        rng = np.random.default_rng(30)
        layouts, all_forbidden = set(), 0
        for trial in range(200):
            params, leaf, scene = random_case(rng, trial)
            groups = set(params._cov_group[leaf.previous.labels].tolist())
            if len(groups) > 1:
                layout = "split"  # some group's columns are not one run
            else:
                layout = {0: "one group"}.get(min(groups, default=0), "existing, then previous")
            layouts.add((len(leaf.existing) > 0, len(leaf.previous) > 0, layout))
            cm = build_cost_matrix(scene, leaf, params)
            all_forbidden += cm.n_landmark_cols > 0 and bool((cm.matrix[:, : cm.n_landmark_cols] >= kernels.BIG).all())
        for has_existing in (False, True):
            for layout in ("split", "one group", "existing, then previous"):
                assert (has_existing, True, layout) in layouts
        assert {(True, False, "one group"), (False, False, "one group")} <= layouts
        assert all_forbidden >= 10

    def test_overflowing_difference_is_a_forbidden_cell(self):
        """A difference that overflows whitens to NaN, and its cell is
        forbidden, as a class mismatch is; a squared distance that overflows
        costs +inf. Neither enters the false-positive denominator."""
        params = simple_params()
        existing = LandmarkTable.build([0, 1], [0, 0], [[1e308, 0, 0], [0, 0, 0]], [np.eye(3)] * 2)
        leaf = HypothesisNode(0.0, existing, LandmarkTable.empty(), 0)
        scene = MeasurementTable.build(0, [0.0], [[-1e308, 0, 0]], [0])
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = build_cost_matrix(scene, leaf, params), oracle_cost_matrix(scene, leaf, params)
        assert same(got.matrix, want.matrix)
        fp_cost = -(math.log(params.fp_rate) + math.log(params.dirichlet_alpha))
        assert got.matrix[0].tolist() == [kernels.BIG, np.inf, got.matrix[0, 2], fp_cost]


def branches_of(rng, cm):
    """The generated branches, then one that calls each row New or a false
    positive at random."""
    found = generate_branches(cm, solve_assignment(cm), max_branches=4, plausibility_gap=np.inf)
    return found + [assignment_of(cm, [New() if rng.random() < 0.5 else FalsePositive() for _ in range(cm.n_rows)])]


def leaf_bytes(leaf):
    return [getattr(t, f.name).tobytes() for t in (leaf.existing, leaf.previous) for f in dataclasses.fields(LandmarkTable)]


class TestExtend:
    def test_equals_the_oracle_and_leaves_the_parent_unwritten(self):
        rng = np.random.default_rng(31)
        seen = set()
        cfg = RunConfig()
        for trial in range(200):
            params, leaf, scene = random_case(rng, trial)
            cm = build_cost_matrix(scene, leaf, params)
            branches = branches_of(rng, cm)
            for a in branches:
                assert measurement_set_log_likelihood(a, cm) == oracle_set_log_likelihood(a, cm)
            freeze(leaf)
            before = leaf_bytes(leaf)
            tree = HypothesisTree(cfg, landmark_id_start=100)
            tree.leaves = [leaf]
            children = tree.extend(leaf, branches, scene, params, cm)
            want, next_id = oracle_extend(100, leaf, branches, scene, params, cm)
            assert tree.next_landmark_id == next_id and len(children) == len(want)
            for child, w, a in zip(children, want, branches):
                assert child.log_weight == w.log_weight and child.n_fp == w.n_fp
                assert same_table(child.existing, w.existing) and same_table(child.previous, w.previous)
                assert (child.existing is leaf.existing) == (w.existing is leaf.existing)
                assert (child.previous is leaf.previous) == (w.previous is leaf.previous)
                moved = any(a.columns[i] >= cm.n_existing for i in a.landmark_rows)
                seen.add((moved, bool(a.new_rows), bool(a.landmark_rows)))
                if moved and a.new_rows and len(branches) > 2:
                    seen.add("multi-branch move and create")
            assert leaf_bytes(leaf) == before
        assert {(True, True, True), (False, True, True), (False, False, True), (False, False, False)} <= seen
        assert "multi-branch move and create" in seen
