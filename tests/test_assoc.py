"""Association likelihoods, assignment prior, cost matrices, the Hungarian
solve, and branch generation — checked against independent oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal, poisson

from semslam.assoc import (
    LOG_ZERO,
    AssocParams,
    CostMatrix,
    InfeasibleAssignment,
    assignment_prior_log,
    build_cost_matrix,
    generate_branches,
    measurement_set_log_likelihood,
    _lex_refine,
    nearest_neighbor_assignment,
    solve_assignment,
)
from semslam import kernels
from semslam.core import ContractViolation
from semslam.kernels import BIG
from semslam.mht import HypothesisNode

from conftest import (
    Existing,
    FalsePositive,
    New,
    Previous,
    assignment_of,
    brute_force_assignment,
    gaussian_logpdf,
    landmark,
    meas,
    random_spd,
    rows_of,
    scalar_association_log_likelihood,
    scalar_lex_refine,
    scalar_measurement_set_log_likelihood,
    scene_of,
    simple_params,
    table_of,
    target_of,
    targets_of,
)


def state_with(existing=(), previous=(), n_fp=0):
    """A hypothesis leaf holding these landmarks and clutter count."""
    return HypothesisNode(0.0, table_of(existing), table_of(previous), n_fp)


def association_likelihood(m, target, state, params):
    """Case likelihood of one measurement, DP bonus included: exp(-cell) of
    the cost matrix built for it, 0 for a forbidden cell."""
    cm = build_cost_matrix(scene_of([m]), state, params)
    (j,) = assignment_of(cm, [target]).columns
    cost = cm.matrix[0, j]
    return 0.0 if cost >= BIG / 2 else math.exp(-cost)


def set_log_likelihood(targets, measurements, state, params):
    """Score of the branch `targets`, read from the cost matrix of this state
    and these measurements."""
    cm = build_cost_matrix(scene_of(measurements), state, params)
    return measurement_set_log_likelihood(assignment_of(cm, targets), cm)


def convolution_oracle(p, pi, cov_z, cov_a, half=16.0, n=64):
    """Riemann-sum evaluation of the transitional-density integral
    int N(p; x, cov_z) N(x; pi, cov_a) dx over a 3-D grid."""
    center = 0.5 * (np.asarray(p) + np.asarray(pi))
    axis = np.linspace(-half, half, n)
    h = axis[1] - axis[0]
    X, Y, Z = np.meshgrid(axis, axis, axis, indexing="ij")
    pts = np.stack([X, Y, Z], axis=-1).reshape(-1, 3) + center
    f1 = multivariate_normal.pdf(pts, mean=np.asarray(p), cov=cov_z)
    f2 = multivariate_normal.pdf(pts, mean=np.asarray(pi), cov=cov_a)
    return float(np.sum(f1 * f2)) * h**3


class TestGaussianLogpdf:
    def test_matches_scipy(self, rng):
        """The density of the scalar test oracle."""
        for _ in range(10):
            cov = random_spd(rng)
            x = rng.standard_normal(3)
            mu = rng.standard_normal(3)
            expect = multivariate_normal.logpdf(x, mean=mu, cov=cov)
            assert gaussian_logpdf(x, mu, cov) == pytest.approx(expect, abs=1e-10)


class TestAssociationLikelihood:
    def test_existing_spot_value(self):
        # count 2, measurement at the landmark mean, unit covariance:
        # e^2 * (2*pi)^{-3/2} ~= 0.4692
        params = simple_params()
        st_ = state_with(existing=[landmark(0, [1.0, 2.0, 3.0], assign_count=2)])
        val = association_likelihood(meas([1.0, 2.0, 3.0]), Existing(0), st_, params)
        assert val == pytest.approx(math.e**2 * (2 * math.pi) ** -1.5, rel=1e-9)
        assert val == pytest.approx(0.4692, abs=1e-4)

    def test_previous_dirac_spot_value(self):
        params = simple_params(dirac_classes=frozenset([0]))
        st_ = state_with(previous=[landmark(5, [0.0, 0.0, 0.0])])
        val = association_likelihood(meas([0.0, 0.0, 0.0]), Previous(5), st_, params)
        assert val == pytest.approx((2 * math.pi) ** -1.5, rel=1e-9)
        assert val == pytest.approx(0.06349, abs=1e-4)

    def test_previous_convolution_spot_value(self):
        # meas cov I plus transition cov I: N(p; pi, 2I) at p = pi
        params = simple_params()
        st_ = state_with(previous=[landmark(5, [0.0, 0.0, 0.0])])
        val = association_likelihood(meas([0.0, 0.0, 0.0]), Previous(5), st_, params)
        assert val == pytest.approx((4 * math.pi) ** -1.5, rel=1e-9)
        assert val == pytest.approx(0.02245, abs=1e-4)

    def test_previous_convolution_matches_numerical_integration(self, rng):
        for _ in range(3):
            cov_z = random_spd(rng)
            cov_a = random_spd(rng)
            pi = rng.uniform(-1.0, 1.0, 3)
            p = pi + rng.uniform(-1.0, 1.0, 3)
            params = simple_params(
                meas_cov=cov_z, trans_cov_by_class={0: cov_a}
            )
            st_ = state_with(previous=[landmark(5, pi)])
            closed = association_likelihood(meas(p), Previous(5), st_, params)
            numeric = convolution_oracle(p, pi, cov_z, cov_a)
            assert closed == pytest.approx(numeric, rel=1e-4)

    def test_new_spot_value(self):
        params = simple_params(dirichlet_alpha=1.0, map_volume=1000.0)
        assert association_likelihood(meas([0, 0, 0]), New(), state_with(), params) == pytest.approx(0.001)

    def test_false_positive_spot_value(self):
        # no prior clutter: rho * alpha over the one candidate density 0.06349
        params = simple_params(fp_rate=0.1)
        st_ = state_with(existing=[landmark(0, [0.0, 0.0, 0.0])])
        val = association_likelihood(meas([0.0, 0.0, 0.0]), FalsePositive(), st_, params)
        assert val == pytest.approx(0.1 / (2 * math.pi) ** -1.5, rel=1e-9)
        assert val == pytest.approx(1.575, abs=1e-3)

    def test_false_positive_uses_clutter_count_when_positive(self):
        params = simple_params(fp_rate=0.1)
        st_ = state_with(n_fp=4)
        val = association_likelihood(meas([0, 0, 0]), FalsePositive(), st_, params)
        assert val == pytest.approx(0.1 * 4)

    def test_false_positive_ignores_candidates_outside_gate(self):
        # a candidate 100 sigma away must not enter the denominator: its
        # vanishing density would otherwise blow the likelihood up
        params = simple_params(fp_rate=0.1)
        far = state_with(existing=[landmark(0, [100.0, 0.0, 0.0])])
        none = state_with()
        m = meas([0.0, 0.0, 0.0])
        assert association_likelihood(m, FalsePositive(), far, params) == pytest.approx(
            association_likelihood(m, FalsePositive(), none, params)
        )

    def test_class_mismatch_is_zero(self):
        params = simple_params()
        st_ = state_with(existing=[landmark(0, [0, 0, 0], class_id=1)])
        assert association_likelihood(meas([0, 0, 0], class_id=0), Existing(0), st_, params) == 0.0

    def test_positive_for_class_match(self, rng):
        params = simple_params()
        st_ = state_with(existing=[landmark(0, rng.standard_normal(3))])
        assert association_likelihood(meas(rng.standard_normal(3)), Existing(0), st_, params) > 0.0

    def test_linear_dp_weight_mode(self):
        params = simple_params(dp_weight_mode="linear")
        st_ = state_with(existing=[landmark(0, [0, 0, 0], assign_count=3)])
        val = association_likelihood(meas([0, 0, 0]), Existing(0), st_, params)
        assert val == pytest.approx(3.0 * (2 * math.pi) ** -1.5, rel=1e-9)

    def test_non_spd_covariance_rejected(self):
        with pytest.raises(ContractViolation):
            simple_params(meas_cov=np.diag([1.0, 1.0, -1.0]))


class TestMeasurementSetLikelihood:
    def test_single_match_spot_value(self):
        params = simple_params()  # empty class_prior -> p_s = 1
        st_ = state_with(existing=[landmark(0, [0, 0, 0])])
        ll = set_log_likelihood([Existing(0)], [meas([0, 0, 0])], st_, params)
        assert ll == pytest.approx(math.log((2 * math.pi) ** -1.5), rel=1e-9)
        assert ll == pytest.approx(-2.757, abs=1e-3)

    def test_class_mismatch_sentinel(self):
        params = simple_params()
        st_ = state_with(existing=[landmark(0, [0, 0, 0], class_id=1)])
        assert set_log_likelihood([Existing(0)], [meas([0, 0, 0], class_id=0)], st_, params) == LOG_ZERO

    def test_empty_set_is_zero(self):
        params = simple_params()
        assert set_log_likelihood([], [], state_with(), params) == 0.0

    def test_uncovered_measurements_rejected(self):
        params = simple_params()
        with pytest.raises(ContractViolation):
            set_log_likelihood([], [meas([0, 0, 0])], state_with(), params)

    def test_exchangeability(self, rng):
        params = simple_params()
        lms = [landmark(i, rng.uniform(-3, 3, 3)) for i in range(3)]
        st_ = state_with(existing=lms)
        ms = [meas(lm.mean + 0.1 * rng.standard_normal(3)) for lm in lms]
        targets = [Existing(0), Existing(1), Existing(2)]
        base = set_log_likelihood(targets, ms, st_, params)
        for perm in itertools.permutations(range(3)):
            ll = set_log_likelihood([targets[i] for i in perm], [ms[i] for i in perm], st_, params)
            assert ll == pytest.approx(base, abs=1e-12)


class TestBranchScoreParity:
    """The branch score read from the cost matrix equals the scalar
    four-case likelihood, one Gaussian density at a time (conftest)."""

    CASES = {
        "existing", "previous", "dirac", "exp", "linear", "n_fp_zero", "n_fp_positive",
        "prior_lacks_label", "class_mismatch", "empty",
    }

    @staticmethod
    def random_case(rng, trial):
        n_classes = 3
        priors = (
            {},  # flat: every class scores log 1
            {c: 1.0 / n_classes for c in range(n_classes)},
            {0: 0.5, 1: 0.5},  # no prior for class 2
        )
        params = simple_params(
            meas_cov=random_spd(rng, 0.05),
            trans_cov_by_class={c: random_spd(rng, 0.05) for c in range(n_classes)},
            dirac_classes=frozenset(c for c in range(n_classes) if rng.random() < 0.4),
            dp_weight_mode=("exp", "linear")[trial % 2],
            class_prior=priors[trial % 3],
            fp_rate=0.05,
            map_volume=50.0,
        )
        lms = [
            landmark(i, rng.uniform(-1, 1, 3), class_id=int(rng.integers(n_classes)),
                     assign_count=int(rng.integers(1, 5)))
            for i in range(int(rng.integers(0, 7)))
        ]
        n_prev = int(rng.integers(0, len(lms) + 1))
        state = state_with(lms[n_prev:], lms[:n_prev], n_fp=int(rng.integers(0, 2)) * int(rng.integers(1, 4)))
        ms = [
            meas(rng.uniform(-1, 1, 3), class_id=int(rng.integers(n_classes)))
            for _ in range(int(rng.integers(0, 5)))
        ]
        return params, state, ms

    @staticmethod
    def random_assignment(rng, state, cm):
        """Any target per row of `cm`, the cost matrix of `state`, no landmark
        twice: class mismatches included."""
        free = [Existing(k) for k in state.existing.ids.tolist()] + [Previous(k) for k in state.previous.ids.tolist()]
        targets = []
        for _ in range(cm.n_rows):
            options = [New(), FalsePositive()] + free
            t = options[int(rng.integers(len(options)))]
            if t in free:
                free.remove(t)
            targets.append(t)
        return assignment_of(cm, targets)

    def observe(self, seen, params, state, ms, targets, expect):
        if not ms:
            seen.add("empty")
        for m, t in zip(ms, targets):
            if isinstance(t, FalsePositive):
                seen.add("n_fp_positive" if state.n_fp > 0 else "n_fp_zero")
            if not isinstance(t, (Existing, Previous)):
                continue
            lm = rows_of(state.existing if isinstance(t, Existing) else state.previous)[t.landmark_id]
            if lm.label != m.label:
                seen.add("class_mismatch")
            elif params.class_prior and m.label not in params.class_prior:
                seen.add("prior_lacks_label")
            elif expect > LOG_ZERO:
                if isinstance(t, Existing):
                    seen.update(("existing", params.dp_weight_mode))
                else:
                    seen.add("dirac" if lm.label in params.dirac_classes else "previous")

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(17)
        seen = set()
        scored = 0
        for trial in range(300):
            params, state, ms = self.random_case(rng, trial)
            cm = build_cost_matrix(scene_of(ms), state, params)
            original = cm.matrix.copy()
            branches = generate_branches(cm, solve_assignment(cm), max_branches=4, plausibility_gap=np.inf)
            candidates = branches + [self.random_assignment(rng, state, cm) for _ in range(3)]
            for a in candidates:
                targets = targets_of(cm, a)
                expect = scalar_measurement_set_log_likelihood(targets, ms, state, params)
                got = measurement_set_log_likelihood(a, cm)
                if expect == LOG_ZERO:
                    assert got == LOG_ZERO
                else:
                    assert abs(got - expect) <= 1e-12 * abs(expect)
                self.observe(seen, params, state, ms, targets, expect)
                scored += 1
            # branch generation forbids cells in a copy, never in the matrix itself
            assert np.array_equal(cm.matrix, original)
        assert seen == self.CASES
        assert scored >= 900


class TestAssignmentRows:
    """A branch's landmark rows, its New rows and the rest partition its
    rows by the case that each row's column names (conftest's vocabulary),
    and the assignment prior counts them."""

    def test_rows_partition_by_the_case_of_each_column(self):
        rng = np.random.default_rng(28)
        seen = set()
        for trial in range(200):
            params, state, ms = TestBranchScoreParity.random_case(rng, trial)
            cm = build_cost_matrix(scene_of(ms), state, params)
            for a in generate_branches(cm, solve_assignment(cm), max_branches=4, plausibility_gap=np.inf):
                targets = targets_of(cm, a)
                rows = {kind: [i for i, t in enumerate(targets) if isinstance(t, kind)] for kind in (New, FalsePositive)}
                landmark = [i for i, t in enumerate(targets) if isinstance(t, (Existing, Previous))]
                assert type(a.landmark_rows) is list and type(a.new_rows) is list
                assert a.landmark_rows == landmark and a.new_rows == rows[New] and a.n_fp == len(rows[FalsePositive])
                assert sorted(landmark + rows[New] + rows[FalsePositive]) == list(range(len(ms)))
                n_new, n_fp = len(rows[New]), len(rows[FalsePositive])
                expect = (
                    math.lgamma(n_new + 1) + math.lgamma(n_fp + 1) - math.lgamma(len(ms) + 1)
                    + poisson.logpmf(n_new, params.lambda_new)
                    + poisson.logpmf(n_fp, params.lambda_fp)
                )
                assert assignment_prior_log(a, params) == pytest.approx(expect, rel=1e-12, abs=1e-12)
                seen.update(type(t) for t in targets)
        assert seen == {Existing, Previous, New, FalsePositive}


class TestAssignmentPrior:
    @staticmethod
    def assignment(targets):
        """`targets` on the cost matrix of as many measurements against landmark 0."""
        cm = build_cost_matrix(scene_of([meas([0, 0, 0])] * len(targets)), state_with([landmark(0, [0, 0, 0])]), simple_params())
        return assignment_of(cm, targets)

    def test_all_zero_counts(self):
        params = simple_params(lambda_new=0.5, lambda_fp=0.2)
        a = self.assignment([])
        assert assignment_prior_log(a, params) == pytest.approx(-0.7)

    def test_mixed_counts_spot_value(self):
        params = simple_params(lambda_new=0.5, lambda_fp=0.2)
        a = self.assignment([New(), FalsePositive(), Existing(0)])
        expect = math.log((1.0 / 6.0) * 0.5 * math.exp(-0.5) * 0.2 * math.exp(-0.2))
        got = assignment_prior_log(a, params)
        assert got == pytest.approx(expect, rel=1e-9)
        assert got == pytest.approx(-4.794, abs=1e-3)

    def test_all_new_factorials_cancel(self):
        params = simple_params(lambda_new=0.5, lambda_fp=0.2)
        a = self.assignment([New(), New(), New()])
        lam = 0.5
        expect = math.log(math.exp(-lam) * lam**3 / 6.0) + math.log(math.exp(-0.2))
        assert assignment_prior_log(a, params) == pytest.approx(expect, rel=1e-9)

    def test_duplicate_landmark_assignment_rejected(self):
        """No column twice: neither a landmark's nor a row's New column."""
        cm = build_cost_matrix(scene_of([meas([0, 0, 0])] * 2), state_with([landmark(0, [0, 0, 0])]), simple_params())
        for cols in ([0, 0], [1, 1]):
            with pytest.raises(ContractViolation):
                cm.assignment_at(np.array(cols))


class TestBuildCostMatrix:
    def test_zero_measurements(self):
        cm = build_cost_matrix(scene_of([]), state_with(), simple_params())
        assert cm.matrix.shape == (0, 0)
        assert cm.n_rows == 0

    def test_existing_column_spot_value(self):
        params = simple_params()
        st_ = state_with(existing=[landmark(0, [0, 0, 0], assign_count=1)])
        cm = build_cost_matrix(scene_of([meas([0, 0, 0])]), st_, params)
        assert cm.matrix[0, 0] == pytest.approx(-1.0 + 2.757, abs=1e-3)

    def test_class_mismatch_forbidden(self):
        params = simple_params()
        st_ = state_with(existing=[landmark(0, [0, 0, 0], class_id=1)])
        cm = build_cost_matrix(scene_of([meas([0, 0, 0], class_id=0)]), st_, params)
        assert cm.matrix[0, 0] >= 1e17

    def test_previous_class_without_transitional_covariance_rejected(self):
        trans = {0: np.eye(3), 2: np.eye(3)}
        params = simple_params(trans_cov_by_class=trans, dirac_classes=frozenset([3]))
        ms = [meas([0, 0, 0], class_id=c) for c in range(4)]
        # an existing column, or a Dirac class, needs no transitional covariance
        ok = state_with([landmark(0, [0, 0, 0], class_id=1)], [landmark(1, [0, 0, 0], class_id=3)])
        assert np.isfinite(build_cost_matrix(scene_of(ms), ok, params).matrix[1, 0])
        for class_id in (1, 9):  # inside and past the classes that have one
            st_ = state_with([], [landmark(0, [0, 0, 0], class_id=2), landmark(1, [0, 0, 0], class_id=class_id)])
            with pytest.raises(ContractViolation, match=f"class {class_id}$"):
                build_cost_matrix(scene_of(ms), st_, params)

    def test_row_log_prior_reads_the_class_prior_table(self):
        ms = [meas([0, 0, 0], class_id=c) for c in (0, 1, 2, 9)]
        flat = build_cost_matrix(scene_of(ms), state_with(), simple_params())
        assert flat.row_log_prior.tolist() == [0.0] * 4
        params = simple_params(class_prior={0: 0.25, 2: 1.0})
        got = build_cost_matrix(scene_of(ms), state_with(), params).row_log_prior
        assert got.tolist() == [math.log(0.25), LOG_ZERO, 0.0, LOG_ZERO]

    @pytest.mark.parametrize(
        "bad",
        [dict(class_prior={0: 0.0}), dict(class_prior={1: 1.5}), dict(class_prior={-1: 0.5}),
         dict(trans_cov_by_class={-1: np.eye(3)}), dict(dirac_classes=frozenset([-2]))],
    )
    def test_bad_class_tables_rejected(self, bad):
        with pytest.raises(ContractViolation):
            simple_params(**bad)

    def test_new_and_fp_columns_are_per_measurement(self):
        params = simple_params()
        cm = build_cost_matrix(scene_of([meas([0, 0, 0]), meas([1, 0, 0])]), state_with(), params)
        # cross-row new/fp cells are forbidden
        assert cm.matrix[0, 1] >= 1e17 and cm.matrix[1, 0] >= 1e17
        assert cm.matrix[0, 3] >= 1e17 and cm.matrix[1, 2] >= 1e17
        assert np.isfinite(cm.matrix[0, 0]) and np.isfinite(cm.matrix[1, 1])

    def test_matches_scalar_likelihoods(self, rng):
        """The vectorized matrix equals the scalar per-cell likelihood."""
        params = simple_params(fp_rate=0.05, map_volume=50.0)
        for _ in range(10):
            existing = [
                landmark(i, rng.uniform(-4, 4, 3), class_id=int(rng.integers(3)), assign_count=int(rng.integers(1, 4)))
                for i in range(4)
            ]
            previous = [
                landmark(10 + i, rng.uniform(-4, 4, 3), class_id=int(rng.integers(3)))
                for i in range(2)
            ]
            st_ = state_with(existing, previous, n_fp=int(rng.integers(0, 3)))
            ms = [meas(rng.uniform(-4, 4, 3), class_id=int(rng.integers(3))) for _ in range(3)]
            cm = build_cost_matrix(scene_of(ms), st_, params)
            for i, m in enumerate(ms):
                for j in range(cm.n_landmark_cols):
                    target = target_of(cm, j)
                    expect = scalar_association_log_likelihood(m, target, st_, params)
                    if expect <= LOG_ZERO:
                        assert cm.matrix[i, j] >= 1e17
                    else:
                        assert cm.matrix[i, j] == pytest.approx(-expect, rel=1e-9)
                n_lm = cm.n_landmark_cols
                assert cm.matrix[i, n_lm + i] == pytest.approx(
                    -scalar_association_log_likelihood(m, New(), st_, params)
                )
                assert cm.matrix[i, n_lm + len(ms) + i] == pytest.approx(
                    -scalar_association_log_likelihood(m, FalsePositive(), st_, params), rel=1e-9
                )


class TestSolveAssignment:
    @staticmethod
    def make_cm(landmark_block, new_cost=50.0, fp_cost=60.0):
        """CostMatrix with an explicit landmark block plus New/FP columns."""
        lm_block = np.asarray(landmark_block, dtype=float)
        n, n_lm = lm_block.shape
        mat = np.full((n, n_lm + 2 * n), 1e18)
        mat[:, :n_lm] = lm_block
        for i in range(n):
            mat[i, n_lm + i] = new_cost
            mat[i, n_lm + n + i] = fp_cost
        return CostMatrix(mat, np.arange(n_lm), n_lm, np.zeros(n_lm), np.zeros(n))

    def test_zero_diagonal(self):
        cm = self.make_cm([[0.0, 1.0], [1.0, 0.0]])
        a = solve_assignment(cm)
        assert targets_of(cm, a) == (Existing(0), Existing(1)) and a.total_cost == 0.0

    def test_forced_swap(self):
        cm = self.make_cm([[4.0, 1.0], [2.0, 3.0]])
        a = solve_assignment(cm)
        assert targets_of(cm, a) == (Existing(1), Existing(0)) and a.total_cost == 3.0

    def test_empty(self):
        a = solve_assignment(build_cost_matrix(scene_of([]), state_with(), simple_params()))
        assert a.columns == () and a.landmark_rows == a.new_rows == [] and a.n_fp == 0

    def test_matches_brute_force(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 5))
            cm = self.make_cm(rng.integers(0, 30, size=(n, n + 2)).astype(float))
            got = solve_assignment(cm)
            _, expect = brute_force_assignment(cm.matrix)
            assert got.total_cost == pytest.approx(expect)

    def test_deterministic_tie_break(self):
        # every assignment costs 2; the lexicographically smallest wins
        cm = self.make_cm([[1.0, 1.0], [1.0, 1.0]])
        assert targets_of(cm, solve_assignment(cm)) == (Existing(0), Existing(1))

    def test_tie_break_prefers_low_column_for_low_row(self):
        # rows x cols all tied at cost 5 across 3 landmarks
        cm = self.make_cm(np.full((2, 3), 5.0))
        assert targets_of(cm, solve_assignment(cm)) == (Existing(0), Existing(1))

    def test_lexicographically_first_optimum_on_ties(self, rng):
        """Among tied optima, the one brute force meets first in
        lexicographic order of the row -> column tuple, with up to half of
        the landmark cells forbidden."""
        tied = 0
        for _ in range(60):
            n = int(rng.integers(1, 5))
            block = rng.integers(0, 3, size=(n, int(rng.integers(1, 6)))).astype(float)
            block[rng.random(block.shape) < rng.uniform(0.0, 0.5)] = BIG
            cm = self.make_cm(block, 2.0, 2.0)
            cols, best = brute_force_assignment(cm.matrix)
            got = solve_assignment(cm)
            assert got.columns == cols
            assert got.total_cost == best
            n_opt = sum(
                sum(cm.matrix[i, j] for i, j in enumerate(perm)) == best
                for perm in itertools.permutations(range(cm.matrix.shape[1]), n)
            )
            tied += n_opt > 1
        assert tied >= 30

    @pytest.mark.parametrize("ties", [True, False])
    def test_lex_refine_matches_row_by_row_reference(self, rng, ties):
        """The tie break on lap_solve's duals gives the columns of the
        row-by-row search that re-solves, with 0-50 % of the cells forbidden.
        On tie-heavy matrices, integer or 0.1-scaled, it moves some
        assignments, among them ones where a row leaves a column of negative
        dual, which a later row must refill; on tie-free ones it moves none."""
        moved = vacated = 0
        for _ in range(150):
            n = int(rng.integers(1, 8))
            m = n + int(rng.integers(0, 8))
            if ties:
                mat = rng.integers(0, 3, size=(n, m)) * (1.0, 0.1)[int(rng.integers(2))]
            else:
                mat = rng.uniform(0.0, 10.0, size=(n, m))
            mat[rng.random((n, m)) < rng.uniform(0.0, 0.5)] = BIG
            r2c, u, v, total = kernels.lap_solve(mat)
            if total >= BIG / 2:
                continue
            tol = 1e-9 * max(1.0, abs(total))
            got = _lex_refine(mat, r2c, u, v, tol)
            assert got.tolist() == scalar_lex_refine(mat, r2c, u, v, total, tol).tolist()
            assert np.isin(np.flatnonzero(v < -tol), got).all()
            moved += got.tolist() != r2c.tolist()
            vacated += bool((v[r2c[got != r2c]] < -tol).any())
        assert (moved > 0) == ties
        assert (vacated > 0) == ties

    def test_tie_free_solve_runs_one_lap_solve(self, rng, monkeypatch):
        """Without a tied cell the solver's assignment is final: no trial solve."""
        lap_solve = kernels.lap_solve
        calls = []
        monkeypatch.setattr(kernels, "lap_solve", lambda cost: calls.append(cost.shape) or lap_solve(cost))
        for _ in range(20):
            n = int(rng.integers(1, 6))
            block = rng.uniform(5.0, 10.0, size=(n, n + 2))
            block[np.arange(n), rng.permutation(n + 2)[:n]] = rng.uniform(0.0, 1.0, size=n)
            calls.clear()
            solve_assignment(self.make_cm(block))
            assert len(calls) == 1

    def test_tie_break_calls_no_solver(self, rng, monkeypatch):
        """On tie-heavy matrices the tie break moves some assignments off
        lap_solve's own, and every solve still runs one lap_solve."""
        lap_solve = kernels.lap_solve
        calls, moved = [], 0
        monkeypatch.setattr(kernels, "lap_solve", lambda cost: calls.append(cost.shape) or lap_solve(cost))
        for _ in range(40):
            n = int(rng.integers(1, 7))
            cm = self.make_cm(rng.integers(0, 3, size=(n, int(rng.integers(1, 6)))).astype(float), 2.0, 2.0)
            calls.clear()
            got = solve_assignment(cm)
            assert len(calls) == 1
            moved += got.columns != tuple(lap_solve(cm.matrix)[0].tolist())
        assert moved > 0

    def test_all_forbidden_row_is_infeasible(self):
        cm = self.make_cm([[1.0, 2.0], [3.0, 4.0]])
        cm.matrix[1, :] = 1e18
        with pytest.raises(InfeasibleAssignment):
            solve_assignment(cm)


class TestGenerateBranches:
    def test_two_branch_example(self):
        cm = TestSolveAssignment.make_cm([[4.0, 1.0], [2.0, 3.0]])
        best = solve_assignment(cm)
        branches = generate_branches(cm, best, max_branches=5, plausibility_gap=np.inf)
        assert [b.total_cost for b in branches[:2]] == [3.0, 7.0]
        assert targets_of(cm, branches[1]) == (Existing(0), Existing(1))

    def test_max_branches_one(self):
        cm = TestSolveAssignment.make_cm([[4.0, 1.0], [2.0, 3.0]])
        best = solve_assignment(cm)
        assert generate_branches(cm, best, max_branches=1) == [best]

    def test_zero_gap_keeps_cost_ties_only(self):
        cm = TestSolveAssignment.make_cm([[1.0, 1.0], [1.0, 1.0]])
        best = solve_assignment(cm)
        branches = generate_branches(cm, best, max_branches=5, plausibility_gap=0.0)
        assert len(branches) == 2
        assert branches[1].total_cost == pytest.approx(best.total_cost)

    def test_gap_excludes_expensive_alternatives(self):
        cm = TestSolveAssignment.make_cm([[4.0, 1.0], [2.0, 3.0]])
        best = solve_assignment(cm)
        assert generate_branches(cm, best, max_branches=5, plausibility_gap=3.9) == [best]

    def test_costs_non_decreasing(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 4))
            cm = TestSolveAssignment.make_cm(rng.uniform(0, 10, size=(n, n + 1)), new_cost=20.0, fp_cost=25.0)
            best = solve_assignment(cm)
            branches = generate_branches(cm, best, max_branches=4, plausibility_gap=np.inf)
            costs = [b.total_cost for b in branches]
            assert costs == sorted(costs)

    def test_consecutive_branches_share_no_cell(self, rng):
        # forbidding the full previous optimum means the next branch reuses
        # none of its (measurement, target) pairs
        for _ in range(10):
            cm = TestSolveAssignment.make_cm(rng.uniform(0, 10, size=(3, 4)), new_cost=20.0, fp_cost=25.0)
            best = solve_assignment(cm)
            branches = generate_branches(cm, best, max_branches=3, plausibility_gap=np.inf)
            for prev, nxt in zip(branches, branches[1:]):
                for a, b in zip(targets_of(cm, prev), targets_of(cm, nxt)):
                    if isinstance(a, Existing) and isinstance(b, Existing):
                        assert a != b

    def test_branches_carry_their_columns(self, rng):
        """Each branch keeps the columns it was solved at: their cells sum
        to its cost."""
        for _ in range(20):
            n = int(rng.integers(1, 5))
            cm = TestSolveAssignment.make_cm(rng.integers(0, 4, size=(n, n + 1)).astype(float), 3.0, 4.0)
            for b in generate_branches(cm, solve_assignment(cm), max_branches=4, plausibility_gap=np.inf):
                assert b.total_cost == cm.matrix[np.arange(n), b.columns].sum()

    def test_invalid_max_branches(self):
        cm = TestSolveAssignment.make_cm([[0.0]])
        with pytest.raises(ContractViolation):
            generate_branches(cm, solve_assignment(cm), max_branches=0)


class TestNearestNeighborAssignment:
    """The single_ukf baseline: Hungarian on L2 distances over the landmark
    and New columns of the leaf's cost matrix."""

    @staticmethod
    def solve(ms, state, nn_new_dist=2.0):
        scene = scene_of(ms)
        cm = build_cost_matrix(scene, state, simple_params())
        a = nearest_neighbor_assignment(scene, state, cm, nn_new_dist)
        return cm, a, targets_of(cm, a)

    def test_picks_the_nearest_landmark_of_the_same_class(self):
        st_ = state_with(
            existing=[landmark(0, [0, 0, 0]), landmark(1, [0.8, 0, 0], class_id=1)],
            previous=[landmark(5, [1.0, 0, 0])],
        )
        cm, a, targets = self.solve([meas([0.05, 0, 0]), meas([0.8, 0, 0])], st_)
        assert targets == (Existing(0), Previous(5))
        assert a.columns == (0, 2)

    def test_far_landmarks_take_the_rows_own_new_column(self):
        st_ = state_with(existing=[landmark(0, [10, 0, 0])], previous=[landmark(5, [0, 10, 0])])
        ms = [meas([0, 0, 0]), meas([1, 1, 0]), meas([0, 0, 1])]
        cm, a, targets = self.solve(ms, st_, nn_new_dist=2.0)
        assert a.columns == tuple(cm.n_landmark_cols + i for i in range(len(ms)))
        assert targets == (New(), New(), New())

    def test_never_takes_a_class_mismatched_landmark(self, rng):
        st_ = state_with(existing=[landmark(0, [0, 0, 0], class_id=1)], previous=[landmark(5, [0, 0, 0], class_id=2)])
        *_, targets = self.solve([meas([0, 0, 0])], st_)
        assert targets == (New(),)
        for _ in range(50):
            lms = [
                landmark(i, rng.uniform(-2, 2, 3), class_id=int(rng.integers(3)))
                for i in range(int(rng.integers(0, 6)))
            ]
            n_prev = int(rng.integers(0, len(lms) + 1))
            st_ = state_with(lms[n_prev:], lms[:n_prev])
            ms = [meas(rng.uniform(-2, 2, 3), class_id=int(rng.integers(3))) for _ in range(int(rng.integers(1, 5)))]
            cm, a, targets = self.solve(ms, st_, nn_new_dist=3.0)
            for i, (m, t) in enumerate(zip(ms, targets)):
                assert a.columns[i] < cm.n_landmark_cols + len(ms)  # never a FalsePositive column
                if isinstance(t, (Existing, Previous)):
                    lm = rows_of(st_.existing if isinstance(t, Existing) else st_.previous)[t.landmark_id]
                    assert lm.label == m.label
                else:
                    assert t == New() and a.columns[i] == cm.n_landmark_cols + i


def _unbounded_branches(cm, best, max_branches, gap):
    """generate_branches without its row-minima bound: every re-solve runs."""
    branches = [best]
    mat = cm.matrix.copy()
    rows, cols = np.arange(cm.n_rows), best.columns
    while len(branches) < max_branches:
        mat[rows, cols] = BIG
        r2c, u, v, total = kernels.lap_solve(mat)
        if total >= BIG / 2 or total > best.total_cost + gap:
            break
        cols = _lex_refine(mat, r2c, u, v, 1e-9 * max(1.0, abs(total)))
        branches.append(cm.assignment_at(cols, float(mat[rows, cols].sum())))
    return branches


class TestBranchBound:
    def test_row_minima_bound_the_solve(self, rng):
        # summed in row order, the row minima never exceed lap_solve's total,
        # forbidden cells and infeasible rows included
        for _ in range(300):
            n = int(rng.integers(1, 9))
            m = n + int(rng.integers(0, 8))
            mat = rng.uniform(-5.0, 15.0, size=(n, m)) if rng.random() < 0.7 else rng.integers(0, 3, (n, m)) * 1.0
            mat[rng.random((n, m)) < rng.uniform(0.0, 0.6)] = BIG
            total = kernels.lap_solve(mat)[3]
            assert float(np.add.accumulate(mat.min(axis=1))[-1]) <= total

    @pytest.mark.parametrize("gap", [6.0, 100.0])
    def test_branches_equal_the_unbounded_loop(self, rng, monkeypatch, gap):
        lap_solve = kernels.lap_solve
        calls = []
        monkeypatch.setattr(kernels, "lap_solve", lambda cost: calls.append(1) or lap_solve(cost))
        bounded = unbounded = 0
        for _ in range(150):
            n = int(rng.integers(1, 7))
            block = rng.uniform(0.0, 14.0, size=(n, int(rng.integers(0, 9))))
            block[rng.random(block.shape) < 0.5] = BIG
            cm = TestSolveAssignment.make_cm(block, new_cost=8.0, fp_cost=float(rng.uniform(6.0, 14.0)))
            best = solve_assignment(cm)
            calls.clear()
            got = generate_branches(cm, best, max_branches=5, plausibility_gap=gap)
            bounded += len(calls)
            calls.clear()
            want = _unbounded_branches(cm, best, 5, gap)
            unbounded += len(calls)
            assert [(b.columns, b.total_cost) for b in got] == [(b.columns, b.total_cost) for b in want]
        assert bounded < unbounded, (bounded, unbounded)
