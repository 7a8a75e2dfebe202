"""Dirichlet-process data association: case likelihoods, assignment prior,
cost matrices, the Hungarian solve, and alternative-branch generation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Mapping, Tuple

import numpy as np

from . import kernels
from .core import ContractViolation, MeasurementTable, check_spd
from .geometry import norms

LOG_ZERO = -1e18  # log-domain sentinel for impossible events
_LOG2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# parameters and assignments


@dataclass(frozen=True, eq=False)
class AssocParams:
    """Tunables of the association model. The fields named after `RunConfig`
    keys have no default: the pipeline passes the config's values."""

    meas_cov: np.ndarray
    trans_cov_by_class: Mapping[int, np.ndarray]  # class id -> transitional covariance
    dirichlet_alpha: float
    fp_rate: float
    map_volume: float
    lambda_new: float
    lambda_fp: float
    prior_volume: float
    dp_weight_mode: str  # "exp" follows the printed model, "linear" the standard DP weight
    class_prior: Mapping[int, float] = field(default_factory=dict)  # class id -> p_s(class)
    dirac_classes: frozenset = frozenset()  # class ids
    # candidates enter the false-positive denominator only inside this
    # squared-Mahalanobis validation gate (chi-square 99%, 3 dof); without it
    # any far-off candidate density drives the false-positive likelihood to
    # infinity and clutter swallows the map
    candidate_gate: float = 11.345

    def __post_init__(self):
        object.__setattr__(self, "meas_cov", np.asarray(self.meas_cov, dtype=float))
        check_spd(self.meas_cov)
        if min((*self.trans_cov_by_class, *self.class_prior, *self.dirac_classes), default=0) < 0:
            raise ContractViolation("class ids must be non-negative")
        # Each distinct cost-matrix column covariance, factored once into an
        # inverse Cholesky factor and a log-determinant: group 0 is meas_cov,
        # for existing landmarks and Dirac classes; a previous landmark of another
        # class takes meas_cov + its trans. _cov_group: class id -> group, or -1.
        sums = {}
        for class_id, trans in self.trans_cov_by_class.items():
            check_spd(np.asarray(trans))
            sums[class_id] = self.meas_cov + np.asarray(trans)
        sums.update((class_id, self.meas_cov) for class_id in self.dirac_classes)
        distinct = {cov.tobytes(): cov for cov in [self.meas_cov, *sums.values()]}
        factors = [np.linalg.cholesky(cov) for cov in distinct.values()]
        object.__setattr__(self, "_cov_factors", [(np.linalg.inv(L), float(np.log(np.diag(L)).sum())) for L in factors])
        cov_group = np.full(max(sums, default=-1) + 2, -1)
        for class_id, cov in sums.items():
            cov_group[class_id] = list(distinct).index(cov.tobytes())
        object.__setattr__(self, "_cov_group", cov_group)
        # _log_prior: class id -> log class prior, the last entry standing for
        # every class past the table. An empty prior is flat (log 1); a class
        # the prior leaves out is impossible.
        log_prior = np.full(max(self.class_prior, default=-1) + 2, LOG_ZERO if self.class_prior else 0.0)
        for class_id, p in self.class_prior.items():
            if not (0.0 < p <= 1.0):
                raise ContractViolation("class_prior values must lie in (0, 1]")
            log_prior[class_id] = math.log(p)
        object.__setattr__(self, "_log_prior", log_prior)


@dataclass(frozen=True)
class Assignment:
    """One branch: row i takes cost-matrix column columns[i], at the solve's
    cost. CostMatrix.assignment_at derives the rows at a landmark's column
    and the rows at their own New column; every other row is a false positive."""

    columns: Tuple[int, ...]
    total_cost: float
    landmark_rows: List[int] = field(compare=False)
    new_rows: List[int] = field(compare=False)

    def __post_init__(self):
        if len(set(self.columns)) != len(self.columns):
            raise ContractViolation("column assigned to more than one measurement")

    @property
    def n_fp(self) -> int:
        return len(self.columns) - len(self.landmark_rows) - len(self.new_rows)


def _poisson_logpmf(n: int, mean: float) -> float:
    return -mean + n * math.log(mean) - math.lgamma(n + 1)


def assignment_prior_log(assignment: Assignment, params: AssocParams) -> float:
    """Log prior of the (n_new, n_fp) pattern with Poisson count priors."""
    n_new, n_fp, n_meas = len(assignment.new_rows), assignment.n_fp, len(assignment.columns)
    log_comb = math.lgamma(n_new + 1) + math.lgamma(n_fp + 1) - math.lgamma(n_meas + 1)
    return (
        log_comb
        + _poisson_logpmf(n_new, params.lambda_new * params.prior_volume)
        + _poisson_logpmf(n_fp, params.lambda_fp * params.prior_volume)
    )


# ---------------------------------------------------------------------------
# cost matrix and Hungarian solve


@dataclass(eq=False)
class CostMatrix:
    """Negative log association likelihoods; rows = measurements.

    Columns: existing landmarks, previous landmarks, then one New and one
    FalsePositive column per measurement (forbidden for the other rows).
    column_ids holds the landmark columns' ids, the first n_existing of them
    existing landmarks. A landmark cell holds -(log f(z | landmark) +
    dp_bonus[column]), or BIG on a class mismatch; a New or FalsePositive
    cell holds minus that case's log likelihood. row_log_prior[i] is the log
    class prior of measurement i's class.
    """

    matrix: np.ndarray
    column_ids: np.ndarray
    n_existing: int
    dp_bonus: np.ndarray
    row_log_prior: np.ndarray

    def __post_init__(self):
        self.n_rows, self.n_landmark_cols = self.matrix.shape[0], len(self.column_ids)

    def assignment_at(self, row_to_col: np.ndarray, total_cost: float = 0.0) -> Assignment:
        """The assignment of row i to column row_to_col[i]."""
        cols, n_lm = row_to_col.tolist(), self.n_landmark_cols
        landmark_rows = [i for i, j in enumerate(cols) if j < n_lm]
        new_rows = [i for i, j in enumerate(cols) if n_lm <= j < n_lm + self.n_rows]  # the row's own New column
        return Assignment(tuple(cols), total_cost, landmark_rows, new_rows)


def _cov_groups(leaf, params: AssocParams):
    """The landmark columns of `leaf` by covariance group, in group order, as
    (columns, means, (L_inv, logdet)). Existing columns and Dirac classes are
    group 0, and a previous column is its class's group. `columns` is a
    slice when the previous columns are one group other than 0, or there are
    none; otherwise it is an index array."""
    ex, prev = leaf.existing, leaf.previous
    n_ex, n_lm = len(ex), len(ex) + len(prev)
    factors = params._cov_factors
    if not len(prev):
        return [(slice(0, n_ex), ex.means, factors[0])] if n_ex else []
    prev_group = params._cov_group[np.minimum(prev.labels, len(params._cov_group) - 1)]
    lo, hi = prev_group.min(), prev_group.max()
    if lo < 0:
        raise ContractViolation(f"no transitional covariance for class {prev.labels[np.argmax(prev_group < 0)]}")
    if lo == hi != 0:  # the existing columns, then the previous ones
        groups = [(slice(0, n_ex), ex.means, factors[0])] if n_ex else []
        return groups + [(slice(n_ex, n_lm), prev.means, factors[lo])]
    (means,) = leaf.columns("means")
    col_group = np.concatenate([np.zeros(n_ex, dtype=int), prev_group])
    groups = [(np.flatnonzero(col_group == g), factor) for g, factor in enumerate(factors)]
    return [(cols, means[cols], factor) for cols, factor in groups if len(cols)]


def build_cost_matrix(measurements: MeasurementTable, leaf, params: AssocParams) -> CostMatrix:
    """The cost matrix of the rows of `measurements` against the landmark tables and
    clutter count (`existing`, `previous`, `n_fp`) of a hypothesis leaf,
    whose `columns` gives the landmark columns.

    Each covariance group is whitened by one product over all of its
    (row, column) differences: split or stacked products round some
    entries differently. The rest runs once over the whole landmark block:
    the log densities, the class match, the cells and the validation gate."""
    n, n_ex = len(measurements), len(leaf.existing)
    column_ids, col_class = leaf.columns("ids", "labels")
    n_lm = len(column_ids)
    width = n_lm + 2 * n
    mat = np.full((n, width), kernels.BIG)
    if n == 0:
        return CostMatrix(mat, column_ids, n_ex, np.zeros(n_lm), np.zeros(0))
    pos, meas_class = measurements.positions, measurements.labels
    row_log_prior = params._log_prior[np.minimum(meas_class, len(params._log_prior) - 1)]
    dp_bonus = np.zeros(n_lm)
    counts = leaf.existing.assign_count
    dp_bonus[:n_ex] = counts if params.dp_weight_mode == "exp" else [math.log(c) for c in counts.tolist()]
    maha, logdet = np.empty((n, n_lm)), np.empty(n_lm)
    pos_rows = pos.repeat(n_lm, axis=0).reshape(n, n_lm, 3)  # pos_rows[i, j] = pos[i]
    for cols, means, (L_inv, group_logdet) in _cov_groups(leaf, params):
        k = len(means)
        diffs = pos_rows[:, :k] - means  # (n, k, 3)
        y = L_inv @ diffs.reshape(-1, 3).T
        y *= y
        maha[:, cols] = np.add.reduce(y, axis=0).reshape(n, k)  # x^2 + y^2, then + z^2
        logdet[cols] = group_logdet
    density = -0.5 * maha - logdet - 1.5 * _LOG2PI
    match = meas_class[:, None] == col_class
    cells = density + dp_bonus
    np.negative(cells, out=cells)
    if np.isnan(cells.sum()):  # an overflowing difference: forbidden, as a class mismatch is
        match &= ~np.isnan(cells)
    np.putmask(mat[:, :n_lm], match, cells)
    gated = maha <= params.candidate_gate
    gated &= match
    cand_sum = np.add.reduce(np.where(gated, density, 0.0), axis=1)  # pairwise over each whole row
    new_cost = -(math.log(params.dirichlet_alpha) - math.log(params.map_volume))
    if leaf.n_fp > 0:
        fp_num = math.log(params.fp_rate) + math.log(leaf.n_fp)
    else:
        fp_num = math.log(params.fp_rate) + math.log(params.dirichlet_alpha)
    # row i's New and FalsePositive cells, (i, n_lm + i) and (i, n_lm + n + i),
    # are every (width + 1)-th entry of the flat matrix
    flat = mat.reshape(-1)
    flat[n_lm : n * width : width + 1] = new_cost
    flat[n_lm + n : n * width : width + 1] = -(fp_num - cand_sum)
    return CostMatrix(mat, column_ids, n_ex, dp_bonus, row_log_prior)


def measurement_set_log_likelihood(assignment: Assignment, cm: CostMatrix) -> float:
    """Joint measurement log-likelihood of one branch under conditional
    independence, read from the cells of `cm` that the branch selects.

    A landmark case scores log p_s(class) + log f(z | landmark): its cell
    minus the DP bonus, which ranks assignments but is no part of the
    measurement likelihood, plus the row's log class prior. New and
    FalsePositive cells are the case likelihoods as they are. A class
    mismatch or a class without prior -> LOG_ZERO. `cm` must be the matrix
    as built, not a copy with cells forbidden by branch generation.
    """
    if len(assignment.columns) != cm.n_rows:
        raise ContractViolation("assignment does not cover all measurements")
    total, landmark_rows = 0.0, set(assignment.landmark_rows)
    cell, row_log_prior, dp_bonus = cm.matrix.item, cm.row_log_prior.item, cm.dp_bonus.item
    for i, j in enumerate(assignment.columns):
        cost = cell(i, j)
        if cost >= kernels.BIG / 2:
            return LOG_ZERO
        if i in landmark_rows:
            prior = row_log_prior(i)
            if prior <= LOG_ZERO:
                return LOG_ZERO
            total += prior
            total += -cost - dp_bonus(j)
        else:
            total -= cost
    return total


class InfeasibleAssignment(RuntimeError):
    pass


def _lex_refine(mat: np.ndarray, row_to_col: np.ndarray, u: np.ndarray, v: np.ndarray, tol: float):
    """Deterministic tie break: the lexicographically smallest optimal
    assignment (lowest column per row, rows in order), read from lap_solve's
    duals u, v. By complementary slackness an assignment is optimal exactly
    when every cell it takes is tight, with reduced cost mat - u - v <= tol
    (per cell), and it takes every column whose dual is below -tol. So each
    row in turn keeps its lowest tight column from which an alternating path
    over tight cells re-matches the later rows; the free columns act as one
    extra row, n, that may take any column of zero dual."""
    n, m = mat.shape
    tight = mat - u[:, None]
    tight -= v
    tight = tight <= tol
    tight &= mat < kernels.BIG / 2
    if not (tight & (np.arange(m) < row_to_col[:, None])).any():
        return row_to_col
    takes = np.vstack([tight, v >= -tol])
    current = np.append(row_to_col, -1)  # slot n takes the free row's moves, never read
    for i in range(n):
        c = current[i]
        if tight[i, :c].any():
            owner = np.full(m, n)  # the row holding each column
            owner[current[:n]] = np.arange(n)
            # step[a]: the column that later row a (or the free row) moves onto,
            # on a shortest path of moves that ends by taking c, row i's column
            step, reach = np.full(n + 1, -1), np.arange(m) == c
            while True:
                can = takes[i + 1 :] & reach
                new = np.logical_or.reduce(can, axis=1) & (step[i + 1 :] < 0)
                if not new.any():
                    break
                step[i + 1 :][new] = can[new].argmax(axis=1)
                reach |= step[owner] >= 0
            movable = np.flatnonzero(tight[i, :c] & (step[owner[:c]] >= 0))
            if len(movable):
                a, current[i] = owner[movable[0]], movable[0]
                while a != i:  # each row on the path takes its step, the last one c
                    current[a], a = step[a], owner[step[a]]
    return current[:n]


def _solve(cm: CostMatrix, mat: np.ndarray) -> Tuple[Assignment, float]:
    """The lexicographically first optimum of `mat` (cm's matrix, or a copy
    with cells forbidden) and lap_solve's total, if finite."""
    row_to_col, u, v, total = kernels.lap_solve(mat)
    if total >= kernels.BIG / 2:
        raise InfeasibleAssignment("no finite assignment exists")
    # The one tie this tolerance decides on the panel: at n_fp = 2 with no
    # gated candidate, a FalsePositive cell, -log(fp_rate * 2), and a New
    # cell, log(map_volume / dirichlet_alpha), are both log 50 to a few
    # ulps, and the row takes the lower column, New.
    cols = _lex_refine(mat, row_to_col, u, v, 1e-9 * max(1.0, abs(total)))
    return cm.assignment_at(cols, float(mat[np.arange(cm.n_rows), cols].sum())), total


def solve_assignment(cm: CostMatrix) -> Assignment:
    """Minimum-cost assignment; ties resolved toward low row then column index."""
    if cm.n_rows == 0:
        return cm.assignment_at(np.zeros(0, dtype=int))
    return _solve(cm, cm.matrix)[0]


def generate_branches(
    cm: CostMatrix,
    best: Assignment,
    max_branches: int = 5,
    plausibility_gap: float = 6.0,
) -> List[Assignment]:
    """Alternative assignments by repeatedly forbidding the previous optimum.

    Returns [best, ...] sorted by ascending cost; stops at max_branches or
    once a re-solve exceeds best cost + plausibility_gap.
    """
    if max_branches < 1:
        raise ContractViolation("max_branches must be >= 1")
    branches = [best]
    if cm.n_rows == 0 or max_branches == 1:
        return branches
    mat = cm.matrix.copy()
    rows = np.arange(cm.n_rows)
    cols = best.columns
    while len(branches) < max_branches:
        mat[rows, cols] = kernels.BIG
        # the row minima, added in row order as lap_solve adds its total:
        # rounding is monotone, so this bounds the re-solve's total from below
        if float(np.add.accumulate(mat.min(axis=1))[-1]) > best.total_cost + plausibility_gap:
            break
        try:
            branch, total = _solve(cm, mat)
        except InfeasibleAssignment:
            break
        if total > best.total_cost + plausibility_gap:
            break
        branches.append(branch)
        cols = branch.columns
    return branches


def nearest_neighbor_assignment(
    measurements: MeasurementTable,
    leaf,
    cm: CostMatrix,
    nn_new_dist: float,
) -> Assignment:
    """Single-hypothesis baseline: Hungarian on plain L2 distances with a
    fixed new-landmark cost; no false-positive handling. It solves over the
    landmark and New columns of `cm`, the cost matrix of `leaf`."""
    n, n_lm = len(measurements), cm.n_landmark_cols
    labels, means = leaf.columns("labels", "means")
    mat = np.full((n, n_lm + n), kernels.BIG)
    dist = norms(measurements.positions[:, None, :] - means[None, :, :])
    mat[:, :n_lm] = np.where(measurements.labels[:, None] == labels[None, :], dist, kernels.BIG)
    np.fill_diagonal(mat[:, n_lm:], nn_new_dist)
    return cm.assignment_at(kernels.lap_solve(mat)[0])
