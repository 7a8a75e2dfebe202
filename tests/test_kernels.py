"""Numeric kernels: assignment solver, systematic resampling and RANSAC
consensus, each checked exactly against its scalar reference loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semslam import kernels

from conftest import (
    brute_force_assignment,
    scalar_exp_so3,
    scalar_lap_solve,
    scalar_ransac_best_mask,
    scalar_systematic_resample,
)


class TestLapSolve:
    def test_zero_diagonal(self):
        r2c, _, _, total = kernels.lap_solve(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert list(r2c) == [0, 1] and total == 0.0

    def test_forced_off_diagonal(self):
        r2c, _, _, total = kernels.lap_solve(np.array([[4.0, 1.0], [2.0, 3.0]]))
        assert list(r2c) == [1, 0] and total == 3.0

    def test_matches_brute_force_square(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 6))
            cost = rng.integers(0, 20, size=(n, n)).astype(float)
            _, _, _, total = kernels.lap_solve(cost)
            _, expect = brute_force_assignment(cost)
            assert total == pytest.approx(expect)

    def test_matches_brute_force_rectangular(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(n, n + 4))
            cost = rng.uniform(0.0, 10.0, size=(n, m))
            r2c, _, _, total = kernels.lap_solve(cost)
            assert len(set(r2c.tolist())) == n  # one-to-one
            _, expect = brute_force_assignment(cost)
            assert total == pytest.approx(expect)

    def test_forbidden_cells_avoided_when_possible(self):
        cost = np.array([[kernels.BIG, 1.0], [1.0, kernels.BIG]])
        r2c, _, _, total = kernels.lap_solve(cost)
        assert list(r2c) == [1, 0] and total == 2.0

    def test_more_rows_than_cols_rejected(self):
        with pytest.raises(ValueError):
            kernels.lap_solve(np.zeros((3, 2)))


class TestSystematicResample:
    def test_uniform_weights_keep_everyone(self):
        w = np.full(4, 0.25)
        idx = kernels.systematic_resample(w, 4, 0.5)
        assert sorted(idx.tolist()) == [0, 1, 2, 3]

    def test_degenerate_weight_takes_all_slots(self):
        w = np.array([1.0, 0.0, 0.0])
        idx = kernels.systematic_resample(w, 5, 0.3)
        assert idx.tolist() == [0] * 5

    def test_counts_match_expected_multiplicity(self):
        # systematic resampling guarantees count(i) in {floor(n w_i), ceil(n w_i)}
        rng = np.random.default_rng(3)
        for _ in range(100):
            w = rng.dirichlet(np.ones(5))
            n = 8
            idx = kernels.systematic_resample(w, n, float(rng.random()))
            for i in range(5):
                c = int(np.sum(idx == i))
                assert np.floor(n * w[i]) <= c <= np.ceil(n * w[i])

    def test_u0_zero_keeps_multiplicity(self):
        # the probe at 0 must not count toward weights[0]: two copies each
        w = np.array([0.5, 0.5])
        assert kernels.systematic_resample(w, 4, 0.0).tolist() == [0, 0, 1, 1]
        rng = np.random.default_rng(4)
        for _ in range(200):
            k = int(rng.integers(1, 8))
            w = rng.dirichlet(np.ones(k))
            n = int(rng.integers(1, 12))
            counts = np.bincount(kernels.systematic_resample(w, n, 0.0), minlength=k)
            assert np.all(np.floor(n * w) <= counts) and np.all(counts <= np.ceil(n * w))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_output_sorted_and_in_range(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.dirichlet(np.ones(6))
        idx = kernels.systematic_resample(w, 10, float(rng.random()))
        lst = idx.tolist()
        assert lst == sorted(lst)
        assert all(0 <= i < 6 for i in lst)


class TestRansacBestMask:
    @staticmethod
    def _picks(rng, iters, n):
        return np.argsort(rng.random((iters, n)), axis=1)[:, :3].astype(np.int64)

    def test_clean_data_all_inliers(self, rng):
        src = rng.uniform(-5, 5, size=(12, 3))
        R = scalar_exp_so3(np.array([0.1, -0.2, 0.3]))
        t = np.array([1.0, -2.0, 0.5])
        dst = src @ R.T + t
        mask, count = kernels.ransac_best_mask(src, dst, self._picks(rng, 100, 12), 0.1)
        assert count == 12 and mask.all()

    def test_outliers_excluded(self, rng):
        src = rng.uniform(-5, 5, size=(20, 3))
        dst = src + np.array([2.0, 0.0, 0.0])
        dst[15:] += rng.uniform(10.0, 20.0, size=(5, 3))  # gross outliers
        mask, count = kernels.ransac_best_mask(src, dst, self._picks(rng, 200, 20), 0.5)
        assert count == 15
        assert mask[:15].all() and not mask[15:].any()

    def test_collinear_samples_skipped(self, rng):
        # all points on a line: no sample spans a plane, so no model is fit
        src = np.outer(np.arange(6, dtype=float), np.array([1.0, 0.0, 0.0]))
        dst = src.copy()
        mask, count = kernels.ransac_best_mask(src, dst, self._picks(rng, 50, 6), 0.5)
        assert count == -1 and not mask.any()

    def test_tolerance_boundary(self, rng):
        """A residual within tol is an inlier, one beyond it is not, to 3e-4
        relative: the fit is exact on the first three points."""
        tol = 0.5
        src = rng.uniform(-5, 5, size=(16, 3))
        dirs = rng.standard_normal((13, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        scale = np.where(np.arange(13) % 2 == 0, 0.9997, 1.0003) * tol
        dst = src.copy()
        dst[3:] += dirs * scale[:, None]
        picks = np.tile(np.arange(3, dtype=np.int64), (5, 1))
        mask, count = kernels.ransac_best_mask(src, dst, picks, tol)
        assert mask.tolist() == [True] * 3 + (scale < tol).tolist()
        assert count == 3 + int((scale < tol).sum())


RANSAC_KINDS = ("outliers", "collinear", "all_collinear", "all_inlier", "early_stop", "n3", "empty", "shared_dst")


def _collinear(src, picks):
    """Per-row flag: the minimal sample spans no plane."""
    p = src[picks]
    c = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    return np.sum(c * c, axis=1) < 1e-18


def _ransac_problem(rng, kind):
    """One seeded (src, dst, picks, tol) problem of the given kind."""
    n = {"n3": 3, "early_stop": 30}.get(kind, int(rng.integers(6, 40)))
    src = rng.uniform(-5.0, 5.0, size=(n, 3))
    if kind in ("collinear", "all_collinear") or (kind == "n3" and rng.random() < 0.5):
        k = n if kind == "all_collinear" else max(3, n // 2)  # these points share one line
        src[:k] = rng.uniform(-5.0, 5.0, size=3) + np.outer(rng.uniform(-3.0, 3.0, size=k), rng.standard_normal(3))
    R = scalar_exp_so3(rng.standard_normal(3))
    dst = src @ R.T + rng.uniform(-3.0, 3.0, size=3)
    tol = 0.5
    if kind == "all_inlier":
        tol = 0.1
    elif kind != "n3":
        dst += rng.normal(scale=0.15, size=dst.shape)
        n_out = int(rng.integers(n // 5, n // 2)) if kind != "early_stop" else 9
        dst[n - n_out :] += rng.uniform(8.0, 20.0, size=(n_out, 3)) * rng.choice([-1.0, 1.0], size=(n_out, 3))
    if kind == "shared_dst":  # pairs that share a query point: their samples have a collinear dst triple
        k = n // 3
        dst[n - k :] = dst[rng.integers(0, n - k, size=k)]
    iters = {"empty": 0, "n3": int(rng.integers(1, 6)), "early_stop": 200}.get(kind, 100)
    picks = np.argsort(rng.random((iters, n)), axis=1)[:, :3].astype(np.int64)
    return src, dst, picks, tol


LAP_KINDS = ("uniform", "ties", "forbidden", "forbidden_row", "square", "single_row", "tall_gated", "collide", "all_fast")


def _lap_problem(rng, kind):
    """One seeded cost matrix (rows <= cols) of the given kind."""
    if kind in ("collide", "all_fast"):  # each row's minimum well below its other cells
        n = int(rng.integers(3, 9))
        m = n + int(rng.integers(0, 10))
        cost = rng.uniform(5.0, 10.0, size=(n, m))
        if kind == "all_fast":
            lows = rng.permutation(m)[:n]
        else:  # rows 0 and 1 share their minimum, and so does some later row
            lows = rng.integers(0, n // 2, size=n)
            lows[1] = lows[0]
        cost[np.arange(n), lows] = rng.uniform(0.0, 1.0, size=n)
        return cost
    if kind == "tall_gated":  # association-shaped: gated landmark block, then New and FP diagonals
        n, n_lm = 20, 80
        cost = np.full((n, n_lm + 2 * n), kernels.BIG)
        block = rng.uniform(0.0, 12.0, size=(n, n_lm))
        cost[:, :n_lm] = np.where(rng.random((n, n_lm)) < 0.08, block, kernels.BIG)
        cost[np.arange(n), n_lm + np.arange(n)] = 8.0
        cost[np.arange(n), n_lm + n + np.arange(n)] = rng.uniform(6.0, 14.0, size=n)
        return cost
    n = {"single_row": 1}.get(kind, int(rng.integers(1, 9)))
    m = n if kind == "square" else n + int(rng.integers(0, 10))
    if kind == "ties":
        return rng.integers(0, 3, size=(n, m)).astype(float)
    cost = rng.uniform(-5.0, 10.0, size=(n, m))
    if kind in ("forbidden", "forbidden_row"):
        cost[rng.random((n, m)) < 0.4] = kernels.BIG
    if kind == "forbidden_row":
        cost[int(rng.integers(n))] = kernels.BIG
    return cost


def _repeated_minima(cost):
    """Rows whose minimum lies in the column of an earlier row's minimum."""
    first = cost.argmin(axis=1).tolist()
    return [i for i in range(1, len(first)) if first[i] in first[:i]]


class TestBackendParity:
    """Each kernel agrees exactly with its scalar reference loop in conftest."""

    def test_lap_solve(self, rng):
        """All four outputs equal the column-by-column loop bit for bit, on
        270 seeded problems of nine kinds, and each kind is what it says."""
        seen = dict.fromkeys(LAP_KINDS, 0)
        for problem in range(270):
            kind = LAP_KINDS[problem % len(LAP_KINDS)]
            cost = _lap_problem(rng, kind)
            n, m = cost.shape
            r2c, u, v, total = kernels.lap_solve(cost)
            ref = scalar_lap_solve(cost)
            assert r2c.dtype == np.int64 and r2c.tolist() == ref[0].tolist(), (problem, kind)
            assert u.shape == (n,) and u.tobytes() == ref[1].tobytes(), (problem, kind)
            assert v.shape == (m,) and v.tobytes() == ref[2].tobytes(), (problem, kind)
            assert float(total).hex() == float(ref[3]).hex(), (problem, kind)
            assert len(set(r2c.tolist())) == n and r2c.min() >= 0  # one-to-one
            feasible = total < kernels.BIG / 2
            reduced = cost - u[:, None] - v[None, :]
            reduced[np.arange(n), r2c] = np.inf
            seen[kind] += {
                "uniform": feasible,
                "ties": bool((reduced == 0.0).any()),  # another cell is as good as the chosen one
                "forbidden": feasible and bool((cost >= kernels.BIG / 2).any()),
                "forbidden_row": not feasible,
                "square": n == m,
                "single_row": n == 1,
                "tall_gated": feasible and (n, m) == (20, 120),
                # the first-step run breaks at row 1 and again later on
                "collide": _repeated_minima(cost)[:1] == [1] and len(_repeated_minima(cost)) >= 2 and v.any(),
                # every row ends its path on its first step, so no column potential moves
                "all_fast": not _repeated_minima(cost) and not v.any(),
            }[kind]
        assert all(seen.values()), seen

    def test_systematic_resample(self, rng):
        # u0 > 0 only: at u0 == 0 the reference skips weights[0]
        # (TestSystematicResample::test_u0_zero_keeps_multiplicity)
        for _ in range(300):
            k = int(rng.integers(1, 10))
            w = rng.dirichlet(np.ones(k) * rng.uniform(0.2, 2.0))
            n = int(rng.integers(1, 14))
            u0 = float(rng.random())
            assert u0 > 0.0
            assert kernels.systematic_resample(w, n, u0).tolist() == scalar_systematic_resample(w, n, u0).tolist()

    def test_ransac_best_mask(self, rng):
        """The vectorised kernel equals the per-iteration scalar loop exactly,
        on 280 seeded problems that exercise each branch of that loop.

        shared_dst pins today's masks and counts on samples whose src triple
        spans a plane but whose dst triple does not, as when two putative
        pairs share one query landmark: their rigid fit is not unique, and
        the kernel scores whichever rotation the SVD returns."""
        seen = dict.fromkeys(RANSAC_KINDS, 0)
        for problem in range(280):
            kind = RANSAC_KINDS[problem % len(RANSAC_KINDS)]
            src, dst, picks, tol = _ransac_problem(rng, kind)
            n = src.shape[0]
            mask, count = kernels.ransac_best_mask(src, dst, picks, tol)
            ref_mask, ref_count = scalar_ransac_best_mask(src, dst, picks, tol)
            assert count == ref_count, (problem, kind)
            assert mask.tolist() == ref_mask.tolist(), (problem, kind)
            assert mask.dtype == np.bool_ and mask.shape == (n,) and mask.flags.owndata
            if kind == "empty" or _collinear(src, picks).all():
                assert count == -1 and not mask.any()
            if kind == "early_stop":  # a better sample lay past the stop
                hit = any(scalar_ransac_best_mask(src, dst, picks[i : i + 1], tol)[1] > count for i in range(len(picks)))
            else:
                hit = {
                    "outliers": 0 < count < n,
                    "collinear": _collinear(src, picks).any(),
                    "all_collinear": count == -1,
                    "all_inlier": count == n,
                    "n3": n == 3 and count == -1,
                    "empty": len(picks) == 0,
                    "shared_dst": (~_collinear(src, picks) & _collinear(dst, picks)).any(),
                }[kind]
            seen[kind] += hit
        assert all(seen.values()), seen

    def test_ransac_best_mask_fit_rows(self, rng):
        """Given `fit`, the kernel returns what the scalar loop returns when
        every other row is a collinear sample (0, 0, 0)."""
        for problem in range(160):
            kind = RANSAC_KINDS[problem % len(RANSAC_KINDS)]
            src, dst, picks, tol = _ransac_problem(rng, kind)
            fit = np.flatnonzero(rng.random(len(picks)) < rng.uniform(0.0, 0.5))
            masked = np.zeros_like(picks)
            masked[fit] = picks[fit]
            mask, count = kernels.ransac_best_mask(src, dst, picks, tol, fit)
            ref_mask, ref_count = scalar_ransac_best_mask(src, dst, masked, tol)
            assert count == ref_count and mask.tolist() == ref_mask.tolist(), (problem, kind)

    def test_bounded_scan_decides_as_the_full_scan(self, rng):
        """The scan ransac_verify runs (consensus core, per-sample bound,
        replay guard) reaches m inliers exactly when the scalar loop does,
        and then returns its mask and count, on the problems above at m 3-8.
        Below m the count is not compared: no caller reads it."""
        from semslam import placerec

        accepted = skipped = 0
        for problem in range(280):
            kind = RANSAC_KINDS[problem % len(RANSAC_KINDS)]
            src, dst, picks, tol = _ransac_problem(rng, kind)
            if len(src) < 3:
                continue
            m = int(rng.integers(3, 9))
            ref_mask, ref_count = scalar_ransac_best_mask(src, dst, picks, tol)
            core = placerec.consensus_possible(src, dst, m, tol)
            scan = None if core is None else placerec._consensus_scan(src, dst, picks, tol, m, core)
            skipped += scan is None
            if scan is None or scan[1] < m:
                assert ref_count < m, (problem, kind)
                continue
            assert scan[1] == ref_count and scan[0].tolist() == ref_mask.tolist(), (problem, kind)
            accepted += 1
        assert accepted and skipped
