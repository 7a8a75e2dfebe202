"""Hot numeric kernels, vectorised in numpy: linear assignment, systematic
resampling and RANSAC consensus.

Each one replaces a scalar loop (tests/conftest.py) and returns that loop's
outputs exactly. The exceptions: resampling at u0 == 0, where the loop
skipped weights[0], and RANSAC given `fit`, which fits only those samples.
All floats are the loop's bit for bit, except RANSAC residuals, which come
from one matrix product and may differ in the last bit.
"""

import numpy as np

BIG = 1e18
_INF = 1e30


def lap_solve(cost):
    """Rectangular linear assignment (rows <= cols) by shortest augmenting paths.

    Returns (row_to_col, u, v, total). Cells >= BIG/2 are treated as
    forbidden; if the optimum is forced through one, total reflects it and
    the caller should treat the problem as infeasible.

    Each Dijkstra step scans every column at once: reduced costs, a strict
    `<` update of the column minima, the first minimum over free columns,
    then the potential shifts. Every element sees the same operations in
    the same order as in a column-by-column loop, so all four outputs equal
    those of the scalar reference (tests/conftest.py) bit for bit. A used
    column's minimum is set to inf, which keeps it out of the argmin.
    """
    n, m = cost.shape
    if n > m:
        raise ValueError(f"lap_solve needs rows <= cols, got {n}x{m}")
    u = np.zeros(n)
    v = np.zeros(m)
    p = np.full(m, -1, dtype=np.int64)  # p[j]: row matched to column j, -1 = free
    way = np.zeros(m, dtype=np.int64)  # previous column on the path, -1 = row i itself
    i = 0
    while i < n:
        # first step of rows i.., whose potentials are still 0. Rows whose first
        # minimum is a free column that no earlier row of the run reached end
        # their paths there (Jonker & Volgenant's row reduction); v holds.
        cur = cost[i:] - v
        better = cur < _INF
        minv = np.where(better, cur, _INF)
        first = minv.argmin(axis=1)
        r = np.arange(first.size)
        run = np.zeros(first.size, dtype=np.bool_)
        run[np.unique(first, return_index=True)[1]] = True
        run &= (p[first] < 0) & better[r, first]
        k = run.size if run.all() else int(run.argmin())
        u[i : i + k] += minv[r[:k], first[:k]]
        way[first[:k]] = -1
        p[first[:k]] = i + r[:k]
        i += k
        if i == n:
            break
        # row i breaks the run and takes the full search from its first step
        minv, better = minv[k], better[k]
        free = np.ones(m, dtype=np.bool_)
        used = []  # columns reached so far, in order
        j0 = -1
        while True:
            j1 = int(minv.argmin())
            delta = minv[j1]
            u[i] += delta
            if used:
                cols = np.array(used)
                u[p[cols]] += delta
                v[cols] -= delta
            if p[j1] < 0:  # a free column ends the path; minv is not read again
                if better[j1]:  # reached in this step
                    way[j1] = j0
                break
            way[better] = j0
            minv -= delta
            free[j1] = False
            minv[j1] = np.inf
            used.append(j1)
            j0 = j1
            i0 = p[j0]
            cur = cost[i0] - u[i0] - v
            better = cur < minv
            better &= free
            np.copyto(minv, cur, where=better)
        while j1 >= 0:  # augment along the path back to row i
            j0 = way[j1]
            p[j1] = i if j0 < 0 else p[j0]
            j1 = j0
        i += 1
    row_to_col = np.full(n, -1, dtype=np.int64)
    cols = np.flatnonzero(p >= 0)
    row_to_col[p[cols]] = cols
    total = 0.0
    for c in cost[np.arange(n), row_to_col].tolist():
        total += c  # in row order, as the reference sums
    return row_to_col, u, v, total


def systematic_resample(weights, n, u0):
    """Systematic resampling: n probes at (u0 + i) / n over the weight CDF.

    weights must be normalized; u0 in [0, 1). Index j owns the probes in
    (cum[j-1], cum[j]], so each index is drawn floor(n w_j) or ceil(n w_j)
    times. A probe at 0 lies in no such interval, so u0 == 0 uses the same
    lattice shifted by one step (u0 = 1). Probes past the rounded total
    select the last index. Returns the selected indices, ascending.
    """
    k = weights.shape[0]
    probes = (np.arange(n) + (u0 if u0 > 0.0 else 1.0)) / n
    return np.minimum(np.searchsorted(np.cumsum(weights), probes, side="left"), k - 1)


def ransac_best_mask(src, dst, picks, tol, fit=None):
    """RANSAC consensus for a rigid fit dst ~ R @ src + t.

    picks holds precomputed minimal-sample index triplets (one row per
    iteration); sampling lives with the caller. The non-collinear samples in
    rows `fit` (ascending; default all) are fit at once (one batched SVD, R
    and t bit for bit the loop's) and scored at once (one (n, 3) @ (3, 3S)
    product), then the sequential choice is replayed over the counts, other
    rows counting as collinear: the first strictly better sample wins, and
    the search ends early at 99.9% confidence for the best ratio seen so far
    (`ransac_trials`, which is 1 for an all-inlier fit, so that stops it).
    Returns a fresh inlier mask and its count; (all-False, -1) when no
    sample fit spans a plane.
    """
    n = src.shape[0]
    iters = picks.shape[0]
    rows = np.arange(iters) if fit is None else fit
    p0, p1, p2 = src[picks[rows, 0]], src[picks[rows, 1]], src[picks[rows, 2]]
    a, b = p1 - p0, p2 - p0  # the cross product as np.cross forms it, without its axis handling
    cx = a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1]
    cy = a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2]
    cz = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    ok = ~(cx * cx + cy * cy + cz * cz < 1e-18)
    valid = rows[ok]
    if valid.size == 0:
        return np.zeros(n, dtype=np.bool_), -1
    p0, p1, p2 = p0[ok], p1[ok], p2[ok]
    q0, q1, q2 = dst[picks[valid, 0]], dst[picks[valid, 1]], dst[picks[valid, 2]]
    cs = (p0 + p1 + p2) / 3.0
    cd = (q0 + q1 + q2) / 3.0
    H = (
        (p0 - cs)[:, :, None] * (q0 - cd)[:, None, :]
        + (p1 - cs)[:, :, None] * (q1 - cd)[:, None, :]
        + (p2 - cs)[:, :, None] * (q2 - cd)[:, None, :]
    )
    U, _, Vt = np.linalg.svd(H)
    Ut = U.transpose(0, 2, 1)
    V = Vt.transpose(0, 2, 1).copy()
    V[:, :, 2] *= np.where(_det3(U) * _det3(Vt) >= 0.0, 1.0, -1.0)[:, None]  # reflection fix: det(V Ut)
    R = V @ Ut
    t = cd - (R @ cs[:, :, None])[:, :, 0]
    e = ((src @ R.reshape(-1, 3).T).reshape(n, -1, 3) + t - dst[:, None, :]) ** 2  # e[i, s]: point i, sample s
    masks = e[..., 0] + e[..., 1] + e[..., 2] <= tol * tol
    best_count, best, needed = -1, -1, iters
    # the samples fit, in row order: a row between them could change nothing
    for col, (it, count) in enumerate(zip(valid.tolist(), masks.sum(axis=0).tolist())):
        if it >= needed:
            break
        if count <= best_count:
            continue  # no better than the best so far
        best_count, best = count, col
        needed = max(min(needed, ransac_trials(count, n)), it + 1)
    return masks[:, best].copy(), best_count


def ransac_trials(count, n):
    """Samples that give 99.9% confidence of an all-inlier draw at inlier
    ratio count / n; inf where the ratio rounds to no chance. Non-increasing
    in count: every rounded step is monotone."""
    w = count / n
    log_fail = np.log(max(1.0 - w * w * w, 1e-12))
    return int(np.ceil(np.log(1e-3) / log_fail)) if log_fail < 0.0 else np.inf


def _det3(M):
    """Determinants of a (k, 3, 3) stack by cofactor expansion."""
    a, b, c = M[:, 0], M[:, 1], M[:, 2]
    return (
        a[:, 0] * (b[:, 1] * c[:, 2] - b[:, 2] * c[:, 1])
        - a[:, 1] * (b[:, 0] * c[:, 2] - b[:, 2] * c[:, 0])
        + a[:, 2] * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    )
