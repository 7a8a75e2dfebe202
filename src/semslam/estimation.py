"""Kalman updates of landmark positions, batched, and Gaussian-mixture
fusion of the weighted hypothesis set into single-landmark constraints.

Each detection is moved into the world frame before association, so the
measurement model of a landmark is h(x) = x. The unscented transform of a
linear map is exact, so the UKF update is the closed-form Kalman update."""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .config import RunConfig
from .core import ContractViolation, LandmarkTable, check_spd_stack


def _kalman_batch(means, covs, z, meas_cov):
    """Posterior means and covariances of the Kalman updates of (B, n) prior
    means and (B, n, n) covariances by (B, n) measurements, h(x) = x. S is
    SPD whenever the prior is PSD and meas_cov SPD, so the solve holds."""
    S = covs + np.asarray(meas_cov)
    K = np.swapaxes(np.linalg.solve(np.swapaxes(S, 1, 2), np.swapaxes(covs, 1, 2)), 1, 2)  # P S^-1
    mean = means + (K @ (z - means)[:, :, None])[:, :, 0]
    cov = covs - K @ S @ np.swapaxes(K, 1, 2)
    return mean, 0.5 * (cov + np.swapaxes(cov, 1, 2))


def ukf_update(mean: np.ndarray, cov: np.ndarray, z: np.ndarray, meas_cov: np.ndarray, cfg: RunConfig):
    """Update of one landmark's mean and covariance by the measured position
    z: the UKF update with h(x) = x, which is the Kalman update. `cfg` is
    accepted for the callers that pass one; the closed form has no tunable."""
    mean, cov, z = (np.asarray(a, dtype=float)[None] for a in (mean, cov, z))
    mean, cov = _kalman_batch(mean, cov, z, meas_cov)
    return mean[0], cov[0]


def ukf_update_safe(means, covs, z, meas_cov) -> Tuple[np.ndarray, np.ndarray]:
    """ukf_update of (B, 3) means and (B, 3, 3) covariances by (B, 3)
    measured positions, as one batch; the updated covariances are checked
    SPD in one call. The caller owns the association bookkeeping."""
    if not len(means) == len(covs) == len(z):
        raise ContractViolation("one measurement per landmark")
    if not len(means):
        return np.empty((0, 3)), np.empty((0, 3, 3))
    mean, cov = _kalman_batch(means, covs, z, meas_cov)
    check_spd_stack(cov)
    return mean, cov


def spd_project(cov: np.ndarray, floor: float = 1e-12) -> np.ndarray:
    """Symmetric part with eigenvalues floored, keeping downstream math SPD.
    Takes one matrix or a stack of them."""
    vals, vecs = np.linalg.eigh(0.5 * (cov + np.swapaxes(cov, -1, -2)))
    return vecs @ (np.maximum(vals, floor)[..., None] * np.eye(3)) @ np.swapaxes(vecs, -1, -2)


def fuse_hypotheses(leaves: Sequence, weights: Sequence[float]) -> LandmarkTable:
    """Fuse per-hypothesis landmark estimates into one moment-matched
    Gaussian per landmark, with the largest count and scene of its rows.

    `leaves` expose .existing, a LandmarkTable; identity across hypotheses
    is by creation id. Component weights are the normalized leaf weights
    restricted to the leaves that carry the landmark. The rows of all
    leaves are grouped by id, in leaf order within a group, and each
    group's moments are summed in that order.
    """
    weights = np.asarray(weights, dtype=float)
    if abs(weights.sum() - 1.0) > 1e-6:
        raise ContractViolation("leaf weights must be normalized")
    tables = [leaf.existing for leaf in leaves]
    rows = LandmarkTable.stack(tables)
    if not len(rows):
        return rows
    order = np.argsort(rows.ids, kind="stable")
    rows, w = rows.take(order), np.repeat(weights, [len(t) for t in tables])[order]
    starts = np.r_[True, rows.ids[1:] != rows.ids[:-1]]
    first, group = np.flatnonzero(starts), np.cumsum(starts) - 1  # each group's first row, each row's group
    wsum = np.bincount(group, weights=w, minlength=len(first))
    kept = wsum > 0.0
    # moments of the mixture of components (w / wsum, landmark); a group of
    # weight 0 gives NaN here and is dropped
    with np.errstate(divide="ignore", invalid="ignore"):
        c = w / wsum[group]
    mean = np.zeros((len(first), 3))
    np.add.at(mean, group, c[:, None] * rows.means)
    cov = np.zeros((len(first), 3, 3))
    np.add.at(cov, group, c[:, None, None] * (rows.covs + rows.means[:, :, None] * rows.means[:, None, :]))
    cov -= mean[:, :, None] * mean[:, None, :]
    count, scene = (np.maximum.reduceat(getattr(rows, f), first)[kept] for f in ("assign_count", "last_scene"))
    ids, labels = rows.ids[first[kept]], rows.labels[first[kept]]
    return LandmarkTable(ids, labels, mean[kept], spd_project(cov[kept]), count, scene)
