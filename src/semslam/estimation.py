"""Per-landmark UKF position updates and Gaussian-mixture fusion of the
weighted hypothesis set into single-landmark constraints."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .core import ClassLabel, ContractViolation, Landmark, SemanticMeasurement


class CovarianceConditioningError(RuntimeError):
    """Sigma-point Cholesky failed; the prior covariance is ill-conditioned."""


@dataclass(frozen=True)
class UkfParams:
    alpha: float = 0.1
    beta: float = 2.0
    kappa: float = 0.0


@dataclass(frozen=True, eq=False)
class GaussianComponent:
    weight: float
    mean: np.ndarray
    cov: np.ndarray


@dataclass(frozen=True, eq=False)
class FusedLandmark:
    id: int
    label: ClassLabel
    components: Tuple[GaussianComponent, ...]
    mean: np.ndarray
    cov: np.ndarray
    assign_count: int
    last_scene: int


def _sigma_points(mean: np.ndarray, cov: np.ndarray, params: UkfParams):
    n = mean.size
    lam = params.alpha**2 * (n + params.kappa) - n
    try:
        L = np.linalg.cholesky((n + lam) * cov)
    except np.linalg.LinAlgError as exc:
        raise CovarianceConditioningError(str(exc)) from exc
    pts = np.empty((2 * n + 1, n))
    pts[0] = mean
    for i in range(n):
        pts[1 + i] = mean + L[:, i]
        pts[1 + n + i] = mean - L[:, i]
    wm = np.full(2 * n + 1, 1.0 / (2.0 * (n + lam)))
    wc = wm.copy()
    wm[0] = lam / (n + lam)
    wc[0] = lam / (n + lam) + (1.0 - params.alpha**2 + params.beta)
    return pts, wm, wc


def _ukf_estimate(lm: Landmark, m: SemanticMeasurement, meas_cov: np.ndarray, params: UkfParams):
    """Posterior mean and covariance of the unscented update of lm by m."""
    pts, wm, wc = _sigma_points(lm.mean, lm.cov, params)
    z_pred = wm @ pts
    d = pts - z_pred
    S = (wc[:, None] * d).T @ d + np.asarray(meas_cov)
    dx = pts - (wm @ pts)
    P_xz = (wc[:, None] * dx).T @ d
    K = np.linalg.solve(S.T, P_xz.T).T
    innov = np.asarray(m.position) - z_pred
    mean = lm.mean + K @ innov
    cov = lm.cov - K @ S @ K.T
    cov = 0.5 * (cov + cov.T)
    return mean, cov


def ukf_update(
    lm: Landmark,
    m: SemanticMeasurement,
    meas_cov: np.ndarray,
    params: UkfParams = UkfParams(),
) -> Landmark:
    """Unscented measurement update with the identity model h(x) = x.

    Does not touch assign_count; the caller owns the association bookkeeping.
    """
    mean, cov = _ukf_estimate(lm, m, meas_cov, params)
    return lm.with_estimate(mean, cov, last_scene=m.scene_id)


def ukf_update_safe(lm, m, meas_cov, params=UkfParams()) -> Landmark:
    """ukf_update with the documented one-shot retry on conditioning failure,
    counting the assignment; the updated landmark is built once."""
    try:
        mean, cov = _ukf_estimate(lm, m, meas_cov, params)
    except CovarianceConditioningError:
        inflated = lm.with_estimate(lm.mean, lm.cov + 1e-9 * np.eye(3))
        mean, cov = _ukf_estimate(inflated, m, meas_cov, params)
    return lm.with_estimate(mean, cov, assign_count=lm.assign_count + 1, last_scene=m.scene_id)


def spd_project(cov: np.ndarray, floor: float = 1e-12) -> np.ndarray:
    """Symmetric part with eigenvalues floored, keeping downstream math SPD."""
    sym = 0.5 * (cov + cov.T)
    vals, vecs = np.linalg.eigh(sym)
    vals = np.maximum(vals, floor)
    return vecs @ np.diag(vals) @ vecs.T


def fuse_hypotheses(
    leaves: Sequence,
    weights: Sequence[float],
) -> Dict[int, FusedLandmark]:
    """Fuse per-hypothesis landmark estimates into per-landmark mixtures.

    `leaves` expose .existing (dict id -> Landmark); identity across
    hypotheses is by creation id. Component weights are the normalized leaf
    weights restricted to the leaves that carry the landmark.
    """
    weights = np.asarray(weights, dtype=float)
    if abs(weights.sum() - 1.0) > 1e-6:
        raise ContractViolation("leaf weights must be normalized")
    per_lm: Dict[int, List[Tuple[float, Landmark]]] = {}
    for leaf, w in zip(leaves, weights):
        for lm in leaf.existing.values():
            per_lm.setdefault(lm.id, []).append((float(w), lm))
    fused: Dict[int, FusedLandmark] = {}
    for lid in sorted(per_lm):
        pairs = per_lm[lid]
        wsum = sum(w for w, _ in pairs)
        if wsum <= 0.0:
            continue
        comps = tuple(
            GaussianComponent(w / wsum, lm.mean.copy(), lm.cov.copy()) for w, lm in pairs
        )
        mean = np.zeros(3)
        for c in comps:
            mean += c.weight * c.mean
        cov = np.zeros((3, 3))
        for c in comps:
            cov += c.weight * (c.cov + np.outer(c.mean, c.mean))
        cov -= np.outer(mean, mean)
        cov = spd_project(cov)
        label = pairs[0][1].label
        fused[lid] = FusedLandmark(
            lid,
            label,
            comps,
            mean,
            cov,
            max(lm.assign_count for _, lm in pairs),
            max(lm.last_scene for _, lm in pairs),
        )
    return fused
