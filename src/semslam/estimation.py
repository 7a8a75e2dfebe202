"""Batched UKF updates of landmark positions and Gaussian-mixture fusion of
the weighted hypothesis set into single-landmark constraints."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .config import RunConfig
from .core import ContractViolation, Landmark, SemanticMeasurement


class CovarianceConditioningError(RuntimeError):
    """Sigma-point Cholesky failed; the prior covariance is ill-conditioned."""


@dataclass(frozen=True, eq=False)
class FusedLandmark:
    id: int
    label: int
    mean: np.ndarray
    cov: np.ndarray
    assign_count: int
    last_scene: int


def _sigma_factors(covs: np.ndarray, spread: float, retry: bool):
    """Lower Cholesky factors of spread * covs, and the covariances they
    factor. With retry, each row that fails is inflated by 1e-9 I and the
    batch is factored once more; the other rows are unaffected."""
    try:
        return np.linalg.cholesky(spread * covs), covs
    except np.linalg.LinAlgError as exc:
        if not retry:
            raise CovarianceConditioningError(str(exc)) from exc
    covs = covs.copy()
    for cov in covs:
        try:
            np.linalg.cholesky(spread * cov)
        except np.linalg.LinAlgError:
            cov += 1e-9 * np.eye(len(cov))
    return _sigma_factors(covs, spread, retry=False)


def _sigma_weights(n: int, cfg: RunConfig):
    """lambda and the mean and covariance weights of the 2n + 1 sigma points
    at ukf_alpha, ukf_beta and ukf_kappa."""
    lam = cfg.ukf_alpha**2 * (n + cfg.ukf_kappa) - n
    wm = np.full(2 * n + 1, 1.0 / (2.0 * (n + lam)))
    wc = wm.copy()
    wm[0] = lam / (n + lam)
    wc[0] = lam / (n + lam) + (1.0 - cfg.ukf_alpha**2 + cfg.ukf_beta)
    return lam, wm, wc


def _ukf_batch(means, covs, z, meas_cov, cfg: RunConfig, retry: bool):
    """Posterior means and covariances of the unscented updates of (B, n)
    prior means and (B, n, n) covariances by (B, n) measurements, h(x) = x."""
    n = means.shape[1]
    lam, wm, wc = _sigma_weights(n, cfg)
    L, covs = _sigma_factors(covs, n + lam, retry)
    offsets = np.swapaxes(L, 1, 2)  # row i is column i of L
    centre = means[:, None, :]
    pts = np.concatenate([centre, centre + offsets, centre - offsets], axis=1)  # (B, 2n+1, n)
    z_pred = wm @ pts
    d = pts - z_pred[:, None, :]
    P_xz = np.swapaxes(wc[:, None] * d, 1, 2) @ d
    S = P_xz + np.asarray(meas_cov)
    K = np.swapaxes(np.linalg.solve(np.swapaxes(S, 1, 2), np.swapaxes(P_xz, 1, 2)), 1, 2)
    mean = means + (K @ (z - z_pred)[:, :, None])[:, :, 0]
    cov = covs - K @ S @ np.swapaxes(K, 1, 2)
    return mean, 0.5 * (cov + np.swapaxes(cov, 1, 2))


def ukf_update(lm: Landmark, m: SemanticMeasurement, meas_cov: np.ndarray, cfg: RunConfig) -> Landmark:
    """Unscented measurement update with the identity model h(x) = x.

    Does not touch assign_count; the caller owns the association bookkeeping.
    """
    mean, cov = _ukf_batch(lm.mean[None], lm.cov[None], m.position[None], meas_cov, cfg, retry=False)
    return lm.with_estimate(mean[0], cov[0], last_scene=m.scene_id)


def ukf_update_safe(landmarks, measurements, meas_cov, cfg: RunConfig) -> List[Landmark]:
    """ukf_update of landmarks[i] by measurements[i] as one batch, counting
    each assignment. A row whose sigma-point Cholesky fails is inflated by
    1e-9 I and retried once; the updated covariances are checked in one call."""
    if len(landmarks) != len(measurements):
        raise ContractViolation("one measurement per landmark")
    if not landmarks:
        return []
    means, covs = np.stack([lm.mean for lm in landmarks]), np.stack([lm.cov for lm in landmarks])
    mean, cov = _ukf_batch(means, covs, np.stack([m.position for m in measurements]), meas_cov, cfg, retry=True)
    heads = [(lm.id, lm.label, lm.assign_count + 1, lm.submap_id, m.scene_id) for lm, m in zip(landmarks, measurements)]
    return Landmark.stack(heads, mean, cov)


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
    """Fuse per-hypothesis landmark estimates into one moment-matched
    Gaussian per landmark.

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
        # moments of the mixture of components (w / wsum, landmark)
        mean, cov = np.zeros(3), np.zeros((3, 3))
        for w, lm in pairs:
            mean += (w / wsum) * lm.mean
            cov += (w / wsum) * (lm.cov + np.outer(lm.mean, lm.mean))
        cov -= np.outer(mean, mean)
        fused[lid] = FusedLandmark(
            lid,
            pairs[0][1].label,
            mean,
            spd_project(cov),
            max(lm.assign_count for _, lm in pairs),
            max(lm.last_scene for _, lm in pairs),
        )
    return fused
