"""Shared domain types: measurements, landmarks, class histograms.

A class is its dense integer id, 0 <= id < n_classes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .geometry import Pose

SPD_EIG_TOL = 1e-12


class ContractViolation(ValueError):
    """An input violated a documented precondition."""


@dataclass(frozen=True, eq=False)
class SemanticMeasurement:
    """One detected object: 3-D position, class id, and time of observation."""

    scene_id: int
    time: float
    position: np.ndarray
    label: int

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        if isinstance(self.label, bool) or not isinstance(self.label, (int, np.integer)) or self.label < 0:
            raise ContractViolation(f"class id must be a non-negative integer, got {self.label!r}")
        if not np.all(np.isfinite(self.position)):
            raise ContractViolation("measurement position must be finite")

    @classmethod
    def stack(cls, scene_ids, times, positions, labels) -> List["SemanticMeasurement"]:
        """Measurements from row-aligned scene ids, times, (k, 3) positions and
        class ids, checked as one block. A row that fails the block check is
        constructed on its own, so the first bad row raises what __post_init__
        raises for it."""
        n = len(labels)
        positions = np.asarray(positions, dtype=float)
        if not len(scene_ids) == len(times) == n or positions.shape != (n, 3) and (n or positions.size):
            raise ContractViolation("measurement rows must align, with 3-D positions")
        if not n:
            return []
        int_ids = all(issubclass(t, (int, np.integer)) and not issubclass(t, bool) for t in set(map(type, labels)))
        if not (int_ids and min(labels) >= 0 and np.isfinite(positions).all()):
            for row in zip(scene_ids, times, positions, labels):
                cls(*row)
        fields = ("scene_id", "time", "position", "label")
        out = [object.__new__(cls) for _ in labels]  # the fields __init__ sets, without its per-object check
        for m, row in zip(out, zip(scene_ids, times, positions, labels)):
            m.__dict__.update(zip(fields, row))
        return out


def check_spd(cov: np.ndarray, tol: float = SPD_EIG_TOL) -> None:
    cov = np.asarray(cov)
    if cov.shape != (3, 3):
        raise ContractViolation(f"expected 3x3 covariance, got {cov.shape}")
    check_spd_stack(cov[None], tol)


def check_spd_stack(covs: np.ndarray, tol: float = SPD_EIG_TOL) -> None:
    """check_spd on each matrix of a (B, 3, 3) stack, in one pass. The
    symmetry test is np.isclose's, so it passes what np.allclose does."""
    covs = np.asarray(covs)
    if covs.ndim != 3 or covs.shape[1:] != (3, 3):
        raise ContractViolation(f"expected a stack of 3x3 covariances, got {covs.shape}")
    t = np.swapaxes(covs, 1, 2)
    same = covs == t  # equal infinities are close, as in np.isclose
    if not same.all():
        with np.errstate(invalid="ignore"):
            if not (same | (np.abs(covs - t) <= 1e-9 + 1e-5 * np.abs(t))).all():
                raise ContractViolation("covariance not symmetric")
    if (np.linalg.eigvalsh(covs).min(axis=1) <= tol).any():
        raise ContractViolation("covariance not positive definite")


@dataclass(frozen=True, eq=False)
class Landmark:
    """Mapped static object with a filtered position estimate.

    last_scene is the scene id of the latest measurement assigned to it."""

    id: int
    label: int
    mean: np.ndarray
    cov: np.ndarray
    assign_count: int = 1
    submap_id: int = 0
    last_scene: int = 0

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "cov", np.asarray(self.cov, dtype=float))
        if self.assign_count < 1:
            raise ContractViolation("assign_count must be >= 1 once created")
        check_spd(self.cov)

    @classmethod
    def stack(cls, heads, means, covs) -> List["Landmark"]:
        """Landmarks from (id, label, assign_count, submap_id, last_scene) heads and
        row-aligned means and covariances, checked in one check_spd_stack call."""
        means, covs = np.asarray(means, dtype=float), np.asarray(covs, dtype=float)
        if not len(heads) == len(means) == len(covs) or any(head[2] < 1 for head in heads):
            raise ContractViolation("landmark rows must align, with assign_count >= 1")
        check_spd_stack(covs)
        fields = ("id", "label", "assign_count", "submap_id", "last_scene", "mean", "cov")
        out = [object.__new__(cls) for _ in heads]  # the fields __init__ sets, without its per-object check
        for lm, head, mean, cov in zip(out, heads, means, covs):
            lm.__dict__.update(zip(fields, (*head, mean, cov)))
        return out

    def with_estimate(self, mean, cov, *, assign_count=None, submap_id=None, last_scene=None):
        return Landmark(
            self.id,
            self.label,
            mean,
            cov,
            self.assign_count if assign_count is None else assign_count,
            self.submap_id if submap_id is None else submap_id,
            self.last_scene if last_scene is None else last_scene,
        )


def class_counts(labels, n_classes: int) -> np.ndarray:
    """Class histogram: the number of items per class id, as an int vector."""
    counts = np.bincount(np.asarray(labels, dtype=int), minlength=n_classes)
    if counts.size != n_classes:
        raise ContractViolation(f"class id out of range [0, {n_classes})")
    return counts


__all__ = [
    "SemanticMeasurement",
    "Landmark",
    "Pose",
    "class_counts",
    "check_spd",
    "check_spd_stack",
    "ContractViolation",
]
