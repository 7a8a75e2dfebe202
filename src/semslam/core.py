"""Shared domain types: measurement, landmark and pose tables, class
histograms.

A class is its dense integer id, 0 <= id < n_classes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Pose

SPD_EIG_TOL = 1e-12


class ContractViolation(ValueError):
    """An input violated a documented precondition."""


@dataclass(frozen=True, eq=False)
class MeasurementTable:
    """The detections of one scene, one row each: time of observation, 3-D
    position and class id. Row i is row i of the scene's cost matrices."""

    scene_id: int
    times: np.ndarray  # (k,)
    positions: np.ndarray  # (k, 3)
    labels: np.ndarray  # (k,) class ids

    def __len__(self) -> int:
        return len(self.labels)

    @classmethod
    def build(cls, scene_id, times, positions, labels) -> "MeasurementTable":
        """A table of row-aligned times, (k, 3) positions and class ids,
        checked as one block. If the block check fails, the rows are checked
        in order, so the first bad row raises: a class id that is not a
        non-negative integer, then a position that is not finite."""
        n = len(labels)
        positions = np.asarray(positions, dtype=float)
        if len(times) != n or positions.shape != (n, 3) and (n or positions.size):
            raise ContractViolation("measurement rows must align, with 3-D positions")
        positions = positions.reshape(n, 3)
        types = {labels.dtype.type} if isinstance(labels, np.ndarray) else set(map(type, labels))
        ints = all(issubclass(t, (int, np.integer)) and not issubclass(t, bool) for t in types)
        if not (ints and min(labels, default=0) >= 0 and np.isfinite(positions).all()):
            for position, label in zip(positions, labels):
                if isinstance(label, bool) or not isinstance(label, (int, np.integer)) or label < 0:
                    raise ContractViolation(f"class id must be a non-negative integer, got {label!r}")
                if not np.isfinite(position).all():
                    raise ContractViolation("measurement position must be finite")
        return cls(int(scene_id), np.asarray(times, dtype=float), positions, np.asarray(labels, dtype=int))


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
    t = covs.swapaxes(1, 2)
    same = covs == t  # equal infinities are close, as in np.isclose
    if not same.all():
        with np.errstate(invalid="ignore"):
            if not (same | (np.abs(covs - t) <= 1e-9 + 1e-5 * np.abs(t))).all():
                raise ContractViolation("covariance not symmetric")
    if (np.linalg.eigvalsh(covs).min(axis=1) <= tol).any():
        raise ContractViolation("covariance not positive definite")


_TABLE_FIELDS = ("ids", "labels", "means", "covs", "assign_count", "last_scene")


@dataclass(frozen=True, eq=False)
class LandmarkTable:
    """Mapped static objects with filtered position estimates, one row each,
    in ascending id order: the order of their cost-matrix columns.

    last_scene is the scene id of the latest measurement assigned to a row.
    No array that a leaf holds is written in place, so leaves share the
    arrays of the tables they were built from: a change builds a new table
    whose unchanged columns are the old arrays."""

    ids: np.ndarray  # (k,) int
    labels: np.ndarray  # (k,) class ids
    means: np.ndarray  # (k, 3)
    covs: np.ndarray  # (k, 3, 3)
    assign_count: np.ndarray  # (k,) int, >= 1
    last_scene: np.ndarray  # (k,) int

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def build(cls, ids, labels, means, covs, assign_count=1, last_scene=0) -> "LandmarkTable":
        """A table of row-aligned fields, sorted by id and checked as one
        block: unique ids, assign_count >= 1 and SPD covariances. A scalar
        count or scene applies to every row."""
        ids = np.asarray(ids, dtype=int).reshape(-1)
        k = len(ids)
        means, covs = np.asarray(means, dtype=float).reshape(-1, 3), np.asarray(covs, dtype=float).reshape(-1, 3, 3)
        ints = [np.asarray(a, dtype=int) for a in (labels, assign_count, last_scene)]
        if len(means) != k or len(covs) != k or any(a.shape not in ((), (k,)) for a in ints):
            raise ContractViolation("landmark rows must align")
        labels, assign_count, last_scene = (np.broadcast_to(a, (k,)).copy() for a in ints)
        if (assign_count < 1).any():
            raise ContractViolation("assign_count must be >= 1 once created")
        check_spd_stack(covs)
        return cls.concat([cls(ids, labels, means, covs, assign_count, last_scene)])

    @classmethod
    def empty(cls) -> "LandmarkTable":
        return cls.build([], [], [], [])

    @classmethod
    def stack(cls, tables) -> "LandmarkTable":
        """The rows of `tables`, in table order."""
        return cls(*(np.concatenate([getattr(t, f) for t in tables]) for f in _TABLE_FIELDS))

    @classmethod
    def concat(cls, tables) -> "LandmarkTable":
        """The rows of `tables`, sorted by id, in new arrays unless there is
        one table. Ids must be unique."""
        out = tables[0] if len(tables) == 1 else cls.stack(tables)
        if (out.ids[1:] <= out.ids[:-1]).any():
            out = out.take(np.argsort(out.ids, kind="stable"))
            if (out.ids[1:] == out.ids[:-1]).any():
                raise ContractViolation("landmark id in more than one row")
        return out

    def take(self, rows) -> "LandmarkTable":
        """The rows `rows` (indices or a mask) of this table, as a new table."""
        return LandmarkTable(*(getattr(self, f)[rows] for f in _TABLE_FIELDS))


@dataclass(frozen=True, eq=False)
class PoseTable:
    """A trajectory, one pose per row: pose id = row. Its rotations are unit
    quaternions as they were computed or read; a table never renormalises
    them, and no array it holds is written in place."""

    translations: np.ndarray  # (N, 3)
    rotations: np.ndarray  # (N, 4)

    def __len__(self) -> int:
        return len(self.translations)

    @classmethod
    def of(cls, poses) -> "PoseTable":
        """The table of a sequence of poses, in order."""
        return cls(np.reshape([p.translation for p in poses], (-1, 3)), np.reshape([p.rotation for p in poses], (-1, 4)))

    def pose(self, row: int) -> Pose:
        return Pose.unit(self.translations[row], self.rotations[row])

    def append(self, pose: Pose) -> "PoseTable":
        """This table with `pose` as a new last row, in new arrays."""
        return PoseTable(
            np.concatenate([self.translations, pose.translation[None]]),
            np.concatenate([self.rotations, pose.rotation[None]]),
        )


def class_counts(labels, n_classes: int) -> np.ndarray:
    """Class histogram: the number of items per class id, as an int vector."""
    counts = np.bincount(np.asarray(labels, dtype=int), minlength=n_classes)
    if counts.size != n_classes:
        raise ContractViolation(f"class id out of range [0, {n_classes})")
    return counts


__all__ = [
    "MeasurementTable",
    "LandmarkTable",
    "PoseTable",
    "Pose",
    "class_counts",
    "check_spd",
    "check_spd_stack",
    "ContractViolation",
]
