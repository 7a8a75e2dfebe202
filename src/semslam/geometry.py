"""Minimal SE(3) / SO(3) helpers: quaternions, rotation vectors, poses.

Quaternions are (w, x, y, z), always kept at unit norm. Rotation-vector
increments are applied on the right (body frame). `norms`, `hat`,
`log_so3` and the `quat_*` functions other than `quat_conj` and
`quat_from_yaw` take any number of leading stack axes: the last axis holds
the vector (the last two the matrix), and a single vector or matrix gives a
single result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ZERO_NORM = 1e-12  # a quaternion of a smaller norm has no direction
_EYE3 = np.eye(3)


def norms(v: np.ndarray) -> np.ndarray:
    """Norms over the last axis, each computed as `np.linalg.norm` computes
    one vector's: one BLAS dot over contiguous values (a strided dot sums
    in another order)."""
    v = np.ascontiguousarray(v)
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


def _last_axis(parts) -> np.ndarray:
    """`parts`, each over the leading axes in reverse order (as `x.T` unpacks
    x), stacked on a new last axis in C order."""
    return np.ascontiguousarray(np.array(parts).T)


def hat(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric cross-product matrices, one per vector."""
    x, y, z = v.T
    o = np.zeros_like(x)
    return _last_axis([o, -z, y, z, o, -x, -y, x, o]).reshape(v.shape[:-1] + (3, 3))


def log_so3(R: np.ndarray) -> np.ndarray:
    """Rotation matrices -> rotation vectors (principal branch)."""
    cos_angle = np.clip((np.trace(R, axis1=-2, axis2=-1) - 1.0) * 0.5, -1.0, 1.0)
    angle = np.arccos(cos_angle)
    scale = np.divide(angle, 2.0 * np.sin(angle), out=np.full_like(angle, 0.5), where=~(angle < 1e-9))
    # R21 - R12, R02 - R20, R10 - R01
    phi = (R[..., [2, 0, 1], [1, 2, 0]] - R[..., [1, 2, 0], [2, 0, 1]]) * scale[..., None]
    for k in map(tuple, np.argwhere(np.pi - angle < 1e-6)):
        # near pi the off-diagonal formula degenerates; use the symmetric part
        A = (R[k] + _EYE3) * 0.5
        axis = np.sqrt(np.maximum(np.diag(A), 0.0))
        # fix signs from the largest component
        j = int(np.argmax(axis))
        if axis[j] > 0:
            for i in range(3):
                if i != j and A[j, i] < 0:
                    axis[i] = -axis[i]
        n = np.linalg.norm(axis)
        if n > 0:
            axis = axis / n
        phi[k] = axis * angle[k]
    return phi


def quat_normalize(q: np.ndarray) -> np.ndarray:
    n = norms(q)
    if np.count_nonzero(n < ZERO_NORM):
        raise ValueError("zero-norm quaternion")
    q = q / n[..., None]
    # canonical sign keeps serialization deterministic
    np.negative(q, out=q, where=q[..., :1] < 0)
    return q


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton products; a and b have the same leading axes, or one of them
    is a single quaternion."""
    aw, ax, ay, az = a.T
    bw, bx, by, bz = b.T
    return _last_axis(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def quat_conj(q: np.ndarray) -> np.ndarray:
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_to_rot(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q.T
    return _last_axis(
        [
            1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
            2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
            2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
        ]
    ).reshape(q.shape[:-1] + (3, 3))


def rot_to_quat(R: np.ndarray) -> np.ndarray:
    t = np.trace(R)
    if t > 0:
        s = np.sqrt(t + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s]
        )
    else:
        i = int(np.argmax(np.diag(R)))
        if i == 0:
            s = np.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
            q = np.array(
                [(R[2, 1] - R[1, 2]) / s, 0.25 * s, (R[0, 1] + R[1, 0]) / s, (R[0, 2] + R[2, 0]) / s]
            )
        elif i == 1:
            s = np.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2.0
            q = np.array(
                [(R[0, 2] - R[2, 0]) / s, (R[0, 1] + R[1, 0]) / s, 0.25 * s, (R[1, 2] + R[2, 1]) / s]
            )
        else:
            s = np.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2.0
            q = np.array(
                [(R[1, 0] - R[0, 1]) / s, (R[0, 2] + R[2, 0]) / s, (R[1, 2] + R[2, 1]) / s, 0.25 * s]
            )
    return quat_normalize(q)


def quat_from_rotvec(phi: np.ndarray) -> np.ndarray:
    angle = norms(phi)
    small = angle < 1e-12
    half = 0.5 * angle
    axis = phi / np.where(small, 1.0, angle)[..., None]
    # below 1e-12 rad, the first-order quaternion (1, phi / 2)
    w = np.where(small, 1.0, np.cos(half))
    v = np.where(small[..., None], phi * 0.5, np.sin(half)[..., None] * axis)
    return quat_normalize(np.concatenate([w[..., None], v], axis=-1))


def quat_from_yaw(yaw: float) -> np.ndarray:
    return np.array([np.cos(yaw * 0.5), 0.0, 0.0, np.sin(yaw * 0.5)])


@dataclass(eq=False)
class Pose:
    """Rigid transform: world position plus unit quaternion orientation.
    The constructor normalises the rotation it is given; `unit` does not."""

    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))
    rotation: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0, 0.0]))

    def __post_init__(self):
        self.translation = np.asarray(self.translation, dtype=float)
        self.rotation = quat_normalize(np.asarray(self.rotation, dtype=float))
        self._rot = None

    @classmethod
    def unit(cls, translation: np.ndarray, rotation: np.ndarray) -> "Pose":
        """The pose of a float translation and a unit quaternion, held as
        given: renormalising a unit quaternion can change its last bit."""
        pose = cls.__new__(cls)
        pose.translation, pose.rotation, pose._rot = translation, rotation, None
        return pose

    def rot(self) -> np.ndarray:
        # rotation is never mutated in place, so the matrix can be memoized
        if self._rot is None:
            self._rot = quat_to_rot(self.rotation)
        return self._rot

    def compose(self, other: "Pose") -> "Pose":
        """self * other (apply other in self's body frame)."""
        return Pose(
            self.translation + self.rot() @ other.translation,
            quat_mul(self.rotation, other.rotation),
        )

    def inverse(self) -> "Pose":
        qi = quat_conj(self.rotation)
        return Pose(-(quat_to_rot(qi) @ self.translation), qi)

    def relative_to(self, other: "Pose") -> "Pose":
        """other^{-1} * self."""
        return other.inverse().compose(self)

    def transform_points(self, points: np.ndarray) -> np.ndarray:
        """Body-frame (k, 3) points -> world frame: k stacked matrix-vector
        products, so each row has the bits of t + R p, not those of one
        (k, 3) x (3, 3) product, whose sums round differently."""
        return (self.rot()[None] @ points[:, :, None])[:, :, 0] + self.translation

    def transform_points_inverse(self, points: np.ndarray) -> np.ndarray:
        """World-frame (k, 3) points -> body frame, each row with the bits of
        R^T (p - t)."""
        return (self.rot().T[None] @ (points - self.translation)[:, :, None])[:, :, 0]
