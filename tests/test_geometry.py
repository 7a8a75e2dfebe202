"""SO(3)/SE(3) helpers: round trips, composition, Jacobian identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semslam.geometry import (
    Pose,
    hat,
    log_so3,
    norms,
    quat_from_rotvec,
    quat_from_yaw,
    quat_mul,
    quat_normalize,
    quat_to_rot,
    rot_to_quat,
)

from conftest import (
    left_jacobian_inv_so3,
    pose_approx_equal,
    right_jacobian_inv_so3,
    scalar_exp_so3,
    scalar_hat,
    scalar_log_so3,
    scalar_quat_from_rotvec,
    scalar_quat_mul,
    scalar_quat_normalize,
    scalar_quat_to_rot,
    scalar_transform_points,
)

small_floats = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
vec3 = st.tuples(small_floats, small_floats, small_floats).map(np.array)


def random_rotvec(rng, max_angle=3.0):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v) * rng.uniform(0.0, max_angle)


class TestSo3:
    def test_exp_log_round_trip(self, rng):
        for _ in range(50):
            phi = random_rotvec(rng)
            assert np.allclose(log_so3(scalar_exp_so3(phi)), phi, atol=1e-9)

    def test_exp_zero_is_identity(self):
        assert np.array_equal(quat_to_rot(quat_from_rotvec(np.zeros(3))), np.eye(3))

    def test_log_near_pi(self, rng):
        for _ in range(20):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            phi = axis * (np.pi - 1e-7)
            back = log_so3(scalar_exp_so3(phi))
            assert np.allclose(scalar_exp_so3(back), scalar_exp_so3(phi), atol=1e-6)

    def test_hat_antisymmetric(self, rng):
        v = rng.standard_normal(3)
        K = hat(v)
        assert np.allclose(K, -K.T)
        w = rng.standard_normal(3)
        assert np.allclose(K @ w, np.cross(v, w))

    def test_jacobian_inverses_consistent(self, rng):
        # J_r(phi) = J_l(-phi), so the inverses must agree the same way
        for _ in range(10):
            phi = random_rotvec(rng)
            assert np.allclose(right_jacobian_inv_so3(phi), left_jacobian_inv_so3(-phi))

    def test_left_jacobian_inv_small_angle_series(self):
        phi = np.array([1e-8, -2e-8, 1e-8])
        assert np.allclose(left_jacobian_inv_so3(phi), np.eye(3) - 0.5 * hat(phi), atol=1e-12)


class TestQuaternion:
    def test_quat_rot_round_trip(self, rng):
        for _ in range(50):
            q = quat_normalize(rng.standard_normal(4))
            q2 = rot_to_quat(quat_to_rot(q))
            assert min(np.linalg.norm(q - q2), np.linalg.norm(q + q2)) < 1e-9

    def test_quat_mul_matches_rotation_product(self, rng):
        a = quat_normalize(rng.standard_normal(4))
        b = quat_normalize(rng.standard_normal(4))
        assert np.allclose(quat_to_rot(quat_mul(a, b)), quat_to_rot(a) @ quat_to_rot(b))

    def test_quat_from_rotvec_matches_exp(self, rng):
        phi = random_rotvec(rng)
        assert np.allclose(quat_to_rot(quat_from_rotvec(phi)), scalar_exp_so3(phi), atol=1e-12)

    def test_canonical_sign(self):
        q = quat_normalize(np.array([-1.0, 0.2, 0.0, 0.0]))
        assert q[0] > 0

    def test_zero_quaternion_rejected(self):
        with pytest.raises(ValueError):
            quat_normalize(np.zeros(4))

    def test_quat_from_yaw(self):
        R = quat_to_rot(quat_normalize(quat_from_yaw(np.pi / 2)))
        assert np.allclose(R @ np.array([1.0, 0, 0]), [0, 1, 0], atol=1e-12)


def rotvecs(rng, kind, n):
    """n rotation vectors of one kind: angles in [0, 3], tiny angles
    (1e-14 to 1e-8) or angles within 1e-6 of pi."""
    axes = rng.standard_normal((n, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    angle = {
        "random": rng.uniform(0.0, 3.0, n),
        "tiny": 10.0 ** rng.uniform(-14.0, -8.0, n),
        "near_pi": np.pi - rng.uniform(0.0, 1e-6, n),
    }[kind]
    return angle[:, None] * axes


def unit_quats(rng, kind, n):
    return np.array([scalar_quat_from_rotvec(phi) for phi in rotvecs(rng, kind, n)])


def stacked_args(name, rng, kind, n):
    """The arguments of the function `name`, n rows each, for one kind of
    rotation."""
    if name in ("hat", "quat_from_rotvec"):
        return (rotvecs(rng, kind, n),)
    q = unit_quats(rng, kind, n)
    if name == "log_so3":
        return (np.array([scalar_quat_to_rot(row) for row in q]),)
    if name == "quat_normalize":  # not unit, and about half with w < 0
        return (q * rng.choice([-1.0, 1.0], (n, 1)) * rng.uniform(0.1, 10.0, (n, 1)),)
    if name == "quat_mul":
        return (q, unit_quats(rng, kind, n))
    return (q,)


# each stacked function and its scalar oracle
STACKED = {
    "hat": (hat, scalar_hat),
    "log_so3": (log_so3, scalar_log_so3),
    "quat_to_rot": (quat_to_rot, scalar_quat_to_rot),
    "quat_normalize": (quat_normalize, scalar_quat_normalize),
    "quat_mul": (quat_mul, scalar_quat_mul),
    "quat_from_rotvec": (quat_from_rotvec, scalar_quat_from_rotvec),
}


def assert_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestStackedParity:
    """Each stacked SO(3) and quaternion function gives its scalar oracle's
    result bit for bit, on a stack and on a single row."""

    @pytest.mark.parametrize("kind", ["random", "tiny", "near_pi"])
    @pytest.mark.parametrize("name", sorted(STACKED))
    def test_rows_match_scalar_oracle(self, name, kind):
        f, scalar = STACKED[name]
        n = 600
        args = stacked_args(name, np.random.default_rng(17), kind, n)
        out = f(*args)
        for i in range(n):
            want = scalar(*(a[i] for a in args))
            assert_bits(out[i], want)
            assert_bits(f(*(a[i] for a in args)), want)
        # two leading axes: the same rows
        assert_bits(f(*(a.reshape((2, n // 2) + a.shape[1:]) for a in args)), out.reshape((2, n // 2) + out.shape[1:]))

    @pytest.mark.parametrize("kind", ["random", "tiny", "near_pi"])
    def test_log_so3_inputs_reach_their_branch(self, kind):
        (R,) = stacked_args("log_so3", np.random.default_rng(17), kind, 600)
        angle = np.arccos(np.clip((np.trace(R, axis1=1, axis2=2) - 1.0) * 0.5, -1.0, 1.0))
        reached = {"random": (angle >= 1e-9) & (np.pi - angle >= 1e-6), "tiny": angle < 1e-9, "near_pi": np.pi - angle < 1e-6}[kind]
        assert reached.mean() > 0.5

    def test_quat_mul_broadcasts_a_single_quaternion(self, rng):
        a, b = quat_normalize(rng.standard_normal(4)), quat_normalize(rng.standard_normal((20, 4)))
        assert_bits(quat_mul(a, b), np.array([scalar_quat_mul(a, row) for row in b]))
        assert_bits(quat_mul(b, a), np.array([scalar_quat_mul(row, a) for row in b]))

    def test_zero_row_in_a_stack_rejected(self, rng):
        q = rng.standard_normal((5, 4))
        q[3] = 0.0
        with pytest.raises(ValueError):
            quat_normalize(q)

    @pytest.mark.parametrize("k", [3, 4, 6])
    def test_norms_match_linalg_norm_in_any_layout(self, rng, k):
        v = rng.standard_normal((300, k)) * 10.0 ** rng.uniform(-10.0, 10.0, (300, 1))
        want = np.array([np.linalg.norm(row) for row in v])
        for stack in (v, np.asfortranarray(v), np.repeat(v, 2, axis=1)[:, ::2]):
            assert_bits(norms(stack), want)
        assert_bits(norms(v[0]), want[0])


class TestPose:
    def test_compose_inverse_is_identity(self, rng):
        for _ in range(20):
            p = Pose(rng.standard_normal(3), quat_normalize(rng.standard_normal(4)))
            ident = p.compose(p.inverse())
            assert pose_approx_equal(ident, Pose())

    def test_relative_to(self, rng):
        a = Pose(rng.standard_normal(3), quat_normalize(rng.standard_normal(4)))
        b = Pose(rng.standard_normal(3), quat_normalize(rng.standard_normal(4)))
        rel = a.relative_to(b)
        assert pose_approx_equal(b.compose(rel), a)

    @pytest.mark.parametrize("k", [0, 1, 3, 25])
    def test_transform_points_match_the_per_point_oracle(self, k):
        """The stacked world and body transforms of a (k, 3) block give each
        row the bits of the per-point transform; k = 3 is a square block."""
        rng = np.random.default_rng(k)
        poses = [Pose(rng.uniform(-30, 30, 3), quat_from_yaw(rng.uniform(-np.pi, np.pi))) for _ in range(20)]
        poses += [Pose(rng.uniform(-30, 30, 3), quat_from_rotvec(random_rotvec(rng))) for _ in range(20)]
        for pose in poses:
            points = rng.uniform(-15, 15, (k, 3))
            for inverse, f in ((False, pose.transform_points), (True, pose.transform_points_inverse)):
                got = f(points)
                assert got.shape == (k, 3)
                assert_bits(got, scalar_transform_points(pose, points, inverse))

    def test_transform_round_trip(self, rng):
        p = Pose(rng.standard_normal(3), quat_normalize(rng.standard_normal(4)))
        x = rng.standard_normal(3)
        assert np.allclose(p.transform_points_inverse(p.transform_points(x[None]))[0], x)

    @given(vec3, vec3)
    @settings(max_examples=25, deadline=None)
    def test_pure_translation_compose_adds(self, t1, t2):
        assert np.allclose(Pose(t1).compose(Pose(t2)).translation, t1 + t2)

    def test_rotation_always_unit_norm(self, rng):
        p = Pose(np.zeros(3), np.array([2.0, 0.0, 0.0, 0.0]))
        assert abs(np.linalg.norm(p.rotation) - 1.0) < 1e-12
