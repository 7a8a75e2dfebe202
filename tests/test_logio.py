"""CSV log round trips and format-error reporting with line numbers."""

import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semslam.config import RunConfig
from semslam.core import LandmarkTable, MeasurementTable, PoseTable
from semslam.geometry import Pose, quat_from_yaw, quat_normalize
from semslam.logio import (
    LogFormatError,
    read_measurements,
    read_metrics,
    read_odometry,
    read_trajectory,
    write_measurements,
    write_metrics,
    write_odometry,
    write_trajectory,
    write_map,
)
from semslam.sim import World, simulate

from conftest import pose_approx_equal, scalar_transform_points


N_CLASSES = 3


def make_poses(n):
    return [Pose(np.array([float(t), 0.5 * t, 0.0]), quat_from_yaw(0.1 * t)) for t in range(n)]


class TestMeasurements:
    def test_round_trip(self, tmp_path):
        scenes = [
            MeasurementTable.build(0, [0.0], [[1.0, 2.0, 0.0]], [0]),
            MeasurementTable.build(1, [], [], []),
            MeasurementTable.build(2, [2.0, 2.5], [[-3.25, 0.125, 1.5], [4.0, 4.0, 1 / 3]], [2, 1]),
        ]
        path = str(tmp_path / "meas.csv")
        write_measurements(path, scenes)
        back = read_measurements(path, N_CLASSES, 3)
        assert [len(s) for s in back] == [1, 0, 2]
        for orig, got in zip(scenes, back):
            assert got.scene_id == orig.scene_id and got.times.tolist() == orig.times.tolist()
            assert got.labels.tolist() == orig.labels.tolist() and got.positions.shape == orig.positions.shape
            assert np.allclose(got.positions, orig.positions, atol=1e-7)  # 9 significant digits

    @pytest.mark.parametrize("k", [0, 1, 3, 25])
    def test_rows_are_the_per_point_body_positions(self, tmp_path, rng, k):
        """A scene moved into the body frame in one stacked transform, as the
        simulator moves it, is written as the per-point transform prints
        each row, and reads back as printed."""
        poses = make_poses(4)
        scenes = []
        for s in range(4):
            positions, labels = rng.uniform(-20, 20, (k, 3)), rng.integers(N_CLASSES, size=k)
            scenes.append(MeasurementTable.build(s, np.full(k, s + 0.5), positions, labels))
        path = str(tmp_path / "meas.csv")
        body_scenes = [
            MeasurementTable.build(s.scene_id, s.times, pose.transform_points_inverse(s.positions), s.labels)
            for s, pose in zip(scenes, poses)
        ]
        write_measurements(path, body_scenes)
        want = []
        for scene, pose in zip(scenes, poses):
            body = scalar_transform_points(pose, scene.positions, inverse=True)
            for t, label, row in zip(scene.times.tolist(), scene.labels.tolist(), body):
                want.append(",".join([format(t, ".9g"), str(scene.scene_id), str(label), *(format(x, ".9g") for x in row)]))
        assert open(path).read().splitlines()[1:] == want
        back = read_measurements(path, N_CLASSES, 4)
        for scene, got, rows in zip(scenes, back, [want[i * k : (i + 1) * k] for i in range(4)]):
            assert got.scene_id == scene.scene_id and got.labels.tolist() == scene.labels.tolist()
            assert got.times.tolist() == scene.times.tolist()
            assert got.positions.tolist() == [[float(x) for x in row.split(",")[3:]] for row in rows]

    def test_body_frame_on_disk(self, tmp_path):
        """The simulator's log holds a landmark at (10, 5) seen from (10, 0)
        facing +y at (5, 0), in the body frame."""
        pose = Pose(np.array([10.0, 0.0, 0.0]), quat_from_yaw(np.pi / 2))
        cfg = RunConfig(steps=1, n_classes=1, n_landmarks=1, meas_noise_std=0.0)
        scenes, _ = simulate(World(cfg, np.zeros(1, dtype=int), np.array([[10.0, 5.0, 0.0]]), PoseTable.of([pose])))
        path = str(tmp_path / "meas.csv")
        write_measurements(path, scenes)
        line = open(path).read().splitlines()[1]
        vals = [float(x) for x in line.split(",")[3:]]
        assert np.allclose(vals, [5.0, 0.0, 0.0], atol=1e-7)

    def test_bad_header(self, tmp_path):
        path = str(tmp_path / "meas.csv")
        path2 = str(tmp_path / "bad.csv")
        open(path2, "w").write("wrong,header\n1,2\n")
        with pytest.raises(LogFormatError, match="bad header"):
            read_measurements(path2, N_CLASSES, 1)

    def test_bad_field_count_reports_line(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        open(path, "w").write("t,scene_id,class_id,x,y,z\n0,0,0,1,2,3\n0,0,0,1\n")
        with pytest.raises(LogFormatError, match="line 3"):
            read_measurements(path, N_CLASSES, 1)

    def test_bad_number_reports_line(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        open(path, "w").write("t,scene_id,class_id,x,y,z\n0,0,0,1,xyz,3\n")
        with pytest.raises(LogFormatError, match="line 2"):
            read_measurements(path, N_CLASSES, 1)

    def test_scene_out_of_range(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        open(path, "w").write("t,scene_id,class_id,x,y,z\n0,7,0,1,2,3\n")
        with pytest.raises(LogFormatError, match="out of range"):
            read_measurements(path, N_CLASSES, 3)

    @pytest.mark.parametrize("class_id", [-1, N_CLASSES, 9])
    def test_class_out_of_range_reports_file_and_line(self, tmp_path, class_id):
        path = str(tmp_path / "bad.csv")
        open(path, "w").write(f"t,scene_id,class_id,x,y,z\n0,0,0,1,2,3\n0,0,{class_id},1,2,3\n")
        with pytest.raises(LogFormatError, match=rf"bad\.csv: line 3: class id {class_id} out of range \[0, 3\)"):
            read_measurements(path, N_CLASSES, 1)

    @pytest.mark.parametrize("field", ["nan", "inf", "-inf"])
    def test_non_finite_position_reports_file_and_line(self, tmp_path, field):
        path = str(tmp_path / "bad.csv")
        open(path, "w").write(f"t,scene_id,class_id,x,y,z\n0,0,0,1,2,3\n0,0,0,{field},1,2\n")
        with pytest.raises(LogFormatError, match=r"bad\.csv: line 3: measurement position must be finite"):
            read_measurements(path, N_CLASSES, 1)

    @pytest.mark.parametrize("field", ["nan", "inf", "-inf"])
    def test_non_finite_time_reports_file_and_line(self, tmp_path, field):
        path = str(tmp_path / "bad.csv")
        open(path, "w").write(f"t,scene_id,class_id,x,y,z\n0,0,0,1,2,3\n{field},0,0,1,2,3\n")
        with pytest.raises(LogFormatError, match=r"bad\.csv: line 3: measurement time must be finite"):
            read_measurements(path, N_CLASSES, 1)

    def test_line_numbers_count_blank_lines(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        open(path, "w").write("t,scene_id,class_id,x,y,z\n\n0,0,0,1,2,3\n\n\n0,0,0,1,2,nan\n")
        with pytest.raises(LogFormatError, match=r"bad\.csv: line 6: measurement position must be finite"):
            read_measurements(path, N_CLASSES, 1)

    def test_empty_file(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        open(path, "w").write("")
        with pytest.raises(LogFormatError, match="empty"):
            read_measurements(path, N_CLASSES, 1)

    def test_header_only(self, tmp_path):
        """The log of a world in which nothing was detected, as a field of
        view of 0 gives: every scene is empty."""
        path = str(tmp_path / "empty.csv")
        open(path, "w").write("t,scene_id,class_id,x,y,z\n")
        assert [len(scene) for scene in read_measurements(path, N_CLASSES, 3)] == [0, 0, 0]


def random_table(rng, n):
    """n poses anywhere, with unit rotations, as the program writes them."""
    return PoseTable(rng.uniform(-50.0, 50.0, (n, 3)), quat_normalize(rng.standard_normal((n, 4))))


def write_rows(path, header, rows):
    """A pose file of t, x, y, z, qw, qx, qy, qz rows, each field printed
    with 9 significant digits."""
    with open(path, "w") as fh:
        fh.write(header + "\n" + "".join(",".join(format(v, ".9g") for v in row) + "\n" for row in rows))


class TestStackedRead:
    """A pose file is read as one table, its rotations normalised as one
    stack, with the bits that normalising each row as a `Pose` gives."""

    @pytest.mark.parametrize("reader", ["odometry", "trajectory"])
    def test_rows_are_the_per_row_poses(self, tmp_path, reader):
        rng = np.random.default_rng(5)
        rows = np.concatenate([np.arange(2000.0)[:, None], rng.uniform(-50, 50, (2000, 3)), rng.standard_normal((2000, 4))], axis=1)
        rows[:40, 4:] = np.eye(4)[rng.integers(4, size=40)] * rng.choice([-1.0, 1.0], size=(40, 1))  # axis-aligned, either sign
        rows[40:80, 4:] *= 1e-6
        path = str(tmp_path / "poses.csv")
        if reader == "odometry":
            write_rows(path, "t,dx,dy,dz,dqw,dqx,dqy,dqz", rows)
            table = read_odometry(path)
        else:
            write_rows(path, "t,x,y,z,qw,qx,qy,qz", rows)
            times, table = read_trajectory(path)
            assert times == [float(format(t, ".9g")) for t in rows[:, 0]]
        assert len(table) == 2000
        for row, line in enumerate(open(path).read().splitlines()[1:]):
            vals = [float(x) for x in line.split(",")]
            pose = Pose(np.array(vals[1:4]), np.array(vals[4:8]))
            assert table.translations[row].tobytes() == pose.translation.tobytes()
            assert table.rotations[row].tobytes() == pose.rotation.tobytes()

    @pytest.mark.parametrize("reader", ["odometry", "trajectory"])
    @pytest.mark.parametrize("n", [1, 7, 300])
    def test_round_trip_moves_only_the_last_rotation_digit(self, tmp_path, reader, n):
        """Writing what was read gives back every time and translation field
        as printed. A printed unit rotation is not unit at 9 digits, and the
        read normalises it, so a rotation field may come back off by one in
        its last digit."""
        rng = np.random.default_rng(n)
        path, path2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        if reader == "odometry":
            write_odometry(path, random_table(rng, n))
            write_odometry(path2, read_odometry(path))
        else:
            write_trajectory(path, random_table(rng, n), times=rng.uniform(0.0, 1e4, n).tolist())
            times, table = read_trajectory(path)
            write_trajectory(path2, table, times=times)
        a, b = (open(p).read().splitlines() for p in (path, path2))
        assert len(a) == len(b) == n + 1 and a[0] == b[0]
        for row_a, row_b in zip(a[1:], b[1:]):
            fields_a, fields_b = row_a.split(","), row_b.split(",")
            assert fields_a[:4] == fields_b[:4]
            assert np.abs(np.array(fields_a[4:], dtype=float) - np.array(fields_b[4:], dtype=float)).max() <= 1.5e-9

    @pytest.mark.parametrize("reader", ["odometry", "trajectory"])
    @pytest.mark.parametrize("rotation", ["0,0,0,0", "0,-0,0,1e-13"])
    def test_zero_rotation_reports_file_and_line(self, tmp_path, reader, rotation):
        """The line counts the blank lines before it."""
        header = "t,dx,dy,dz,dqw,dqx,dqy,dqz" if reader == "odometry" else "t,x,y,z,qw,qx,qy,qz"
        what = "odometry increment" if reader == "odometry" else "trajectory pose"
        path = str(tmp_path / "poses.csv")
        open(path, "w").write(f"{header}\n1,0,0,0,1,0,0,0\n\n2,1,0,0,1,0,0,0\n\n3,1,0,0,{rotation}\n4,0,0,0,0,0,0,1\n")
        with pytest.raises(LogFormatError, match=rf"poses\.csv: line 6: {what} has a zero-norm rotation"):
            read_odometry(path) if reader == "odometry" else read_trajectory(path)

    @pytest.mark.parametrize("reader", ["odometry", "trajectory"])
    @pytest.mark.parametrize("rotation", ["1e200,0,0,0", "1e160,1e160,0,0", "0,0,-1e155,1e155"])
    def test_overflowing_rotation_reports_file_and_line(self, tmp_path, reader, rotation):
        """Every field is finite but the norm overflows to inf, which would
        normalise the rotation to zero."""
        header = "t,dx,dy,dz,dqw,dqx,dqy,dqz" if reader == "odometry" else "t,x,y,z,qw,qx,qy,qz"
        what = "odometry increment" if reader == "odometry" else "trajectory pose"
        path = str(tmp_path / "poses.csv")
        open(path, "w").write(f"{header}\n1,0,0,0,1,0,0,0\n\n2,1,0,0,1,0,0,0\n\n3,1,0,0,{rotation}\n4,0,0,0,0,0,0,1\n")
        with pytest.raises(LogFormatError, match=rf"poses\.csv: line 6: {what} has a rotation whose norm overflows"):
            read_odometry(path) if reader == "odometry" else read_trajectory(path)

    def test_huge_finite_norm_is_normalised(self, tmp_path):
        path = str(tmp_path / "poses.csv")
        open(path, "w").write("t,x,y,z,qw,qx,qy,qz\n0,0,0,0,1e150,0,0,1e150\n1,0,0,0,0,3e-12,0,0\n")
        _, table = read_trajectory(path)
        assert np.allclose(table.rotations, [[np.sqrt(0.5), 0, 0, np.sqrt(0.5)], [0, 1, 0, 0]], rtol=0, atol=1e-15)


class TestOdometry:
    def test_round_trip_bit_exact(self, tmp_path):
        incs = [
            Pose(np.array([0.1, -0.25, 0.0]), quat_from_yaw(0.3)),
            Pose(np.array([1.0, 0.0, 0.0]), quat_from_yaw(-0.1)),
        ]
        path = str(tmp_path / "odo.csv")
        write_odometry(path, PoseTable.of(incs))
        back = read_odometry(path)
        assert len(back) == 2
        for row, inc in enumerate(incs):
            assert pose_approx_equal(inc, back.pose(row), tol=1e-8)
        # writing what was read reproduces the file byte for byte
        path2 = str(tmp_path / "odo2.csv")
        write_odometry(path2, back)
        assert open(path, "rb").read() == open(path2, "rb").read()

    @pytest.mark.parametrize("column", ["t", "dx", "dy", "dz", "dqw", "dqx", "dqy", "dqz"])
    def test_non_finite_increment_reports_file_and_line(self, tmp_path, column):
        path = str(tmp_path / "odo.csv")
        write_odometry(path, PoseTable.of([Pose(np.array([0.5, 0.0, 0.0]), quat_from_yaw(0.1))] * 4))
        lines = open(path).read().splitlines()
        fields = lines[3].split(",")
        fields[lines[0].split(",").index(column)] = "nan"
        lines[3] = ",".join(fields)
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(LogFormatError, match=r"odo\.csv: line 4: odometry increment must be finite"):
            read_odometry(path)


class TestTrajectory:
    def test_header_only_rejected(self, tmp_path):
        """A trajectory has at least one pose; the odometry of a one-step run has no increment."""
        path = str(tmp_path / "traj.csv")
        write_trajectory(path, PoseTable.of([]))
        with pytest.raises(LogFormatError, match="no data rows"):
            read_trajectory(path)
        write_odometry(path, PoseTable.of([]))
        empty = read_odometry(path)
        assert len(empty) == 0 and empty.translations.shape == (0, 3) and empty.rotations.shape == (0, 4)

    def test_round_trip(self, tmp_path):
        poses = make_poses(4)
        path = str(tmp_path / "traj.csv")
        write_trajectory(path, PoseTable.of(poses))
        times, back = read_trajectory(path)
        assert times == [0.0, 1.0, 2.0, 3.0] and len(back) == 4
        for row, pose in enumerate(poses):
            assert pose_approx_equal(pose, back.pose(row), tol=1e-8)

    def test_custom_times(self, tmp_path):
        path = str(tmp_path / "traj.csv")
        write_trajectory(path, PoseTable.of(make_poses(2)), times=[1.5, 2.5])
        times, _ = read_trajectory(path)
        assert times == [1.5, 2.5]
        with pytest.raises(ValueError):  # one time per pose
            write_trajectory(path, PoseTable.of(make_poses(2)), times=[1.5])

    @pytest.mark.parametrize("column", ["t", "x", "y", "z", "qw", "qx", "qy", "qz"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_field_reports_file_and_line(self, tmp_path, column, value):
        path = str(tmp_path / "traj.csv")
        write_trajectory(path, PoseTable.of(make_poses(4)))
        lines = open(path).read().splitlines()
        fields = lines[3].split(",")
        fields[lines[0].split(",").index(column)] = value
        lines[3] = ",".join(fields)
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(LogFormatError, match=r"traj\.csv: line 4: trajectory pose must be finite"):
            read_trajectory(path)


class TestMetrics:
    def test_round_trip(self, tmp_path):
        rows = [(0, 0.125, 3, 10, 0), (1, 0.5, 1, 12, 2)]
        path = str(tmp_path / "metrics.csv")
        write_metrics(path, rows)
        assert read_metrics(path) == rows

    def test_deterministic_bytes(self, tmp_path):
        rows = [(0, 1.0 / 3.0, 2, 5, 1)]
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_metrics(p1, rows)
        write_metrics(p2, rows)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_lf_line_endings(self, tmp_path):
        path = str(tmp_path / "m.csv")
        write_metrics(path, [(0, 0.0, 1, 0, 0)])
        data = open(path, "rb").read()
        assert b"\r" not in data and data.endswith(b"\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_rmse_reports_file_and_line(self, tmp_path, value):
        path = str(tmp_path / "m.csv")
        open(path, "w").write(f"frame,rmse,n_hypotheses,n_landmarks,n_loop_closures\n0,0.5,1,2,0\n\n1,{value},1,2,0\n")
        with pytest.raises(LogFormatError, match=r"m\.csv: line 4: rmse must be finite"):
            read_metrics(path)


    @pytest.mark.parametrize(
        "rows, error",
        [
            (["1,0.5,1,2,0"], "line 2: frame 1 is not row 0"),
            (["0,0.5,1,2,0", "0,0.5,1,2,0"], "line 3: frame 0 is not row 1"),
            (["0,0.5,1,2,0", "2,0.5,1,2,0"], "line 3: frame 2 is not row 1"),
            (["0,0.5,-1,2,0"], "line 2: counts must be non-negative"),
            (["0,0.5,1,2,0", "1,0.5,1,2,-3"], "line 3: counts must be non-negative"),
        ],
    )
    def test_frame_out_of_place_or_negative_count_rejected(self, tmp_path, rows, error):
        """Frame t is the t-th data row and no count is negative, as every
        writer writes them."""
        path = str(tmp_path / "m.csv")
        open(path, "w").write("\n".join(["frame,rmse,n_hypotheses,n_landmarks,n_loop_closures", *rows]) + "\n")
        with pytest.raises(LogFormatError, match=rf"m\.csv: {error}$"):
            read_metrics(path)


class TestMap:
    def test_write_map_shape(self, tmp_path):
        path = str(tmp_path / "map.csv")
        write_map(path, LandmarkTable.build([4], [1], [[1.0, 2.0, 3.0]], 0.5 * np.eye(3)))
        lines = open(path).read().splitlines()
        assert lines[0].startswith("landmark_id,class_id,")
        parts = lines[1].split(",")
        assert parts[0] == "4" and parts[1] == "1"
        assert len(parts) == 14


# what a fuzzed field may hold in place of a valid one: numbers, ids out of
# range, non-finite and non-numeric text, and quaternion components whose
# norm underflows or overflows
FIELD = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-3, 12).map(str),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "Infinity", "1e400", "-1e400", "", " ", "x", "1.2.3", "0x10", "1_0"]),
    st.sampled_from(["0", "-0", "1e-200", "5e-324", "1e-13", "1e-11", "1e155", "1e160", "1e200", "1.7e308"]),
)
NUMBER = st.floats(-1e3, 1e3).map(repr)
N_STEPS = 6


def fuzzed_log(*columns):
    """Data lines of one field per column strategy, each field replaced by a
    FIELD one time in eight; blank lines and lines of a wrong field count
    among them. At least one line is not blank."""
    row = st.tuples(*(st.integers(0, 7).flatmap(lambda k, c=c: FIELD if k == 0 else c) for c in columns))
    wrong = st.lists(FIELD, min_size=1, max_size=len(columns) + 2)
    line = st.one_of(row, row, row, wrong, st.just([""]))
    return st.lists(line.map(",".join), min_size=1, max_size=8).filter(any)


MEASUREMENT_COLUMNS = (NUMBER, st.integers(0, N_STEPS - 1).map(str), st.integers(0, N_CLASSES - 1).map(str), *[NUMBER] * 3)
POSE_COLUMNS = (*[NUMBER] * 4, *[st.floats(-1.0, 1.0).map(repr)] * 4)
METRICS_COLUMNS = (st.integers(0, 7).map(str), st.floats(0.0, 1e3).map(repr), *[st.integers(0, 99).map(str)] * 3)


def read_fuzzed(header, lines, read):
    """read(path) of a file holding header and lines: what it returns, or
    None if it raised LogFormatError naming the path and a line."""
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "log.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join([header, *lines]) + "\n")
        try:
            return read(path)
        except LogFormatError as exc:
            assert re.match(rf"{re.escape(path)}: line (\d+): ", str(exc)), str(exc)
            assert 2 <= int(re.match(r".*?: line (\d+)", str(exc))[1]) <= len(lines) + 1
            return None


def assert_finite_unit(table):
    assert np.isfinite(table.translations).all() and np.isfinite(table.rotations).all()
    assert np.all(np.abs(np.linalg.norm(table.rotations, axis=1) - 1.0) <= 4e-15)


class TestFuzzedLogs:
    """Every reader either parses a malformed log into finite values and
    unit rotations, or raises LogFormatError with the path and a line
    number; no other exception escapes."""

    @given(fuzzed_log(*MEASUREMENT_COLUMNS))
    @settings(max_examples=100, deadline=None)
    def test_measurements(self, lines):
        scenes = read_fuzzed("t,scene_id,class_id,x,y,z", lines, lambda p: read_measurements(p, N_CLASSES, N_STEPS))
        if scenes is not None:
            assert [s.scene_id for s in scenes] == list(range(N_STEPS))
            for s in scenes:
                assert np.isfinite(s.times).all() and np.isfinite(s.positions).all()
                assert ((0 <= s.labels) & (s.labels < N_CLASSES)).all()

    @given(fuzzed_log(*POSE_COLUMNS))
    @settings(max_examples=100, deadline=None)
    def test_odometry(self, lines):
        table = read_fuzzed("t,dx,dy,dz,dqw,dqx,dqy,dqz", lines, read_odometry)
        if table is not None:
            assert_finite_unit(table)

    @given(fuzzed_log(*POSE_COLUMNS))
    @settings(max_examples=100, deadline=None)
    def test_trajectory(self, lines):
        read = read_fuzzed("t,x,y,z,qw,qx,qy,qz", lines, read_trajectory)
        if read is not None:
            times, table = read
            assert len(times) == len(table) > 0 and all(map(math.isfinite, times))
            assert_finite_unit(table)

    @given(fuzzed_log(*METRICS_COLUMNS))
    @settings(max_examples=100, deadline=None)
    def test_metrics(self, lines):
        rows = read_fuzzed("frame,rmse,n_hypotheses,n_landmarks,n_loop_closures", lines, read_metrics)
        if rows is not None:
            assert rows and all(math.isfinite(r[1]) for r in rows)
            assert all(isinstance(v, int) for r in rows for v in (r[0], *r[2:]))
            assert [r[0] for r in rows] == list(range(len(rows)))
            assert all(v >= 0 for r in rows for v in r[2:])
