"""Domain types: class ids, measurement and landmark tables, class histograms, SPD checks."""

import numpy as np
import pytest

from semslam.core import (
    SPD_EIG_TOL,
    ContractViolation,
    LandmarkTable,
    MeasurementTable,
    check_spd,
    check_spd_stack,
    class_counts,
)

from conftest import landmark, random_spd, scalar_check_spd, table_of


def one_row(position, label) -> MeasurementTable:
    return MeasurementTable.build(0, [0.0], [position], [label])


class TestSemanticMeasurement:
    """Semantic measurements are the rows of a MeasurementTable: a scene's
    times, positions and class ids, checked as one block by `build`."""

    def test_position_coerced_to_float_array(self):
        table = one_row([1, 2, 3], 0)
        assert table.positions.dtype == float and table.positions.shape == (1, 3)
        assert table.times.dtype == float and table.labels.dtype == np.int64 and len(table) == 1

    def test_non_finite_position_rejected(self):
        with pytest.raises(ContractViolation, match="^measurement position must be finite$"):
            one_row([np.nan, 0.0, 0.0], 0)

    def test_negative_id_rejected(self):
        with pytest.raises(ContractViolation, match="^class id must be a non-negative integer, got -1$"):
            one_row([0, 0, 0], -1)

    @pytest.mark.parametrize("bad", [1.0, True, "1", None])
    def test_non_integer_class_rejected(self, bad):
        with pytest.raises(ContractViolation) as got:
            one_row([0, 0, 0], bad)
        assert str(got.value) == f"class id must be a non-negative integer, got {bad!r}"

    def test_numpy_integer_class_accepted(self):
        assert one_row([0, 0, 0], np.int64(3)).labels.tolist() == [3]

    def test_stack_builds_what_the_constructor_builds(self, rng):
        """Class ids given as a list or as an integer array, and positions
        given as an array or as a list of 3-tuples, build the same table."""
        positions = rng.standard_normal((4, 3))
        times, labels = [3.0, 3.5, 4.0, 7.25], [0, 2, np.int64(1), 5]
        got = MeasurementTable.build(np.int64(3), times, positions, labels)
        assert type(got.scene_id) is int and got.scene_id == 3 and len(got) == 4
        assert got.times.tolist() == times and got.labels.tolist() == [0, 2, 1, 5]
        assert got.positions.tobytes() == positions.tobytes()
        for other in (
            MeasurementTable.build(3, np.array(times), [tuple(p) for p in positions], np.array([0, 2, 1, 5])),
            MeasurementTable.build(3, times, positions, np.array([0, 2, 1, 5], dtype=np.uint8)),
        ):
            for f in ("times", "positions", "labels"):
                a, b = getattr(got, f), getattr(other, f)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_stack_of_nothing_is_empty(self):
        for positions in ([], np.zeros((0, 3))):
            table = MeasurementTable.build(5, [], positions, [])
            assert len(table) == 0 and table.scene_id == 5
            assert table.positions.shape == (0, 3) and table.times.shape == table.labels.shape == (0,)

    @pytest.mark.parametrize(
        "row",
        [
            ([np.nan, 0.0, 0.0], 1, "measurement position must be finite"),
            ([0.0, np.inf, 0.0], 1, "measurement position must be finite"),
            ([0.0, 0.0, 0.0], -1, "class id must be a non-negative integer, got -1"),
            ([0.0, 0.0, 0.0], True, "class id must be a non-negative integer, got True"),
            ([0.0, 0.0, 0.0], np.bool_(False), "class id must be a non-negative integer, got np.False_"),
            ([0.0, 0.0, 0.0], 1.0, "class id must be a non-negative integer, got 1.0"),
            ([0.0, 0.0, 0.0], np.float64(2.0), "class id must be a non-negative integer, got np.float64(2.0)"),
            ([np.nan, 0.0, 0.0], -1, "class id must be a non-negative integer, got -1"),  # the class id is checked first
        ],
    )
    def test_stack_raises_what_the_constructor_raises(self, row):
        """A bad row raises the same message alone and among good rows,
        wherever it sits."""
        position, label, message = row
        with pytest.raises(ContractViolation) as want:
            one_row(position, label)
        assert str(want.value) == message
        for bad_at in range(3):
            positions, labels = np.zeros((3, 3)), [0, 1, 2]
            positions[bad_at], labels[bad_at] = position, label
            with pytest.raises(ContractViolation) as got:
                MeasurementTable.build(0, [0.0] * 3, positions, labels)
            assert str(got.value) == message

    @pytest.mark.parametrize(
        "rows",
        [
            ([0.0, 0.0, 0.0, 0.0], np.zeros((3, 3)), [0, 0, 0]),
            ([0.0, 0.0], np.zeros((3, 3)), [0, 0, 0]),
            ([0.0, 0.0, 0.0], np.zeros((2, 3)), [0, 0, 0]),
            ([0.0, 0.0, 0.0], np.zeros((3, 3)), [0, 0]),
            ([0.0, 0.0, 0.0], np.zeros((3, 2)), [0, 0, 0]),
            ([0.0, 0.0, 0.0], np.zeros(9), [0, 0, 0]),
            ([], np.zeros((1, 3)), []),
        ],
    )
    def test_stack_rejects_misaligned_rows(self, rows):
        with pytest.raises(ContractViolation, match="^measurement rows must align, with 3-D positions$"):
            MeasurementTable.build(0, *rows)

    @pytest.mark.parametrize(
        "labels, message",
        [
            (np.array([0, -2, -1]), "got np.int64(-2)"),
            (np.array([False, True, True]), "got np.False_"),
            (np.array([0.0, 1.0, 2.0]), "got np.float64(0.0)"),
        ],
    )
    def test_class_id_arrays_take_the_row_check(self, labels, message):
        """An array of class ids passes the block check only as a
        non-negative integer array; otherwise its first bad row raises."""
        with pytest.raises(ContractViolation) as got:
            MeasurementTable.build(0, [0.0] * 3, np.zeros((3, 3)), labels)
        assert str(got.value) == f"class id must be a non-negative integer, {message}"


class TestCheckSpd:
    def test_identity_passes(self):
        check_spd(np.eye(3))

    def test_asymmetric_rejected(self):
        bad = np.eye(3)
        bad[0, 1] = 0.5
        with pytest.raises(ContractViolation):
            check_spd(bad)

    def test_semidefinite_rejected(self):
        with pytest.raises(ContractViolation):
            check_spd(np.diag([1.0, 1.0, 0.0]))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ContractViolation):
            check_spd(np.eye(2))

    @staticmethod
    def _outcome(check, cov):
        try:
            check(cov)
        except Exception as exc:  # the exception type is part of the contract
            return type(exc)
        return None

    @staticmethod
    def _parity_inputs(rng):
        def asym(base, delta):
            c = np.array(base, dtype=float)
            c[0, 1] += delta
            return c

        eye = np.eye(3)
        coupled = np.array([[10.0, 1.0, 0.0], [1.0, 10.0, 0.0], [0.0, 0.0, 10.0]])
        out = []
        for f in (0.5, 0.99, 1.01, 2.0):
            out.append(("absolute", asym(eye, f * 1e-9)))  # |x| = 0: atol alone
            out.append(("absolute", asym(eye, -f * 1e-9)))
            out.append(("relative", asym(coupled, f * (1e-9 + 1e-5))))  # atol + rtol * |1.0|
            out.append(("relative", asym(coupled, -f * (1e-9 + 1e-5))))
        for v in (np.nan, np.inf, -np.inf):
            diag, off, one = eye.copy(), eye.copy(), eye.copy()
            diag[1, 1] = v
            off[0, 2] = off[2, 0] = v
            one[0, 2] = v
            out += [("non-finite", diag), ("non-finite", off), ("non-finite", one)]
        for lam in (0.5 * SPD_EIG_TOL, SPD_EIG_TOL, 2.0 * SPD_EIG_TOL, 0.0, -1.0):
            out.append(("eigenvalue", np.diag([1.0, 2.0, lam])))
        for shape in ((2, 2), (3,), (4, 4), (3, 3, 1), (0,), (1, 9)):
            out.append(("shape", np.zeros(shape)))
        for _ in range(40):
            cov = random_spd(rng)
            out.append(("random", cov))
            out.append(("random", cov + rng.normal(scale=10.0 ** rng.uniform(-12, -3), size=(3, 3))))
        return out

    def test_matches_scalar_oracle(self, rng):
        """The exact-symmetry fast path accepts and rejects what the
        tolerance test alone does, raising the same exception type."""
        seen = {}
        for kind, cov in self._parity_inputs(rng):
            got, want = self._outcome(check_spd, cov), self._outcome(scalar_check_spd, cov)
            assert got is want, (kind, cov)
            seen.setdefault(kind, set()).add(want)
        # each near-tolerance family has inputs on both sides of its boundary
        for kind in ("absolute", "relative", "eigenvalue", "random"):
            assert seen[kind] == {None, ContractViolation}, kind
        assert seen["shape"] == {ContractViolation}
        assert ContractViolation in seen["non-finite"]

    def test_stack_matches_scalar_oracle(self, rng):
        """Each 3x3 parity input, placed among valid matrices, makes the
        stacked check accept or reject as the scalar oracle does on it alone.
        The valid matrices are asymmetric within tolerance, so the stack
        never passes on exact symmetry alone."""
        for kind, cov in self._parity_inputs(rng):
            if kind == "shape":
                continue
            for row in (0, 2, 4):
                stack = np.stack([random_spd(rng) for _ in range(5)])
                stack[:, 0, 1] += 1e-12
                stack[row] = cov
                got, want = self._outcome(check_spd_stack, stack), self._outcome(scalar_check_spd, cov)
                assert got is want, (kind, row, cov)

    def test_stack_of_valid_matrices_passes(self, rng):
        check_spd_stack(np.stack([random_spd(rng) for _ in range(7)]))
        check_spd_stack(np.zeros((0, 3, 3)))

    def test_stack_wrong_shape_rejected(self):
        for shape in ((3, 3), (0,), (2, 2, 2), (4, 3, 2), (1, 3, 3, 1), (0, 2, 2)):
            with pytest.raises(ContractViolation):
                check_spd_stack(np.zeros(shape))


class TestLandmarkTable:
    def test_assign_count_at_least_one(self):
        with pytest.raises(ContractViolation, match="assign_count"):
            table_of([landmark(0, [0, 0, 0], assign_count=0)])

    def test_build_sorts_rows_by_id(self, rng):
        means = rng.standard_normal((3, 3))
        covs = np.stack([random_spd(rng) for _ in range(3)])
        ids, labels, counts, scenes = [9, 5, 7], [0, 1, 2], [1, 2, 3], [0, 7, 14]
        table = LandmarkTable.build(ids, labels, means, covs, counts, scenes)
        order = [1, 2, 0]
        assert table.ids.tolist() == [5, 7, 9]
        assert table.labels.tolist() == [labels[i] for i in order]
        assert table.assign_count.tolist() == [counts[i] for i in order]
        assert table.last_scene.tolist() == [scenes[i] for i in order]
        assert np.array_equal(table.means, means[order]) and np.array_equal(table.covs, covs[order])
        assert len(LandmarkTable.empty()) == 0 and LandmarkTable.empty().means.shape == (0, 3)

    def test_build_keeps_the_contract(self):
        covs = np.stack([np.eye(3), np.diag([1.0, 1.0, 0.0])])
        with pytest.raises(ContractViolation, match="positive definite"):
            LandmarkTable.build([0, 1], [0, 0], np.zeros((2, 3)), covs)
        with pytest.raises(ContractViolation, match="align"):
            LandmarkTable.build([0], [0], np.zeros((2, 3)), np.stack([np.eye(3)] * 2))
        with pytest.raises(ContractViolation, match="align"):
            LandmarkTable.build([0, 1], [0, 0, 0], np.zeros((2, 3)), np.stack([np.eye(3)] * 2))
        with pytest.raises(ContractViolation, match="more than one row"):
            LandmarkTable.build([3, 3], [0, 0], np.zeros((2, 3)), np.stack([np.eye(3)] * 2))

    def test_concat_inserts_rows_at_their_sorted_place(self):
        a = table_of([landmark(2, [0, 0, 0]), landmark(8, [1, 0, 0])])
        b = table_of([landmark(5, [2, 0, 0])])
        c = table_of([landmark(9, [3, 0, 0])])
        assert LandmarkTable.concat([a, b, c]).ids.tolist() == [2, 5, 8, 9]
        assert LandmarkTable.concat([a, b, c]).means[:, 0].tolist() == [0, 2, 1, 3]
        assert LandmarkTable.concat([a]) is a
        with pytest.raises(ContractViolation, match="more than one row"):
            LandmarkTable.concat([a, a])


class TestClassHistogram:
    def test_class_counts_per_id(self):
        scene = MeasurementTable.build(0, [0.0] * 3, [[0, 0, 0], [1, 0, 0], [2, 0, 0]], [0, 0, 1])
        counts = class_counts(scene.labels, 3)
        assert counts.dtype.kind == "i"
        assert counts.tolist() == [2, 1, 0]

    def test_vector_keeps_absent_classes(self):
        counts = class_counts([0, 2], 4)
        assert counts.tolist() == [1, 0, 1, 0]
        assert np.array_equal(counts / counts.sum(), [0.5, 0.0, 0.5, 0.0])

    def test_empty_histogram_vector_is_zero(self):
        assert class_counts([], 3).tolist() == [0, 0, 0]

    def test_class_id_out_of_range_rejected(self):
        with pytest.raises(ContractViolation, match="out of range"):
            class_counts([0, 3], 3)
