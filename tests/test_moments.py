"""Empirical measures, class splitting, and moment matrix assembly."""

import numpy as np
import pytest

from cfkit import (
    DataError,
    EmpiricalMeasure,
    LabeledDataset,
    NumericalError,
    class_split,
    empirical_moment_matrix,
    enumerate_basis,
    enumerate_tensor_basis,
    enumerate_variety_basis,
    eval_monomials_batch,
    fit,
    joint_moment_matrix,
    tensor_cf,
    uniform_measure,
)
from cfkit.moments import BLOCK_FLOATS, EVAL_CHUNK, basis_blocks, block_rows, row_blocks
from conftest import random_joint_dataset, random_measure


class TestLabeledDataset:
    def test_infers_class_count(self):
        data = LabeledDataset(np.zeros((3, 2)), [1, 2, 2])
        assert data.m == 2 and data.n == 2 and data.n_points == 3

    def test_label_outside_declared_range(self):
        with pytest.raises(DataError):
            LabeledDataset(np.zeros((2, 1)), [1, 3], m=2)

    @pytest.mark.parametrize("labels", [[1.5, 2.9, 1.0], [1.0, np.nan, 2.0], [1.0, 1e20, 2.0]])
    def test_rejects_non_integer_labels(self, labels):
        with pytest.raises(DataError, match="labels must be integers >= 1"):
            LabeledDataset(np.zeros((3, 1)), labels)

    def test_integral_float_labels_accepted(self):
        data = LabeledDataset(np.zeros((3, 1)), [1.0, 2.0, 1.0])
        assert data.labels.dtype == np.int64
        np.testing.assert_array_equal(data.labels, [1, 2, 1])

    @pytest.mark.parametrize("m", [2.5, 2.0, 0, -1, "2", True])
    def test_class_count_must_be_a_positive_integer(self, m):
        with pytest.raises(DataError, match="class count m must be an integer >= 1"):
            LabeledDataset(np.zeros((2, 1)), [1, 2], m=m)
        assert LabeledDataset(np.zeros((2, 1)), [1, 2], m=np.int64(3)).m == 3

    def test_class_count_is_stored_as_int(self):
        assert type(LabeledDataset(np.zeros((2, 1)), [1, 2], m=np.int64(3)).m) is int

    def test_rejects_bad_inputs(self):
        with pytest.raises(DataError):
            LabeledDataset(np.zeros((2, 1)), [0, 1])
        with pytest.raises(DataError):
            LabeledDataset(np.array([[np.inf]]), [1])
        with pytest.raises(DataError):
            LabeledDataset(np.zeros((0, 1)), [])


class TestClassSplit:
    def test_singletons(self):
        data = LabeledDataset(np.array([[-1.0, 1.0], [1.0, 2.0]]), [1, 2])
        parts = class_split(data)
        assert len(parts) == 2
        np.testing.assert_array_equal(parts[0].weights, [1.0])
        np.testing.assert_array_equal(parts[1].weights, [1.0])

    def test_uneven_classes(self):
        data = LabeledDataset(np.zeros((3, 1)), [1, 1, 2])
        parts = class_split(data)
        np.testing.assert_array_equal(parts[0].weights, [0.5, 0.5])
        assert parts[0].mass == parts[1].mass == 1.0

    def test_prior_weights(self):
        data = LabeledDataset(np.zeros((4, 1)), [1, 1, 1, 2])
        parts = class_split(data, class_prior_weights=True)
        assert parts[0].mass == pytest.approx(0.75)
        assert parts[1].mass == pytest.approx(0.25)
        np.testing.assert_allclose(parts[0].weights, 0.25)

    def test_empty_class_named(self):
        data = LabeledDataset(np.zeros((2, 1)), [1, 1], m=2)
        with pytest.raises(DataError, match="class 2"):
            class_split(data)


class TestEmpiricalMeasure:
    def test_weight_sum_checked(self):
        with pytest.raises(DataError):
            EmpiricalMeasure(np.zeros((2, 1)), [0.5, 0.6], mass=1.0)

    def test_negative_weights_rejected(self):
        with pytest.raises(DataError):
            EmpiricalMeasure(np.zeros((2, 1)), [1.5, -0.5], mass=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_rejected(self, bad):
        with pytest.raises(DataError, match="weights must be finite"):
            EmpiricalMeasure(np.zeros((3, 1)), [0.5, bad, 0.5], mass=1.0)
        with pytest.raises(DataError, match="weights must be finite"):
            EmpiricalMeasure(np.zeros((1, 1)), [bad], mass=bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_mass_rejected(self, bad):
        with pytest.raises(DataError, match="mass must be finite"):
            EmpiricalMeasure(np.zeros((2, 1)), [0.5, 0.5], mass=bad)

    @pytest.mark.parametrize("points", [[], np.zeros((0, 2))])
    def test_uniform_measure_of_no_points(self, points):
        with pytest.raises(DataError, match="nonempty"):
            uniform_measure(points)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        with pytest.raises(DataError, match="non-finite"):
            EmpiricalMeasure(np.array([[0.0], [bad]]), [0.5, 0.5], mass=1.0)


class TestMomentMatrix:
    def test_single_point_at_origin(self):
        M = empirical_moment_matrix(uniform_measure([0.0]), enumerate_basis(1, 1))
        np.testing.assert_array_equal(M.entries, [[1.0, 0.0], [0.0, 0.0]])
        assert M.mass == 1.0

    def test_three_symmetric_points(self):
        M = empirical_moment_matrix(
            uniform_measure([-1.0, 0.0, 1.0]), enumerate_basis(1, 1)
        )
        np.testing.assert_allclose(
            M.entries, [[1.0, 0.0], [0.0, 2.0 / 3.0]], atol=1e-15
        )

    def test_random_matrices_psd_and_symmetric(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 3))
            measure = random_measure(rng, n, int(rng.integers(2, 40)))
            M = empirical_moment_matrix(measure, enumerate_basis(n, 3))
            assert np.abs(M.entries - M.entries.T).max() <= 1e-12
            eigs = np.linalg.eigvalsh(M.entries)
            assert eigs.min() >= -1e-10 * max(eigs.max(), 1e-30)

    def test_entries_are_moments(self, rng):
        measure = random_measure(rng, 2, 25)
        basis = enumerate_basis(2, 2)
        M = empirical_moment_matrix(measure, basis)
        expo = basis.exponents
        for a in range(basis.size):
            for b in range(basis.size):
                joint = expo[a] + expo[b]
                direct = float(
                    np.sum(
                        measure.weights
                        * np.prod(measure.points**joint, axis=1)
                    )
                )
                assert M.entries[a, b] == pytest.approx(direct, rel=1e-12, abs=1e-14)

    def test_point_order_does_not_matter(self, rng):
        measure = random_measure(rng, 2, 300)
        basis = enumerate_basis(2, 3)
        reference = empirical_moment_matrix(measure, basis).entries
        for _ in range(3):
            perm = rng.permutation(measure.points.shape[0])
            shuffled = EmpiricalMeasure(
                measure.points[perm], measure.weights[perm], mass=measure.mass
            )
            again = empirical_moment_matrix(shuffled, basis).entries
            np.testing.assert_allclose(again, reference, rtol=1e-12, atol=1e-14)

    def test_weight_scaling_scales_entries(self, rng):
        measure = random_measure(rng, 1, 10)
        basis = enumerate_basis(1, 2)
        base = empirical_moment_matrix(measure, basis)
        scaled_measure = EmpiricalMeasure(
            measure.points, 3.0 * measure.weights, mass=3.0
        )
        scaled = empirical_moment_matrix(scaled_measure, basis)
        np.testing.assert_allclose(scaled.entries, 3.0 * base.entries, rtol=1e-13)
        assert scaled.mass == pytest.approx(3.0)

    def test_rank_bounded_by_points_and_basis(self, rng):
        basis = enumerate_basis(2, 3)
        for n_points in (2, 5, 9, 40):
            measure = random_measure(rng, 2, n_points)
            M = empirical_moment_matrix(measure, basis)
            rank = np.linalg.matrix_rank(M.entries, tol=1e-10)
            assert rank <= min(basis.size, n_points)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            empirical_moment_matrix(uniform_measure([0.0]), enumerate_basis(2, 1))

    def test_joint_basis_rejected(self):
        with pytest.raises(ValueError):
            empirical_moment_matrix(
                uniform_measure([0.0]), enumerate_variety_basis(1, 2, 2)
            )


class TestJointMomentMatrix:
    def test_single_pair_outer_product(self):
        data = LabeledDataset(np.array([[0.0]]), [1], m=2)
        basis = enumerate_tensor_basis(1, 1, 2)
        M = joint_moment_matrix(data, basis)
        # basis order (0,0),(1,0),(0,1),(1,1); at (x=0, y=1) the vector is (1,0,1,0)
        v = np.array([1.0, 0.0, 1.0, 0.0])
        np.testing.assert_array_equal(M.entries, np.outer(v, v))

    def test_second_moment_of_labels(self):
        data = LabeledDataset(np.array([[0.0], [0.0]]), [1, 2])
        basis = enumerate_variety_basis(1, 2, 2)
        M = joint_moment_matrix(data, basis)
        idx = basis.index_tuples().index((0, 1))
        assert M.entries[idx, idx] == pytest.approx((1.0 + 4.0) / 2.0)

    def test_random_joint_psd(self, rng):
        pts = rng.uniform(-1, 1, size=(30, 2))
        labels = rng.integers(1, 4, size=30)
        labels[:3] = [1, 2, 3]
        data = LabeledDataset(pts, labels, m=3)
        for basis in (
            enumerate_variety_basis(2, 3, 3),
            enumerate_tensor_basis(2, 2, 3),
        ):
            M = joint_moment_matrix(data, basis)
            eigs = np.linalg.eigvalsh(M.entries)
            assert eigs.min() >= -1e-10 * eigs.max()

    def test_per_class_weighting_mass(self, rng):
        pts = rng.uniform(-1, 1, size=(10, 1))
        labels = np.array([1] * 8 + [2] * 2)
        data = LabeledDataset(pts, labels)
        M = joint_moment_matrix(data, enumerate_tensor_basis(1, 2, 2), "per_class")
        assert M.mass == pytest.approx(2.0)
        # constant-monomial entry equals the total mass
        assert M.entries[0, 0] == pytest.approx(2.0)

    def test_mismatched_class_count(self, rng):
        data = LabeledDataset(rng.uniform(-1, 1, size=(6, 1)), [1, 1, 1, 2, 2, 2])
        with pytest.raises(ValueError):
            joint_moment_matrix(data, enumerate_tensor_basis(1, 2, 3))


def full_array_gram(basis, points, weights):
    """Reference assembly: the whole (rows, size) values array at once, scaled
    by ``sqrt(w)``, its row blocks' products summed in the same order."""
    values = eval_monomials_batch(basis, points) * np.sqrt(weights)[:, None]
    total = np.zeros((basis.size, basis.size))
    for block in row_blocks(len(points), basis.size):
        total += values[block].T @ values[block]
    return total


class TestStreamedAssembly:
    """Assembly evaluates the basis one row block at a time; the entries
    equal, bit for bit, a sum over the full values array, and the matrix is
    exactly symmetric."""

    ROWS = 2 * EVAL_CHUNK + 37

    def test_empirical_matches_full_array(self, rng):
        measure = random_measure(rng, 2, self.ROWS)
        # 28 entries take EVAL_CHUNK rows per block, 91 take 1440.
        for basis in (enumerate_basis(2, 6), enumerate_basis(2, 12)):
            M = empirical_moment_matrix(measure, basis)
            expected = full_array_gram(basis, measure.points, measure.weights)
            np.testing.assert_array_equal(M.entries, expected)
            assert np.array_equal(M.entries, M.entries.T)

    @pytest.mark.parametrize("weighting", ["uniform", "per_class"])
    def test_joint_matches_full_array(self, rng, weighting):
        data = random_joint_dataset(rng, 2, 3, [EVAL_CHUNK + 5, 32, EVAL_CHUNK])
        assert data.n_points == self.ROWS
        pairs = np.hstack([data.points, data.labels[:, None].astype(np.float64)])
        counts = np.bincount(data.labels)
        weights = {
            "uniform": np.full(self.ROWS, 1.0 / self.ROWS),
            "per_class": 1.0 / counts[data.labels],
        }[weighting]
        for basis in (enumerate_variety_basis(2, 4, 3), enumerate_tensor_basis(2, 3, 3)):
            M = joint_moment_matrix(data, basis, weighting)
            np.testing.assert_array_equal(M.entries, full_array_gram(basis, pairs, weights))
            assert np.array_equal(M.entries, M.entries.T)


class TestBasisBlocks:
    """The one row-block pass over the basis that assembly and scoring share."""

    @staticmethod
    def walk(basis, points):
        """The block stops of one pass and the arrays behind its views; each
        block's values are checked against a direct evaluation."""
        stops, owners = [0], []
        for block, values, spare in basis_blocks(basis, points):
            assert block.start == stops[-1]
            stops.append(block.stop)
            rows = block.stop - block.start
            expected = eval_monomials_batch(basis, points[block])
            # Padded to a multiple of 16 rows, the pad zeroed.
            assert values.shape == spare.shape == (-(-rows // 16) * 16, basis.size)
            # Both column-major: the rows of a column are adjacent.
            assert values.strides[0] == spare.strides[0] == values.itemsize
            assert values[:rows].tobytes() == expected.tobytes()
            assert not values[rows:].any()
            owners += [values.base, spare.base]
        return stops, owners

    @pytest.mark.parametrize(
        "width, rows",
        [(1, EVAL_CHUNK), (32, EVAL_CHUNK), (33, 3971), (45, 2912), (91, 1440),
         (1001, 130), (BLOCK_FLOATS, 1), (BLOCK_FLOATS + 1, 1)],
    )
    def test_block_rows(self, width, rows):
        assert block_rows(width) == rows

    @pytest.mark.parametrize("degree", [6, 8, 12])
    def test_blocks_in_order_from_one_allocation(self, rng, degree):
        basis = enumerate_basis(2, degree)
        rows = block_rows(basis.size)
        points = rng.uniform(-1.0, 1.0, size=(2 * rows + 5, 2))
        stops, owners = self.walk(basis, points)
        assert stops == [0, rows, 2 * rows, 2 * rows + 5]
        assert all(owner is owners[0] for owner in owners)

    def test_wide_basis_is_one_small_allocation(self, rng):
        # 1000 variables at degree 1: 1001 entries, 130 rows per block.
        basis = enumerate_basis(1000, 1)
        points = rng.uniform(-1.0, 1.0, size=(1000, 1000))
        stops, owners = self.walk(basis, points)
        assert stops == [*range(0, 1000, 130), 1000]
        assert all(owner is owners[0] for owner in owners)
        # Two arrays of 130 rows padded to 144: BLOCK_FLOATS each, plus the pad.
        assert owners[0].size == 2 * 144 * basis.size


class TestOverflow:
    """A moment matrix whose entries overflow raises NumericalError, with no
    floating-point warning on the way (warnings are errors in this suite)."""

    DATA = LabeledDataset(
        np.array([[-1e200], [-2e200], [-3e200], [1e200], [2e200], [3e200]]),
        [1, 1, 1, 2, 2, 2],
    )

    def test_fit_in_raw_coordinates(self):
        with pytest.raises(NumericalError, match="moment matrix is not finite at degree 2"):
            fit(self.DATA, degree=2, scale=False)

    def test_tensor_cf(self):
        with pytest.raises(NumericalError, match="moment matrix is not finite at degree 2"):
            tensor_cf(self.DATA, 2)
