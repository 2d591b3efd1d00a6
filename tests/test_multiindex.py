"""Enumeration order, sizes, and monomial evaluation."""

import tracemalloc
import warnings
from itertools import product
from math import comb

import numpy as np
import pytest

from cfkit import (
    MonomialBasis,
    basis_dimension,
    enumerate_basis,
    enumerate_tensor_basis,
    enumerate_variety_basis,
    eval_monomials_batch,
)


def brute_force_variety(n, t, m):
    """Direct enumeration of {(a, k): k <= m-1, |a| + k <= t}."""
    out = set()
    for exps in product(range(t + 1), repeat=n + 1):
        *alpha, k = exps
        if k <= m - 1 and sum(alpha) + k <= t:
            out.add(tuple(exps))
    return out


def brute_force_tensor(n, t, m):
    out = set()
    for alpha in product(range(t + 1), repeat=n):
        if sum(alpha) > t:
            continue
        for k in range(m):
            out.add(tuple(alpha) + (k,))
    return out


def graded_descending_lex(rows):
    """Exponent tuples sorted by total degree, then descending lexicographic."""
    return sorted(rows, key=lambda e: (sum(e), [-x for x in e]))


# Query rows for evaluation checks: more than one SIMD width, fewer than a block.
EVAL_ROWS = 37

# 1, x, y, x^2, y^2, x^2 y, y^3, x^2 y^2: entries 4-7 share y and have
# parents 2-5, but 4 and 5 are parents of 6 and 7, so they make two runs.
SPLIT_RUNS = MonomialBasis(
    2, 4, "plain", None, parents=[0, 0, 0, 1, 2, 3, 4, 5], variables=[0, 0, 1, 0, 1, 1, 1, 1]
)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("t", range(6))
def test_every_kind_lists_the_sorted_product(n, t):
    plain = [e for e in product(range(t + 1), repeat=n) if sum(e) <= t]
    assert enumerate_basis(n, t).index_tuples() == graded_descending_lex(plain)
    assert_child_is_parent_times_last_variable(enumerate_basis(n, t))
    for m in range(1, 5):
        joint = list(product(range(t + m), repeat=n + 1))
        variety = [e for e in joint if e[-1] < m and sum(e) <= t]
        tensor = [e for e in joint if e[-1] < m and sum(e[:-1]) <= t]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # t < m - 1 warns
            variety_basis = enumerate_variety_basis(n, t, m)
            got = variety_basis.index_tuples()
        assert got == graded_descending_lex(variety)
        assert enumerate_tensor_basis(n, t, m).index_tuples() == graded_descending_lex(tensor)
        assert_child_is_parent_times_last_variable(variety_basis)
        assert_child_is_parent_times_last_variable(enumerate_tensor_basis(n, t, m))


def assert_child_is_parent_times_last_variable(basis):
    """Each exponent row is its parent's plus one unit of its variable, and
    that variable is the row's last nonzero coordinate."""
    expo = basis.exponents
    for a in range(1, basis.size):
        var = basis.variables[a]
        np.testing.assert_array_equal(
            expo[a], expo[basis.parents[a]] + np.eye(basis.nvars, dtype=np.int64)[var]
        )
        assert var == np.flatnonzero(expo[a])[-1]


class TestPlainBasis:
    def test_degree_one_2d(self):
        assert enumerate_basis(2, 1).index_tuples() == [(0, 0), (1, 0), (0, 1)]

    def test_cubic_2d_size(self):
        assert enumerate_basis(2, 3).size == 10

    def test_univariate(self):
        basis = enumerate_basis(1, 4)
        assert basis.index_tuples() == [(0,), (1,), (2,), (3,), (4,)]
        assert basis.size == 5

    def test_sizes_match_binomials(self):
        for n in range(1, 5):
            for t in range(0, 9):
                basis = enumerate_basis(n, t)
                assert basis.size == comb(n + t, n) == basis_dimension(n, t)
                assert basis.exponents.sum(axis=1).max() <= t

    def test_graded_then_reverse_lex(self):
        basis = enumerate_basis(3, 4)
        rows = basis.index_tuples()
        degrees = [sum(r) for r in rows]
        assert degrees == sorted(degrees)
        for a, b in zip(rows, rows[1:]):
            if sum(a) == sum(b):
                assert a > b  # descending lexicographic within a degree block

    def test_enumeration_is_pure(self):
        first = enumerate_basis(3, 5)
        second = enumerate_basis(3, 5)
        assert first == second
        assert np.array_equal(first.exponents, second.exponents)

    def test_many_variables(self):
        basis = enumerate_basis(1200, 1)
        assert basis.size == 1201
        np.testing.assert_array_equal(basis.exponents[1:], np.eye(1200, dtype=np.int64))
        assert not basis.parents.any()
        np.testing.assert_array_equal(basis.variables[1:], np.arange(1200))

    def test_wide_degree_one_basis_is_small(self):
        # The recurrence of 5001 entries, not a (5001, 5000) exponent array.
        tracemalloc.start()
        try:
            basis = enumerate_basis(5000, 1)
            eval_monomials_batch(basis, np.ones((3, 5000)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_validation(self):
        with pytest.raises(ValueError):
            enumerate_basis(0, 2)
        with pytest.raises(ValueError):
            enumerate_basis(2, -1)


class TestJointBases:
    @pytest.mark.parametrize(
        "n, t, m, expected_size",
        [(1, 2, 2, 5), (1, 1, 2, 3), (2, 1, 3, 4)],
    )
    def test_variety_matches_brute_force(self, n, t, m, expected_size):
        with pytest.warns(UserWarning) if t < m - 1 else _no_warning():
            basis = enumerate_variety_basis(n, t, m)
        assert set(basis.index_tuples()) == brute_force_variety(n, t, m)
        assert basis.size == expected_size

    def test_variety_examples_explicit(self):
        assert set(enumerate_variety_basis(1, 2, 2).index_tuples()) == {
            (0, 0), (1, 0), (2, 0), (0, 1), (1, 1),
        }
        with pytest.warns(UserWarning):
            low = enumerate_variety_basis(2, 1, 3)
        assert set(low.index_tuples()) == {
            (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
        }

    def test_tensor_examples(self):
        basis = enumerate_tensor_basis(1, 1, 2)
        assert set(basis.index_tuples()) == {(0, 0), (1, 0), (0, 1), (1, 1)}
        assert enumerate_tensor_basis(1, 2, 2).size == 6
        assert enumerate_tensor_basis(2, 2, 2).size == 12

    def test_tensor_size_formula(self):
        for n in (1, 2):
            for t in range(1, 5):
                for m in range(1, 4):
                    basis = enumerate_tensor_basis(n, t, m)
                    assert basis.size == m * comb(n + t, n)
                    assert set(basis.index_tuples()) == brute_force_tensor(n, t, m)

    def test_containment_chain(self):
        for n in range(1, 4):
            for m in range(1, 5):
                for t in range(m - 1, 7):
                    variety = set(enumerate_variety_basis(n, t, m).index_tuples())
                    tensor = set(enumerate_tensor_basis(n, t, m).index_tuples())
                    wider = set(
                        enumerate_variety_basis(n, t + m - 1, m).index_tuples()
                    )
                    assert variety <= tensor <= wider

    def test_low_degree_warns(self):
        with pytest.warns(UserWarning):
            enumerate_variety_basis(1, 1, 3)


class TestEvalMonomials:
    def test_univariate_powers(self):
        basis = enumerate_basis(1, 2)
        np.testing.assert_array_equal(
            eval_monomials_batch(basis, [[2.0]])[0], [1.0, 2.0, 4.0]
        )

    def test_degree_one_2d(self):
        basis = enumerate_basis(2, 1)
        np.testing.assert_array_equal(
            eval_monomials_batch(basis, [[3.0, 5.0]])[0], [1.0, 3.0, 5.0]
        )

    def test_origin_keeps_only_constant(self):
        basis = enumerate_basis(2, 2)
        np.testing.assert_array_equal(
            eval_monomials_batch(basis, [[0.0, 0.0]])[0], [1, 0, 0, 0, 0, 0]
        )

    def test_dimension_mismatch(self):
        basis = enumerate_basis(2, 1)
        with pytest.raises(ValueError):
            eval_monomials_batch(basis, [[1.0]])

    def test_non_finite_rejected(self):
        basis = enumerate_basis(1, 1)
        with pytest.raises(ValueError):
            eval_monomials_batch(basis, [[np.nan]])

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize(
        "kind", ["plain", "variety2", "variety3", "tensor2", "tensor3"]
    )
    def test_recurrence_matches_power_products(self, rng, n, kind):
        m = None if kind == "plain" else int(kind[-1])
        for t in range(0 if m is None else m - 1, 13):
            if m is None:
                basis = enumerate_basis(n, t)
            elif kind.startswith("variety"):
                basis = enumerate_variety_basis(n, t, m)
            else:
                basis = enumerate_tensor_basis(n, t, m)
            pts = rng.uniform(-1.5, 1.5, size=(20, basis.nvars))
            if m is not None:
                pts[:, -1] = rng.integers(1, m + 1, size=20)
            pts[0] = 0.0  # origin: only the constant survives, 0^0 = 1
            pts[1, 0] = 0.0  # one zero coordinate
            expected = np.stack(
                [np.prod(pts ** a, axis=1) for a in basis.exponents], axis=1
            )
            got = eval_monomials_batch(basis, pts)
            np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0)
            np.testing.assert_array_equal(got == 0, expected == 0)
            assert got[0, 0] == 1.0 and not got[0, 1:].any()

    @pytest.mark.parametrize(
        "basis",
        [
            enumerate_basis(1, 7),
            enumerate_basis(2, 12),
            enumerate_basis(4, 5),
            enumerate_variety_basis(1, 6, 3),
            enumerate_variety_basis(3, 4, 2),
            enumerate_tensor_basis(1, 5, 3),
            enumerate_tensor_basis(2, 4, 3),
            SPLIT_RUNS,
        ],
        ids=lambda b: f"{b.kind}-n{b.n}-t{b.t}-m{b.m}-size{b.size}",
    )
    def test_runs_match_one_entry_per_step(self, rng, basis):
        pts = rng.uniform(-1.5, 1.5, size=(EVAL_ROWS, basis.nvars))
        pts[0], pts[1, -1] = -0.0, 0.0  # the sign of a zero product must match too
        columns = np.empty((basis.size, EVAL_ROWS))
        columns[0] = 1.0
        for a in range(1, basis.size):
            columns[a] = columns[basis.parents[a]] * pts[:, basis.variables[a]]
        assert eval_monomials_batch(basis, pts).tobytes(order="F") == columns.tobytes()
        covered = []
        for entries, parents, var in basis.runs:
            assert parents.stop <= entries.start  # no run reads its own output
            np.testing.assert_array_equal(basis.parents[entries], np.arange(parents.start, parents.stop))
            assert set(basis.variables[entries].tolist()) == {var}
            covered += range(entries.start, entries.stop)
        assert covered == list(range(1, basis.size))

    def test_runs_per_basis(self):
        # One multiply per run instead of one per entry.
        assert [len(enumerate_basis(n, t).runs) for n, t in ((2, 8), (2, 12), (3, 8))] == [
            16, 24, 80
        ]
        assert len(enumerate_basis(1, 9).runs) == 9
        runs = [(e.start, e.stop) for e, _, _ in SPLIT_RUNS.runs]
        assert runs == [(1, 2), (2, 3), (3, 4), (4, 6), (6, 8)]

    def test_basis_must_be_downward_closed(self):
        # A parent that is not earlier, a negative parent, a variable >= nvars.
        for parents, variables in ([0, 1], [0, 0]), ([0, -1], [0, 0]), ([0, 0], [0, 1]):
            with pytest.raises(ValueError):
                MonomialBasis(n=1, t=2, kind="plain", m=None, parents=parents,
                              variables=variables)


class _no_warning:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False
