"""Monomial bases over R^n and over R^n x R, with vectorized evaluation.

Three kinds of basis are supported:

* ``plain``:   all monomials x^a with total degree |a| <= t.
* ``variety``: joint monomials x^a * y^k with k <= m-1 and |a| + k <= t.
  These span the polynomials of degree <= t restricted to the union of the
  m hyperplanes y = 1, ..., y = m.
* ``tensor``:  joint monomials x^a * y^k with |a| <= t and k <= m-1
  (degree capped separately in x and in y).

Enumeration is graded lexicographic: entries are sorted by total degree
first, then by descending lexicographic order of the exponent tuple, so
x comes before y at equal degree.  The ordering is deterministic and is
relied upon everywhere a moment matrix is indexed by a basis.

Every basis kind is downward closed and graded, so each monomial other
than the constant is an earlier monomial times one variable.  Evaluation
follows that recurrence, one multiply per basis entry and point.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from math import comb

import numpy as np


def basis_dimension(n: int, t: int) -> int:
    """Number of monomials in n variables of total degree at most t."""
    return comb(n + t, n)


def _graded_exponents(nvars, max_degree):
    """Yield exponent rows of degree <= max_degree, graded, descending lex.

    Each ascending tuple of d variable indices is one monomial of degree d,
    and the lexicographic order of the tuples is the descending one of rows.
    """
    for degree in range(max_degree + 1):
        for combo in combinations_with_replacement(range(nvars), degree):
            row = [0] * nvars
            for var in combo:
                row[var] += 1
            yield row


def _check_args(n, t, m=1):
    """The argument rule every enumerator shares."""
    if n < 1:
        raise ValueError("dimension n must be at least 1")
    if t < 0:
        raise ValueError("degree t must be nonnegative")
    if m < 1:
        raise ValueError("class count m must be at least 1")


@dataclass(frozen=True, eq=False)
class MonomialBasis:
    """An ordered set of monomial exponents.

    Attributes
    ----------
    n : int
        Ambient dimension of the x variables.
    t : int
        Maximum total degree used by the enumeration.
    kind : str
        One of ``plain``, ``variety``, ``tensor``.
    m : int or None
        Number of admissible integer values of y for the joint kinds,
        None for the plain kind.
    exponents : numpy.ndarray
        Integer array of shape (size, nvars).  For joint kinds the last
        column is the y exponent.
    parents, variables : numpy.ndarray
        Derived at construction: for each entry a past the first (the
        constant), ``a = exponents[parents] + e_variables``, where the
        variable is the last nonzero coordinate of a.  The parent always
        precedes its child.
    """

    n: int
    t: int
    kind: str
    m: int | None
    exponents: np.ndarray
    parents: np.ndarray = field(init=False, repr=False)
    variables: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        expo = self.exponents.tolist()
        index = {tuple(row): i for i, row in enumerate(expo)}
        parents = np.zeros(len(expo), dtype=np.intp)
        variables = np.zeros(len(expo), dtype=np.intp)
        if any(expo[0]):
            raise ValueError("basis must start with the constant monomial")
        for i, row in enumerate(expo[1:], start=1):
            var = max((k for k, e in enumerate(row) if e), default=0)
            row[var] -= 1
            parents[i] = index.get(tuple(row), i)
            variables[i] = var
            if parents[i] >= i:
                raise ValueError("basis is not downward closed in graded order")
        object.__setattr__(self, "parents", parents)
        object.__setattr__(self, "variables", variables)

    @property
    def nvars(self) -> int:
        """Length of the point vectors this basis is evaluated at."""
        return self.n if self.kind == "plain" else self.n + 1

    @property
    def size(self) -> int:
        return self.exponents.shape[0]

    def index_tuples(self) -> list[tuple[int, ...]]:
        """The ordered exponent tuples, for inspection and tests."""
        return [tuple(int(e) for e in row) for row in self.exponents]

    def __eq__(self, other):
        if not isinstance(other, MonomialBasis):
            return NotImplemented
        return (
            self.n == other.n
            and self.t == other.t
            and self.kind == other.kind
            and self.m == other.m
            and np.array_equal(self.exponents, other.exponents)
        )


def enumerate_basis(n: int, t: int) -> MonomialBasis:
    """All multi-indices a with |a| <= t, graded lexicographic.

    The result has exactly ``basis_dimension(n, t)`` entries.
    """
    _check_args(n, t)
    expo = np.array(list(_graded_exponents(n, t)), dtype=np.int64)
    return MonomialBasis(n=n, t=t, kind="plain", m=None, exponents=expo)


def enumerate_variety_basis(n: int, t: int, m: int) -> MonomialBasis:
    """Joint exponents (a, k) with k <= m-1 and |a| + k <= t.

    Warns when t < m-1, in which case not every y degree is represented.
    """
    _check_args(n, t, m)
    if t < m - 1:
        warnings.warn(
            f"variety basis with t={t} < m-1={m - 1}: the y direction "
            "is not fully resolved",
            stacklevel=2,
        )
    rows = [e for e in _graded_exponents(n + 1, t) if e[-1] <= m - 1]
    expo = np.array(rows, dtype=np.int64)
    return MonomialBasis(n=n, t=t, kind="variety", m=m, exponents=expo)


def enumerate_tensor_basis(n: int, t: int, m: int) -> MonomialBasis:
    """Joint exponents (a, k) with |a| <= t and k <= m-1.

    Size is m * basis_dimension(n, t).
    """
    _check_args(n, t, m)
    rows = [
        e
        for e in _graded_exponents(n + 1, t + m - 1)
        if e[-1] <= m - 1 and sum(e[:-1]) <= t
    ]
    expo = np.array(rows, dtype=np.int64)
    return MonomialBasis(n=n, t=t, kind="tensor", m=m, exponents=expo)


def eval_monomials(basis: MonomialBasis, x) -> np.ndarray:
    """Evaluate the monomial vector of the basis at a single point.

    ``x`` must have length ``basis.nvars`` (joint kinds take the y value
    as the last coordinate).  Entry i is x^{a_i}, with the convention
    0^0 = 1 so the constant monomial is 1 everywhere.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("expected a single point as a 1-D array")
    return eval_monomials_batch(basis, x[None, :])[0]


def eval_monomials_batch(basis: MonomialBasis, points, out=None) -> np.ndarray:
    """Evaluate the monomial vector at each row of ``points``.

    Returns an array of shape (len(points), basis.size).  Entry a is
    computed as v_a = v_parent * x_var (see :class:`MonomialBasis`), one
    pass over the basis per batch of points.  ``out``, if given, is the
    float64 array of that shape to fill and return; column-major is the
    layout the recurrence writes fastest, and the one it allocates.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != basis.nvars:
        raise ValueError(
            f"points must be a 2-D array with {basis.nvars} columns, "
            f"got shape {pts.shape}"
        )
    if not np.all(np.isfinite(pts)):
        raise ValueError("points contain non-finite coordinates")
    coords = np.ascontiguousarray(pts.T)
    if out is None:
        out = np.empty((basis.size, pts.shape[0])).T
    columns = out.T
    columns[0] = 1.0
    for i, (parent, var) in enumerate(
        zip(basis.parents[1:].tolist(), basis.variables[1:].tolist()), start=1
    ):
        np.multiply(columns[parent], coords[var], out=columns[i])
    return out
