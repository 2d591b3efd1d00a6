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
follows that recurrence, one multiply per basis entry and point, issued
one run of entries at a time (see :attr:`MonomialBasis.runs`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement
from math import comb

import numpy as np


def basis_dimension(n: int, t: int) -> int:
    """Number of monomials in n variables of total degree at most t."""
    return comb(n + t, n)


def _recurrence(nvars, max_degree, keep=None):
    """Parents and variables of the monomials of degree <= max_degree.

    Each ascending tuple of d variable indices is one monomial of degree d,
    listed in descending lex order of exponent rows.  Its parent is the tuple
    without its last entry, and its variable that entry.  ``keep``, if given,
    selects the tuples of a downward-closed subset.
    """
    parents, variables = [0], [0]
    previous = {(): 0}
    for degree in range(1, max_degree + 1):
        current = {}
        # filter(None, ...) keeps every tuple: none is empty at degree >= 1.
        for combo in filter(keep, combinations_with_replacement(range(nvars), degree)):
            current[combo] = len(parents)
            parents.append(previous[combo[:-1]])
            variables.append(combo[-1])
        previous = current
    return np.array(parents, dtype=np.intp), np.array(variables, dtype=np.intp)


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
    """An ordered set of monomials, stored as the recurrence that builds them.

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
    parents, variables : numpy.ndarray
        Entry 0 is the constant monomial.  Every later entry a is its
        parent times one variable, ``x^a = x^{parents[a]} * x_{variables[a]}``,
        and the parent precedes its child.  For the joint kinds variable
        ``n`` is y.
    """

    n: int
    t: int
    kind: str
    m: int | None
    parents: np.ndarray
    variables: np.ndarray

    def __post_init__(self):
        parents = np.asarray(self.parents, dtype=np.intp)
        variables = np.asarray(self.variables, dtype=np.intp)
        if parents.ndim != 1 or parents.shape != variables.shape or not parents.size:
            raise ValueError("parents and variables must be 1-D, nonempty and of one length")
        if not np.all((0 <= parents[1:]) & (parents[1:] < np.arange(1, parents.size))):
            raise ValueError("each parent must be an earlier entry")
        if not np.all((0 <= variables) & (variables < self.nvars)):
            raise ValueError(f"variables must lie in 0 .. {self.nvars - 1}")
        object.__setattr__(self, "parents", parents)
        object.__setattr__(self, "variables", variables)

    @property
    def nvars(self) -> int:
        """Length of the point vectors this basis is evaluated at."""
        return self.n if self.kind == "plain" else self.n + 1

    @property
    def size(self) -> int:
        return self.parents.size

    @cached_property
    def exponents(self) -> np.ndarray:
        """Exponent rows, shape (size, nvars), y last; derived on first read."""
        expo = np.zeros((self.size, self.nvars), dtype=np.int64)
        for a in range(1, self.size):
            expo[a] = expo[self.parents[a]]
            expo[a, self.variables[a]] += 1
        return expo

    @cached_property
    def runs(self) -> tuple[tuple[slice, slice, int], ...]:
        """The recurrence in maximal runs, ``(entries, parents, variable)``.

        A run is a stretch of entries that share a variable and have
        consecutive parents, all of which precede the run's first entry,
        so one multiply of the parents' values by the variable fills it.
        Entry 0, the constant, is in no run.  Derived on first read.
        """
        parents, variables = self.parents.tolist(), self.variables.tolist()
        runs, start = [], 1
        for a in range(2, self.size + 1):
            if (
                a == self.size
                or variables[a] != variables[start]
                or parents[a] != parents[a - 1] + 1
                or parents[a] >= start
            ):
                first = parents[start]
                runs.append((slice(start, a), slice(first, first + a - start), variables[start]))
                start = a
        return tuple(runs)

    def index_tuples(self) -> list[tuple[int, ...]]:
        """The ordered exponent tuples, for inspection and tests."""
        return [tuple(int(e) for e in row) for row in self.exponents]

    def __eq__(self, other):
        if not isinstance(other, MonomialBasis):
            return NotImplemented
        return (
            (self.n, self.t, self.kind, self.m) == (other.n, other.t, other.kind, other.m)
            and np.array_equal(self.parents, other.parents)
            and np.array_equal(self.variables, other.variables)
        )


def enumerate_basis(n: int, t: int) -> MonomialBasis:
    """All multi-indices a with |a| <= t, graded lexicographic.

    The result has exactly ``basis_dimension(n, t)`` entries.
    """
    _check_args(n, t)
    return MonomialBasis(n, t, "plain", None, *_recurrence(n, t))


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
    return MonomialBasis(n, t, "variety", m, *_recurrence(n + 1, t, lambda c: c.count(n) < m))


def enumerate_tensor_basis(n: int, t: int, m: int) -> MonomialBasis:
    """Joint exponents (a, k) with |a| <= t and k <= m-1.

    Size is m * basis_dimension(n, t).
    """
    _check_args(n, t, m)
    recurrence = _recurrence(n + 1, t + m - 1, lambda c: len(c) - t <= c.count(n) < m)
    return MonomialBasis(n, t, "tensor", m, *recurrence)


def eval_monomials_batch(basis: MonomialBasis, points, out=None) -> np.ndarray:
    """Evaluate the monomial vector at each row of ``points``.

    Returns an array of shape (len(points), basis.size).  Entry a is
    computed as v_a = v_parent * x_var (see :class:`MonomialBasis`), one
    pass over the basis per batch of points and one ``np.multiply`` per
    run of :attr:`MonomialBasis.runs`: at n = 2, t = 12 that is 24 calls
    for 91 entries.  Each value is the same single product as entry by
    entry, so the bits do not depend on the runs.  A run's coordinate is
    read from ``points`` in place and broadcast over its rows, which numpy
    does through an iterator buffer of at most 64 KiB per call (more if
    ``out`` is not contiguous).  ``out``, if given, is the float64 array of
    that shape to fill and return; column-major is the layout the
    recurrence writes fastest, and the one it allocates.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != basis.nvars:
        raise ValueError(
            f"points must be a 2-D array with {basis.nvars} columns, "
            f"got shape {pts.shape}"
        )
    if not np.all(np.isfinite(pts)):
        raise ValueError("points contain non-finite coordinates")
    if out is None:
        out = np.empty((basis.size, pts.shape[0])).T
    columns = out.T
    columns[0] = 1.0
    for entries, parents, var in basis.runs:
        np.multiply(columns[parents], pts[:, var], out=columns[entries])
    return out
