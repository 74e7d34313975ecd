"""The fraction-free eliminations against the tests' Gauss–Jordan oracle (``linalg_oracle``): ``rref``, ``solve``
and ``nullspace`` over ℚ, eliminating over ℤ, and ``solve_fraction_free`` over ℚ(u1, u2); the oracle's sparse row
update itself against a dense elimination."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import linalg_oracle
from falgebroid import linalg
from falgebroid.ring import RatFunc

from test_ring import DEADLINE, NVARS, fractions, ratfuncs


def dense_rref(matrix, one):
    """The elimination before the sparse row update: scales and subtracts every entry of a row."""
    rows = [list(r) for r in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = one / rows[r][c]
        rows[r] = [inv * x for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def oracle_results(matrix, rhs, zero, one):
    """The oracle's rref, solve and nullspace of one matrix."""
    return [linalg_oracle.rref(matrix, one), linalg_oracle.solve(matrix, rhs, zero, one),
            linalg_oracle.nullspace(matrix, zero, one)]


def dense_results(matrix, rhs, zero, one):
    """``oracle_results`` through the dense elimination."""
    with mock.patch.object(linalg_oracle, "rref", dense_rref):
        return oracle_results(matrix, rhs, zero, one)


def assert_normal(value):
    """Every number in a nested result is an int exactly when integral, else a Fraction with denominator > 1: never
    a float, a bool or an integral Fraction."""
    if isinstance(value, (list, tuple)):
        for v in value:
            assert_normal(v)
    elif value is not None:
        assert type(value) is int or type(value) is Fraction and value.denominator > 1, (type(value), value)


def kernel_results(matrix, rhs):
    """The ℤ kernel's rref, solve and nullspace of a dense matrix, passed as sparse rows that keep its zeros, with the
    rref written out densely, zero rows included, as the oracle writes it."""
    ncols = len(matrix[0]) if matrix else 0
    rows = [dict(enumerate(row)) for row in matrix]
    reduced, pivots = linalg.rref(rows, ncols)
    assert all(all(row.values()) for row in reduced)  # sparse: no stored zero
    dense = [[row.get(j, 0) for j in range(ncols)] for row in reduced] + [[0] * ncols for _ in matrix[len(reduced):]]
    return [(dense, pivots), linalg.solve(rows, ncols, rhs), linalg.nullspace(rows, ncols)]


def assert_kernel_matches_oracle(matrix, rhs):
    """The ℤ kernel's rref, solve and nullspace equal the Fraction oracle's, entry by entry, in normal form."""
    got = kernel_results(matrix, rhs)
    assert got == oracle_results(matrix, rhs, Fraction(0), Fraction(1))
    assert_normal(got)


def random_fraction_matrix(rng):
    """A rank-deficient product of random factors, with zero rows and zero columns spliced in."""
    nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
    k = rng.randint(0, min(nrows, ncols))
    entry = lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3))  # noqa: E731
    left = [[entry() for _ in range(k)] for _ in range(nrows)]
    right = [[entry() for _ in range(ncols)] for _ in range(k)]
    m = [[sum((left[i][t] * right[t][j] for t in range(k)), Fraction(0)) for j in range(ncols)] for i in range(nrows)]
    for _ in range(rng.randint(0, 2)):
        m.insert(rng.randint(0, len(m)), [Fraction(0)] * ncols)
    for _ in range(rng.randint(0, 2)):
        c = rng.randint(0, ncols)
        m = [row[:c] + [Fraction(0)] + row[c:] for row in m]
        ncols += 1
    return m


@pytest.mark.parametrize("seed", range(60))
def test_fraction_elimination_matches_dense_oracle(seed):
    """The ℤ kernel, and the oracle's sparse row update, against the dense elimination over ℚ."""
    rng = random.Random(seed)
    m = random_fraction_matrix(rng)
    if seed % 2:  # a square matrix
        n = min(len(m), len(m[0]))
        m = [row[:n] for row in m[:n]]
    rhs = [Fraction(rng.randint(-2, 2)) for _ in m]
    want = dense_results(m, rhs, Fraction(0), Fraction(1))
    assert oracle_results(m, rhs, Fraction(0), Fraction(1)) == want
    assert kernel_results(m, rhs) == want


ZERO, ONE = RatFunc.zero(NVARS), RatFunc.one(NVARS)
entries = st.one_of(st.just(ZERO), ratfuncs())


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3), st.data())
@settings(max_examples=25, deadline=DEADLINE)
def test_ratfunc_elimination_matches_dense_oracle(nrows, ncols, data):
    m = data.draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    rhs = data.draw(st.lists(entries, min_size=nrows, max_size=nrows))
    assert oracle_results(m, rhs, ZERO, ONE) == dense_results(m, rhs, ZERO, ONE)


# -- the ℤ kernel over ℚ ------------------------------------------------------

# ints, non-unit ones included, and Fractions, integral ones included; zero often
rationals = st.one_of(st.just(0), st.integers(min_value=-4, max_value=4), fractions)


@st.composite
def rational_systems(draw):
    """M x = rhs with up to 5 rows and columns, none at all included: M is a product of random factors of inner
    size k (rank at most k), with zero rows and columns spliced in, and rhs is M·x plus a shift that is zero,
    on one row only, or random, so that a rank-deficient system is consistent or not."""
    nrows, ncols, k = (draw(st.integers(min_value=0, max_value=5)) for _ in range(3))
    left = draw(st.lists(st.lists(rationals, min_size=k, max_size=k), min_size=nrows, max_size=nrows))
    right = draw(st.lists(st.lists(rationals, min_size=ncols, max_size=ncols), min_size=k, max_size=k))
    m = [[sum((row[t] * right[t][j] for t in range(k)), 0) for j in range(ncols)] for row in left]
    for i in draw(st.sets(st.integers(min_value=0, max_value=max(nrows - 1, 0)))) if nrows else ():
        m[i] = [0] * ncols
    for j in draw(st.sets(st.integers(min_value=0, max_value=max(ncols - 1, 0)))) if ncols else ():
        for row in m:
            row[j] = Fraction(0)
    x = draw(st.lists(rationals, min_size=ncols, max_size=ncols))
    rhs = [sum((c * v for c, v in zip(row, x)), 0) for row in m]
    shift = draw(st.sampled_from(["none", "one", "random"]))
    if shift == "one" and nrows:
        rhs[draw(st.integers(min_value=0, max_value=nrows - 1))] += draw(rationals)
    elif shift == "random":
        rhs = draw(st.lists(rationals, min_size=nrows, max_size=nrows))
    return m, rhs


@given(rational_systems())
@settings(max_examples=200, deadline=DEADLINE)
def test_integer_kernel_matches_the_fraction_oracle(system):
    assert_kernel_matches_oracle(*system)


@pytest.mark.parametrize("matrix, rhs, solvable", [
    ([], [], True),  # no rows
    ([[], []], [0, 1], False),  # no columns: only the zero right-hand side is reached
    ([[2, 4], [3, 5]], [1, 1], True),  # non-unit pivots, where 1/2 of two ints would be a float
    ([[2, 4, 6], [1, 2, 3], [0, 0, 0]], [2, 1, 0], True),  # rank-deficient, consistent
    ([[2, 4, 6], [1, 2, 3]], [2, 2], False),  # inconsistent
    ([[Fraction(1, 2), Fraction(1, 3)], [Fraction(2), 3]], [Fraction(1, 6), 7], True),  # integral Fractions in
    ([[0, 3, 0], [0, 0, 0], [0, 6, 5]], [3, 0, 1], True),  # zero rows and columns
])
def test_integer_kernel_cases(matrix, rhs, solvable):
    assert_kernel_matches_oracle(matrix, rhs)
    assert (kernel_results(matrix, rhs)[1] is not None) == solvable


# -- the fraction-free solve -------------------------------------------------

point_entries = st.builds(lambda c: RatFunc.const(0, c), fractions)  # zero included
# entries over u1 + 1 or u2 + 1 besides their own denominator, so that rows carry distinct denominators
shifted = st.builds(lambda c, i: c / (RatFunc.var(NVARS, i) + ONE), ratfuncs(), st.integers(min_value=0, max_value=1))


@st.composite
def systems(draw, entries, zero):
    """M x = rhs with up to 3 rows and columns, and sometimes a last row f times the first whose right-hand side is
    f·rhs_0 plus a shift: the system is then rank-deficient, and inconsistent when the shift is nonzero."""
    nrows, ncols = draw(st.integers(min_value=1, max_value=3)), draw(st.integers(min_value=1, max_value=3))
    m = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    rhs = draw(st.lists(entries, min_size=nrows, max_size=nrows))
    if draw(st.booleans()):
        f, shift = draw(entries), draw(st.one_of(st.just(zero), entries))
        m.append([f * c for c in m[0]])
        rhs.append(f * rhs[0] + shift)
    return m, rhs


def assert_fraction_free_matches_solve(matrix, rhs, n):
    zero, one = RatFunc.zero(n), RatFunc.one(n)
    sol, pivots = linalg.solve_fraction_free(matrix, rhs, n)
    assert sol == linalg_oracle.solve(matrix, rhs, zero, one)
    assert pivots == linalg_oracle.rref(matrix, one)[1]


@given(systems(st.one_of(entries, shifted), ZERO))
@settings(max_examples=40, deadline=DEADLINE)
def test_fraction_free_solve_matches_solve(system):
    assert_fraction_free_matches_solve(*system, NVARS)


@given(systems(point_entries, RatFunc.zero(0)))
@settings(max_examples=40, deadline=DEADLINE)
def test_fraction_free_solve_matches_solve_over_a_point(system):
    assert_fraction_free_matches_solve(*system, 0)


U1, U2 = RatFunc.var(NVARS, 0), RatFunc.var(NVARS, 1)


@pytest.mark.parametrize("matrix, rhs, solvable", [
    ([[ONE / U1, ONE / U2], [ONE / (U1 + ONE), ONE]], [ONE, U1 / U2], True),  # distinct denominators in a row
    ([[U1 / (U2 + ONE), U2 / U1, ONE / U1], [U1, ZERO, ONE / (U1 * U2)]], [ONE / U2, U2], True),
    ([[U1, U2], [U1 + U1, U2 + U2]], [ONE, ONE + ONE], True),  # rank-deficient and consistent
    ([[ONE / U1], [U2 / U1]], [ONE, ONE], False),  # inconsistent
])
def test_fraction_free_solve_cases(matrix, rhs, solvable):
    assert_fraction_free_matches_solve(matrix, rhs, NVARS)
    assert (linalg.solve_fraction_free(matrix, rhs, NVARS)[0] is not None) == solvable
