"""The sparse-update elimination against a dense oracle, over ℚ and ℚ(u1, u2), and the fraction-free solve against
``solve``."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

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


def results(matrix, rhs, zero, one):
    """rref, solve and nullspace of one matrix."""
    return [linalg.rref(matrix, one), linalg.solve(matrix, rhs, zero, one), linalg.nullspace(matrix, zero, one)]


def assert_matches_dense_oracle(matrix, rhs, zero, one):
    got = results(matrix, rhs, zero, one)
    with mock.patch.object(linalg, "rref", dense_rref):
        want = results(matrix, rhs, zero, one)
    assert got == want


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
    rng = random.Random(seed)
    m = random_fraction_matrix(rng)
    if seed % 2:  # a square matrix
        n = min(len(m), len(m[0]))
        m = [row[:n] for row in m[:n]]
    rhs = [Fraction(rng.randint(-2, 2)) for _ in m]
    assert_matches_dense_oracle(m, rhs, Fraction(0), Fraction(1))


ZERO, ONE = RatFunc.zero(NVARS), RatFunc.one(NVARS)
entries = st.one_of(st.just(ZERO), ratfuncs())


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3), st.data())
@settings(max_examples=25, deadline=DEADLINE)
def test_ratfunc_elimination_matches_dense_oracle(nrows, ncols, data):
    m = data.draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    rhs = data.draw(st.lists(entries, min_size=nrows, max_size=nrows))
    assert_matches_dense_oracle(m, rhs, ZERO, ONE)


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
    assert sol == linalg.solve(matrix, rhs, zero, one)
    assert pivots == linalg.rref(matrix, one)[1]


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
