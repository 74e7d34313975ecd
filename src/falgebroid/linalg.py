"""Exact linear algebra by one fraction-free Gauss–Jordan elimination (Bareiss, Math. Comp. 22, 1968), whose every
division is exact, on sparse rows: a row update touches only nonzero entries. ``rref``, ``solve`` and ``nullspace``
work over ℚ, for finite dimensional cohomology: they eliminate over ℤ and give ints, or Fractions where not
integral. ``solve_fraction_free`` solves systems with RatFunc entries, for identity sections and section inversion,
with no gcd before its last division."""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from operator import floordiv

from .ring import Poly, RatFunc, _rational


def _eliminate(rows: list[dict], ncols: int, one, div) -> dict:
    """Fraction-free Gauss–Jordan elimination, in place, of sparse rows {column: nonzero entry} over ℤ or a
    polynomial ring with unit ``one`` and exact division ``div``; returns the pivots {column: row}. With pivot p and
    previous pivot q, a row with f ≠ 0 in the pivot column becomes (p·row - f·prow)/q, exactly; any other row only
    scales by p/q, deferred as scalings telescope: the row is rows[i]·q/at[i]. A row's entries over its entry at
    its pivot column are the reduced row echelon form's."""
    zero, q = one - one, one
    at, pivots, taken = [q] * len(rows), {}, set()
    up = lambda i: rows[i] if at[i] is q else {j: div(v * q, at[i]) for j, v in rows[i].items()}  # noqa: E731
    for c in range(ncols):
        hits = [i for i, row in enumerate(rows) if c in row]
        r = next((i for i in hits if i not in taken), None)
        if r is None:
            continue
        pivots[c], used = r, [i for i in hits if i != r]
        taken.add(r)
        prow = up(r) if used else rows[r]
        p = prow[c] if used or at[r] is q else div(prow[c] * q, at[r])
        rest = [(j, v) for j, v in prow.items() if j != c]
        for i in used:
            row = up(i)
            f, new = row[c], {j: p * v for j, v in row.items() if j != c}
            for j, v in rest:
                new[j] = new[j] - f * v if j in new else -(f * v)
            rows[i], at[i] = {j: div(v, q) for j, v in new.items() if v != zero}, p
        rows[r], at[r], q = prow, prow[c], p
    return pivots


def rref(rows: list[dict], ncols: int) -> tuple[list[dict], list[int]]:
    """Reduced row echelon form of sparse rows {column: int or Fraction} in ``ncols`` columns: its nonzero rows, in
    the same sparse form and pivot order, and their pivot columns. ``_eliminate`` runs over ℤ on each row times the
    lcm of its denominators; each entry N of a pivot row with pivot entry d comes out as Fraction(N, d), an int when
    integral."""
    ints = []
    for row in rows:
        row = {j: c for j, c in row.items() if c}
        m = lcm(*(c.denominator for c in row.values()))
        ints.append({j: c.numerator * (m // c.denominator) for j, c in row.items()})
    pivots = sorted(_eliminate(ints, ncols, 1, floordiv).items())
    reduced = [{j: _rational(Fraction(v, ints[r][c])) for j, v in ints[r].items()} for c, r in pivots]
    return reduced, [c for c, _ in pivots]


def solve(rows: list[dict], ncols: int, rhs: list) -> list | None:
    """One solution x of M x = rhs over ℚ, M given by its sparse rows in ``ncols`` columns, or None if the system is
    inconsistent."""
    reduced, pivots = rref([{**row, ncols: b} for row, b in zip(rows, rhs)], ncols + 1)
    if ncols in pivots:
        return None
    sol = [0] * ncols
    for row, c in zip(reduced, pivots):
        sol[c] = row.get(ncols, 0)
    return sol


def nullspace(rows: list[dict], ncols: int) -> list[list]:
    """Basis of the kernel over ℚ of M, given by its sparse rows in ``ncols`` columns, as a list of column vectors."""
    reduced, pivots = rref(rows, ncols)
    basis = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        vec = [0] * ncols
        vec[f] = 1
        for row, c in zip(reduced, pivots):
            vec[c] = -row.get(f, 0)
        basis.append(vec)
    return basis


def solve_fraction_free(matrix: list[list], rhs: list, n: int) -> tuple[list | None, list[int]]:
    """``solve`` for RatFunc entries in ``n`` variables, and the pivot columns: ``_eliminate`` of each row of
    [M | rhs] times its distinct (``!=``) nonconstant denominators; x_c is the pivot row's right-hand side over its
    pivot, normalized once."""
    rows = []
    for entries in (list(row) + [b] for row, b in zip(matrix, rhs)):
        row = {j: c for j, c in enumerate(entries) if c.num.coeffs}
        dens = list(dict.fromkeys(c.den for c in row.values() if not c.den.is_constant()))
        rows.append({j: prod((d for d in dens if d != c.den), start=c.num) for j, c in row.items()})
    ncols = len(matrix[0]) if matrix else 0
    pivots = _eliminate(rows, ncols, Poly.const(n, 1), Poly.exact_div)
    if any(ncols in row for i, row in enumerate(rows) if i not in pivots.values()):
        return None, list(pivots)
    x = {c: RatFunc(rows[r].get(ncols, Poly.zero(n)), rows[r][c]) for c, r in pivots.items()}
    return [x.get(c, RatFunc.zero(n)) for c in range(ncols)], list(pivots)
