"""Exact linear algebra. ``rref``, ``rank``, ``solve`` and ``nullspace`` work over any field whose elements support
+, -, *, / and define ``__bool__`` as "is nonzero"; the library runs them over Fraction entries, for finite dimensional
cohomology. They scale and subtract only the pivot row's nonzero entries, so sparse matrices such as the point
coboundaries cost about their nonzeros. ``solve_fraction_free`` solves systems with RatFunc entries, for identity
sections and section inversion, with no gcd before its last division."""

from __future__ import annotations

from math import prod

from .ring import Poly, RatFunc


def rref(matrix: list[list], one) -> tuple[list[list], list[int]]:
    """Reduced row echelon form. Returns (rows, pivot column indices)."""
    rows = [list(r) for r in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        inv = one / prow[c]
        nonzero = [j for j in range(c, ncols) if prow[j]]  # left of c the pivot row is zero
        for j in nonzero:
            prow[j] = inv * prow[j]
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and f:
                for j in nonzero:
                    row[j] -= f * prow[j]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rank(matrix: list[list], one) -> int:
    return len(rref(matrix, one)[1])


def solve(matrix: list[list], rhs: list, zero, one) -> list | None:
    """One solution of M x = rhs, or None if the system is inconsistent."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    aug = [list(matrix[i]) + [rhs[i]] for i in range(nrows)]
    rows, pivots = rref(aug, one)
    if ncols in pivots:
        return None
    sol = [zero] * ncols
    for r, c in enumerate(pivots):
        sol[c] = rows[r][ncols]
    return sol


def nullspace(matrix: list[list], zero, one) -> list[list]:
    """Basis of the kernel of M, as a list of column vectors."""
    ncols = len(matrix[0]) if matrix else 0
    rows, pivots = rref(matrix, one)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [zero] * ncols
        vec[f] = one
        for r, c in enumerate(pivots):
            vec[c] = zero - rows[r][f]
        basis.append(vec)
    return basis


def solve_fraction_free(matrix: list[list], rhs: list, n: int) -> tuple[list | None, list[int]]:
    """``solve`` for RatFunc entries in ``n`` variables, and the pivot columns, by fraction-free Gauss–Jordan
    elimination (Bareiss, Math. Comp. 22, 1968) on each row of [M | rhs] times its distinct (``!=``) nonconstant
    denominators. With pivot p and previous pivot q, a row with f ≠ 0 in the pivot column becomes
    (p·row - f·prow)/q, exactly; any other row only scales by p/q, deferred as scalings telescope: the row is
    rows[i]·q/at[i]. x_c is the pivot row's right-hand side over its pivot, normalized once."""
    rows = []
    for entries in (list(row) + [b] for row, b in zip(matrix, rhs)):
        row = {j: c for j, c in enumerate(entries) if c.num.coeffs}
        dens = list(dict.fromkeys(c.den for c in row.values() if not c.den.is_constant()))
        rows.append({j: prod((d for d in dens if d != c.den), start=c.num) for j, c in row.items()})
    ncols, q = len(matrix[0]) if matrix else 0, Poly.const(n, 1)
    at, pivots = [q] * len(rows), {}  # pivots: {column: row}
    up = lambda i: rows[i] if at[i] is q else {j: (v * q).exact_div(at[i]) for j, v in rows[i].items()}  # noqa: E731
    for c in range(ncols):
        r = next((i for i, row in enumerate(rows) if c in row and i not in pivots.values()), None)
        if r is None:
            continue
        pivots[c], used = r, [i for i, row in enumerate(rows) if i != r and c in row]
        prow = up(r) if used else rows[r]
        p = prow[c] if used or at[r] is q else (prow[c] * q).exact_div(at[r])
        rest = [(j, v) for j, v in prow.items() if j != c]
        for i in used:
            row = up(i)
            f, new = row[c], {j: p * v for j, v in row.items() if j != c}
            for j, v in rest:
                new[j] = new[j] - f * v if j in new else -(f * v)
            rows[i], at[i] = {j: v.exact_div(q) for j, v in new.items() if v.coeffs}, p
        rows[r], at[r], q = prow, prow[c], p
    if any(ncols in row for i, row in enumerate(rows) if i not in pivots.values()):
        return None, list(pivots)
    x = {c: RatFunc(rows[r].get(ncols, Poly.zero(n)), rows[r][c]) for c, r in pivots.items()}
    return [x.get(c, RatFunc.zero(n)) for c in range(ncols)], list(pivots)
