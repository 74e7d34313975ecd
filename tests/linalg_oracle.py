"""The elimination oracle: Gauss–Jordan elimination over any field whose elements support +, -, *, / and define
``__bool__`` as "is nonzero", with the field's unit ``one`` (``Fraction(1)`` over ℚ, so that no division is of two
ints) and zero ``zero``. The library eliminates fraction-free instead (``linalg``); the tests hold its ℚ results
and its RatFunc solve to these, entry by entry."""

from __future__ import annotations


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
