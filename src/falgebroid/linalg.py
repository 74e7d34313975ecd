"""Exact linear algebra over any field whose elements support +, -, *, /.

Used with Fraction entries for finite dimensional cohomology and with
RatFunc entries for identity sections and section inversion. Both types
define ``__bool__`` as "is nonzero", so ``not x`` is the zero test.
Elimination scales and subtracts only the pivot row's nonzero entries, so
sparse matrices such as the point coboundaries cost about their nonzeros.
"""

from __future__ import annotations

from .errors import NotInvertible


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
    if not matrix:
        return 0
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
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    if nrows == 0:
        return [[one if i == j else zero for i in range(ncols)] for j in range(ncols)]
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


def invert(matrix: list[list], zero, one) -> list[list]:
    """Inverse of a square matrix, raising NotInvertible when singular."""
    n = len(matrix)
    aug = [list(matrix[i]) + [one if j == i else zero for j in range(n)] for i in range(n)]
    rows, pivots = rref(aug, one)
    if pivots != list(range(n)):
        raise NotInvertible("matrix is singular")
    return [row[n:] for row in rows]
