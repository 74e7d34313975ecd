"""Independent checks of library outputs, in plain Fraction arithmetic.

Library results are evaluated at seeded rational points and compared with
values computed here from the generator's own data. Nothing in this file
calls the library's arithmetic, normal form or linear algebra; a library
``RatFunc`` is read only through its ``num.terms``/``den.terms``
dictionaries.
"""

from __future__ import annotations

from fractions import Fraction as F

from gen import poly_deriv, poly_eval


class PoleError(ValueError):
    """The point is a pole of the function being evaluated."""


def eval_ratfunc(f, point) -> F:
    den = poly_eval(f.den.terms, point)
    if den == 0:
        raise PoleError("denominator vanishes at the point")
    return poly_eval(f.num.terms, point) / den


def eval_section(X, point) -> list[F]:
    return [eval_ratfunc(c, point) for c in X.components]


def eval_product(c, point) -> list:
    """The structure constants c[k][i][j] (generator polynomials) at a point."""
    return [[[poly_eval(p, point) for p in row] for row in mat] for mat in c]


def multiply(cp, x, y) -> list[F]:
    n = len(x)
    return [sum(cp[k][i][j] * x[i] * y[j] for i in range(n) for j in range(n)) for k in range(n)]


def solve(matrix, rhs) -> list[F] | None:
    """Unique solution of a square system by Gaussian elimination, or None if singular."""
    n = len(matrix)
    rows = [list(matrix[i]) + [rhs[i]] for i in range(n)]
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c] != 0), None)
        if piv is None:
            return None
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [v * inv for v in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return [rows[i][n] for i in range(n)]


def inverse_section(cp, e_val, identity) -> list[F] | None:
    """x with e·x = identity at a point, for product values cp."""
    n = len(e_val)
    M = [[sum(cp[k][i][j] * e_val[i] for i in range(n)) for j in range(n)] for k in range(n)]
    return solve(M, identity)


def regular_points(points, funcs):
    """The points at which every library function in ``funcs`` is defined."""
    out = []
    for p in points:
        try:
            for f in funcs:
                eval_ratfunc(f, p)
        except PoleError:
            continue
        out.append(p)
    return out


def check_duality(data, points, inverse, dual_product) -> list[str]:
    """Mismatches between an almost-duality result and the oracle.

    ``data`` is the generator's record for the potential; ``inverse`` (a
    library Section) and ``dual_product`` (the dual's product tensor) are
    library outputs. At each point the inverse must equal the solution of
    ℰ·x = e found here, and every dual product entry must equal
    (E_i·E_j)·ℰ.
    """
    n = len(data["identity"])
    funcs = list(inverse.components) + [f for m in dual_product for row in m for f in row]
    pts = regular_points(points, funcs)
    if not pts:
        return ["no regular sample point"]
    errors = []
    for p in pts:
        cp = eval_product(data["c"], p)
        ev = [poly_eval(q, p) for q in data["euler"]]
        want = inverse_section(cp, ev, data["identity"])
        if want is None:
            continue
        got = eval_section(inverse, p)
        if got != want:
            errors.append(f"inverse at {p}: {got} != {want}")
        for i in range(n):
            for j in range(n):
                expect = multiply(cp, [cp[k][i][j] for k in range(n)], ev)
                for k in range(n):
                    if eval_ratfunc(dual_product[k][i][j], p) != expect[k]:
                        errors.append(f"dual product [{k}][{i}][{j}] at {p}")
    return errors


def check_hierarchy_table(data, table, point) -> list[str]:
    """d_j X_(p,a) = c(X_(p,a-1), d_j) at one point, for every a >= 1.

    Table entries are polynomial, so derivatives are taken on the
    numerator terms divided by the constant denominator.
    """
    errors = []
    n = len(data["identity"])
    cp = eval_product(data["c"], point)
    for (p, a), X in table.items():
        if a == 0:
            continue
        prev = eval_section(table[(p, a - 1)], point)
        for j in range(n):
            for i in range(n):
                comp = X.components[i]
                den = poly_eval(comp.den.terms, point)
                lhs = poly_eval(poly_deriv(comp.num.terms, j), point) / den
                rhs = sum(cp[i][j][k] * prev[k] for k in range(n))
                if lhs != rhs:
                    errors.append(f"X_({p},{a}) component {i + 1}, d_{j + 1}")
    return errors


def witness_nonzero(components, points) -> bool:
    """True when some witness component is nonzero at some point where all are defined."""
    for p in regular_points(points, components):
        if any(eval_ratfunc(f, p) != 0 for f in components):
            return True
    return False


# -- bilinear maps over a point ----------------------------------------------


def bilinear(m, x, y):
    """m[k][i][j] applied to coordinate vectors x, y."""
    r = len(x)
    return [sum(m[k][i][j] * x[i] * y[j] for i in range(r) for j in range(r) if x[i] and y[j]) for k in range(r)]


def residual(mus, k: int, X, Y, Z) -> list[F]:
    """Order-k pre-Lie residual of a deformed product at coordinate vectors X, Y, Z.

    ``mus[i]`` is the order-i cochain c[k][i][j]; a missing or None order
    counts as zero. The residual is the sum over i + j = k of
    mu_i(mu_j(X,Y),Z) - mu_i(X,mu_j(Y,Z)) - mu_i(mu_j(Y,X),Z) + mu_i(Y,mu_j(X,Z)).
    """
    total = [F(0)] * len(X)
    for i in range(k + 1):
        j = k - i
        if max(i, j) >= len(mus) or mus[i] is None or mus[j] is None:
            continue
        mi, mj = mus[i], mus[j]
        terms = (
            bilinear(mi, bilinear(mj, X, Y), Z),
            bilinear(mi, X, bilinear(mj, Y, Z)),
            bilinear(mi, bilinear(mj, Y, X), Z),
            bilinear(mi, Y, bilinear(mj, X, Z)),
        )
        total = [t + a - b - c + d for t, a, b, c, d in zip(total, *terms)]
    return total


def basis_triples(r: int):
    basis = [[F(1) if t == s else F(0) for t in range(r)] for s in range(r)]
    return [((a, b, c), basis[a], basis[b], basis[c]) for a in range(r) for b in range(r) for c in range(r)]


def order_holds(mus, r: int, k: int) -> bool:
    """True when the order-k residual vanishes on every basis triple."""
    return not any(any(residual(mus, k, X, Y, Z)) for _, X, Y, Z in basis_triples(r))
