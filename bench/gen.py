"""Seeded input generator for the benchmark.

Everything the library receives is built here from a seed: Frobenius
structure documents from rescaled potentials, the Euler field, mutant
structure files, Nijenhuis matrices, eventual identities and deformation
cochains. The generator uses only ``fractions`` and ``random``, so the
expected values the oracle compares against never come from the library
under test.

A polynomial is a dict mapping exponent tuples to ``Fraction``.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

# -- Frobenius potentials in flat coordinates -----------------------------
#
# Dubrovin, "Geometry of 2D topological field theories" (hep-th/9407018),
# Lecture 4. The metric is eta_{ab} = d_1 d_a d_b F, the identity is d/dt1,
# and the Euler field is sum (1 - q_a) t_a d/dt_a with q = (0, .., d).

POTENTIALS = {
    "A2": {
        "terms": {(2, 1): F(1, 2), (0, 4): F(1, 72)},
        "weights": (F(1), F(2, 3)),
    },
    "A3": {
        "terms": {
            (2, 0, 1): F(1, 2),
            (1, 2, 0): F(1, 2),
            (0, 2, 2): F(1, 4),
            (0, 0, 5): F(1, 60),
        },
        "weights": (F(1), F(3, 4), F(1, 2)),
    },
    "B3": {
        "terms": {
            (2, 0, 1): F(1, 2),
            (1, 2, 0): F(1, 2),
            (0, 3, 1): F(1, 6),
            (0, 2, 3): F(1, 6),
            (0, 0, 7): F(1, 210),
        },
        "weights": (F(1), F(2, 3), F(1, 3)),
    },
}

# Scale factors for t_a -> lam_a * t_a. All have height 2: with heights 3 and
# 4 the A3 dual's gcd cost varied threefold between seeds, which no run
# length could average out.
SCALES = (F(1, 2), F(2), F(-1, 2), F(-2))


def var_names(n: int) -> list[str]:
    return [f"t{i + 1}" for i in range(n)]


def poly_deriv(p: dict, i: int) -> dict:
    out = {}
    for exp, c in p.items():
        if exp[i]:
            e = list(exp)
            e[i] -= 1
            out[tuple(e)] = c * exp[i]
    return out


def poly_text(p: dict, names: list[str]) -> str:
    """Expression text for the library's parser (integers, + - * / ^)."""
    if not p:
        return "0"
    parts = []
    for exp in sorted(p, key=lambda e: (-sum(e), tuple(-x for x in e))):
        c = p[exp]
        mono = "*".join(n if k == 1 else f"{n}^{k}" for n, k in zip(names, exp) if k)
        a = abs(c)
        coeff = str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"
        body = coeff if not mono else mono if a == 1 else f"{coeff}*{mono}"
        parts.append(f"- {body}" if c < 0 else f"+ {body}" if parts else body)
    return " ".join(parts)


def poly_eval(p: dict, point) -> F:
    total = F(0)
    for exp, c in p.items():
        term = c
        for x, k in zip(point, exp):
            if k:
                term *= x**k
        total += term
    return total


def frobenius(name: str, seed: int) -> dict:
    """Structure data of a potential after the seeded rescaling t_a -> lam_a t_a.

    Returns the structure-file document, the Euler field and identity as
    text, and the Fraction data the oracle evaluates: ``c[k][i][j]`` as
    polynomials and the Euler field components.
    """
    spec = POTENTIALS[name]
    n = len(spec["weights"])
    rng = random.Random(f"{name}:{seed}")
    lam = tuple(rng.choice(SCALES) for _ in range(n))
    pot = {}
    for exp, c in spec["terms"].items():
        s = c
        for l, k in zip(lam, exp):
            s *= l**k
        pot[exp] = s
    third = [[[poly_deriv(poly_deriv(poly_deriv(pot, i), j), k) for k in range(n)] for j in range(n)] for i in range(n)]
    # eta_{ab} = F_{1ab} is constant and antidiagonal, so eta^{-1} is too
    eta = [[third[0][a][b].get((0,) * n, F(0)) for b in range(n)] for a in range(n)]
    for a in range(n):
        for b in range(n):
            if (a + b == n - 1) != bool(eta[a][b]) or set(third[0][a][b]) - {(0,) * n}:
                raise ValueError(f"{name}: metric is not constant antidiagonal")
    c = [
        [[{e: v / eta[k][n - 1 - k] for e, v in third[i][j][n - 1 - k].items()} for j in range(n)] for i in range(n)]
        for k in range(n)
    ]
    names = var_names(n)
    zero = [["0"] * n for _ in range(n)]
    euler = [{tuple(1 if m == a else 0 for m in range(n)): w} for a, w in enumerate(spec["weights"])]
    doc = {
        "name": f"{name} seed {seed}",
        "base_vars": names,
        "rank": n,
        "product": [[[poly_text(c[k][i][j], names) for j in range(n)] for i in range(n)] for k in range(n)],
        "bracket": [zero for _ in range(n)],
        "anchor": [["1" if a == b else "0" for b in range(n)] for a in range(n)],
        "identity": ["1"] + ["0"] * (n - 1),
    }
    return {
        "scales": lam,
        "potential": pot,
        "doc": doc,
        "c": c,
        "euler": euler,
        "euler_text": ",".join(poly_text(p, names) for p in euler),
        "identity": [F(1)] + [F(0)] * (n - 1),
    }


def sample_points(rng: random.Random, n: int, count: int) -> list[tuple]:
    """Rational points with small nonzero coordinates."""
    pool = [F(p, q) for p in range(-7, 8) if p for q in (1, 2, 3, 5)]
    return [tuple(rng.choice(pool) for _ in range(n)) for _ in range(count)]


# -- law-sweep inputs -------------------------------------------------------


def semisimple_doc(n: int) -> dict:
    """The SS<n> structure file: diagonal idempotents, flat frame."""
    names = [f"u{i + 1}" for i in range(n)]
    zero = [["0"] * n for _ in range(n)]
    return {
        "base_vars": names,
        "rank": n,
        "product": [[["1" if i == j == k else "0" for j in range(n)] for i in range(n)] for k in range(n)],
        "bracket": [zero for _ in range(n)],
        "prelie": [zero for _ in range(n)],
        "anchor": [["1" if a == b else "0" for b in range(n)] for a in range(n)],
        "identity": ["1"] * n,
    }


def mutant_doc(rng: random.Random, n: int) -> dict:
    """SS<n> with E_i·E_i gaining c·u_m·E_k (k != i).

    Associativity then fails at (E_i, E_i, E_k): the left side is c·u_m·E_k
    and the right side is zero, so ``check`` must exit 1 with a witness.
    """
    doc = semisimple_doc(n)
    i, k = rng.sample(range(n), 2)
    m = rng.randrange(n)
    c = F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))
    exp = tuple(1 if t == m else 0 for t in range(n))
    doc["product"][k][i][i] = poly_text({exp: c}, doc["base_vars"])
    doc["name"] = f"mutant SS{n}: E{i + 1}*E{i + 1} += ({c})*u{m + 1}*E{k + 1}"
    return doc


def diagonal_eventual(rng: random.Random, n: int) -> list[dict]:
    """Components f_i(u_i) of an eventual identity of SS<n>.

    Each f_i is a nonzero polynomial in u_i alone with a nonzero constant
    term, so the section is invertible.
    """
    comps = []
    for i in range(n):
        p = {}
        for d in range(3):
            c = rng.randint(-3, 3) if d else rng.choice([-3, -2, -1, 1, 2, 3])
            if c:
                p[tuple(d if t == i else 0 for t in range(n))] = F(c)
        comps.append(p)
    return comps


def nijenhuis_matrix(rng: random.Random, n: int) -> list[list[str]]:
    """Multiplication by a diagonal eventual identity of SS<n>, as matrix text."""
    names = [f"u{i + 1}" for i in range(n)]
    comps = diagonal_eventual(rng, n)
    return [[poly_text(comps[i], names) if i == j else "0" for j in range(n)] for i in range(n)]


# -- deformation inputs over a point ---------------------------------------


def truncated_product(r: int) -> list:
    """Structure constants of Q[u]/(u^r) in the basis 1, u, .., u^{r-1}."""
    return [[[F(1) if i + j == k else F(0) for j in range(r)] for i in range(r)] for k in range(r)]


def weight_cocycle(r: int) -> list:
    """mu(X, Y) = X·D(Y) for the derivation D(u^j) = j u^j, as c[k][i][j]."""
    return [[[F(j) if i + j == k else F(0) for j in range(r)] for i in range(r)] for k in range(r)]


def random_cochain1(rng: random.Random, r: int) -> list:
    """A degree-1 cochain phi over a point: phi[k][j] is the E_k-part of phi(E_j)."""
    return [[F(rng.randint(-2, 2)) for _ in range(r)] for _ in range(r)]


def coboundary1(prod: list, phi: list) -> list:
    """(d phi)(X, Y) = X·phi(Y) + phi(X)·Y - phi(X·Y) for a commutative algebra.

    This is the library's coboundary of a degree-1 cochain when the
    algebra is viewed as pre-Lie with zero anchor, computed here with
    Fractions so the expected cochain does not come from the library.
    Returned as d[k][i][j], the E_k-part of (d phi)(E_i, E_j).
    """
    r = len(prod)
    d = [[[F(0)] * r for _ in range(r)] for _ in range(r)]
    for i in range(r):
        for j in range(r):
            for k in range(r):
                acc = F(0)
                for m in range(r):
                    acc += prod[k][i][m] * phi[m][j] + phi[m][i] * prod[k][m][j] - phi[k][m] * prod[m][i][j]
                d[k][i][j] = acc
    return d


def algebra_document(prod: list, identity: list) -> dict:
    r = len(prod)
    return {
        "base_vars": [],
        "rank": r,
        "product": [[[str(prod[k][i][j]) for j in range(r)] for i in range(r)] for k in range(r)],
        "identity": [str(x) for x in identity],
    }
