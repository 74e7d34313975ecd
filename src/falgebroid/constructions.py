"""Fixture presentations and derived constructions.

Provides the worked examples used throughout the test suite plus the
general constructors: action algebroids from finite algebras acting by
vector fields, direct products, Poisson seed algebroids and the
semi-simple family.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement

from .algebroid import AlgebroidPresentation, Section, VectorField, check_f_algebroid, check_pre_f, vf_bracket
from .errors import (
    NotAHomomorphism,
    NotClosed,
    NotFManifoldAlgebra,
    ShapeError,
    UnknownFixture,
)
from .linalg import solve
from .ring import Poly, RatFunc


def _zero_tensor(r: int, n: int):
    z = RatFunc.zero(n)
    return [[[z for _ in range(r)] for _ in range(r)] for _ in range(r)]


def _const_tensor(constants, n: int):
    """Lift a nested list of rational constants to a RatFunc tensor."""
    return [
        [[RatFunc.const(n, c) for c in row] for row in mat]
        for mat in constants
    ]


@dataclass
class FiniteAlgebra:
    """Structure constants of an algebra over a point."""

    dim: int
    product: list  # dim^3 nested Fractions, output index major
    bracket: list | None = None
    prelie: list | None = None
    identity: list | None = None  # dim Fractions

    def to_presentation(self) -> AlgebroidPresentation:
        n = 0
        ident = None
        if self.identity is not None:
            ident = Section(RatFunc.const(n, c) for c in self.identity)
        return AlgebroidPresentation(
            base_vars=[],
            rank=self.dim,
            product=_const_tensor(self.product, n),
            bracket=_const_tensor(self.bracket, n) if self.bracket is not None else None,
            prelie=_const_tensor(self.prelie, n) if self.prelie is not None else None,
            anchor=[[] for _ in range(self.dim)],
            identity=ident,
        )

    def commutator(self, i: int, j: int) -> list[Fraction]:
        """Components of [e_i, e_j] from whichever structure is present."""
        if self.bracket is not None:
            return [self.bracket[k][i][j] for k in range(self.dim)]
        if self.prelie is not None:
            return [self.prelie[k][i][j] - self.prelie[k][j][i] for k in range(self.dim)]
        raise ShapeError("algebra has neither bracket nor prelie")


@dataclass
class ActionSpec:
    """A finite algebra acting on a polynomial base by vector fields."""

    algebra: FiniteAlgebra
    base_vars: list[str]
    rho: list[VectorField] = field(default_factory=list)

    def __post_init__(self):
        n = len(self.base_vars)
        if len(self.rho) != self.algebra.dim:
            raise ShapeError("rho must give one vector field per basis element")
        for v in self.rho:
            if v.rank != n:
                raise ShapeError("rho vector field dimension mismatch")
        for i in range(self.algebra.dim):
            for j in range(i + 1, self.algebra.dim):
                coeffs = self.algebra.commutator(i, j)
                lhs = VectorField.zero(n)
                for k, c in enumerate(coeffs):
                    if c != 0:
                        lhs = lhs + self.rho[k].scale_fn(RatFunc.const(n, c))
                rhs = vf_bracket(self.rho[i], self.rho[j])
                if not (lhs - rhs).is_zero():
                    raise NotAHomomorphism(
                        f"rho([e{i + 1},e{j + 1}]) != [rho(e{i + 1}),rho(e{j + 1})]: "
                        f"{lhs.format(self.base_vars)} vs {rhs.format(self.base_vars)}"
                    )


def _lift_algebra(spec: ActionSpec, use_prelie: bool) -> AlgebroidPresentation:
    alg = spec.algebra
    n = len(spec.base_vars)
    ident = None
    if alg.identity is not None:
        ident = Section(RatFunc.const(n, c) for c in alg.identity)
    return AlgebroidPresentation(
        base_vars=list(spec.base_vars),
        rank=alg.dim,
        product=_const_tensor(alg.product, n),
        bracket=None if use_prelie else _const_tensor(alg.bracket, n),
        prelie=_const_tensor(alg.prelie, n) if use_prelie else None,
        anchor=[list(v.components) for v in spec.rho],
        identity=ident,
    )


def action_f_algebroid(spec: ActionSpec) -> AlgebroidPresentation:
    """Action algebroid: constants from the algebra, anchor from the action.

    The Lie-derivative terms of the bracket live in the anchored Leibniz
    evaluation, so the stored bracket tensor is just the algebra's.
    """
    if spec.algebra.bracket is None:
        raise ShapeError("action requires bracket constants")
    base_report = check_f_algebroid(spec.algebra.to_presentation())
    if not base_report.overall:
        raise NotFManifoldAlgebra(base_report.failures()[0].instance)
    return _lift_algebra(spec, use_prelie=False)


def action_pre_f(spec: ActionSpec) -> AlgebroidPresentation:
    """Pre-F version of the action construction."""
    if spec.algebra.prelie is None:
        raise ShapeError("action requires prelie constants")
    base_report = check_pre_f(spec.algebra.to_presentation())
    if not base_report.overall:
        raise NotFManifoldAlgebra(base_report.failures()[0].instance)
    return _lift_algebra(spec, use_prelie=True)


def direct_product(A1: AlgebroidPresentation, A2: AlgebroidPresentation) -> AlgebroidPresentation:
    """Block-diagonal product over the concatenated base.

    Base variables are suffixed with the factor index to avoid
    collisions; mixed products, brackets and anchors vanish.
    """
    vars1 = [f"{v}#1" for v in A1.base_vars]
    vars2 = [f"{v}#2" for v in A2.base_vars]
    base_vars = vars1 + vars2
    n = len(base_vars)
    r1, r2 = A1.rank, A2.rank
    r = r1 + r2
    zero = RatFunc.zero(n)

    def lift1(f: RatFunc) -> RatFunc:
        return f.extend(n, 0)

    def lift2(f: RatFunc) -> RatFunc:
        return f.extend(n, A1.n)

    def block_tensor(t1, t2):
        if t1 is None or t2 is None:
            return None
        out = _zero_tensor(r, n)
        for k in range(r1):
            for i in range(r1):
                for j in range(r1):
                    out[k][i][j] = lift1(t1[k][i][j])
        for k in range(r2):
            for i in range(r2):
                for j in range(r2):
                    out[r1 + k][r1 + i][r1 + j] = lift2(t2[k][i][j])
        return out

    anchor = None
    if A1.anchor is not None and A2.anchor is not None:
        anchor = []
        for i in range(r1):
            anchor.append([lift1(c) for c in A1.anchor[i]] + [zero] * A2.n)
        for i in range(r2):
            anchor.append([zero] * A1.n + [lift2(c) for c in A2.anchor[i]])

    identity = None
    if A1.identity is not None and A2.identity is not None:
        identity = Section(
            [lift1(c) for c in A1.identity.components] + [lift2(c) for c in A2.identity.components]
        )

    return AlgebroidPresentation(
        base_vars=base_vars,
        rank=r,
        product=block_tensor(A1.product, A2.product),
        bracket=block_tensor(A1.bracket, A2.bracket),
        prelie=block_tensor(A1.prelie, A2.prelie),
        anchor=anchor,
        identity=identity,
    )


# -- Poisson seeds --------------------------------------------------------


def _poly_lcm(a: Poly, b: Poly) -> Poly:
    _, a1, _ = Poly.gcd_cofactors(a, b)
    return a1 * b


def _monomial_coords(polys: list[Poly]):
    terms = [p.terms for p in polys]
    monos = sorted({exp for t in terms for exp in t})
    pos = {m: i for i, m in enumerate(monos)}
    vecs = []
    for t in terms:
        v = [Fraction(0)] * len(monos)
        for exp, c in t.items():
            v[pos[exp]] = c
        vecs.append(v)
    return vecs


def poisson_seed(functions: list[RatFunc], base_vars: list[str] | None = None) -> AlgebroidPresentation:
    """Finite-rank algebroid from functions closed under product and Poisson bracket.

    The base carries the canonical bracket pairing consecutive variables
    (q1, p1, q2, p2, ...). Every pairwise pointwise product and Poisson
    bracket must lie in the rational-constant span of the seed; otherwise
    NotClosed reports the escaping function. The anchor sends each basis
    element to the Hamiltonian vector field of its function.
    """
    if not functions:
        raise ShapeError("empty seed")
    if base_vars is None:
        base_vars = ["q", "p"]
    n = len(base_vars)
    if n % 2 != 0 or n == 0:
        raise ShapeError("canonical bracket needs an even number of base variables")
    m = n // 2
    r = len(functions)
    for f in functions:
        if f.nvars != n:
            raise ShapeError("seed function variable count mismatch")

    def pbracket(f: RatFunc, g: RatFunc) -> RatFunc:
        out = RatFunc.zero(n)
        for a in range(m):
            q, p = 2 * a, 2 * a + 1
            out = out + f.derivative(q) * g.derivative(p) - f.derivative(p) * g.derivative(q)
        return out

    # common denominator makes the span computation a polynomial problem
    den = Poly.const(n, 1)
    for f in functions:
        den = _poly_lcm(den, f.den)
    den_rf = RatFunc(den)
    cleared = [f * den_rf for f in functions]
    if any(not g.is_polynomial() for g in cleared):
        raise ShapeError("failed to clear seed denominators")

    def expand(h: RatFunc, what: str) -> list[RatFunc]:
        hd = h * den_rf
        if not hd.is_polynomial():
            raise NotClosed(f"{what} = {h.format(base_vars)}")
        vecs = _monomial_coords([g.num for g in cleared] + [hd.num])
        cols, target = vecs[:-1], vecs[-1]
        rows = [[cols[j][i] for j in range(r)] for i in range(len(target))]
        sol = solve(rows, target, Fraction(0), Fraction(1))
        if sol is None:
            raise NotClosed(f"{what} = {h.format(base_vars)}")
        return [RatFunc.const(n, c) for c in sol]

    zero = RatFunc.zero(n)
    product = _zero_tensor(r, n)
    bracket = _zero_tensor(r, n)
    for i in range(r):
        for j in range(i, r):
            coeffs = expand(functions[i] * functions[j], f"E{i + 1}*E{j + 1}")
            for k in range(r):
                product[k][i][j] = coeffs[k]
                product[k][j][i] = coeffs[k]
        for j in range(r):
            if j <= i:
                continue
            coeffs = expand(pbracket(functions[i], functions[j]), f"{{E{i + 1},E{j + 1}}}")
            for k in range(r):
                bracket[k][i][j] = coeffs[k]
                bracket[k][j][i] = -coeffs[k]

    anchor = []
    for f in functions:
        comps = [zero] * n
        for a in range(m):
            q, p = 2 * a, 2 * a + 1
            comps[q] = f.derivative(p)
            comps[p] = -f.derivative(q)
        anchor.append(comps)

    identity = None
    one = RatFunc.const(n, 1)
    try:
        coeffs = expand(one, "1")
        identity = Section(coeffs)
    except NotClosed:
        pass

    return AlgebroidPresentation(
        base_vars=list(base_vars),
        rank=r,
        product=product,
        bracket=bracket,
        anchor=anchor,
        identity=identity,
    )


# -- named fixtures -------------------------------------------------------


def fm2_algebra() -> FiniteAlgebra:
    """Two-dimensional algebra with e1 a unit, e2 nilpotent, [e1,e2] = e2."""
    F = Fraction
    product = [
        [[F(1), F(0)], [F(0), F(0)]],  # E1 components
        [[F(0), F(1)], [F(1), F(0)]],  # E2 components
    ]
    bracket = [
        [[F(0), F(0)], [F(0), F(0)]],
        [[F(0), F(1)], [F(-1), F(0)]],
    ]
    return FiniteAlgebra(dim=2, product=product, bracket=bracket, identity=[F(1), F(0)])


def semisimple(n: int) -> AlgebroidPresentation:
    """Tangent presentation with diagonal idempotent product and flat frame."""
    if n < 1:
        raise ShapeError("semisimple needs n >= 1")
    zero = RatFunc.zero(n)
    one = RatFunc.const(n, 1)
    product = [
        [[one if i == j == k else zero for j in range(n)] for i in range(n)]
        for k in range(n)
    ]
    return AlgebroidPresentation(
        base_vars=[f"u{i + 1}" for i in range(n)],
        rank=n,
        product=product,
        bracket=_zero_tensor(n, n),
        prelie=_zero_tensor(n, n),
        anchor=[[one if i == j else zero for j in range(n)] for i in range(n)],
        identity=Section(one for _ in range(n)),
    )


def tangent_line() -> AlgebroidPresentation:
    """Rank-1 presentation over one variable with anchor f -> u·f·d/du."""
    n = 1
    u = RatFunc.var(n, 0)
    one = RatFunc.const(n, 1)
    return AlgebroidPresentation(
        base_vars=["u1"],
        rank=1,
        product=[[[one]]],
        bracket=_zero_tensor(1, n),
        prelie=_zero_tensor(1, n),
        anchor=[[u]],
        identity=Section([one]),
    )


def tangent_plane() -> AlgebroidPresentation:
    """Rank-2 tangent presentation with a unit frame field and zero pre-Lie tensor."""
    n = 2
    zero = RatFunc.zero(n)
    one = RatFunc.const(n, 1)
    product = [
        [[one, zero], [zero, zero]],
        [[zero, one], [one, zero]],
    ]
    return AlgebroidPresentation(
        base_vars=["u1", "u2"],
        rank=2,
        product=product,
        bracket=_zero_tensor(2, n),
        prelie=_zero_tensor(2, n),
        anchor=[[one, zero], [zero, one]],
        identity=Section([one, zero]),
    )


def derivation_algebroid(n: int, degree_cap: int = 3) -> AlgebroidPresentation:
    """Finite PreLie-Com algebra of coefficient-weighted commuting derivations.

    The carrier is w^alpha (x) D_i over the truncated polynomial ring in
    w1..wn of total degree <= degree_cap, where D_i = w_i d/dw_i. The
    Euler-type derivations preserve degree, so truncating products past
    the cap is exact: every identity instance either stays within the
    cap or vanishes on both sides.
    """
    if n < 1 or degree_cap < 0:
        raise ShapeError("derivation algebroid needs n >= 1 and degree_cap >= 0")
    monos = []
    for total in range(degree_cap + 1):
        for combo in combinations_with_replacement(range(n), total):
            alpha = [0] * n
            for c in combo:
                alpha[c] += 1
            monos.append(tuple(alpha))
    mono_pos = {m: i for i, m in enumerate(monos)}
    basis = [(alpha, i) for alpha in monos for i in range(n)]
    pos = {b: i for i, b in enumerate(basis)}
    r = len(basis)
    zero = RatFunc.zero(0)
    one = RatFunc.const(0, 1)
    product = _zero_tensor(r, 0)
    prelie = _zero_tensor(r, 0)
    for a, (alpha, i) in enumerate(basis):
        for b, (beta, j) in enumerate(basis):
            gamma = tuple(x + y for x, y in zip(alpha, beta))
            if gamma not in mono_pos:
                continue
            if i == j:
                product[pos[(gamma, i)]][a][b] = one
            if beta[i] != 0:
                prelie[pos[(gamma, j)]][a][b] = RatFunc.const(0, beta[i])
    identity = Section(
        one if basis[k][0] == (0,) * n else zero for k in range(r)
    )
    return AlgebroidPresentation(
        base_vars=[],
        rank=r,
        product=product,
        prelie=prelie,
        anchor=[[] for _ in range(r)],
        identity=identity,
    )


def act2() -> AlgebroidPresentation:
    """Action algebroid of the FM2 algebra on the plane."""
    n = 2
    zero = RatFunc.zero(n)
    u2 = RatFunc.var(n, 1)
    rho = [
        VectorField([zero, u2]),
        VectorField([u2, u2 * u2]),
    ]
    return action_f_algebroid(ActionSpec(fm2_algebra(), ["u1", "u2"], rho))


_FIXTURE_HELP = {
    "FM2": "2-dim algebra over a point: e1 unit, e2 nilpotent, [e1,e2]=e2",
    "ACT2": "action algebroid of FM2 on the plane",
    "SS<n>": "semi-simple tangent presentation in n canonical coordinates (e.g. SS2)",
    "TR": "rank-1 presentation over a line with anchor u·d/du",
    "TR2": "rank-2 tangent presentation with unit frame field",
    "DN<n>[_cap]": "truncated derivation algebra over a point (default cap 3, e.g. DN2, DN2_2)",
    "POISSON_SEED": "rank-1 Poisson seed {1} on the (q,p) plane",
}


def fixture_names() -> dict:
    return dict(_FIXTURE_HELP)


def load_fixture(name: str) -> AlgebroidPresentation:
    """Return a named fixture presentation."""
    if name == "FM2":
        return fm2_algebra().to_presentation()
    if name == "ACT2":
        return act2()
    if name == "TR":
        return tangent_line()
    if name == "TR2":
        return tangent_plane()
    if name == "POISSON_SEED":
        return poisson_seed([RatFunc.const(2, 1)], ["q", "p"])
    match = re.fullmatch(r"SS(\d+)", name)
    if match and int(match.group(1)) >= 1:
        return semisimple(int(match.group(1)))
    match = re.fullmatch(r"DN(\d+)(?:_(\d+))?", name)
    if match and int(match.group(1)) >= 1:
        cap = int(match.group(2)) if match.group(2) else 3
        return derivation_algebroid(int(match.group(1)), cap)
    raise UnknownFixture(f"unknown fixture {name!r}; known: {', '.join(_FIXTURE_HELP)}")
