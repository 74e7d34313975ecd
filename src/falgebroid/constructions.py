"""Fixture presentations and derived constructions.

Every shipped fixture is a finite algebra lifted along anchor vector fields:
structure constants over a point (FM2, DN<n>), over the flat coordinate frame
(SS<n>, TR2), along u·d/du (TR), with the zero anchor on the (q, p) plane
(POISSON_SEED, the rank-1 algebra of constants) or along an action (ACT2).
``_lift`` is the one place constants become ``RatFunc`` tensors.
``load_fixture`` builds no fixture of rank above ``MAX_FIXTURE_RANK``.
Besides the fixtures: action algebroids, direct products and the semi-simple
family. An action's condition is contracted from its lifted tables, as the
anchor-defect α of Jacobi (``ActionSpec``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from itertools import combinations_with_replacement
from math import comb

from .algebroid import AlgebroidPresentation, Section, VectorField, check_f_algebroid, check_pre_f
from .algebroid import _anchor_defect, _point_tensor, _ratfunc
from .errors import NotAHomomorphism, NotFManifoldAlgebra, ShapeError, UnknownFixture
from .ring import RatFunc

MAX_FIXTURE_RANK = 100  # the largest fixture load_fixture builds; DN3 is rank 60


@dataclass
class FiniteAlgebra:
    """Structure constants of an algebra over a point."""

    dim: int
    product: list  # dim^3 nested ints or Fractions, output index major
    bracket: list | None = None
    prelie: list | None = None
    identity: list | None = None  # dim ints or Fractions

    def to_presentation(self) -> AlgebroidPresentation:
        return _lift(self, [], None)


def _lift(alg: FiniteAlgebra, base_vars: list[str], rho: list[VectorField] | None) -> AlgebroidPresentation:
    """The presentation of ``alg``'s constants over ``base_vars`` with E_i anchored by ``rho[i]``, or by 0 without rho.

    Each distinct constant becomes one shared ``RatFunc``; every zero entry is the one ``RatFunc.zero(n)``.
    """
    n = len(base_vars)
    zero, lifted = RatFunc.zero(n), {}

    def const(c):
        if c not in lifted:
            lifted[c] = RatFunc.const(n, c)
        return lifted[c]

    def lift(row):
        return [const(c) if c else zero for c in row] if any(row) else [zero] * len(row)

    def tensor(t):
        return None if t is None else [[lift(row) for row in m] for m in t]

    anchor = [[zero] * n for _ in range(alg.dim)]
    for row, v in zip(anchor, rho or ()):
        for m, c in v.entries:
            row[m] = c
    identity = None if alg.identity is None else Section(lift(alg.identity))
    return AlgebroidPresentation(
        base_vars=list(base_vars),
        rank=alg.dim,
        product=tensor(alg.product),
        bracket=tensor(alg.bracket),
        prelie=tensor(alg.prelie),
        anchor=anchor,
        identity=identity,
    )


@dataclass
class ActionSpec:
    """A finite algebra acting on a polynomial base by vector fields.

    The action condition ρ([e_i,e_j]) = [ρ(e_i),ρ(e_j)] is the anchor's bracket-morphism defect
    (``_anchor_defect``) contracted from the lifted tables, for the bracket or else the commutator of the pre-Lie
    operation; NotAHomomorphism names the first pair i < j where it is nonzero.
    """

    algebra: FiniteAlgebra
    base_vars: list[str]
    rho: list[VectorField] = field(default_factory=list)

    def __post_init__(self):
        n, alg = len(self.base_vars), self.algebra
        if len(self.rho) != alg.dim:
            raise ShapeError("rho must give one vector field per basis element")
        for v in self.rho:
            if v.rank != n:
                raise ShapeError("rho vector field dimension mismatch")
        name = "bracket" if alg.bracket is not None else "prelie"
        if getattr(alg, name) is None:
            if alg.dim > 1:
                raise ShapeError("algebra has neither bracket nor prelie")
            return
        A = _lift(alg, self.base_vars, self.rho)
        a, da = A.constants("anchor"), A.derivatives("anchor")
        defect = _point_tensor(*_anchor_defect(A.constants(name), a, da, skew=name == "prelie"))
        for i, j in sorted(defect):
            if i < j:
                fails = VectorField._from_dict({m: _ratfunc(n, c) for m, c in defect[i, j].items()}, n, n)
                raise NotAHomomorphism(f"rho([e{i + 1},e{j + 1}]) != [rho(e{i + 1}),rho(e{j + 1})]: "
                                       f"defect {fails.format(self.base_vars)}")


def _action(spec: ActionSpec, check, keep: str, drop: str) -> AlgebroidPresentation:
    """Lift ``spec`` keeping the ``keep`` constants, once ``check`` passes on the algebra over a point."""
    if getattr(spec.algebra, keep) is None:
        raise ShapeError(f"action requires {keep} constants")
    base_report = check(spec.algebra.to_presentation())
    if not base_report.overall:
        raise NotFManifoldAlgebra(base_report.failures()[0].instance)
    return _lift(replace(spec.algebra, **{drop: None}), spec.base_vars, spec.rho)


def action_f_algebroid(spec: ActionSpec) -> AlgebroidPresentation:
    """Action algebroid: constants from the algebra, anchor from the action.

    The Lie-derivative terms of the bracket live in the anchored Leibniz
    evaluation, so the stored bracket tensor is just the algebra's.
    """
    return _action(spec, check_f_algebroid, "bracket", "prelie")


def action_pre_f(spec: ActionSpec) -> AlgebroidPresentation:
    """Pre-F version of the action construction."""
    return _action(spec, check_pre_f, "prelie", "bracket")


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
        out = [[[zero] * r for _ in range(r)] for _ in range(r)]
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


# -- named fixtures -------------------------------------------------------


def fm2_algebra() -> FiniteAlgebra:
    """Two-dimensional algebra with e1 a unit, e2 nilpotent, [e1,e2] = e2."""
    product = [[[1, 0], [0, 0]], [[0, 1], [1, 0]]]  # E1 components, then E2 components
    bracket = [[[0, 0], [0, 0]], [[0, 1], [-1, 0]]]
    return FiniteAlgebra(dim=2, product=product, bracket=bracket, identity=[1, 0])


def semisimple(n: int) -> AlgebroidPresentation:
    """Tangent presentation with diagonal idempotent product and flat frame."""
    if n < 1:
        raise ShapeError("semisimple needs n >= 1")
    zeros = [[[0] * n for _ in range(n)] for _ in range(n)]
    product = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        product[i][i][i] = 1
    alg = FiniteAlgebra(n, product, zeros, zeros, [1] * n)
    return _lift(alg, [f"u{i + 1}" for i in range(n)], [VectorField.basis(n, n, i) for i in range(n)])


def tangent_line() -> AlgebroidPresentation:
    """Rank-1 presentation over one variable with anchor f -> u·f·d/du."""
    alg = FiniteAlgebra(1, [[[1]]], [[[0]]], [[[0]]], [1])
    return _lift(alg, ["u1"], [VectorField([RatFunc.var(1, 0)])])


def tangent_plane() -> AlgebroidPresentation:
    """Rank-2 tangent presentation: FM2's product in the flat frame, zero bracket and pre-Lie tensor."""
    zeros = [[[0, 0], [0, 0]]] * 2
    alg = FiniteAlgebra(2, [[[1, 0], [0, 0]], [[0, 1], [1, 0]]], zeros, zeros, [1, 0])
    return _lift(alg, ["u1", "u2"], [VectorField.basis(2, 2, i) for i in range(2)])


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
    product = [[[0] * r for _ in range(r)] for _ in range(r)]
    prelie = [[[0] * r for _ in range(r)] for _ in range(r)]
    for a, (alpha, i) in enumerate(basis):
        for b, (beta, j) in enumerate(basis):
            gamma = tuple(x + y for x, y in zip(alpha, beta))
            if gamma not in mono_pos:
                continue
            if i == j:
                product[pos[(gamma, i)]][a][b] = 1
            prelie[pos[(gamma, j)]][a][b] = beta[i]
    identity = [int(not any(alpha)) for alpha, _ in basis]
    return _lift(FiniteAlgebra(r, product, prelie=prelie, identity=identity), [], None)


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


def _capped(digits: str) -> int:
    """min(int(digits), MAX_FIXTURE_RANK + 1), converting only the leading digits; no rank is below its numbers."""
    return min(int(digits.lstrip("0")[:len(str(MAX_FIXTURE_RANK)) + 1] or 0), MAX_FIXTURE_RANK + 1)


def load_fixture(name: str) -> AlgebroidPresentation:
    """Return a named fixture presentation; UnknownFixture for an unknown name or a rank above MAX_FIXTURE_RANK."""
    if name == "FM2":
        return fm2_algebra().to_presentation()
    if name == "ACT2":
        return act2()
    if name == "TR":
        return tangent_line()
    if name == "TR2":
        return tangent_plane()
    if name == "POISSON_SEED":
        return _lift(FiniteAlgebra(1, [[[1]]], [[[0]]], identity=[1]), ["q", "p"], None)
    ss = re.fullmatch(r"SS(\d+)", name)
    dn = re.fullmatch(r"DN(\d+)(?:_(\d+))?", name)
    rank = 0
    if ss:
        n = rank = _capped(ss[1])
    elif dn:
        n, cap = _capped(dn[1]), _capped(dn[2] or "3")
        rank = n * comb(n + cap, n)
    if rank < 1:
        raise UnknownFixture(f"unknown fixture {name!r}; known: {', '.join(_FIXTURE_HELP)}")
    if rank > MAX_FIXTURE_RANK:
        raise UnknownFixture(f"fixture {name!r} has rank above the limit {MAX_FIXTURE_RANK}")
    return semisimple(n) if ss else derivation_algebroid(n, cap)
