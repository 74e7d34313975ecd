"""Fixture presentations and derived constructions.

Every shipped fixture is a finite algebra lifted along anchor vector fields:
structure constants over a point (FM2, DN<n>), over the flat coordinate frame
(SS<n>, TR2), along u·d/du (TR), with the zero anchor on the (q, p) plane
(POISSON_SEED, the rank-1 algebra of constants) or along an action (ACT2).
The fixtures state their constants as tables (FM2's dense ones are
compiled by ``FiniteAlgebra.tables``), and ``_lift`` is the one place they
become ``RatFunc`` tables; no construction here builds a dense tensor.
``load_fixture`` builds no fixture of rank above ``MAX_FIXTURE_RANK``.
Besides the fixtures: action algebroids, direct products and the semi-simple
family. An action's condition is contracted from its lifted tables, as the
anchor-defect α of Jacobi (``ActionSpec``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from math import comb

from .algebroid import AlgebroidPresentation, Section, VectorField, check_f_algebroid, check_pre_f
from .algebroid import _TENSORS, _anchor_defect, _compile, _point_tensor, _ratfunc
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

    def tables(self) -> dict:
        """The compiled ``Table`` of each structure the algebra carries, by name."""
        return {name: _compile(t, self.dim, name) for name in _TENSORS if (t := getattr(self, name)) is not None}

    def to_presentation(self) -> AlgebroidPresentation:
        return _lift(self.dim, self.tables(), self.identity, [], None)


def _lift(rank: int, tables: dict, identity: list | None, base_vars: list[str],
          rho: list[VectorField] | None) -> AlgebroidPresentation:
    """The presentation of constant ``tables`` ({name: Table of numbers}) and ``identity`` (rank numbers, or None)
    over ``base_vars``, with E_i anchored by ``rho[i]``, or by 0 without rho. Each distinct constant becomes one
    shared ``RatFunc``."""
    n, lifted = len(base_vars), {}

    def const(c):
        if c not in lifted:
            lifted[c] = RatFunc.const(n, c)
        return lifted[c]

    tables = {name: {ij: tuple((k, const(c)) for k, c in cell) for ij, cell in t.items()} for name, t in tables.items()}
    if identity is not None:
        if len(identity) != rank:
            raise ShapeError("identity section has wrong rank")
        identity = Section._of(tuple((k, const(c)) for k, c in enumerate(identity) if c), rank, n)
    return AlgebroidPresentation._of(base_vars, rank, tables, dict(enumerate(rho or ())), identity)


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
        A = _lift(alg.dim, alg.tables(), alg.identity, self.base_vars, self.rho)
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
    alg = spec.algebra
    tables = {name: t for name, t in alg.tables().items() if name != drop}
    return _lift(alg.dim, tables, alg.identity, spec.base_vars, spec.rho)


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
    base_vars = [f"{v}#1" for v in A1.base_vars] + [f"{v}#2" for v in A2.base_vars]
    n, r = len(base_vars), A1.rank + A2.rank

    def shifted(A, dr, dn):  # A's tables, anchor fields and identity entries in the product's frame and base
        lift = lambda cell, d: tuple((k + d, c.extend(n, dn)) for k, c in cell)  # noqa: E731
        tables = {name: {(i + dr, j + dr): lift(cell, dr) for (i, j), cell in t.items()}
                  for name, t in A._tables.items()}
        fields = {i + dr: VectorField._of(lift(vf.entries, dn), n, n) for i, vf in A._anchors.items()}
        return tables, fields, None if A.identity is None else lift(A.identity.entries, dr)

    (t1, f1, e1), (t2, f2, e2) = shifted(A1, 0, 0), shifted(A2, A1.rank, A1.n)
    tables = {name: {**t1[name], **t2[name]} for name in t1 if name in t2}
    fields = {**f1, **f2} if A1.has("anchor") and A2.has("anchor") else None
    identity = None if e1 is None or e2 is None else Section._of(e1 + e2, r, n)
    return AlgebroidPresentation._of(base_vars, r, tables, fields, identity)


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
    tables = {"product": {(i, i): ((i, 1),) for i in range(n)}, "bracket": {}, "prelie": {}}
    return _lift(n, tables, [1] * n, [f"u{i + 1}" for i in range(n)], [VectorField.basis(n, n, i) for i in range(n)])


def tangent_line() -> AlgebroidPresentation:
    """Rank-1 presentation over one variable with anchor f -> u·f·d/du."""
    return _lift(1, {"product": {(0, 0): ((0, 1),)}, "bracket": {}, "prelie": {}}, [1], ["u1"],
                 [VectorField([RatFunc.var(1, 0)])])


def tangent_plane() -> AlgebroidPresentation:
    """Rank-2 tangent presentation: FM2's product in the flat frame, zero bracket and pre-Lie tensor."""
    tables = {"product": {(0, 0): ((0, 1),), (0, 1): ((1, 1),), (1, 0): ((1, 1),)}, "bracket": {}, "prelie": {}}
    return _lift(2, tables, [1, 0], ["u1", "u2"], [VectorField.basis(2, 2, i) for i in range(2)])


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
    product, prelie = {}, {}
    for a, (alpha, i) in enumerate(basis):
        for b, (beta, j) in enumerate(basis):
            gamma = tuple(x + y for x, y in zip(alpha, beta))
            if gamma not in mono_pos:
                continue
            if i == j:
                product[a, b] = ((pos[(gamma, i)], 1),)
            if beta[i]:
                prelie[a, b] = ((pos[(gamma, j)], beta[i]),)
    identity = [int(not any(alpha)) for alpha, _ in basis]
    return _lift(len(basis), {"product": product, "prelie": prelie}, identity, [], None)


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
        return _lift(1, {"product": {(0, 0): ((0, 1),)}, "bracket": {}}, [1], ["q", "p"], None)
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
