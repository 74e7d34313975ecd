"""Hydrodynamic flows, jet-space commutation, and the principal hierarchy.

A section of a tangent presentation induces the quasilinear flow
``u^i_t = V^i_j(u) u^j_x`` with ``V^i_j = sum_k c^i_{jk} X^k``. Flow
commutators are computed exactly in a second-order jet ring: flows are
first order, so their commutators involve at most u_xx.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .algebroid import AlgebroidPresentation, Section, _record
from .duality import is_pseudo_eventual_identity
from .errors import (
    JetOrderOverflow,
    NonPolynomialAntiderivative,
    NotCompatible,
    NotEventual,
    NotFlat,
    NotTangent,
    ShapeError,
)
from .report import Report
from .ring import Poly, RatFunc


class JetPoly:
    """Polynomial in u^i_x and u^i_xx with rational-function coefficients in u.

    Exponent tuples have length 2n: the first n slots are u_x exponents,
    the last n are u_xx exponents. Zero coefficients are dropped.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict):
        self.n = n
        self.terms = {e: c for e, c in terms.items() if not c.is_zero()}

    @staticmethod
    def zero(n: int) -> "JetPoly":
        return JetPoly(n, {})

    @staticmethod
    def coeff(n: int, f: RatFunc) -> "JetPoly":
        return JetPoly(n, {(0,) * (2 * n): f})

    @staticmethod
    def u_x(n: int, i: int) -> "JetPoly":
        e = [0] * (2 * n)
        e[i] = 1
        return JetPoly(n, {tuple(e): RatFunc.one(n)})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, JetPoly) and self.n == other.n and self.terms == other.terms

    def __add__(self, other: "JetPoly") -> "JetPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            cur = out.get(e)
            out[e] = c if cur is None else cur + c
        return JetPoly(self.n, out)

    def __neg__(self) -> "JetPoly":
        return JetPoly(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "JetPoly") -> "JetPoly":
        return self + (-other)

    def __mul__(self, other: "JetPoly") -> "JetPoly":
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                cur = out.get(e)
                out[e] = c if cur is None else cur + c
        return JetPoly(self.n, out)

    def format(self, names: list[str]) -> str:
        if not self.terms:
            return "0"
        jet_names = [f"{v}_x" for v in names] + [f"{v}_xx" for v in names]
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            factors = []
            cs = c.format(names)
            if cs != "1" or not any(e):
                factors.append(cs if ("+" not in cs and "- " not in cs) else f"({cs})")
            for slot, p in enumerate(e):
                if p == 1:
                    factors.append(jet_names[slot])
                elif p > 1:
                    factors.append(f"{jet_names[slot]}^{p}")
            parts.append("*".join(factors))
        return " + ".join(parts)


def total_x(f: JetPoly) -> JetPoly:
    """Total x-derivative: u^i to u^i_x to u^i_xx; beyond that overflows."""
    n = f.n
    out = JetPoly.zero(n)
    for e, c in f.terms.items():
        # chain rule through the u-dependence of the coefficient
        for i in range(n):
            d = c.derivative(i)
            if not d.is_zero():
                out = out + JetPoly(n, {e: d}) * JetPoly.u_x(n, i)
        # Leibniz over the jet variables
        for slot, p in enumerate(e):
            if p == 0:
                continue
            if slot >= n:
                raise JetOrderOverflow(
                    "total derivative of a u_xx term leaves the supported jet range"
                )
            lowered = list(e)
            lowered[slot] -= 1
            lowered[slot + n] += 1
            out = out + JetPoly(n, {tuple(lowered): c * RatFunc.const(n, p)})
    return out


@dataclass(frozen=True)
class HydroFlow:
    """Quasilinear flow u^i_t = V^i_j(u) u^j_x."""

    V: tuple

    @property
    def n(self) -> int:
        return len(self.V)

    def velocity(self, i: int) -> JetPoly:
        """The right-hand side of the i-th equation as a jet polynomial."""
        n = self.n
        out = JetPoly.zero(n)
        for j in range(n):
            if not self.V[i][j].is_zero():
                out = out + JetPoly.coeff(n, self.V[i][j]) * JetPoly.u_x(n, j)
        return out

    def derive(self, f: JetPoly) -> JetPoly:
        """Time derivative of a first-order jet polynomial along the flow."""
        n = self.n
        out = JetPoly.zero(n)
        for e, c in f.terms.items():
            for i in range(n):
                d = c.derivative(i)
                if not d.is_zero():
                    out = out + JetPoly(n, {e: d}) * self.velocity(i)
            for slot, p in enumerate(e):
                if p == 0:
                    continue
                if slot >= n:
                    raise JetOrderOverflow("flow derivative applied past first-order jets")
                lowered = list(e)
                lowered[slot] -= 1
                out = out + JetPoly(n, {tuple(lowered): c * RatFunc.const(n, p)}) * total_x(
                    self.velocity(slot)
                )
        return out


def _require_tangent(T: AlgebroidPresentation):
    if T.rank != T.n or T.anchor is None:
        raise NotTangent("presentation rank must equal base dimension with identity anchor")
    for i in range(T.rank):
        for j in range(T.n):
            want = RatFunc.one(T.n) if i == j else RatFunc.zero(T.n)
            if T.anchor[i][j] != want:
                raise NotTangent("anchor must be the identity matrix")


def flow_from_section(T: AlgebroidPresentation, X: Section) -> HydroFlow:
    """Hydrodynamic flow with velocity matrix V^i_j = sum_k c^i_{jk} X^k."""
    _require_tangent(T)
    r = T.rank
    V = []
    for i in range(r):
        row = []
        for j in range(r):
            acc = RatFunc.zero(T.n)
            for k in range(r):
                acc = acc + T.product[i][j][k] * X.components[k]
            row.append(acc)
        V.append(tuple(row))
    return HydroFlow(tuple(V))


def commutator_residual(F: HydroFlow, G: HydroFlow) -> list[JetPoly]:
    """Per-component jet residual of the commutator of two flows."""
    if F.n != G.n:
        raise ShapeError("flows live on different base dimensions")
    return [F.derive(G.velocity(i)) - G.derive(F.velocity(i)) for i in range(F.n)]


def flows_commute(F: HydroFlow, G: HydroFlow, names: list[str] | None = None) -> Report:
    report = Report("flow commutation")
    names = names or [f"u{i + 1}" for i in range(F.n)]
    for i, res in enumerate(commutator_residual(F, G)):
        ok = res.is_zero()
        report.add("flow-commutation", f"component {names[i]}", ok, None if ok else res.format(names))
    return report


@dataclass(frozen=True)
class Connection:
    """Christoffel symbols gamma[i][j][k] for nabla_{d_j} d_k = gamma^i_{jk} d_i."""

    gamma: tuple | None = None

    def is_flat_zero(self) -> bool:
        if self.gamma is None:
            return True
        return all(g.is_zero() for plane in self.gamma for row in plane for g in row)

    def covariant_derivative(self, T: AlgebroidPresentation, j: int, X: Section) -> Section:
        """(nabla_{d_j} X)^i = d_j X^i + gamma^i_{jk} X^k."""
        comps = [X.components[i].derivative(j) for i in range(T.rank)]
        if self.gamma is not None:
            for i in range(T.rank):
                for k in range(T.rank):
                    comps[i] = comps[i] + self.gamma[i][j][k] * X.components[k]
        return Section(comps)


def check_flat_condition(T: AlgebroidPresentation, nabla: Connection, X: Section) -> Report:
    """Symmetry of (nabla_{d_j} X) . d_l in j and l, on all basis pairs."""
    _require_tangent(T)
    report = Report("flatness-compatibility of a section")
    for j in range(T.n):
        for l in range(T.n):
            if j >= l:
                continue
            lhs = T.multiply(nabla.covariant_derivative(T, j, X), T.basis(l))
            rhs = T.multiply(nabla.covariant_derivative(T, l, X), T.basis(j))
            _record(T, report, "egorov-symmetry", f"({T.basis_name(j)},{T.basis_name(l)})", lhs - rhs)
    return report


def eventual_identity_flows(T: AlgebroidPresentation, E1: Section, E2: Section) -> Report:
    """Pairwise commutation of the flows of E1, E2, and E1 . E2.

    Both sections must satisfy the pseudo-eventual-identity relation.
    """
    _require_tangent(T)
    for label, E in (("first", E1), ("second", E2)):
        check = is_pseudo_eventual_identity(T, E)
        if not check.overall:
            raise NotEventual(f"{label} section: {check.failures()[0].witness}")
    flows = {
        "E1": flow_from_section(T, E1),
        "E2": flow_from_section(T, E2),
        "E1.E2": flow_from_section(T, T.multiply(E1, E2)),
    }
    report = Report("eventual-identity flows")
    for (na, Fa), (nb, Fb) in combinations(flows.items(), 2):
        sub = flows_commute(Fa, Fb, T.base_vars)
        for c in sub.checks:
            report.add(c.law, f"[{na},{nb}] {c.instance}", c.passed, c.witness)
    return report


# -- principal hierarchy --------------------------------------------------


def _poly_antiderivative(p: Poly, m: int) -> Poly:
    terms = {}
    for exps, c in p.terms.items():
        e = list(exps)
        e[m] += 1
        terms[tuple(e)] = c / Fraction(e[m])
    return Poly.from_terms(p.nvars, terms)


def _poly_zero_tail(p: Poly, start: int) -> Poly:
    """Set variables with index > start to zero."""
    terms = {e: c for e, c in p.terms.items() if all(x == 0 for x in e[start + 1 :])}
    return Poly.from_terms(p.nvars, terms)


def _path_integrate(rhs_rows: list[list[RatFunc]], nvars: int) -> list[RatFunc]:
    """Solve d_j f^i = R^i_j by integrating along the coordinate path from 0.

    Requires polynomial right-hand sides; the compatibility of the
    system must be checked by the caller.
    """
    out = []
    for row in rhs_rows:
        acc = Poly.zero(nvars)
        for m in range(nvars):
            r = row[m]
            if not r.is_polynomial():
                raise NonPolynomialAntiderivative(
                    "recursion right-hand side is not polynomial"
                )
            p = r.num.scale(Fraction(1) / r.den.constant_value())
            acc = acc + _poly_antiderivative(_poly_zero_tail(p, m), m)
        out.append(RatFunc(acc))
    return out


@dataclass
class HierarchyData:
    """Table of hierarchy sections X_{(p, alpha)} and their flows."""

    flat_basis: list[Section]
    alpha_max: int
    table: dict = field(default_factory=dict)
    flows: dict = field(default_factory=dict)
    commutation: Report | None = None


def principal_hierarchy(
    T: AlgebroidPresentation,
    nabla: Connection,
    flat_basis: list[Section],
    alpha_max: int,
) -> HierarchyData:
    """Generate the hierarchy by the recursion d_j X_{(p,a)} = c(X_{(p,a-1)}, d_j).

    Integration constants are set to zero, which selects one
    representative at every level. All generated flows are verified to
    commute pairwise.
    """
    _require_tangent(T)
    if not nabla.is_flat_zero():
        raise NotCompatible(
            "hierarchy integration supports vanishing Christoffel symbols only"
        )
    n = T.n
    for p, X in enumerate(flat_basis):
        for j in range(n):
            if not nabla.covariant_derivative(T, j, X).is_zero():
                raise NotFlat(f"flat basis section {p + 1} is not covariantly constant")
    data = HierarchyData(flat_basis=list(flat_basis), alpha_max=alpha_max)
    for p, X in enumerate(flat_basis):
        data.table[(p, 0)] = X
        prev = X
        for alpha in range(1, alpha_max + 1):
            rhs = [
                [
                    T.multiply(prev, T.basis(j)).components[i]
                    for j in range(n)
                ]
                for i in range(T.rank)
            ]
            for i in range(T.rank):
                for j in range(n):
                    for l in range(j + 1, n):
                        diff = rhs[i][j].derivative(l) - rhs[i][l].derivative(j)
                        if not diff.is_zero():
                            raise NotCompatible(
                                f"alpha={alpha}, component {i + 1}, pair ({j + 1},{l + 1}): "
                                f"{diff.format(T.base_vars)}"
                            )
            comps = _path_integrate(rhs, n)
            nxt = Section(comps)
            data.table[(p, alpha)] = nxt
            prev = nxt
    for key, X in data.table.items():
        data.flows[key] = flow_from_section(T, X)
    commutation = Report("hierarchy flow commutation")
    keys = sorted(data.flows)
    for a, b in combinations(keys, 2):
        sub = flows_commute(data.flows[a], data.flows[b], T.base_vars)
        ok = sub.overall
        witness = None if ok else sub.failures()[0].witness
        commutation.add("flow-commutation", f"{a} vs {b}", ok, witness)
    data.commutation = commutation
    if not commutation.overall:
        fail = commutation.failures()[0]
        raise NotCompatible(f"generated flows do not commute: {fail.instance}: {fail.witness}")
    return data
