"""Hydrodynamic flows, their commutation, and the principal hierarchy.

A section X of a tangent presentation induces the quasilinear flow
``u^i_t = V^i_j(u) u^j_x`` with ``V^i_j = sum_k c^i_{jk} X^k``: V_X(E_b) = E_b·X.
Flows with velocity matrices A and B commute when Tsarev's conditions hold in
the base ring (Math. USSR Izv. 37, 1991; as in Lorenzoni, Pedroni and
Raimondo, Arch. Math. Brno, 2011). Component i of the commutator is
``[B,A]^i_b u^b_xx + (d_c [B,A]^i_b + Q'^i_bc) u^b_x u^c_x`` with
``Q'^i_bc = A^a_b W_B^i_ac - B^a_b W_A^i_ac`` for each flow's cached curl
``W^i_ac = d_a V^i_c - d_c V^i_a``, so it vanishes exactly when row i of
[B,A] does and then ``Q'^i_bc + Q'^i_cb`` for every b <= c. Q' has no term
to sum when both curls are empty, as for every flow of the principal hierarchy.

For flows A = V_X and B = V_Y of one presentation, [B,A](E_b) = (E_b·X)·Y -
(E_b·Y)·X = Σ_{c,d} X^c Y^d K_cd(E_b) for its commutator table K, built once:
when K is empty (a commutative associative product) every row of [B,A]
vanishes with no product. Other flows, and flows of a presentation with a
nonzero K, multiply A and B.

Only a failing component builds its jet residual, for its witness: a
``RatFunc`` in the 3n variables of ``jet_names`` (u, u_x, u_xx), where the
total derivative D_x = (u_x, u_xx, 0) and the prolonged flow (v, D_x v, 0)
for the velocities v are ``VectorField``s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from itertools import combinations, combinations_with_replacement

from .algebroid import AlgebroidPresentation, Section, VectorField, _point_labels, _point_tensor, _sweep
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


def jet_names(names: list[str]) -> list[str]:
    """Variables of the jet ring, in order: u, then u_x, then u_xx."""
    return list(names) + [f"{v}_x" for v in names] + [f"{v}_xx" for v in names]


@cache
def _total_x_field(n: int) -> VectorField:
    """D_x on the jet ring in 3n variables: u to u_x to u_xx to 0."""
    m = 3 * n
    return VectorField([RatFunc.var(m, i) for i in range(n, m)] + [RatFunc.zero(m)] * n)


def _jet_n(f: RatFunc, message: str) -> int:
    """Base dimension of a jet function; raise if it depends on any u_xx."""
    n, rem = divmod(f.nvars, 3)
    if rem:
        raise ShapeError("a jet function has 3n variables (u, u_x, u_xx)")
    if max(f.variables(), default=-1) >= 2 * n:
        raise JetOrderOverflow(message)
    return n


def total_x(f: RatFunc) -> RatFunc:
    """Total x-derivative: u^i to u^i_x to u^i_xx; beyond that overflows."""
    n = _jet_n(f, "total derivative of a u_xx term leaves the supported jet range")
    return _total_x_field(n).apply(f)


def _curl(M: list) -> list:
    """``w[i][j]`` maps each l where ``d_l M^i_j - d_j M^i_l`` is nonzero to it, in ascending l (n x n M)."""
    n = len(M)
    w = [[{} for _ in range(n)] for _ in range(n)]
    for i, row in enumerate(M):
        for j, l in combinations(range(n), 2):
            if d := row[j].derivative(l) - row[l].derivative(j):
                w[i][j][l], w[i][l][j] = d, -d
    return w


@dataclass(frozen=True)
class HydroFlow:
    """Quasilinear flow u^i_t = V^i_j(u) u^j_x; ``source`` is (T, X) for the flow of a section X of T."""

    V: tuple
    source: tuple | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def n(self) -> int:
        return len(self.V)

    @cached_property
    def prolonged(self) -> VectorField:
        """The flow as a derivation of the jet ring: (K, D_x K, 0) for velocities K."""
        n, m = self.n, 3 * self.n
        K = [RatFunc.sum_products(m, [(v.extend(m), RatFunc.var(m, n + j)) for j, v in enumerate(row)])
             for row in self.V]
        return VectorField(K + [total_x(k) for k in K] + [RatFunc.zero(m)] * n)

    @cached_property
    def curl(self) -> list:
        """``curl[i][c]`` maps each a with a nonzero curl ``W^i_ac = d_a V^i_c - d_c V^i_a`` to it."""
        return _curl(self.V)

    def velocity(self, i: int) -> RatFunc:
        """The right-hand side of the i-th equation as a jet function."""
        return self.prolonged.components[i]

    def derive(self, f: RatFunc) -> RatFunc:
        """Time derivative of a first-order jet function along the flow."""
        _jet_n(f, "flow derivative applied past first-order jets")
        return self.prolonged.apply(f)


def _require_tangent(T: AlgebroidPresentation):
    if T.rank != T.n or not T.has("anchor"):
        raise NotTangent("presentation rank must equal base dimension with identity anchor")
    if T._anchors != {i: VectorField.basis(T.n, T.n, i) for i in range(T.n)}:
        raise NotTangent("anchor must be the identity matrix")


def _sourced(V, T: AlgebroidPresentation, X: Section) -> HydroFlow:
    """The flow with velocity matrix V, built as V_X from the section X of T, carrying its source (T, X)."""
    flow = HydroFlow(tuple(tuple(row) for row in V))
    object.__setattr__(flow, "source", (T, X))
    return flow


def flow_from_section(T: AlgebroidPresentation, X: Section) -> HydroFlow:
    """Hydrodynamic flow with velocity matrix V^i_j = sum_k c^i_{jk} X^k, so V_X(E_b) = E_b·X. With its source (T, X),
    ``flows_commute`` knows that [V_Y, V_X](E_b) = Σ_{c,d} X^c Y^d K_cd(E_b) vanishes when T's commutator table K
    is empty."""
    _require_tangent(T)
    return _sourced(T.matrix_of(lambda Ej: T.multiply(Ej, X)), T, X)


def _residual(F: HydroFlow, G: HydroFlow, i: int) -> RatFunc:
    return F.derive(G.velocity(i)) - G.derive(F.velocity(i))


def _bracket_vanishes(F: HydroFlow, G: HydroFlow) -> bool:
    """Whether [B,A](E_b) = Σ_{c,d} X^c Y^d K_cd(E_b) vanishes because F and G are the flows of sections X, Y of one
    presentation whose commutator table K is empty."""
    return bool(F.source and G.source and F.source[0] is G.source[0]) and not F.source[0].constants("commutator")


def _commutes_at(F: HydroFlow, G: HydroFlow, i: int, bracket_vanishes: bool) -> bool:
    """Tsarev's conditions at component i: row i of [B,A] vanishes, then Q'^i_bc + Q'^i_cb for b <= c. Row i is
    taken from the matrix products unless ``bracket_vanishes`` (an empty commutator table) already decides it."""
    A, B, rows = F.V, G.V, range(F.n)
    for b in rows if not bracket_vanishes else ():
        if RatFunc.sum_products(F.n, [(B[i][a], A[a][b]) for a in rows], [(A[i][a], B[a][b]) for a in rows]):
            return False
    WA, WB = F.curl[i], G.curl[i]
    if not any(WA) and not any(WB):  # every Q'^i_bc is an empty sum
        return True
    for b, c in combinations_with_replacement(rows, 2):
        sides = {(b, c), (c, b)}
        plus = [(A[a][x], w) for x, y in sides for a, w in WB[y].items()]
        minus = [(B[a][x], w) for x, y in sides for a, w in WA[y].items()]
        if (plus or minus) and RatFunc.sum_products(F.n, plus, minus):
            return False
    return True


def flows_commute(F: HydroFlow, G: HydroFlow, names: list[str] | None = None) -> Report:
    """Tsarev's conditions per component; a failing component's witness is its jet residual."""
    if F.n != G.n:
        raise ShapeError("flows live on different base dimensions")
    names = names or [f"u{i + 1}" for i in range(F.n)]
    if len(names) != F.n:
        raise ShapeError(f"{len(names)} variable names for flows on {F.n} variables")
    report, bracket_vanishes = Report("flow commutation"), _bracket_vanishes(F, G)
    for i in range(F.n):
        ok = _commutes_at(F, G, i, bracket_vanishes)
        witness = None if ok else _residual(F, G, i).format(jet_names(names))
        report.add("flow-commutation", f"component {names[i]}", ok, witness)
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
        comps = [c.derivative(j) for c in X.components]
        if self.gamma is not None:
            for i in range(T.rank):
                for k, xk in X.entries:
                    comps[i] = comps[i] + self.gamma[i][j][k] * xk
        return Section(comps)


def check_flat_condition(T: AlgebroidPresentation, nabla: Connection, X: Section) -> Report:
    """Symmetry of (nabla_{d_j} X) . d_l in j and l, on all basis pairs: Σ_i (V_j^i M_il - V_l^i M_ij) for the
    sections V_j = nabla_{d_j} X and the product table M, contracted at once."""
    _require_tangent(T)
    V = [nabla.covariant_derivative(T, j, X) for j in range(T.n)]
    B = T._view(*(c for v in V for _, c in v.entries))
    table, M = {(j,): {i: B._value(c) for i, c in v.entries} for j, v in enumerate(V)}, B.constants("product")
    egorov = _point_tensor((1, ((0,), 1), table, M), (-1, ((1,), 0), table, M))
    rows = [(combinations(_point_labels(T), 2), ("egorov-symmetry", egorov))]
    return _sweep(T, Report("flatness-compatibility of a section"), rows)


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
        report.extend(flows_commute(Fa, Fb, T.base_vars), f"[{na},{nb}] ")
    return report


# -- principal hierarchy --------------------------------------------------


def _path_integrate(rhs_rows: list[list[RatFunc]], nvars: int) -> list[RatFunc]:
    """Solve d_j f^i = R^i_j by integrating along the ray from 0.

    f = sum_m u^m * sum c*u^e/(|e| + 1) over the terms c*u^e of R_m, the
    potential that vanishes at 0. Requires polynomial right-hand sides;
    the compatibility of the system must be checked by the caller.
    """
    out = []
    for row in rhs_rows:
        terms: dict = {}
        for m, r in enumerate(row):
            if not r.is_polynomial():
                raise NonPolynomialAntiderivative("recursion right-hand side is not polynomial")
            for e, c in r.num.terms.items():  # a constant denominator is 1
                e = e[:m] + (e[m] + 1,) + e[m + 1 :]  # times u^m, so sum(e) is |e| + 1
                terms[e] = terms.get(e, 0) + c / sum(e)
        out.append(RatFunc(Poly.from_terms(nvars, terms)))
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
    for p, X in enumerate(flat_basis):  # with zero Christoffel symbols, covariantly constant means constant
        if not all(c.is_constant() for _, c in X.entries):
            raise NotFlat(f"flat basis section {p + 1} is not covariantly constant")
    data = HierarchyData(flat_basis=list(flat_basis), alpha_max=alpha_max)
    symmetric = not _point_tensor((1, (0, 1), T.constants("product")), (-1, (1, 0), T.constants("product")))
    for p, X in enumerate(flat_basis):
        data.table[(p, 0)] = X
        prev = X
        for alpha in range(1, alpha_max + 1):
            rhs = T.matrix_of(partial(T.multiply, prev))
            if symmetric:  # X·E_j = E_j·X: rhs is the velocity matrix of prev
                flow = data.flows[(p, alpha - 1)] = _sourced(rhs, T, prev)
            for i, plane in enumerate(flow.curl if symmetric else _curl(rhs)):
                for j, row in enumerate(plane):
                    for l, diff in row.items():
                        if l > j:
                            raise NotCompatible(
                                f"alpha={alpha}, component {i + 1}, pair ({j + 1},{l + 1}): {diff.format(T.base_vars)}"
                            )
            prev = data.table[(p, alpha)] = Section(_path_integrate(rhs, n))
    data.flows = {key: data.flows.get(key) or flow_from_section(T, X) for key, X in data.table.items()}
    commutation = Report("hierarchy flow commutation")
    for a, b in combinations(sorted(data.flows), 2):
        sub = flows_commute(data.flows[a], data.flows[b], T.base_vars)
        commutation.add_verdict("flow-commutation", f"{a} vs {b}", sub)
    data.commutation = commutation
    if not commutation.overall:
        fail = commutation.failures()[0]
        raise NotCompatible(f"generated flows do not commute: {fail.instance}: {fail.witness}")
    return data
