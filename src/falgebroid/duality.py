"""Eventual identities, duality and Nijenhuis deformations.

An eventual identity generates a second compatible product X·Y·ℰ; the
map sending a structure to its dual is an involution once the inverse
section and the square of the inverse are taken as new identity data.
Nijenhuis operators deform each structure into another of the same
kind; both mechanisms produce the same product when N is multiplication
by an eventual identity.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from itertools import chain

from .algebroid import (
    AlgebroidPresentation,
    Section,
    Table,
    VectorField,
    _point_labels,
    _point_p,
    _point_psi,
    _point_tensor,
    _ratfunc,
    _sweep,
    _table,
    _witness,
    find_identity,
)
from .errors import MissingStructure, NotDivisible, NotEventual, NotInvertible, NotNijenhuis, ShapeError
from .linalg import solve_fraction_free
from .report import Report
from .ring import Poly, RatFunc


class BundleMap:
    """Endomorphism of the frame module, given by an r x r matrix.

    matrix[k][j] is the E_k-component of the image of E_j.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        self.matrix = [list(row) for row in matrix]
        r = len(self.matrix)
        if any(len(row) != r for row in self.matrix):
            raise ShapeError("bundle map matrix must be square")

    @property
    def rank(self) -> int:
        return len(self.matrix)

    def __eq__(self, other) -> bool:
        return isinstance(other, BundleMap) and self.matrix == other.matrix


@dataclass
class DualityCertificate:
    """A dual with its data; ``checker`` is the eventual-identity check the dual was built with."""

    original: AlgebroidPresentation
    ev_identity: Section
    inverse: Section
    dual: AlgebroidPresentation
    e_dagger: Section
    checker: Callable[[AlgebroidPresentation, Section], Report]


def _require_identity(A: AlgebroidPresentation) -> Section:
    if A.identity is None:
        raise MissingStructure("identity")
    return A.identity


def _sections(A: AlgebroidPresentation, *sections) -> tuple:
    """The presentation a contraction with ``sections`` runs over (``_view``) and each section X as (δ, X), X the
    0-slot table {(): {k: X^k}} that enters ``_point_tensor`` and δ its denominator: over a ``polynomial`` base where
    every section is N/δ over one shared δ (``Section.shared_denominator``), the numerators N over δ; else the
    entries as the view reads them, over 1."""
    shared = [X.shared_denominator() for X in sections] if A.n and A.polynomial else [None]
    if all(shared):
        return A, [(den, {(): N}) for den, N in shared]
    B = A._view(*(c for X in sections for _, c in X.entries))
    return B, [(RatFunc.one(A.n) if A.n else 1, {(): {k: B._value(c) for k, c in X.entries}}) for X in sections]


def _quotient(den: Poly, c: Poly) -> RatFunc:
    """c/den in normal form, with no gcd where den is constant (``RatFunc``) or divides c (``exact_div``)."""
    try:
        return RatFunc(c, den) if den.is_constant() else RatFunc(c.exact_div(den), _normal=True)
    except NotDivisible:
        return RatFunc(c, den)


def _over(A: AlgebroidPresentation, den, cells: dict) -> dict:
    """A contraction's cells {key: {k: c}} as RatFuncs: c/den by ``_quotient`` for a ``Poly`` den, else ``_ratfunc``."""
    value = partial(_quotient, den) if type(den) is Poly else partial(_ratfunc, A.n)
    return {key: {k: value(c) for k, c in cell.items()} for key, cell in cells.items()}


def _times(t: dict, p) -> dict:
    """The table t with every entry times p."""
    return {key: {k: c * p for k, c in cell.items()} for key, cell in t.items()}


def _bracket_numerators(A: AlgebroidPresentation, X: Section, Y: Section) -> tuple:
    """(B, ε, δ, F, H, G) for [X,Y] contracted from the tables, with X = Φ/ε and Y = F/δ as ``_sections``
    gives them over its view B (ε = δ = 1 but over shared denominators).

    With ρ_x = a(E_x), H_x^m = δ·ρ_x(F^m) - F^m·ρ_x(δ) (so ρ_x(Y^m) = H_x^m/δ²) and
    K_x^m = ε·ρ_x(Φ^m) - Φ^m·ρ_x(ε), the Leibniz rules give the cell G = {(): {k: G^k}} of
    ε²δ²·[X,Y]^k = G^k = Σ_{i,j} εδΦ^i F^j B_ij^k + Σ_i εΦ^i H_i^k - Σ_j δF^j K_j^k.
    H and K take this one quotient rule over every view, with ρ_x(1) = 0 where δ = 1.
    """
    B, ((z, Phi), (d, F)) = _sections(A, X, Y)
    rho = lambda vf, p: B._value(vf.apply(_ratfunc(A.n, p)))  # noqa: E731
    H, K = ({(x,): cell for x, vf in B._anchors.items()
             if (cell := {m: h for m, f in N[()].items() if not (h := den * rho(vf, f) - f * rho(vf, den)).is_zero()})}
            for den, N in ((d, F), (z, Phi)))
    G = _point_tensor((1, ((),), _times(Phi, z * d), _point_tensor((1, (0, ()), F, B.constants("bracket")))),
                      (1, ((),), _times(Phi, z), H), (-1, ((),), _times(F, d), K))
    return B, z, d, F, H, G


def _pseudo_eventual_tensor(A: AlgebroidPresentation, e: Section, E: Section) -> dict:
    """The nonzero residuals {(c, d): {k: R_cd^k}} of R_cd = P_ℰ(E_c,E_d) - [e,ℰ]·E_c·E_d, contracted from the
    tables, with e = Φ/ε, ℰ = F/δ, H and G = ε²δ²·[e,ℰ] of ``_bracket_numerators``.

    With P_m(c,d) of ``_point_p``, the Leibniz rules give
    ε²δ²·R_cd^k = Σ_m ε²δF^m P_m(c,d)^k + ε²(Σ_m H_c^m M_md^k + Σ_m H_d^m M_cm^k - Σ_n M_cd^n H_n^k)
    - Σ_{m,n} G^m M_mc^n M_nd^k. Over shared denominators each is summed in one integer dict (``_packed``),
    R_cd^k is zero exactly when its numerator is, and only a nonzero one is divided out.
    """
    A, z, d, F, H, G = _bracket_numerators(A, e, E)
    M = A.constants("product")
    zz, GM = z * z, _point_tensor((1, ((), 0), G, M))  # GM_c^n = (G·E_c)^n
    H = _times(H, zz)
    cells = _point_tensor((1, ((), 0, 1), _times(F, zz * d), _point_p(A)), (1, ((0,), 1), H, M),
                          (1, (0, (1,)), H, M), (-1, ((0, 1),), M, H), (-1, ((0,), 1), GM, M))
    return _over(A, zz * d * d, cells)


def is_pseudo_eventual_identity(A: AlgebroidPresentation, E: Section) -> Report:
    """Check P_ℰ(X,Y) = [e,ℰ]·X·Y on basis pairs.

    With ℰ fixed, both sides are function-bilinear in (X,Y), so the frame
    pairs span all cases. The residual tensor is contracted from the tables
    (``_pseudo_eventual_tensor``): over numerators where e and ℰ each have one
    shared denominator over a ``polynomial`` base, else over RatFuncs.
    """
    frame, residual = _point_labels(A), _pseudo_eventual_tensor(A, _require_identity(A), E)
    rows = [(((frame, frame),), ("pseudo-eventual-identity", residual))]
    return _sweep(A, Report("pseudo-eventual identity"), rows)


def is_pre_f_eventual_identity(A: AlgebroidPresentation, E: Section) -> Report:
    """Check the two pre-F eventual-identity relations on basis pairs.

    Psi(ℰ,X,Y) = -(ℰ*e)·X·Y, and (X*ℰ)·Y symmetric in X,Y. For a
    PreLie-Com structure the first relation is automatic, but checking
    it costs little and guards mutated inputs. Both are tensors in (X,Y),
    contracted from the tables: with ρ_x = a(E_x), Psi(ℰ,E_c,E_d) =
    Σ_x ℰ^x Psi_xcd, ℰ*e = Σ_{x,y} ℰ^x e^y P_xy + Σ_x ℰ^x ρ_x(e) and
    E_c*ℰ = Σ_y ℰ^y P_cy + ρ_c(ℰ).
    """
    e = _require_identity(A)
    A = A._view(*(c for X in (e, E) for _, c in X.entries))
    (Et, dE), (et, de) = (A._entry_tables([((), X.entries)]) for X in (E, e))
    M, P = A.constants("product"), A.constants("prelie")
    psi = _point_tensor(*_point_psi(A))
    Ee = _point_tensor((1, ((),), Et, _point_tensor((1, (0, ()), et, P))), (1, ((),), Et, de))  # ℰ*e
    EeM = _point_tensor((1, ((), 0), Ee, M))  # ((ℰ*e)·E_c)^n
    relation = _point_tensor((1, ((), 0, 1), Et, psi), (1, ((0,), 1), EeM, M))
    right = _point_tensor((1, (0, ()), Et, P), (1, (0,), dE))  # E_c*ℰ
    symmetry = _point_tensor((1, ((0,), 1), right, M), (-1, ((1,), 0), right, M))
    laws, frame = (("psi-eventual-relation", relation), ("prelie-eventual-symmetry", symmetry)), _point_labels(A)
    table = [((((a,), (b,)),), law) for a in frame for b in frame for law in laws]  # the laws alternate pair by pair
    return _sweep(A, Report("pre-F eventual identity"), table)


def multiplication_matrix(A: AlgebroidPresentation, E: Section) -> BundleMap:
    """Matrix of left multiplication by E in the frame."""
    return BundleMap(A.matrix_of(partial(A.multiply, E)))


def invert_section(A: AlgebroidPresentation, E: Section) -> Section:
    """Section ℰ^{-1} with ℰ·ℰ^{-1} = e, solving M x = e for M the matrix of multiplication by ℰ; NotInvertible
    unless M is invertible, even where M x = e is solvable."""
    x, pivots = solve_fraction_free(multiplication_matrix(A, E).matrix, _require_identity(A).components, A.n)
    if len(pivots) < A.rank:
        raise NotInvertible("matrix is singular")
    return Section(x)


def _dual_product(A: AlgebroidPresentation, E: Section) -> Table:
    """The table of the dual product X·Y·ℰ, contracted from the table with ℰ = F/δ as ``_sections`` gives it:
    M'_ij^k = Σ_{m,n} M_ij^m F^n M_mn^k / δ, each entry normalized once."""
    B, [(den, F)] = _sections(A, E)
    M = B.constants("product")
    return _table(_over(A, den, _point_tensor((1, ((0, 1),), M, _point_tensor((1, (0, ()), F, M))))))


def _square(A: AlgebroidPresentation, X: Section) -> Section:
    """X·X = Σ I^i I^j M_ij^k / ε² from the table, with X = I/ε as ``_sections`` gives it, each component
    normalized once."""
    B, [(den, I)] = _sections(A, X)
    square = _point_tensor((1, ((),), I, _point_tensor((1, (0, ()), I, B.constants("product")))))
    return Section._from_dict(_over(A, den * den, square).get((), {}), A.rank, A.n)


def _dual(A: AlgebroidPresentation, E: Section, checker) -> DualityCertificate:
    """Dual with product X·Y·ℰ once ``checker`` accepts ℰ; other structures are kept."""
    checker(A, E).require(NotEventual)
    inverse = invert_section(A, E)
    dual = AlgebroidPresentation._of(A.base_vars, A.rank, {**A._tables, "product": _dual_product(A, E)},
                                     A._anchors if A.has("anchor") else None, inverse)
    e_dagger = _square(A, inverse)
    return DualityCertificate(A, E, inverse, dual, e_dagger, checker)


def dubrovin_dual(A: AlgebroidPresentation, E: Section) -> DualityCertificate:
    """Dual presentation with product X·Y·ℰ, same bracket and anchor."""
    return _dual(A, E, is_pseudo_eventual_identity)


def pre_f_dual(A: AlgebroidPresentation, E: Section) -> DualityCertificate:
    """Pre-F dual: keeps the pre-Lie operation and anchor, swaps the product."""
    return _dual(A, E, is_pre_f_eventual_identity)


def verify_certificate(cert: DualityCertificate) -> Report:
    """Involution and identity laws for a duality certificate.

    e† is checked on the dual with the eventual-identity check the dual
    was built with: pseudo-eventual for ``dubrovin_dual``, pre-F for ``pre_f_dual``.
    """
    A, dual = cert.original, cert.dual
    report = Report("duality certificate")
    witness = _witness(A, A.multiply(cert.ev_identity, cert.inverse) - _require_identity(A))
    report.add("inverse-law", "ev·inverse = e", witness is None, witness)
    witness = _witness(A, cert.e_dagger - A.multiply(cert.inverse, cert.inverse))
    report.add("e-dagger-law", "e† = inverse²", witness is None, witness)
    found = find_identity(dual)
    ok = found is not None and (found - cert.inverse).is_zero()
    report.add(
        "dual-identity",
        "find_identity(dual) = inverse",
        ok,
        None if ok else (dual.fmt(found) if found is not None else "none"),
    )
    report.add_verdict("e-dagger-eventual", "e† eventual on dual", cert.checker(dual, cert.e_dagger))
    double = _dual_product(dual, cert.e_dagger)
    report.add("involution", "dual twice at e† = original product", double == A._tables["product"])
    return report


def _eventual_checker(A: AlgebroidPresentation):
    """The eventual-identity check for A: pseudo-eventual with a bracket, pre-F without."""
    return is_pseudo_eventual_identity if A.has("bracket") else is_pre_f_eventual_identity


def ev_identity_closure(A: AlgebroidPresentation, E1: Section, E2: Section) -> Report:
    """Products (and brackets, in the F case) of eventual identities stay eventual. The bracket is contracted from
    the tables (``_bracket_numerators``) and divided out once."""
    checker = _eventual_checker(A)
    report = Report("eventual identity closure")
    for name, E in (("E1", E1), ("E2", E2)):
        report.add_verdict("premise", f"{name} eventual", checker(A, E))
    report.require(NotEventual)
    prod = A.multiply(E1, E2)
    report.add_verdict("product-closure", f"E1·E2 = [{A.fmt(prod)}]", checker(A, prod))
    if A.has("bracket"):
        _, z, d, _, _, G = _bracket_numerators(A, E1, E2)
        br = Section._from_dict(_over(A, z * z * d * d, G).get((), {}), A.rank, A.n)
        report.add_verdict("bracket-closure", f"[E1,E2] = [{A.fmt(br)}]", checker(A, br))
    return report


# -- Nijenhuis operators --------------------------------------------------

_MODES = {"comm": ("product",), "lie": ("bracket",), "prelie": ("prelie",), "f": ("product", "bracket"),
          "pre_f": ("product", "prelie")}
_TORSION_LAWS = {"product": "nijenhuis-comm", "bracket": "nijenhuis-lie", "prelie": "nijenhuis-prelie"}


def _twist(mu, Nt: dict, dN: dict, skew: bool) -> tuple[dict, dict]:
    """(μ_N, T) for an operation μ and a bundle map N: the deformed table μ_N(E_i,E_j) =
    μ(NE_i,E_j) + μ(E_i,NE_j) - Nμ(E_i,E_j) and the torsion T_ij = μ(NE_i,NE_j) - Nμ_N(E_i,E_j),
    from the table of μ, Nt = {(j,): {k: N^k_j}} and dN = {(x, j): {k: ρ_x(N^k_j)}}.

    With μ(f·E_a, g·E_b) = fg·μ_ab + f·ρ_a(g)·E_b for the pre-Lie operation, less g·ρ_b(f)·E_a
    for the bracket (``skew``), and with dN = {} for the product:
    μ(NE_i,E_j) = Σ_a N^a_i μ_aj - ρ_j(N^k_i) E_k, μ(E_i,NE_j) = Σ_b N^b_j μ_ib + ρ_i(N^k_j) E_k
    and μ(NE_i,NE_j) = Σ_{a,b} N^a_i N^b_j μ_ab + Σ_a N^a_i ρ_a(N^k_j) E_k - Σ_b N^b_j ρ_b(N^k_i) E_k.
    """
    once = ((-1, (1, 0), dN),) if skew else ()  # -ρ_j(N^k_i) in μ(NE_i,E_j)
    twice = ((-1, ((1,), 0), Nt, dN),) if skew else ()  # -Σ_b N^b_j ρ_b(N^k_i) in μ(NE_i,NE_j)
    left = _point_tensor((1, ((0,), 1), Nt, mu))  # Σ_a N^a_i μ_aj
    deformed = _point_tensor((1, (0, 1), left), (1, (0, (1,)), Nt, mu), (-1, ((0, 1),), mu, Nt), (1, (0, 1), dN),
                             *once)
    torsion = _point_tensor((1, (0, (1,)), Nt, left), (1, ((0,), 1), Nt, dN), *twice, (-1, ((0, 1),), deformed, Nt))
    return deformed, torsion


def _nijenhuis(A: AlgebroidPresentation, N: BundleMap, on: str) -> tuple[Report, dict]:
    """The torsion report of N in mode ``on`` and the tables it twisted: μ_N by operation name (``_twist``), and
    {(i,): {m: a(NE_i)^m}} as "anchor"."""
    if on not in _MODES:
        raise ShapeError(f"unknown Nijenhuis mode {on!r}")
    if N.rank != A.rank:
        raise ShapeError("bundle map rank mismatch")
    B = A._view(*chain(*N.matrix))
    Nt, dN = B._entry_tables([((j,), tuple((k, row[j]) for k, row in enumerate(N.matrix) if row[j].num.coeffs))
                              for j in range(A.rank)])
    frame, rows = _point_labels(A), []
    twisted = {"anchor": _point_tensor((1, ((0,),), Nt, B.constants("anchor")))}
    for name in _MODES[on]:
        twisted[name], T = _twist(B.constants(name), Nt, {} if name == "product" else dN, name == "bracket")
        rows.append((((frame, frame),), (_TORSION_LAWS[name], T)))
    return _sweep(A, Report(f"Nijenhuis operator ({on})"), rows), twisted


def is_nijenhuis(A: AlgebroidPresentation, N: BundleMap, on: str) -> Report:
    """Torsion identity for the requested mode. The torsion of each operation is a tensor, contracted and checked
    on frame pairs (``_twist``): at (u^m·E_i, u^p·E_j) it is u^m·u^p·T_ij, no instance of its own."""
    return _nijenhuis(A, N, on)[0]


def nijenhuis_deformation(
    A: AlgebroidPresentation, N: BundleMap
) -> tuple[Report, AlgebroidPresentation | None]:
    """The torsion report of N and, when it passes, the presentation deformed by N.

    N is checked on the product with the bracket when A has one, else with
    the pre-Lie operation when A has one, else on the product alone; a
    pre-Lie operation beside a bracket (SS<n>) is neither checked nor
    deformed. The deformed presentation carries the checked structures
    twisted by N, the anchor a∘N and no identity; it is None when the
    report fails.
    """
    on = "f" if A.has("bracket") else "pre_f" if A.has("prelie") else "comm"
    report, twisted = _nijenhuis(A, N, on)
    if not report.overall:
        return report, None
    fields = {i: VectorField._from_dict(cell, A.n, A.n) for (i,), cell in _over(A, 1, twisted["anchor"]).items()}
    tables = {name: _table(_over(A, 1, twisted[name])) for name in _MODES[on]}
    return report, AlgebroidPresentation._of(A.base_vars, A.rank, tables, fields if A.has("anchor") else None, None)


def deform_by_nijenhuis(A: AlgebroidPresentation, N: BundleMap) -> AlgebroidPresentation:
    """The presentation deformed by N, as in ``nijenhuis_deformation``; NotNijenhuis if N fails."""
    report, deformed = nijenhuis_deformation(A, N)
    if deformed is None:
        fail = report.failures()[0]
        raise NotNijenhuis(f"{fail.law} {fail.instance}: {fail.witness}")
    return deformed


def nijenhuis_from_eventual(A: AlgebroidPresentation, E: Section) -> BundleMap:
    """Multiplication by a verified eventual identity, as a bundle map."""
    _eventual_checker(A)(A, E).require(NotEventual)
    return multiplication_matrix(A, E)
