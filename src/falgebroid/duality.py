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
from functools import cache, partial
from itertools import product as iproduct

from .algebroid import (
    AlgebroidPresentation,
    Section,
    _frame_args,
    _point_labels,
    _point_p,
    _point_tensor,
    _scaled_args,
    _sweep,
    _witness,
    find_identity,
)
from .errors import MissingStructure, NotEventual, NotNijenhuis, ShapeError
from .linalg import invert
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

    def apply(self, X: Section) -> Section:
        if X.rank != self.rank:
            raise ShapeError("section rank mismatch")
        acc = {}
        for j, xj in X.entries:
            for k, row in enumerate(self.matrix):
                if row[j].num.coeffs:
                    t = row[j] * xj
                    acc[k] = acc[k] + t if k in acc else t
        return Section._from_dict(acc, self.rank, X.nvars)

    def compose(self, other: "BundleMap") -> "BundleMap":
        """Matrix product self ∘ other, one image column at a time."""
        cols = [self.apply(Section(col)).components for col in zip(*other.matrix)]
        return BundleMap(zip(*cols))

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


def _shared(A: AlgebroidPresentation, X: Section) -> tuple | None:
    """(δ, {(): {m: N^m}}) for X = N/δ over one shared denominator δ, over a ``polynomial`` base (not a point): X as
    the 0-slot table that enters ``_point_tensor``. None otherwise, and X is evaluated on sections."""
    shared = A.n and A.polynomial and X.shared_denominator()
    return (shared[0], {(): shared[1]}) if shared else None


def _over(den: Poly, cells: dict) -> dict:
    """The cells {key: {k: N}} of a contraction with each N/den in normal form, one gcd per nonzero entry."""
    return {key: {k: RatFunc(num, den) for k, num in cell.items()} for key, cell in cells.items()}


def _pseudo_eventual_tensor(A: AlgebroidPresentation, e: Section, E: Section) -> dict | None:
    """The nonzero residuals {(c, d): {k: R_cd^k}} of R_cd = P_ℰ(E_c,E_d) - [e,ℰ]·E_c·E_d, contracted from the
    tables; None unless A is ``polynomial`` and e = Φ/ε and ℰ = F/δ each have one shared denominator.

    With ρ_x = a(E_x), H_x^m = δ·ρ_x(F^m) - F^m·ρ_x(δ) (so ρ_x(ℰ^m) = H_x^m/δ²),
    K_x^m = ε·ρ_x(Φ^m) - Φ^m·ρ_x(ε) and P_m(c,d) of ``_point_p``, the Leibniz rules give
    ε²δ²·[e,ℰ]^k = G^k = Σ_{i,j} εδΦ^i F^j B_ij^k + Σ_i εΦ^i H_i^k - Σ_j δF^j K_j^k and
    ε²δ²·R_cd^k = Σ_m ε²δF^m P_m(c,d)^k + ε²(Σ_m H_c^m M_md^k + Σ_m H_d^m M_cm^k - Σ_n M_cd^n H_n^k)
    - Σ_{m,n} G^m M_mc^n M_nd^k, each summed in one integer dict per component. R_cd^k is zero exactly
    when its numerator is, and only a nonzero one is divided out.
    """
    unit, shared = _shared(A, e), _shared(A, E)
    if unit is None or shared is None:
        return None
    (z, Phi), (d, F), M = unit, shared, A.constants("product")
    rho = lambda vf, p: vf.apply(RatFunc(p, _normal=True)).num  # noqa: E731
    times = lambda t, p: {key: {k: c * p for k, c in cell.items()} for key, cell in t.items()}  # noqa: E731
    H, K = ({(x,): {m: h for m, f in N[()].items() if (h := den * rho(vf, f) - f * rho(vf, den)).coeffs}
             for x, vf in A._anchors.items()} for den, N in (shared, unit))
    G = _point_tensor((1, ((),), times(Phi, z * d), _point_tensor((1, (0, ()), F, A.constants("bracket")))),
                      (1, ((),), times(Phi, z), H), (-1, ((),), times(F, d), K))
    zz, GM = z * z, _point_tensor((1, ((), 0), G, M))  # GM_c^n = (G·E_c)^n
    H = times(H, zz)
    cells = _point_tensor((1, ((), 0, 1), times(F, zz * d), _point_p(A)), (1, ((0,), 1), H, M),
                          (1, (0, (1,)), H, M), (-1, ((0, 1),), M, H), (-1, ((0,), 1), GM, M))
    return _over(zz * d * d, cells)


def is_pseudo_eventual_identity(A: AlgebroidPresentation, E: Section) -> Report:
    """Check P_ℰ(X,Y) = [e,ℰ]·X·Y on basis pairs.

    With ℰ fixed, both sides are function-bilinear in (X,Y), so the
    frame pairs span all cases. The residual tensor is contracted from the
    tables where ``_pseudo_eventual_tensor`` can; otherwise (distinct
    component denominators, a rational table entry) pairs are evaluated on sections.
    """
    e = _require_identity(A)
    frame, residual = _point_labels(A), _pseudo_eventual_tensor(A, e, E)
    if residual is None:  # each frame section recurs in many pairs: bracket it with ℰ and scale it once
        frame, mul = _frame_args(A), A.multiply
        bracket, scaled = cache(partial(A.bracket_of, E)), cache(partial(mul, A.bracket_of(e, E)))

        def residual(X: Section, Y: Section) -> Section:  # P_ℰ(X,Y) - [e,ℰ]·X·Y, P as in ``p_tensor``
            return bracket(mul(X, Y)) - mul(bracket(X), Y) - mul(X, bracket(Y)) - mul(scaled(X), Y)

    return _sweep(A, Report("pseudo-eventual identity"), [
        (iproduct(frame, frame), ("pseudo-eventual-identity", residual)),
    ])


def is_pre_f_eventual_identity(A: AlgebroidPresentation, E: Section) -> Report:
    """Check the two pre-F eventual-identity relations on basis pairs.

    Psi(ℰ,X,Y) = -(ℰ*e)·X·Y, and (X*ℰ)·Y symmetric in X,Y. For a
    PreLie-Com structure the first relation is automatic, but checking
    it costs little and guards mutated inputs.
    """
    e, mul, frame = _require_identity(A), A.multiply, _frame_args(A)
    # each frame section recurs in many pairs: take its pre-Lie products with ℰ and scale it once
    left, right = cache(partial(A.prelie_of, E)), cache(lambda X: A.prelie_of(X, E))
    scaled = cache(partial(mul, A.prelie_of(E, e)))

    def relation(X: Section, Y: Section) -> Section:  # Psi(ℰ,X,Y) + (ℰ*e)·X·Y, Psi as in ``psi``
        return left(mul(X, Y)) - mul(left(X), Y) - mul(X, left(Y)) + mul(scaled(X), Y)

    def symmetry(X: Section, Y: Section) -> Section:
        return mul(right(X), Y) - mul(right(Y), X)

    laws = ("psi-eventual-relation", relation), ("prelie-eventual-symmetry", symmetry)
    table = [([pair], law) for pair in iproduct(frame, frame) for law in laws]  # the laws alternate pair by pair
    return _sweep(A, Report("pre-F eventual identity"), table)


def multiplication_matrix(A: AlgebroidPresentation, E: Section) -> BundleMap:
    """Matrix of left multiplication by E in the frame."""
    return BundleMap(A.matrix_of(partial(A.multiply, E)))


def invert_section(A: AlgebroidPresentation, E: Section) -> Section:
    """Section ℰ^{-1} with ℰ·ℰ^{-1} = e; NotInvertible if none exists."""
    e = _require_identity(A)
    M = multiplication_matrix(A, E).matrix
    inverse = invert(M, RatFunc.zero(A.n), RatFunc.one(A.n))
    return BundleMap(inverse).apply(e)


def _dual_product(A: AlgebroidPresentation, E: Section):
    """The tensor of the dual product X·Y·ℰ. Over a ``polynomial`` base with ℰ = F/δ over one shared
    denominator it is contracted from the table, M'_ij^k = Σ_{m,n} M_ij^m F^n M_mn^k / δ, each entry normalized
    once; otherwise it is built from sections (``tensor_of``)."""
    shared = _shared(A, E)
    if shared is None:
        return A.tensor_of(lambda X, Y: A.multiply(A.multiply(X, Y), E))
    (den, F), M = shared, A.constants("product")
    cells = _over(den, _point_tensor((1, ((0, 1),), M, _point_tensor((1, (0, ()), F, M)))))
    zero, r = RatFunc.zero(A.n), range(A.rank)
    return [[[cells.get((i, j), {}).get(k, zero) for j in r] for i in r] for k in r]


def _square(A: AlgebroidPresentation, X: Section) -> Section:
    """X·X; over a ``polynomial`` base with X = I/ε over one shared denominator, Σ I^i I^j M_ij^k / ε² from the
    table, each component normalized once."""
    shared = _shared(A, X)
    if shared is None:
        return A.multiply(X, X)
    den, I = shared
    cells = _over(den * den, _point_tensor((1, ((),), I, _point_tensor((1, (0, ()), I, A.constants("product"))))))
    return Section._from_dict(cells.get((), {}), A.rank, A.n)


def _dual(A: AlgebroidPresentation, E: Section, checker) -> DualityCertificate:
    """Dual with product X·Y·ℰ once ``checker`` accepts ℰ; other structures are kept."""
    checker(A, E).require(NotEventual)
    inverse = invert_section(A, E)
    dual = A.with_structures(product=_dual_product(A, E), identity=inverse)
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
    report.add("involution", "dual twice at e† = original product", double == A.product)
    return report


def _eventual_checker(A: AlgebroidPresentation):
    """The eventual-identity check for A: pseudo-eventual with a bracket, pre-F without."""
    return is_pseudo_eventual_identity if A.bracket is not None else is_pre_f_eventual_identity


def ev_identity_closure(A: AlgebroidPresentation, E1: Section, E2: Section) -> Report:
    """Products (and brackets, in the F case) of eventual identities stay eventual."""
    checker = _eventual_checker(A)
    report = Report("eventual identity closure")
    for name, E in (("E1", E1), ("E2", E2)):
        report.add_verdict("premise", f"{name} eventual", checker(A, E))
    report.require(NotEventual)
    prod = A.multiply(E1, E2)
    report.add_verdict("product-closure", f"E1·E2 = [{A.fmt(prod)}]", checker(A, prod))
    if A.bracket is not None:
        br = A.bracket_of(E1, E2)
        report.add_verdict("bracket-closure", f"[E1,E2] = [{A.fmt(br)}]", checker(A, br))
    return report


# -- Nijenhuis operators --------------------------------------------------

_MODES = ("comm", "lie", "prelie", "f", "pre_f")


def _deformed_op(N, op):
    """The deformed operation μ_N(X, Y) = μ(NX, Y) + μ(X, NY) - N μ(X, Y), N given as a function."""

    def deformed(X: Section, Y: Section) -> Section:
        return op(N(X), Y) + op(X, N(Y)) - N(op(X, Y))

    return deformed


def _torsion(N: BundleMap, op):
    """Residual of the Nijenhuis torsion identity μ(NX, NY) = N μ_N(X, Y)."""
    apply = cache(N.apply)  # each test section recurs in many pairs; map it by N once
    deformed = _deformed_op(apply, op)

    def residual(X: Section, Y: Section) -> Section:
        return op(apply(X), apply(Y)) - N.apply(deformed(X, Y))

    return residual


def is_nijenhuis(A: AlgebroidPresentation, N: BundleMap, on: str) -> Report:
    """Torsion identity for the requested mode.

    The commutative case is tensorial, so basis pairs suffice; bracket
    and pre-Lie torsion are differential and also run with arguments
    scaled by each base variable.
    """
    if on not in _MODES:
        raise ShapeError(f"unknown Nijenhuis mode {on!r}")
    if N.rank != A.rank:
        raise ShapeError("bundle map rank mismatch")
    frame = _frame_args(A)
    both = frame + _scaled_args(A)
    table = []
    if on in ("comm", "f", "pre_f"):
        table.append((iproduct(frame, frame), ("nijenhuis-comm", _torsion(N, A.multiply))))
    if on in ("lie", "f"):
        if A.bracket is None:
            raise MissingStructure("bracket")
        table.append((iproduct(both, both), ("nijenhuis-lie", _torsion(N, A.bracket_of))))
    if on in ("prelie", "pre_f"):
        if A.prelie is None:
            raise MissingStructure("prelie")
        table.append((iproduct(both, both), ("nijenhuis-prelie", _torsion(N, A.prelie_of))))
    return _sweep(A, Report(f"Nijenhuis operator ({on})"), table)


def nijenhuis_deformation(
    A: AlgebroidPresentation, N: BundleMap
) -> tuple[Report, AlgebroidPresentation | None]:
    """The torsion report of N and, when it passes, the presentation deformed by N.

    N is checked on every structure A carries: product and bracket when A
    has a bracket, else product and pre-Lie operation, else the product.
    The deformed presentation carries the checked structures twisted by
    N, the anchor a∘N and no identity; it is None when the report fails.
    """
    on = "f" if A.bracket is not None else "pre_f" if A.prelie is not None else "comm"
    report = is_nijenhuis(A, N, on)
    if not report.overall:
        return report, None
    anchor = None
    if A.anchor is not None:
        anchor = [A.anchor_of(N.apply(A.basis(i))).components for i in range(A.rank)]

    def twist(op):
        return A.tensor_of(_deformed_op(N.apply, op))

    return report, AlgebroidPresentation(
        A.base_vars,
        A.rank,
        twist(A.multiply),
        bracket=twist(A.bracket_of) if on == "f" else None,
        prelie=twist(A.prelie_of) if on == "pre_f" else None,
        anchor=anchor,
    )


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
