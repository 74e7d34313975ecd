"""Deformation complex of pre-Lie algebroids and formal deformations.

Cochains are multiderivations: multilinear in all but the last slot,
with a vector-field-valued symbol governing a Leibniz rule in the last
slot. The coboundary uses the pre-Lie operation and its commutator
bracket. A commutative associative algebroid is treated as a pre-Lie
algebroid with zero anchor, which makes the coboundary of any cochain
have vanishing symbol; the anchor data of a deformation therefore lives
entirely in the symbols of the deforming cochains.

Cochains alternate in every slot but the last, as in Dzhumadildaev's pre-Lie
complex; MultiDer.build enforces it, evaluating only where the leading slots
strictly increase. Over a point a degree-p cochain is therefore its
coordinate vector: the E_k-components at those frame tuples. Coboundary
matrices are read off the pre-Lie structure constants, one target coordinate
per row, with d_def kept as their oracle; point cohomology comes from one
elimination of [image of d | kernel of d].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain, combinations, product as iproduct
from operator import add, sub

from .algebroid import AlgebroidPresentation, Section, VectorField, vf_bracket
from .algebroid import _frame_args, _prelie_tuples, _scaled_args, _sweep
from .constructions import FiniteAlgebra
from .errors import (
    ArityMismatch,
    BaseNotPoint,
    FalgError,
    MissingStructure,
    NotADeformation,
    ObstructionNonzero,
    ShapeError,
)
from .linalg import nullspace, rref, solve
from .report import Report
from .ring import RatFunc


def _sorted_sign(lead) -> tuple[tuple, int]:
    """The sorted leading slots and the sign of the sorting permutation, 0 when an index repeats."""
    key = tuple(sorted(lead))
    return key, 0 if len(set(key)) < len(key) else (-1) ** sum(a > b for a, b in combinations(lead, 2))


class MultiDer:
    """Multiderivation of fixed degree in a fixed frame, alternating in its leading slots.

    D maps every index tuple of length ``degree`` to a Section; sigma
    maps every index tuple of length ``degree - 1`` to a VectorField.
    ``build`` makes both alternate in the ``degree - 1`` leading slots; a
    cochain assembled by hand must alternate there too.
    """

    __slots__ = ("degree", "rank", "nvars", "D", "sigma")

    def __init__(self, degree: int, rank: int, nvars: int, D: dict, sigma: dict):
        if degree < 1:
            raise ShapeError("multiderivation degree must be >= 1")
        self.degree = degree
        self.rank = rank
        self.nvars = nvars
        self.D = D
        self.sigma = sigma

    @staticmethod
    def zero(degree: int, rank: int, nvars: int) -> "MultiDer":
        return MultiDer.build(degree, rank, nvars, lambda idx: Section.zero(rank, nvars))

    @staticmethod
    def build(degree: int, rank: int, nvars: int, d_fn, sigma_fn=None) -> "MultiDer":
        """Construct from functions on index tuples whose leading slots strictly increase.

        Every other tuple takes the value at its sorted leading slots times the
        sign of the sort, or zero when an index repeats.
        """
        zv = VectorField.zero(nvars)

        def alternating(fn, zero, length):
            out = {}
            for idx in iproduct(range(rank), repeat=length):  # in lexicographic order, so out[key] is set
                lead, sign = _sorted_sign(idx[:degree - 1])
                key = lead + idx[degree - 1:]
                if sign and key == idx:
                    out[idx] = fn(idx)
                else:
                    out[idx] = zero if not sign else out[key] if sign > 0 else -out[key]
            return out

        D = alternating(d_fn, Section.zero(rank, nvars), degree)
        return MultiDer(degree, rank, nvars, D, alternating(sigma_fn or (lambda idx: zv), zv, degree - 1))

    def is_zero(self) -> bool:
        return all(s.is_zero() for s in chain(self.D.values(), self.sigma.values()))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiDer)
            and self.degree == other.degree
            and self.D == other.D
            and self.sigma == other.sigma
        )

    def _combine(self, other: "MultiDer", op) -> "MultiDer":
        """op applied slot by slot to both maps, D and sigma."""
        if self.degree != other.degree:
            raise ArityMismatch("degree mismatch")
        D = {idx: op(s, other.D[idx]) for idx, s in self.D.items()}
        sigma = {idx: op(v, other.sigma[idx]) for idx, v in self.sigma.items()}
        return MultiDer(self.degree, self.rank, self.nvars, D, sigma)

    def __add__(self, other: "MultiDer") -> "MultiDer":
        return self._combine(other, add)

    def __sub__(self, other: "MultiDer") -> "MultiDer":
        return self._combine(other, sub)

    def scale(self, c) -> "MultiDer":
        f = RatFunc.const(self.nvars, c)
        return MultiDer(
            self.degree,
            self.rank,
            self.nvars,
            {idx: s.scale_fn(f) for idx, s in self.D.items()},
            {idx: v.scale_fn(f) for idx, v in self.sigma.items()},
        )

    def _lead_terms(self, lead: list[Section]):
        """Nonzero coefficient products over leading index tuples."""
        terms = [((), RatFunc.one(self.nvars))]
        for s in lead:
            new = []
            for idx, w in terms:
                for i, c in s.entries:
                    new.append((idx + (i,), w * c))
            terms = new
        return terms

    def eval(self, args: list[Section]) -> Section:
        """Multilinear in the leading slots, sigma-Leibniz in the last."""
        if len(args) != self.degree:
            raise ArityMismatch(f"expected {self.degree} arguments, got {len(args)}")
        last = args[-1]
        out = {}
        for idx, w in self._lead_terms(list(args[:-1])):
            for i, c in last.entries:
                wc = w * c
                for k, v in self.D[idx + (i,)].entries:
                    t = wc * v
                    cur = out.get(k)
                    out[k] = t if cur is None else cur + t
            vf = self.sigma[idx]
            if not vf.is_zero():
                for k, c in last.entries:
                    d = vf.apply(c)
                    if not d.is_zero():
                        t = w * d
                        cur = out.get(k)
                        out[k] = t if cur is None else cur + t
        return Section._from_dict(out, self.rank, self.nvars)

    def sigma_eval(self, args: list[Section]) -> VectorField:
        """Function-multilinear extension of the symbol."""
        if len(args) != self.degree - 1:
            raise ArityMismatch(f"symbol expects {self.degree - 1} arguments")
        out = VectorField.zero(self.nvars)
        for idx, w in self._lead_terms(list(args)):
            vf = self.sigma[idx]
            if not vf.is_zero():
                out = out + vf.scale_fn(w)
        return out


def as_prelie(A: AlgebroidPresentation) -> AlgebroidPresentation:
    """View a commutative associative algebroid as pre-Lie with zero anchor."""
    if A.prelie is not None:
        return A
    zero = RatFunc.zero(A.n)
    return A.with_structures(
        prelie=A.product, anchor=[[zero] * A.n for _ in range(A.rank)]
    )


def _prelie_bracket(A: AlgebroidPresentation, X: Section, Y: Section) -> Section:
    return A.prelie_of(X, Y) - A.prelie_of(Y, X)


def d_def_eval(A: AlgebroidPresentation, omega: MultiDer, args: list[Section]) -> Section:
    """The coboundary formula evaluated directly on n+1 section arguments."""
    n = omega.degree
    if len(args) != n + 1:
        raise ArityMismatch(f"expected {n + 1} arguments")
    last = args[n]
    total = Section.zero(omega.rank, omega.nvars)
    for i in range(1, n + 1):
        sgn = 1 if i % 2 == 1 else -1
        rest = args[:i - 1] + args[i:]
        head = args[:i - 1] + args[i:n]
        t1 = A.prelie_of(args[i - 1], omega.eval(rest))
        t2 = A.prelie_of(omega.eval(head + [args[i - 1]]), last)
        t3 = omega.eval(head + [A.prelie_of(args[i - 1], last)])
        term = t1 + t2 - t3
        total = total + term if sgn == 1 else total - term
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            sgn = 1 if (i + j) % 2 == 0 else -1
            others = [args[t] for t in range(n + 1) if t not in (i - 1, j - 1)]
            term = omega.eval([_prelie_bracket(A, args[i - 1], args[j - 1])] + others)
            total = total + term if sgn == 1 else total - term
    return total


def d_def_sigma_eval(A: AlgebroidPresentation, omega: MultiDer, args: list[Section]) -> VectorField:
    """Symbol of the coboundary evaluated on n section arguments."""
    n = omega.degree
    if len(args) != n:
        raise ArityMismatch(f"symbol expects {n} arguments")
    total = VectorField.zero(omega.nvars)
    for i in range(1, n + 1):
        sgn = 1 if i % 2 == 1 else -1
        rest = args[:i - 1] + args[i:]
        t1 = vf_bracket(A.anchor_of(args[i - 1]), omega.sigma_eval(rest))
        t2 = A.anchor_of(omega.eval(rest + [args[i - 1]]))
        term = t1 + t2
        total = total + term if sgn == 1 else total - term
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            sgn = 1 if (i + j) % 2 == 0 else -1
            others = [args[t] for t in range(n) if t not in (i - 1, j - 1)]
            term = omega.sigma_eval([_prelie_bracket(A, args[i - 1], args[j - 1])] + others)
            total = total + term if sgn == 1 else total - term
    return total


def d_def(A: AlgebroidPresentation, omega: MultiDer) -> MultiDer:
    """Coboundary of a cochain on a pre-Lie algebroid presentation."""
    if A.prelie is None:
        raise MissingStructure("prelie")
    r, nv = omega.rank, omega.nvars
    basis = [A.basis(i) for i in range(r)]
    return MultiDer.build(
        omega.degree + 1,
        r,
        nv,
        lambda idx: d_def_eval(A, omega, [basis[i] for i in idx]),
        lambda idx: d_def_sigma_eval(A, omega, [basis[i] for i in idx]),
    )


# -- formal deformations --------------------------------------------------


@dataclass
class FormalDeformation:
    """Deformation of a commutative associative algebroid, stored to finite order.

    ``mus`` lists the degree-2 cochains mu_1..mu_n; mu_0 is the base
    product with zero symbol.
    """

    base: AlgebroidPresentation
    mus: list[MultiDer] = field(default_factory=list)

    @property
    def order(self) -> int:
        return len(self.mus)

    def mu(self, k: int) -> MultiDer | None:
        """The degree-2 cochain at order k, or None beyond the stored order."""
        if k == 0:
            return self.mu0
        if k <= self.order:
            return self.mus[k - 1]
        return None

    @cached_property
    def mu0(self) -> MultiDer:
        """The base product as a degree-2 cochain, built once per deformation."""
        A = self.base
        return MultiDer.build(
            2, A.rank, A.n, lambda idx: A.multiply(A.basis(idx[0]), A.basis(idx[1]))
        )

    def __post_init__(self):
        for m in self.mus:
            if m.degree != 2 or m.rank != self.base.rank or m.nvars != self.base.n:
                raise ShapeError("deformation cochains must be degree-2 in the base frame")


def _order_k_residual(deform: FormalDeformation, k: int, X: Section, Y: Section, Z: Section) -> Section:
    """Order-k associator-symmetry residual of the deformed product."""
    A = deform.base
    total = Section.zero(A.rank, A.n)
    # only i and k - i up to the stored order have cochains
    for i in range(max(0, k - deform.order), min(k, deform.order) + 1):
        mi, mj = deform.mu(i), deform.mu(k - i)
        term = (
            mi.eval([mj.eval([X, Y]), Z])
            - mi.eval([X, mj.eval([Y, Z])])
            - mi.eval([mj.eval([Y, X]), Z])
            + mi.eval([Y, mj.eval([X, Z])])
        )
        total = total + term
    return total


def check_n_deformation(deform: FormalDeformation) -> Report:
    """Order-by-order pre-Lie conditions for the deformed product.

    Checked on basis triples and, over a positive-dimensional base, on
    triples with each slot scaled by each base variable; the scaled
    instances exercise the symbol (anchor) compatibilities.
    """
    A = deform.base
    report = Report(f"pre-Lie {deform.order}-deformation")
    frame, scaled = _frame_args(A), _scaled_args(A)
    for k in range(deform.order + 1):
        rule = partial(_order_k_residual, deform, k)
        _sweep(A, report, [(_prelie_tuples(frame, scaled), ("pre-lie-rule", rule))], prefix=f"order {k} ")
    return report


def semiclassical_limit(deform: FormalDeformation) -> AlgebroidPresentation:
    """Structure extracted from the first-order cochain.

    The bracket is the commutator of mu_1 and the anchor is its symbol;
    the result carries the undeformed product.
    """
    if deform.order < 1:
        raise NotADeformation("semi-classical limit needs order >= 1")
    check_n_deformation(deform).require(NotADeformation)
    A = deform.base
    mu1 = deform.mus[0]
    bracket = A.tensor_of(lambda X, Y: mu1.eval([X, Y]) - mu1.eval([Y, X]))
    anchor = [list(mu1.sigma[(i,)].components) for i in range(A.rank)]
    return AlgebroidPresentation(
        base_vars=A.base_vars,
        rank=A.rank,
        product=A.product,
        bracket=bracket,
        anchor=anchor,
        identity=A.identity,
    )


def obstruction(deform: FormalDeformation) -> MultiDer:
    """Degree-3 obstruction cochain to extending past the stored order.

    Raises FalgError unless the obstruction is closed for the coboundary of
    the base viewed as pre-Lie, which holds for every valid deformation.
    """
    A = deform.base
    n = deform.order
    r = A.rank
    basis = [A.basis(i) for i in range(r)]

    def theta_sigma(X: Section, Y: Section) -> VectorField:
        total = VectorField.zero(A.n)
        for i in range(1, n + 1):
            j = n + 1 - i
            mi, mj = deform.mus[i - 1], deform.mus[j - 1]
            total = total + mi.sigma_eval([mj.eval([X, Y]) - mj.eval([Y, X])])
            total = total - vf_bracket(mi.sigma_eval([X]), mj.sigma_eval([Y]))
        return total

    theta = MultiDer.build(
        3,
        r,
        A.n,
        lambda idx: _order_k_residual(deform, n + 1, basis[idx[0]], basis[idx[1]], basis[idx[2]]),
        lambda idx: theta_sigma(basis[idx[0]], basis[idx[1]]),
    )
    if not d_def(as_prelie(A), theta).is_zero():
        raise FalgError("obstruction cochain is not closed; deformation data invalid")
    return theta


def extend(deform: FormalDeformation, psi: MultiDer) -> FormalDeformation:
    """Extend one order using psi as the next cochain.

    Succeeds exactly when the obstruction equals the coboundary of psi,
    including the symbol part: the coboundary over a commutative base
    has zero symbol, so the obstruction's symbol must vanish outright.
    """
    if psi.degree != 2:
        raise ShapeError("extension cochain must have degree 2")
    A = deform.base
    theta = obstruction(deform)
    residual = theta - d_def(as_prelie(A), psi)
    if not residual.is_zero():
        bad = next(
            (A.fmt(s) for s in residual.D.values() if not s.is_zero()),
            next((v.format(A.base_vars) for v in residual.sigma.values() if not v.is_zero()), "0"),
        )
        raise ObstructionNonzero(bad)
    extended = FormalDeformation(A, deform.mus + [psi])
    check_n_deformation(extended).require(NotADeformation)
    return extended


# -- cohomology over a point ----------------------------------------------


def _coord_args(r: int, degree: int) -> list[tuple]:
    """Frame index tuples of the coordinates: strictly increasing leading slots, free last slot."""
    return [head + (last,) for head in combinations(range(r), degree - 1) for last in range(r)]


def _coords(md: MultiDer, r: int, degree: int) -> list[Fraction]:
    """The coordinate vector of a point cochain: its E_k-components at the coordinate tuples."""
    vec = []
    for idx in _coord_args(r, degree):
        col = [Fraction(0)] * r
        for k, c in md.D[idx].entries:
            col[k] = c.constant_value()
        vec += col
    return vec


def _vector_to_multider(vec, r: int, degree: int) -> MultiDer:
    """The point cochain with coordinates vec."""
    cols = {idx: vec[t * r:(t + 1) * r] for t, idx in enumerate(_coord_args(r, degree))}
    return MultiDer.build(degree, r, 0, lambda idx: Section([RatFunc.const(0, c) for c in cols[idx]]))


def _d_matrix(A: AlgebroidPresentation, degree: int) -> list[list[Fraction]]:
    """Matrix of the coboundary from degree to degree+1: target coordinate rows, source columns.

    Read off the pre-Lie structure constants P = ``A.constants("prelie")`` (E_a⋆E_b = Σ_k P[a][b][k] E_k), with
    [E_a, E_b] = E_a⋆E_b − E_b⋆E_a: for the frame tuple head + (last,) of a target row, each
    x_i in head contributes x_i⋆ω(…, last), ω(…, x_i)⋆last and −ω(…, x_i⋆last), and each pair
    x_i, x_j contributes ω([x_i, x_j], …, last), with the signs of d_def_eval.
    """
    r = A.rank
    P = A.constants("prelie")
    heads = {h: i for i, h in enumerate(combinations(range(r), degree - 1))}
    zero, ncols = Fraction(0), len(heads) * r * r
    rows = []
    for *head, last in _coord_args(r, degree + 1):
        acc = [{} for _ in range(r)]  # acc[k][column] for the row of component k

        def add(k, lead, slot, m, c):
            """Add c·ω(E_lead…, E_slot)_m to component k; lead is sorted with its sign."""
            lead, sign = _sorted_sign(lead)
            if sign:
                j = (heads[lead] * r + slot) * r + m
                acc[k][j] = acc[k].get(j, 0) + sign * c

        for i, a in enumerate(head):
            s = 1 if i % 2 == 0 else -1
            rest = head[:i] + head[i + 1:]
            for m in range(r):
                for k, c in P[a][m].items():
                    add(k, rest, last, m, s * c)
                for k, c in P[m][last].items():
                    add(k, rest, a, m, s * c)
            for m, c in P[a][last].items():
                for k in range(r):
                    add(k, rest, m, k, -s * c)
            for j in range(i + 1, len(head)):
                b, others = head[j], rest[:j - 1] + rest[j:]
                bracket = {m: P[a][b].get(m, 0) - P[b][a].get(m, 0) for m in {*P[a][b], *P[b][a]}}
                for m, c in bracket.items():
                    for k in range(r):
                        add(k, [m] + others, last, k, (1 if (i + j) % 2 == 0 else -1) * c)
        rows += [[entries.get(j, zero) for j in range(ncols)] for entries in acc]
    return rows


@dataclass
class CohomologyResult:
    degree: int
    dim: int
    cocycle_dim: int
    coboundary_dim: int
    representatives: list[MultiDer]


def cohomology_point(algebra: FiniteAlgebra, degree: int) -> CohomologyResult:
    """Deformation cohomology of an algebra over a point by one elimination.

    In the rref of [image of d_in | kernel of d_out] the image pivots count the
    coboundaries, and the kernel pivots are cocycles independent modulo them.
    """
    if degree not in (2, 3):
        raise ShapeError("cohomology degree must be 2 or 3")
    A = as_prelie(algebra.to_presentation())
    if A.n != 0:
        raise BaseNotPoint("cohomology solver works over a point only")
    r = A.rank
    zero, one = Fraction(0), Fraction(1)
    d_in = _d_matrix(A, degree - 1)
    d_out = _d_matrix(A, degree)
    sparse_in = [{t: v for t, v in enumerate(col) if v} for col in zip(*d_in)]  # d is sparse
    sparse_out = [[(t, w) for t, w in enumerate(row) if w] for row in d_out]
    if any(sum(w * col[t] for t, w in row if t in col) for row in sparse_out for col in sparse_in):
        raise FalgError("coboundary composition is nonzero; internal error")
    # a zero row fixes the column count when the target space is zero-dimensional (degree > rank);
    # there every cochain is closed
    kernel = nullspace(d_out + [[zero] * (len(_coord_args(r, degree)) * r)], zero, one)
    n_in = len(d_in[0]) if d_in else 0
    _, pivots = rref([row + [v[i] for v in kernel] for i, row in enumerate(d_in)], one)
    image_dim = sum(c < n_in for c in pivots)
    reps = [_vector_to_multider(kernel[c - n_in], r, degree) for c in pivots if c >= n_in]
    return CohomologyResult(
        degree=degree,
        dim=len(kernel) - image_dim,
        cocycle_dim=len(kernel),
        coboundary_dim=image_dim,
        representatives=reps,
    )


def equivalence_check(
    A: AlgebroidPresentation,
    mu1: MultiDer,
    mu1_prime: MultiDer,
    phi: MultiDer | None = None,
) -> Report:
    """Decide whether two infinitesimal deformations differ by a coboundary.

    With a witness phi, verifies mu1 - mu1' = d phi directly. Without
    one, solves the linear system over a point. The symbol condition is
    checked independently since coboundaries over a commutative base
    carry no symbol.
    """
    P = as_prelie(A)
    report = Report("deformation equivalence")
    for name, m in (("mu1", mu1), ("mu1'", mu1_prime)):
        closed = d_def(P, m)
        ok = closed.is_zero()
        report.add("cocycle", name, ok, None if ok else "coboundary of candidate is nonzero")
    sig_ok = all(
        (mu1.sigma[idx] - mu1_prime.sigma[idx]).is_zero() for idx in mu1.sigma
    )
    report.add(
        "symbol-match",
        "sigma(mu1) = sigma(mu1')",
        sig_ok,
        None if sig_ok else "symbols differ",
    )
    diff = mu1 - mu1_prime
    if phi is not None:
        residual = diff - d_def(P, phi)
        ok = residual.is_zero()
        witness = None
        if not ok:
            witness = next(A.fmt(s) for s in residual.D.values() if not s.is_zero())
        report.add("coboundary-witness", "mu1 - mu1' = d(phi)", ok, witness)
        return report
    if A.n != 0:
        raise BaseNotPoint("solving for an equivalence needs a point base; supply phi")
    r = A.rank
    zero, one = Fraction(0), Fraction(1)
    d1 = _d_matrix(P, 1)
    target = _coords(diff, r, 2)
    sol = solve(d1, target, zero, one)
    ok = sol is not None
    witness = None
    if not ok:
        nz = next((A.fmt(s) for s in diff.D.values() if not s.is_zero()), "0")
        witness = nz
    report.add("coboundary-solve", "mu1 - mu1' in image of d", ok, witness)
    return report
