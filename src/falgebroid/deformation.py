"""Deformation complex of pre-Lie algebroids and formal deformations.

Cochains are multiderivations: multilinear in all but the last slot, where
a vector-field-valued symbol governs a Leibniz rule, and alternating in the
others, as in Dzhumadildaev's pre-Lie complex. The coboundary uses the
pre-Lie operation and its commutator bracket. A commutative associative
algebroid deforms as a pre-Lie algebroid with zero anchor, whose coboundary
has vanishing symbol, so the anchor data of a deformation lives entirely
in the symbols of its cochains. There d is linear over the base functions:
a cochain is its coordinate vector (``MultiDer``), d is a matrix of sparse
rows read off the structure constants, and D and sigma are views for outside
callers and for the tests' Section oracle, which evaluates cochains and the
coboundary of any pre-Lie algebroid on sections. The order-k residuals and
the obstruction are contracted from the tables of mu_0..mu_n and their
symbols (``algebroid._rule``); point cohomology is one elimination of
[image of d | kernel of d].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from itertools import chain, combinations, product as iproduct
from math import comb
from operator import add, sub

from .algebroid import AlgebroidPresentation, Section, VectorField
from .algebroid import _commutator_defect, _derivatives, _frame_rule, _point_labels, _prelie_tuples, _ratfunc, _rule
from .algebroid import _scaled_labels, _sweep
from .constructions import FiniteAlgebra
from .errors import (
    BaseNotPoint,
    FalgError,
    NotADeformation,
    ObstructionNonzero,
    ShapeError,
)
from .linalg import nullspace, rref, solve
from .report import Report
from .ring import RatFunc, _rational


def _sorted_sign(lead) -> tuple[tuple, int]:
    """The sorted leading slots and the sign of the sorting permutation, 0 when an index repeats."""
    key = tuple(sorted(lead))
    return key, 0 if len(set(key)) < len(key) else (-1) ** sum(a > b for a, b in combinations(lead, 2))


class MultiDer:
    """Multiderivation of fixed degree in a fixed frame, alternating in its leading slots, stored as its coordinate
    vector ``vec``: the E_k-components of D at the coordinate tuples (``_coord_args``), then the d/du^v-components of
    the symbol at the strictly increasing leading tuples; over a point ints, or Fractions where not integral, else
    RatFuncs.

    ``D`` (a Section at every index tuple of length ``degree``) and ``sigma`` (a VectorField at every one of length
    ``degree - 1``) are read-only views, built once. A cochain assembled by hand from D and sigma is read at the
    coordinate tuples only, so it must alternate in its leading slots.
    """

    __slots__ = ("degree", "rank", "nvars", "vec", "_views")

    def __init__(self, degree: int, rank: int, nvars: int, D: dict, sigma: dict):
        zero, at = _scalars(nvars)[0], 0
        vec = [zero] * _size(degree, rank, nvars)
        for s, width in chain(((D[idx], rank) for idx in _coord_args(rank, degree)),
                              ((sigma[head], nvars) for head in combinations(range(rank), degree - 1))):
            if s.rank != width:
                raise ShapeError(f"cochain values must have {width} components, not {s.rank}")
            for k, c in s.entries:
                vec[at + k] = c if nvars else _rational(c.constant_value())
            at += width
        self.degree, self.rank, self.nvars, self.vec, self._views = degree, rank, nvars, vec, None

    @classmethod
    def from_vector(cls, degree: int, rank: int, nvars: int, vec: list) -> "MultiDer":
        """The cochain with coordinate vector vec, of length ``_size(degree, rank, nvars)``."""
        md = cls.__new__(cls)
        md.degree, md.rank, md.nvars, md.vec, md._views = degree, rank, nvars, vec, None
        return md

    @staticmethod
    def zero(degree: int, rank: int, nvars: int) -> "MultiDer":
        return MultiDer.from_vector(degree, rank, nvars, [_scalars(nvars)[0]] * _size(degree, rank, nvars))

    @staticmethod
    def build(degree: int, rank: int, nvars: int, d_fn, sigma_fn=None) -> "MultiDer":
        """Construct from functions on index tuples, evaluated at the coordinate tuples and at the strictly increasing
        leading tuples of the symbol."""
        zv = VectorField.zero(nvars)
        return MultiDer(degree, rank, nvars, {idx: d_fn(idx) for idx in _coord_args(rank, degree)},
                        {head: (sigma_fn or (lambda idx: zv))(head) for head in combinations(range(rank), degree - 1)})

    @property
    def D(self) -> dict:
        return (self._views or self._build_views())[0]

    @property
    def sigma(self) -> dict:
        return (self._views or self._build_views())[1]

    def _build_views(self) -> tuple[dict, dict]:
        """D and sigma at every index tuple: the coordinates at their tuples; elsewhere the value at the sorted
        leading slots times the sign of the sort, or zero when an index repeats."""
        r, n, p, vec = self.rank, self.nvars, self.degree, self.vec
        args, at = _coord_args(r, p), comb(r, p - 1) * r * r  # at: the first symbol coordinate
        D = {idx: Section([_ratfunc(n, c) for c in vec[t * r:(t + 1) * r]]) for t, idx in enumerate(args)}
        sigma = {head: VectorField([_ratfunc(n, c) for c in vec[at + t * n:at + (t + 1) * n]])
                 for t, head in enumerate(combinations(range(r), p - 1))}

        def alternating(values, zero, length):
            out = {}
            for idx in iproduct(range(r), repeat=length):  # in lexicographic order, so out[key] is set
                lead, sign = _sorted_sign(idx[:p - 1])
                key = lead + idx[p - 1:]
                out[idx] = zero if not sign else values[idx] if key == idx else out[key] if sign > 0 else -out[key]
            return out

        self._views = alternating(D, Section.zero(r, n), p), alternating(sigma, VectorField.zero(n), p - 1)
        return self._views

    def is_zero(self) -> bool:
        return not any(self.vec)

    def witness(self, names: list[str]) -> str | None:
        """The text of the first nonzero D value, else of the first nonzero sigma value; None when zero. It sits at a
        coordinate tuple, since an unsorted leading tuple follows its sorted twin."""
        r, n, vec = self.rank, self.nvars, self.vec
        at = comb(r, self.degree - 1) * r * r  # the first symbol coordinate
        for start, stop, width, kind in ((0, at, r, Section), (at, len(vec), n, VectorField)):
            for t in range(start, stop, width or 1):
                if any(vec[t:t + width]):
                    return kind([_ratfunc(n, c) for c in vec[t:t + width]]).format(names)
        return None

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiDer) and (self.degree, self.rank, self.nvars, self.vec) == (
            other.degree, other.rank, other.nvars, other.vec)

    def _combine(self, other: "MultiDer", op) -> "MultiDer":
        """op applied coordinate by coordinate."""
        if (self.degree, self.rank, self.nvars) != (other.degree, other.rank, other.nvars):
            raise ShapeError("cochains of different degrees or frames")
        vec = list(map(_rational, map(op, self.vec, other.vec)))
        return MultiDer.from_vector(self.degree, self.rank, self.nvars, vec)

    def __add__(self, other: "MultiDer") -> "MultiDer":
        return self._combine(other, add)

    def __sub__(self, other: "MultiDer") -> "MultiDer":
        return self._combine(other, sub)

    def scale(self, c) -> "MultiDer":
        f = RatFunc.const(self.nvars, c) if self.nvars else _rational(Fraction(c))
        return MultiDer.from_vector(self.degree, self.rank, self.nvars, [_rational(v * f) for v in self.vec])


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

    def __post_init__(self):
        _in_frame(self.base, 2, "deformation cochains", *self.mus)


def _in_frame(A: AlgebroidPresentation, degree: int, what: str, *cochains: MultiDer):
    """ShapeError unless every cochain has the given degree in A's frame: A's rank, over A's base variables."""
    if any((m.degree, m.rank, m.nvars) != (degree, A.rank, A.n) for m in cochains):
        raise ShapeError(f"{what} must be degree-{degree} in the base frame")


def _tables(deform: FormalDeformation) -> tuple:
    """The presentation the deformation's contractions run over (``_view``, from every coordinate) and, for
    mu_0..mu_n, (D cells, sigma cells, D table, sigma table, sigma fields): the (idx, ((k, c), ...)) cells of the
    nonzero coordinates of D at (i, j) and of sigma at (x,), the tables {(i, j): {k: c}} of D and {(x,): {m: c}}
    of sigma, and sigma's nonzero vector fields by x. mu_0 is the base product, with zero symbol."""
    A, r, n = deform.base, deform.base.rank, deform.base.n

    def cell(vec, start, width):
        return tuple((k, c) for k, c in enumerate(vec[start:start + width]) if c)

    cells = [([((i, j), c) for i in range(r) for j in range(r) if (c := cell(m.vec, (i * r + j) * r, r))],
              [((x,), c) for x in range(r) if (c := cell(m.vec, r ** 3 + x * n, n))]) for m in deform.mus]
    if n:  # over a point the coordinates are the numbers the contractions sum
        A = A._view(*(c for m in deform.mus for c in m.vec))
    orders, value = [(A._entries("product"), [], A.constants("product"), {}, {})], A._value if n else _rational
    for D, sigma in cells:
        orders.append((D, sigma, {idx: {k: value(c) for k, c in cell} for idx, cell in D},
                       {idx: {k: value(c) for k, c in cell} for idx, cell in sigma},
                       {x: VectorField._of(cell, n, n) for (x,), cell in sigma}))
    return A, orders


def _pairs(deform: FormalDeformation, k: int, tables: tuple) -> list:
    """The pairs of the order-k rule of the deformed product (``_rule``), mu_(k-i) inside mu_i with mu_i's symbol,
    from the ``_tables`` of the deformation."""
    (A, orders), n, pairs = tables, deform.order, []
    for i in range(max(0, k - n), min(k, n) + 1):  # only i and k - i up to the stored order have cochains
        (D, sigma, S, _, _), (_, _, T, a, fields) = orders[k - i], orders[i]
        pairs.append((S, T, _derivatives(fields, D, A._value), a, _derivatives(fields, sigma, A._value)))
    return pairs


def check_n_deformation(deform: FormalDeformation) -> Report:
    """Order-by-order pre-Lie conditions for the deformed product.

    Checked on basis triples and, over a positive-dimensional base, on
    triples with the third slot scaled by each base variable; these
    instances exercise the symbol (anchor) compatibilities. A scaled first
    or second slot only multiplies the frame residual by u^m.
    """
    A, tables = deform.base, _tables(deform)
    report = Report(f"pre-Lie {deform.order}-deformation")
    for k in range(deform.order + 1):
        rule = _rule(tables[0], _pairs(deform, k, tables))
        _sweep(A, report, [(_prelie_tuples(_point_labels(A), _scaled_labels(A)), ("pre-lie-rule", rule))],
               prefix=f"order {k} ")
    return report


def semiclassical_limit(deform: FormalDeformation) -> AlgebroidPresentation:
    """Structure extracted from the first-order cochain.

    The bracket is the commutator of mu_1 and the anchor is its symbol;
    the result carries the undeformed product.
    """
    if deform.order < 1:
        raise NotADeformation("semi-classical limit needs order >= 1")
    check_n_deformation(deform).require(NotADeformation)
    A, r, n = deform.base, deform.base.rank, deform.base.n
    vec, ix = deform.mus[0].vec, range(r)  # mu1(E_i, E_j)^k at (i·r + j)·r + k, then sigma's rows: it sees only 1
    cells = (((i, j), tuple((k, _ratfunc(n, c)) for k in ix
                            if (c := vec[(i * r + j) * r + k] - vec[(j * r + i) * r + k]))) for i in ix for j in ix)
    fields = {i: VectorField([_ratfunc(n, c) for c in vec[r ** 3 + i * n:r ** 3 + (i + 1) * n]]) for i in ix}
    tables = {"product": A._tables["product"], "bracket": {ij: cell for ij, cell in cells if cell}}
    return AlgebroidPresentation._of(A.base_vars, r, tables, fields, A.identity)


def obstruction(deform: FormalDeformation) -> MultiDer:
    """Degree-3 obstruction cochain to extending past the stored order.

    Its values on frame triples are the next order's residual (``_frame_rule``) and its symbol on frame pairs is
    β (``_commutator_defect``), both contracted from the tables. Raises FalgError unless the sparse rows of d
    (``_d_matrix``) annihilate it, which holds for every valid deformation.
    """
    A, r = deform.base, deform.base.rank
    pairs = _pairs(deform, deform.order + 1, _tables(deform))
    zero, value = _scalars(A.n)
    vec = []
    for table, tuples, width in ((_frame_rule(pairs), _coord_args(r, 3), r),
                                 (_commutator_defect(pairs), combinations(range(r), 2), A.n)):
        for idx in tuples:
            res = table.get(idx, {})
            vec += [value(res[k]) if k in res else zero for k in range(width)]
    if any(_d_times(_d_matrix(A, 3), vec, zero)):
        raise FalgError("obstruction cochain is not closed; deformation data invalid")
    return MultiDer.from_vector(3, r, A.n, vec)


def extend(deform: FormalDeformation, psi: MultiDer) -> FormalDeformation:
    """Extend one order using psi as the next cochain.

    Succeeds exactly when the obstruction equals the coboundary of psi,
    including the symbol part: the coboundary over a commutative base
    has zero symbol, so the obstruction's symbol must vanish outright.
    """
    A = deform.base
    _in_frame(A, 2, "extension cochain", psi)
    d_psi = _d_times(_d_matrix(A, 2), psi.vec, _scalars(A.n)[0])
    bad = (obstruction(deform) - MultiDer.from_vector(3, A.rank, A.n, d_psi)).witness(A.base_vars)
    if bad is not None:
        raise ObstructionNonzero(bad)
    extended = FormalDeformation(A, deform.mus + [psi])
    check_n_deformation(extended).require(NotADeformation)
    return extended


# -- coordinate vectors, coboundary rows, cohomology over a point ---------


def _coord_args(r: int, degree: int) -> list[tuple]:
    """Frame index tuples of the coordinates: strictly increasing leading slots, free last slot."""
    return [head + (last,) for head in combinations(range(r), degree - 1) for last in range(r)]


def _size(degree: int, rank: int, nvars: int) -> int:
    """The number of coordinates of a degree-``degree`` cochain; ShapeError unless degree >= 1."""
    if degree < 1:
        raise ShapeError("multiderivation degree must be >= 1")
    return comb(rank, degree - 1) * (rank * rank + nvars)


def _scalars(n: int) -> tuple:
    """The zero of a coordinate vector over n base variables and the conversion of a contraction's entry into it:
    over a point an int, or a Fraction where not integral (``_rational``), else a ``RatFunc``."""
    return (0, _rational) if not n else (RatFunc.zero(n), partial(_ratfunc, n))


def _d_matrix(A: AlgebroidPresentation, degree: int) -> list[dict]:
    """Matrix of the coboundary from degree to degree+1 in the complex that deforms A, its product as the pre-Lie
    operation with zero anchor: one sparse row {source column: c} per target coordinate, in coordinate order.

    Read off the product's structure constants P = ``A.constants("product")`` (E_a⋆E_b = Σ_k P[a, b][k] E_k), with
    [E_a, E_b] = E_a⋆E_b − E_b⋆E_a: for the frame tuple head + (last,) of a target row, each
    x_i in head contributes x_i⋆ω(…, last), ω(…, x_i)⋆last and −ω(…, x_i⋆last), and each pair
    x_i, x_j contributes ω([x_i, x_j], …, last), with the signs of ``d_def_eval`` in the tests' oracle.
    Over a base, the Leibniz rule of ω's last slot adds −σ(…)(P[a, last][m])·E_m to
    −ω(…, x_i⋆last): the entry ∂_v P[a, last][m] at the column of σ(…)'s d/du^v. The symbol
    rows of dω at head are the pair terms σ([x_i, x_j], …), the anchor terms being zero. Entries are
    ints, or Fractions where not integral, over a point, else RatFuncs.
    """
    r, n = A.rank, A.n
    zero, value = _scalars(n)
    P = {ab: {k: value(c) for k, c in cell.items()} for ab, cell in A.constants("product").items()}
    dP = {}  # dP[a, b] = [(m, v, ∂_v P[a, b][m])]
    fields = {v: VectorField.basis(n, n, v) for v in range(n)}
    for (v, a, b), cell in _derivatives(fields, A._entries("product"), value).items():
        dP.setdefault((a, b), []).extend((m, v, c) for m, c in cell.items())
    signed = P, {ab: {k: -c for k, c in cell.items()} for ab, cell in P.items()}  # (-1)^i·P, by i % 2
    dsigned = dP, {ab: [(m, v, -c) for m, v, c in terms] for ab, terms in dP.items()}
    heads = {h: i for i, h in enumerate(combinations(range(r), degree - 1))}
    at, rows, symbol_rows = len(heads) * r * r, [], []  # at: the first symbol column
    for head in combinations(range(r), degree):
        brackets = {}  # {leading tuple index: c}, Σ_(i<j) ±ω([x_i, x_j], others, …) = Σ c·ω(E_lead, …)
        for i, a in enumerate(head):
            for j in range(i + 1, degree):
                b, others = head[j], head[:i] + head[i + 1:j] + head[j + 1:]
                ab, ba = P.get((a, b), {}), P.get((b, a), {})
                for m in {*ab, *ba}:
                    lead, sign = _sorted_sign((m,) + others)
                    if sign:
                        c, h = ab.get(m, zero) - ba.get(m, zero), heads[lead]
                        c = c if sign == (1 if (i + j) % 2 == 0 else -1) else -c
                        brackets[h] = brackets[h] + c if h in brackets else c
        brackets = {h: c for h, c in brackets.items() if c}
        rest = [heads[head[:i] + head[i + 1:]] for i in range(degree)]  # the rest of head increases, as head does
        for last in range(r):
            acc = [{} for _ in range(r)]  # acc[k][column] for the row of component k

            def add(k, j, c):
                """Add c to column j of component k."""
                row = acc[k]
                row[j] = row[j] + c if j in row else c

            for i, a in enumerate(head):
                S, T, h = signed[i % 2], signed[1 - i % 2], rest[i] * r
                for m in range(r):  # column (h + slot) * r + m holds ω(E_rest…, E_slot)_m
                    for k, c in S.get((a, m), {}).items():
                        add(k, (h + last) * r + m, c)
                    for k, c in S.get((m, last), {}).items():
                        add(k, (h + a) * r + m, c)
                for m, c in T.get((a, last), {}).items():
                    for k in range(r):
                        add(k, (h + m) * r + k, c)
                for m, v, c in dsigned[1 - i % 2].get((a, last), ()):  # none over a point
                    add(m, at + rest[i] * n + v, c)
            for h, c in brackets.items():
                for k in range(r):
                    add(k, (h * r + last) * r + k, c)
            rows += [{j: _rational(c) for j, c in entries.items() if c} for entries in acc]
        symbol_rows += [{at + h * n + v: c for h, c in brackets.items()} for v in range(n)]
    return rows + symbol_rows


def _d_times(rows: list[dict], vec: list, zero=0) -> list:
    """The sparse rows of a coboundary matrix applied to a coordinate vector with zero ``zero``, skipping its zeros."""
    return [sum((c * vec[j] for j, c in row.items() if vec[j]), zero) for row in rows]


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
    A = algebra.to_presentation()
    r = A.rank
    n_in, n_out = (len(_coord_args(r, p)) * r for p in (degree - 1, degree))
    d_in, d_out = _d_matrix(A, degree - 1), _d_matrix(A, degree)
    for row in d_out:  # the row of d_out∘d_in: the rows of d_in summed with row's coefficients
        acc = {}
        for j, c in row.items():
            for i, v in d_in[j].items():
                acc[i] = acc.get(i, 0) + c * v
        if any(acc.values()):
            raise FalgError("coboundary composition is nonzero; internal error")
    kernel = nullspace(d_out, n_out)
    image = [{**row, **{n_in + t: v[i] for t, v in enumerate(kernel) if v[i]}} for i, row in enumerate(d_in)]
    _, pivots = rref(image, n_in + len(kernel))
    image_dim = sum(c < n_in for c in pivots)
    reps = [MultiDer.from_vector(degree, r, 0, kernel[c - n_in]) for c in pivots if c >= n_in]
    return CohomologyResult(degree=degree, dim=len(kernel) - image_dim, cocycle_dim=len(kernel),
                            coboundary_dim=image_dim, representatives=reps)


def equivalence_check(A: AlgebroidPresentation, mu1: MultiDer, mu1_prime: MultiDer,
                      phi: MultiDer | None = None) -> Report:
    """Decide whether two infinitesimal deformations differ by a coboundary.

    With a witness phi, verifies mu1 - mu1' = d phi directly. Without
    one, solves the linear system over a point. The symbol condition is
    checked independently since coboundaries over a commutative base
    carry no symbol.
    """
    _in_frame(A, 2, "mu1 and mu1'", mu1, mu1_prime)
    if phi is not None:
        _in_frame(A, 1, "phi", phi)
    elif A.n != 0:
        raise BaseNotPoint("solving for an equivalence needs a point base; supply phi")
    r, zero = A.rank, _scalars(A.n)[0]
    report = Report("deformation equivalence")
    rows = cache(partial(_d_matrix, A))

    def d(m: MultiDer) -> MultiDer:
        return MultiDer.from_vector(m.degree + 1, r, A.n, _d_times(rows(m.degree), m.vec, zero))

    for name, m in (("mu1", mu1), ("mu1'", mu1_prime)):
        ok = d(m).is_zero()
        report.add("cocycle", name, ok, None if ok else "coboundary of candidate is nonzero")
    diff = mu1 - mu1_prime
    sig_ok = not any(diff.vec[r ** 3:])
    report.add("symbol-match", "sigma(mu1) = sigma(mu1')", sig_ok, None if sig_ok else "symbols differ")
    if phi is not None:
        law, instance, residual = "coboundary-witness", "mu1 - mu1' = d(phi)", diff - d(phi)
    else:
        law, instance, residual = "coboundary-solve", "mu1 - mu1' in image of d", diff
        if solve(rows(1), r * r, diff.vec) is not None:
            residual = MultiDer.zero(2, r, 0)
    witness = residual.witness(A.base_vars)
    report.add(law, instance, witness is None, witness)
    return report
