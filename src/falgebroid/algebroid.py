"""Algebroid presentations and structure verification.

A presentation fixes a global frame E_1..E_r over a polynomial base with
variables u^1..u^n. The product, bracket and pre-Lie operation are given
by structure tensors of rational functions; evaluation on general
sections expands the Leibniz rules through the anchor, so differential
identities can be verified exactly on symbolic arguments. A vector field is
a section of the tangent frame d/du^1..d/du^n: ``VectorField`` is the
``Section`` of rank n, and the anchor sends sections to it.

Within one law sweep (``check_laws`` runs a whole check as one), ``multiply``,
``bracket_of``, ``prelie_of``, ``p_tensor``, ``psi`` and ``prelie_associator`` are
memoized on the presentation, keyed by the method and the ``id`` of each argument
section. An entry keeps its arguments alive, so no id is reused while it exists,
and a hit returns the same immutable ``Section``, so chained calls hit too. The
law families take their frame sections from lists memoized the same way, so
their keys match across families. The outermost sweep opens the memo and
drops it on leaving; outside a sweep every method computes afresh.
"""

from __future__ import annotations

from functools import wraps
from itertools import chain, combinations, combinations_with_replacement
from itertools import product as iproduct

from .errors import MissingStructure, ShapeError
from .linalg import solve
from .report import Report
from .ring import RatFunc

_TENSORS = ("product", "bracket", "prelie")
Tensor = list  # rank x rank x rank nested lists of RatFunc, output-index major
Table = list  # compiled tensor: table[i][j] = ((k, c), ...), the nonzero E_k-parts c of E_i∘E_j


class Section:
    """Element of the free module spanned by the frame, r components.

    ``entries`` holds the nonzero ``(k, RatFunc)`` pairs in ascending k, beside
    ``rank`` and ``nvars``; ``components`` is the dense tuple, built on each read.
    Arithmetic builds the operand's own type, so ``VectorField`` inherits it.
    """

    __slots__ = ("entries", "rank", "nvars")

    def __init__(self, components):
        components = tuple(components)
        self.entries = tuple((k, c) for k, c in enumerate(components) if c.num.coeffs)
        self.rank, self.nvars = len(components), components[0].nvars if components else 0

    @classmethod
    def _of(cls, entries: tuple, rank: int, nvars: int) -> "Section":
        s = object.__new__(cls)
        s.entries, s.rank, s.nvars = entries, rank, nvars
        return s

    @classmethod
    def _from_dict(cls, acc: dict, rank: int, nvars: int) -> "Section":
        """The section with components ``acc[k]``, exact zeros dropped."""
        if len(acc) > 1:
            entries = tuple((k, acc[k]) for k in sorted(acc) if acc[k].num.coeffs)
        else:  # 0 or 1 entries, 99.9% of law-sweep results: no sort and no generator
            entries = tuple(acc.items()) if acc and next(iter(acc.values())).num.coeffs else ()
        return cls._of(entries, rank, nvars)

    @staticmethod
    def zero(rank: int, nvars: int) -> "Section":
        return Section._of((), rank, nvars)

    @classmethod
    def basis(cls, rank: int, nvars: int, i: int) -> "Section":
        return cls._of(((i, RatFunc.one(nvars)),), rank, nvars)

    @property
    def components(self) -> tuple:
        out = [RatFunc.zero(self.nvars)] * self.rank
        for k, c in self.entries:
            out[k] = c
        return tuple(out)

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        if not isinstance(other, Section):
            return False
        return (self.rank, self.nvars, self.entries) == (other.rank, other.nvars, other.entries)

    def __hash__(self):
        return hash((self.rank, self.entries))

    def __add__(self, other: "Section") -> "Section":
        if self.rank != other.rank:
            raise ShapeError(f"cannot combine sections of ranks {self.rank} and {other.rank}")
        if not other.entries or not self.entries:
            return other if not self.entries else self
        acc = dict(self.entries)
        for k, c in other.entries:
            cur = acc.get(k)
            acc[k] = c if cur is None else cur + c
        return self._from_dict(acc, self.rank, self.nvars)

    def __sub__(self, other: "Section") -> "Section":
        return self + -other

    def __neg__(self) -> "Section":
        return self._of(tuple((k, -c) for k, c in self.entries), self.rank, self.nvars)

    def scale_fn(self, f: RatFunc) -> "Section":
        entries = tuple((k, f * c) for k, c in self.entries) if f.num.coeffs else ()
        return self._of(entries, self.rank, self.nvars)

    def format(self, names: list[str]) -> str:
        return ", ".join(c.format(names) for c in self.components)

    def __repr__(self):
        return f"{type(self).__name__}({list(self.components)!r})"


class VectorField(Section):
    """Derivation of the coefficient ring, the section sum v^m d/du^m of the tangent frame; rank = nvars."""

    __slots__ = ()

    @classmethod
    def zero(cls, nvars: int) -> "VectorField":
        return cls._of((), nvars, nvars)

    def apply(self, f: RatFunc) -> RatFunc:
        """Apply as a derivation to a coefficient function."""
        return f.derive_along(self.entries)

    def format(self, names: list[str]) -> str:
        return "[" + super().format(names) + "]"


def vf_bracket(v: VectorField, w: VectorField) -> VectorField:
    """Commutator [v, w]^m = v(w^m) - w(v^m)."""
    if v.rank != w.rank:
        raise ShapeError(f"cannot bracket vector fields of sizes {v.rank} and {w.rank}")
    vw = VectorField._from_dict({m: v.apply(c) for m, c in w.entries}, w.rank, w.nvars)
    return vw - VectorField._from_dict({m: w.apply(c) for m, c in v.entries}, v.rank, v.nvars)


def _compile(tensor: Tensor, rank: int) -> Table:
    """The table of a tensor's nonzero structure constants."""
    r = range(rank)
    return [[tuple((k, m[i][j]) for k, m in enumerate(tensor) if m[i][j].num.coeffs) for j in r] for i in r]


def _memo(method):
    """``method`` reusing, inside a sweep, its result on the same argument objects."""

    @wraps(method)
    def memoized(self, *args):
        if self._memo is None:
            return method(self, *args)
        key = (method, *map(id, args))
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = (method(self, *args), args)  # args pin their ids
        return hit[0]

    return memoized


class AlgebroidPresentation:
    """Structure tensors of an algebroid in a fixed global frame.

    ``product``, ``bracket`` and ``prelie`` are rank³ nested lists with
    the output index first: product[k][i][j] is the E_k-component of
    E_i·E_j. ``anchor`` is a list of rank rows, row i holding the
    components of the vector field a(E_i). ``n`` counts the base
    variables; n = 0 encodes an algebra over a point. Each tensor is
    compiled once, here, into a ``Table`` of its nonzero constants.
    """

    def __init__(self, base_vars, rank, product, bracket=None, prelie=None, anchor=None, identity=None):
        self.base_vars = list(base_vars)
        self.n = len(self.base_vars)
        self.rank = rank
        self.product = product
        self.bracket = bracket
        self.prelie = prelie
        self.anchor = anchor
        self.identity = identity
        self._check_shapes()
        present = [(name, getattr(self, name)) for name in _TENSORS]
        self._tables = {name: _compile(t, rank) for name, t in present if t is not None}
        self._points = {}
        self._memo = None  # the sweep memo, a dict only while a sweep runs
        fields = enumerate(map(VectorField, anchor or ()))
        self._anchors = {i: vf for i, vf in fields if vf.entries}  # the nonzero a(E_i)

    def _check_shapes(self):
        r, n = self.rank, self.n
        if r < 1:
            raise ShapeError("rank must be at least 1")
        for name, tensor in (("product", self.product), ("bracket", self.bracket), ("prelie", self.prelie)):
            if tensor is None:
                continue
            if len(tensor) != r or any(len(m) != r or any(len(row) != r for row in m) for m in tensor):
                raise ShapeError(f"{name} tensor must be {r}x{r}x{r}")
        if self.anchor is not None:
            if len(self.anchor) != r or any(len(row) != n for row in self.anchor):
                raise ShapeError(f"anchor must be {r}x{n}")
        if self.identity is not None and self.identity.rank != r:
            raise ShapeError("identity section has wrong rank")

    # -- frames and sections ------------------------------------------

    def basis(self, i: int) -> Section:
        return Section.basis(self.rank, self.n, i)

    def var_fn(self, m: int) -> RatFunc:
        return RatFunc.var(self.n, m)

    def scaled_basis(self, m: int, i: int) -> Section:
        """Section u^m · E_i, the spanning test argument for differential laws."""
        return self.basis(i).scale_fn(self.var_fn(m))

    @_memo
    def _frame(self) -> list:
        """The frame E_i; inside a sweep built once, so law families share memo keys."""
        return [self.basis(i) for i in range(self.rank)]

    @_memo
    def _scaled(self) -> list:
        """The sections u^m·E_i, m-major; inside a sweep built once, like ``_frame``."""
        return [self.scaled_basis(m, i) for m in range(self.n) for i in range(self.rank)]

    def anchor_of(self, X: Section) -> VectorField:
        out = VectorField.zero(self.n)
        for i, xi in X.entries:
            if i in self._anchors:
                out = out + self._anchors[i].scale_fn(xi)
        return out

    # -- evaluation ----------------------------------------------------

    @staticmethod
    def _contract(table: Table, X: Section, Y: Section) -> dict:
        """The E_k-components of sum X^i Y^j E_i∘E_j, keyed by k, from the nonzeros only."""
        out = {}
        for i, xi in X.entries:
            row = table[i]
            for j, yj in Y.entries:
                cell = row[j]
                if not cell:
                    continue
                w = xi * yj
                for k, c in cell:
                    t = w * c
                    cur = out.get(k)
                    out[k] = t if cur is None else cur + t
        return out

    @_memo
    def multiply(self, X: Section, Y: Section) -> Section:
        if X.rank != self.rank or Y.rank != self.rank:
            raise ShapeError("section rank mismatch")
        return Section._from_dict(self._contract(self._tables["product"], X, Y), self.rank, self.n)

    def _derivation_terms(self, out: dict, X: Section, Y: Section, sign: int = 1):
        """Add sign * sum_i X^i a(E_i)(Y^k) E_k into the components ``out``."""
        for i, xi in X.entries:
            a_i = self._anchors.get(i)
            if a_i is None:
                continue
            for k, yk in Y.entries:
                d = a_i.apply(yk)
                if d.is_zero():
                    continue
                t = xi * d if sign > 0 else -(xi * d)
                cur = out.get(k)
                out[k] = t if cur is None else cur + t

    def _require(self, name: str) -> Table:
        """The table of the named operation; MissingStructure without it or a needed anchor."""
        table = self._tables.get(name)
        if table is None:
            raise MissingStructure(name)
        if self.n > 0 and self.anchor is None:
            raise MissingStructure("anchor")
        return table

    def constants(self, name: str) -> list:
        """Over a point, the named table as Fractions t[i][j] = {k: c}, converted once; MissingStructure without it."""
        if name not in self._points:
            self._points[name] = [[{k: c.constant_value() for k, c in cell} for cell in r] for r in self._require(name)]
        return self._points[name]

    @_memo
    def bracket_of(self, X: Section, Y: Section) -> Section:
        out = self._contract(self._require("bracket"), X, Y)
        self._derivation_terms(out, X, Y)
        self._derivation_terms(out, Y, X, -1)
        return Section._from_dict(out, self.rank, self.n)

    @_memo
    def prelie_of(self, X: Section, Y: Section) -> Section:
        out = self._contract(self._require("prelie"), X, Y)
        self._derivation_terms(out, X, Y)
        return Section._from_dict(out, self.rank, self.n)

    def tensor_of(self, op) -> Tensor:
        """The tensor t with t[k][i][j] the E_k-part of op(E_i, E_j)."""
        r = range(self.rank)
        vals = [[op(self.basis(i), self.basis(j)).components for j in r] for i in r]
        return [[[vals[i][j][k] for j in r] for i in r] for k in r]

    def matrix_of(self, f) -> list:
        """The matrix m with m[k][j] the E_k-part of f(E_j)."""
        r = range(self.rank)
        cols = [f(self.basis(j)).components for j in r]
        return [[cols[j][k] for j in r] for k in r]

    # -- derived tensors ------------------------------------------------

    @_memo
    def p_tensor(self, X: Section, Y: Section, Z: Section) -> Section:
        """P_X(Y,Z) = [X, Y·Z] - [X,Y]·Z - Y·[X,Z]."""
        return (
            self.bracket_of(X, self.multiply(Y, Z))
            - self.multiply(self.bracket_of(X, Y), Z)
            - self.multiply(Y, self.bracket_of(X, Z))
        )

    def phi(self, X: Section, Y: Section, Z: Section, W: Section) -> Section:
        """Failure of the Hertling-Manin relation, a (4,1) tensor."""
        return (
            self.p_tensor(self.multiply(X, Y), Z, W)
            - self.multiply(X, self.p_tensor(Y, Z, W))
            - self.multiply(Y, self.p_tensor(X, Z, W))
        )

    @_memo
    def psi(self, X: Section, Y: Section, Z: Section) -> Section:
        """Psi(X,Y,Z) = X*(Y·Z) - (X*Y)·Z - Y·(X*Z), a (3,1) tensor."""
        return (
            self.prelie_of(X, self.multiply(Y, Z))
            - self.multiply(self.prelie_of(X, Y), Z)
            - self.multiply(Y, self.prelie_of(X, Z))
        )

    @_memo
    def prelie_associator(self, X: Section, Y: Section, Z: Section) -> Section:
        return self.prelie_of(self.prelie_of(X, Y), Z) - self.prelie_of(X, self.prelie_of(Y, Z))

    def jacobiator(self, X: Section, Y: Section, Z: Section) -> Section:
        return (
            self.bracket_of(self.bracket_of(X, Y), Z)
            + self.bracket_of(self.bracket_of(Y, Z), X)
            + self.bracket_of(self.bracket_of(Z, X), Y)
        )

    # -- helpers ---------------------------------------------------------

    def fmt(self, s: Section) -> str:
        return s.format(self.base_vars)

    def with_structures(self, **changes) -> "AlgebroidPresentation":
        """Copy with the named structures (product, bracket, prelie, anchor, identity) replaced."""
        fields = {name: getattr(self, name) for name in (*_TENSORS, "anchor", "identity")}
        fields.update((name, value) for name, value in changes.items() if value is not None)
        return AlgebroidPresentation(self.base_vars, self.rank, **fields)

    def basis_name(self, i: int) -> str:
        return f"E{i + 1}"


# -- law engine ------------------------------------------------------------
#
# Every law is a residual that must vanish on labelled test sections: the
# frame E_i in tensorial slots, and also the frame scaled by each base
# variable, u^m·E_i, in slots where a Leibniz rule could break the law.


def _frame_args(A: AlgebroidPresentation):
    """The frame sections E_i, labelled by name."""
    return [(A.basis_name(i), E) for i, E in enumerate(A._frame())]


def _scaled_args(A: AlgebroidPresentation, variables=None):
    """The frame scaled by each base variable (or by those listed), u^m·E_i."""
    ms, r, scaled = range(A.n) if variables is None else variables, A.rank, A._scaled()
    return [(f"{A.base_vars[m]}*{A.basis_name(i)}", scaled[m * r + i]) for m in ms for i in range(r)]


def _prelie_tuples(frame, scaled):
    """Frame triples, then triples with each slot in turn scaled."""
    return chain(
        iproduct(frame, frame, frame),
        iproduct(scaled, frame, frame),
        iproduct(frame, scaled, frame),
        iproduct(frame, frame, scaled),
    )


def _record(A: AlgebroidPresentation, report: Report, law: str, instance: str, res):
    """Record one instance; the residual, a Section or over a point a dict {k: c}, is formatted only when nonzero."""
    if isinstance(res, dict):
        if not any(res.values()):
            return report.add(law, instance, True)
        res = Section._from_dict({k: RatFunc.const(0, c) for k, c in res.items() if c}, A.rank, 0)
    if res.is_zero():
        report.add(law, instance, True)
    else:
        report.add(law, instance, False, A.fmt(res))


def _sweep(A: AlgebroidPresentation, report: Report, table, prefix: str = "") -> Report:
    """Run a law table into ``report`` and return it.

    Each row is (argument tuples, (law, residual), ...). Every tuple of
    labelled arguments is one instance, named ``prefix(name,...)``, and
    the row's laws are checked on it in turn, under the sweep memo.
    """
    memo = A._memo
    A._memo = {} if memo is None else memo
    try:
        for cases, *laws in table:
            for case in cases:
                names, args = zip(*case)
                instance = f"{prefix}({','.join(names)})"
                for law, residual in laws:
                    _record(A, report, law, instance, residual(*args))
    finally:
        A._memo = memo
    return report


# -- laws over a point: each residual is a polynomial in the structure constants,
# summed on frame indices from ``A.constants``, where E_i∘E_j is the cell t[i][j].


def _point_frame(A: AlgebroidPresentation):
    """The frame indices i, labelled E_i."""
    return [(A.basis_name(i), i) for i in range(A.rank)]


def _sum(*terms) -> dict:
    """Σ s·Σ_a u_a·rows[a] over terms (s, u, rows) of a sign, a vector {a: x} and rows {k: c}.

    With rows t[i] a term is s·E_i∘u; with rows the column (t[a][j])_a it is s·u∘E_j.
    """
    out = {}
    for s, u, rows in terms:
        for a, x in u.items():
            for k, c in rows[a].items():
                out[k] = out.get(k, 0) + x * c if s > 0 else out.get(k, 0) - x * c
    return out


def _point_psi(A: AlgebroidPresentation):
    """Over a point, the residuals Ψ(E_i,E_j,E_k) and Ψ(E_i,E_j,E_k) - Ψ(E_j,E_i,E_k) on frame indices."""
    M, P, MC = A.constants("product"), A.constants("prelie"), list(zip(*A.constants("product")))
    psi = lambda i, j, k, s=1: ((s, M[j][k], P[i]), (-s, P[i][j], MC[k]), (-s, P[i][k], M[j]))  # noqa: E731
    return lambda i, j, k: _sum(*psi(i, j, k)), lambda i, j, k: _sum(*psi(i, j, k), *psi(j, i, k, -1))


# -- law families: each maps a presentation to its ``_sweep`` rows ---------


def _comm_assoc(A: AlgebroidPresentation) -> list:
    mul, frame = A.multiply, _frame_args(A)
    sym = lambda X, Y: mul(X, Y) - mul(Y, X)  # noqa: E731
    assoc = lambda X, Y, Z: mul(mul(X, Y), Z) - mul(X, mul(Y, Z))  # noqa: E731
    if A.n == 0:
        frame, M, MC = _point_frame(A), A.constants("product"), list(zip(*A.constants("product")))
        sym = lambda i, j: _sum((1, {j: 1}, M[i]), (-1, {i: 1}, M[j]))  # noqa: E731
        assoc = lambda i, j, k: _sum((1, M[i][j], MC[k]), (-1, M[j][k], M[i]))  # noqa: E731
    return [
        (combinations(frame, 2), ("product-symmetry", sym)),
        (iproduct(frame, repeat=3), ("associativity", assoc)),
    ]


def _lie(A: AlgebroidPresentation) -> list:
    """Antisymmetry and Jacobi, including variable-scaled arguments.

    Scaling the first slot by each base variable makes the Jacobi sweep
    sensitive to anchor inconsistencies: the scaled residual picks up
    (a([Y,Z]) - [a(Y),a(Z)])(f)·X on top of f times the basis residual.
    """
    br, frame, jacobi = A.bracket_of, _frame_args(A), A.jacobiator
    antisym = lambda X, Y: br(X, Y) + br(Y, X)  # noqa: E731
    if A.n == 0:
        frame, B, BC = _point_frame(A), A.constants("bracket"), list(zip(*A.constants("bracket")))
        antisym = lambda i, j: _sum((1, {j: 1}, B[i]), (1, {i: 1}, B[j]))  # noqa: E731
        jacobi = lambda i, j, k: _sum((1, B[i][j], BC[k]), (1, B[j][k], BC[i]), (1, B[k][i], BC[j]))  # noqa: E731
    return [
        (combinations_with_replacement(frame, 2), ("bracket-antisymmetry", antisym)),
        (iproduct(frame + _scaled_args(A), frame, frame), ("jacobi", jacobi)),
    ]


def _hertling_manin(A: AlgebroidPresentation) -> list:
    """Hertling-Manin on frame quadruples, which suffice because the failure tensor Phi is a (4,1) tensor field."""
    return [(iproduct(_frame_args(A), repeat=4), ("hertling-manin", A.phi))]


def _pre_lie(A: AlgebroidPresentation) -> list:
    """Symmetry of the associator in its first two slots.

    Besides basis triples, each slot is scaled by each base variable in
    turn. First- and second-slot scalings exercise the two Leibniz rules;
    the third-slot scaling exposes any mismatch between the anchor and
    the sub-adjacent bracket, since the scaled residual contains
    ([a(X),a(Y)] - a(X*Y - Y*X))(f)·Z.
    """
    assoc, frame = A.prelie_associator, _frame_args(A)
    sym = lambda X, Y, Z: assoc(X, Y, Z) - assoc(Y, X, Z)  # noqa: E731
    if A.n == 0:  # (E_i⋆E_j)⋆E_k - E_i⋆(E_j⋆E_k) - (E_j⋆E_i)⋆E_k + E_j⋆(E_i⋆E_k)
        frame, P, PC = _point_frame(A), A.constants("prelie"), list(zip(*A.constants("prelie")))
        sym = lambda i, j, k: _sum(  # noqa: E731
            (1, P[i][j], PC[k]), (-1, P[j][k], P[i]), (-1, P[j][i], PC[k]), (1, P[i][k], P[j]))
    return [(_prelie_tuples(frame, _scaled_args(A)), ("pre-lie-symmetry", sym))]


def _psi_symmetry(A: AlgebroidPresentation) -> list:
    """Psi symmetric in its first two slots, on frame triples."""
    frame, sym = _frame_args(A), lambda X, Y, Z: A.psi(X, Y, Z) - A.psi(Y, X, Z)
    if A.n == 0:
        frame, sym = _point_frame(A), _point_psi(A)[1]
    return [(iproduct(frame, repeat=3), ("psi-symmetry", sym))]


def _psi_vanishing(A: AlgebroidPresentation) -> list:
    """Psi = 0 on frame triples."""
    frame, psi = (_point_frame(A), _point_psi(A)[0]) if A.n == 0 else (_frame_args(A), A.psi)
    return [(iproduct(frame, repeat=3), ("psi-vanishing", psi))]


# Each ``falg check`` law and its law families, in sweep order.
LAWS = {
    "comm-assoc": (_comm_assoc,),
    "lie": (_lie,),
    "f-algebroid": (_comm_assoc, _lie, _hertling_manin),
    "pre-lie": (_pre_lie,),
    "pre-f": (_comm_assoc, _pre_lie, _psi_symmetry),
    "prelie-com": (_comm_assoc, _pre_lie, _psi_vanishing),
}


def check_laws(A: AlgebroidPresentation, laws, report: Report) -> Report:
    """Sweep the named ``LAWS`` into ``report`` as one ``_sweep`` under one memo, each family once, at its first
    occurrence; a family builds its rows only when the sweep reaches it."""
    families = dict.fromkeys(family for law in laws for family in LAWS[law])
    return _sweep(A, report, (row for family in families for row in family(A)))


def check_comm_assoc(A: AlgebroidPresentation) -> Report:
    """Commutativity and associativity of the product on the frame."""
    return check_laws(A, ["comm-assoc"], Report("commutative associative algebroid"))


def check_lie_algebroid(A: AlgebroidPresentation) -> Report:
    """Antisymmetry and Jacobi, including variable-scaled arguments (see ``_lie``)."""
    return check_laws(A, ["lie"], Report("Lie algebroid"))


def check_f_algebroid(A: AlgebroidPresentation) -> Report:
    """Commutative associative + Lie algebroid + Hertling-Manin on the frame."""
    return check_laws(A, ["f-algebroid"], Report("F-algebroid"))


def check_pre_lie_algebroid(A: AlgebroidPresentation) -> Report:
    """Symmetry of the associator in its first two slots, including scaled arguments (see ``_pre_lie``)."""
    return check_laws(A, ["pre-lie"], Report("pre-Lie algebroid"))


def check_pre_f(A: AlgebroidPresentation) -> Report:
    """Pre-F structure: product laws, pre-Lie laws and Psi symmetric in X,Y."""
    return check_laws(A, ["pre-f"], Report("pre-F-algebroid"))


def check_prelie_com(A: AlgebroidPresentation) -> Report:
    """PreLie-Com structure: product laws, pre-Lie laws and Psi = 0."""
    return check_laws(A, ["prelie-com"], Report("PreLie-Com algebroid"))


def sub_adjacent(A: AlgebroidPresentation) -> AlgebroidPresentation:
    """Fill in the bracket as the commutator of the pre-Lie operation."""
    if A.prelie is None:
        raise MissingStructure("prelie")
    r = A.rank
    b = [[[A.prelie[k][i][j] - A.prelie[k][j][i] for j in range(r)] for i in range(r)] for k in range(r)]
    return A.with_structures(bracket=b)


def find_identity(A: AlgebroidPresentation):
    """Solve e·E_i = E_i for a section e; None when no identity exists."""
    r, n = A.rank, A.n
    rows = []
    rhs = []
    zero = RatFunc.zero(n)
    one = RatFunc.const(n, 1)
    for i in range(r):
        for k in range(r):
            rows.append([A.product[k][j][i] for j in range(r)])
            rhs.append(one if i == k else zero)
    sol = solve(rows, rhs, zero, one)
    if sol is None:
        return None
    return Section(sol)


def check_anchor_leibniz(A: AlgebroidPresentation) -> Report:
    """Regression: [X, Y] = sum_k Y^k·[X,E_k] + a(X)(Y^k)·E_k on (E_i, u^m·E_j).

    On these pairs the expansion reads [E_i, f·E_j] = f·[E_i,E_j] +
    a(E_i)(f)·E_j. It holds by construction of the evaluator; kept as a
    guard against regressions in the Leibniz expansion.
    """

    def leibniz(X: Section, Y: Section) -> Section:
        aX = A.anchor_of(X)
        rhs = Section.zero(A.rank, A.n)
        for k, yk in Y.entries:
            rhs = rhs + A.bracket_of(X, A.basis(k)).scale_fn(yk) + A.basis(k).scale_fn(aX.apply(yk))
        return A.bracket_of(X, Y) - rhs

    frame = _frame_args(A)
    pairs = [pair for m in range(A.n) for pair in iproduct(frame, _scaled_args(A, [m]))]
    return _sweep(A, Report("anchor Leibniz rule"), [(pairs, ("leibniz", leibniz))])
