"""Algebroid presentations and structure verification.

A presentation fixes a global frame E_1..E_r over a polynomial base with
variables u^1..u^n. The product, bracket and pre-Lie operation are stored
only as tables of their nonzero structure constants, rational functions
(``Table``); the bracket and the pre-Lie operation obey Leibniz rules
through the anchor, which the checks expand in the tables, so differential
identities are verified exactly. The dense rank³ tensors are read-only
views, for writing a structure file. A vector field is
a section of the tangent frame d/du^1..d/du^n: ``VectorField`` is the
``Section`` of rank n, and the anchor sends sections to it.

Every check is evaluated one way, on every presentation: the residual on
frame arguments, and on arguments u^m·E_i where a Leibniz rule could break
the law, is a polynomial in the table entries, the anchor entries, the
check's own inputs (a section, a bundle map, a cochain) and their anchor
derivatives, so its whole tensor is contracted from the tables at once
(``_point_tensor``) and ``_sweep`` reads the instances off it. Each check
picks its entry type once (``AlgebroidPresentation._view``): over a point
an int, or a Fraction where not integral; a numerator ``Poly`` over a
``polynomial`` base when its own inputs are polynomials too, or, for a
section, its numerators over one shared denominator
(``Section.shared_denominator``); else the ``RatFunc``, the presentation's
tables included.
"""

from __future__ import annotations

from copy import copy
from functools import lru_cache, reduce
from itertools import chain
from itertools import product as iproduct
from math import lcm as int_lcm
from operator import itemgetter, mul, or_

from .errors import DegreeOverflow, MissingStructure, ShapeError
from .linalg import solve_fraction_free
from .report import Report
from .ring import _W, MAX_DEGREE, Poly, RatFunc, _rational

_TENSORS = ("product", "bracket", "prelie")
Table = dict  # structure table: table[i, j] = ((k, c), ...), the nonzero E_k-parts c of E_i∘E_j, nonzero cells only


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

    def shared_denominator(self) -> tuple | None:
        """``(δ, {k: N_k})`` with each nonzero component N_k/δ, when the nonconstant component denominators are all
        one δ (δ = 1 when there are none); else None. A structural test: it takes no gcd."""
        dens = [c.den for _, c in self.entries if not c.den.is_constant()]
        den = dens[0] if dens else Poly.const(self.nvars, 1)
        if any(d != den for d in dens):
            return None
        return den, {k: c.num if c.den == den else c.num * den for k, c in self.entries}

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


def _compile(tensor: list, rank: int, name: str = "tensor") -> Table:
    """The table {(i, j): ((k, c), ...)} of a rank³ tensor's nonzero structure constants (RatFuncs or numbers),
    keyed by the pairs with one; ShapeError unless the tensor is rank x rank x rank."""
    if len(tensor) != rank or any(len(m) != rank or any(len(row) != rank for row in m) for m in tensor):
        raise ShapeError(f"{name} tensor must be {rank}x{rank}x{rank}")
    r = range(rank)
    cells = (((i, j), tuple((k, m[i][j]) for k, m in enumerate(tensor) if m[i][j])) for i in r for j in r)
    return {ij: cell for ij, cell in cells if cell}


def _table(cells: dict) -> Table:
    """A contraction's cells {(i, j): {k: c}} as a ``Table``, sorted by key and by k."""
    return {ij: tuple(sorted(cells[ij].items())) for ij in sorted(cells)}


class AlgebroidPresentation:
    """Structure tables of an algebroid in a fixed global frame.

    A presentation is its tables: ``_tables`` maps "product", "bracket" and
    "prelie" to the ``Table`` of each operation it carries, the nonzero
    constants c of E_i∘E_j = Σ c·E_k; ``_anchors`` holds the nonzero vector
    fields a(E_i), and ``has("anchor")`` whether there is an anchor at all.
    ``n`` counts the base variables; n = 0 encodes an algebra over a point.

    The constructor takes the dense form, rank³ nested lists with the output
    index first (product[k][i][j] is the E_k-component of E_i·E_j) and an
    anchor of rank rows of n components, shape-checks it and compiles it
    once. ``product``, ``bracket``, ``prelie`` and ``anchor`` are read-only
    views that rebuild that form, None for a structure the presentation
    lacks; the library builds its presentations from tables (``_of``).
    """

    def __init__(self, base_vars, rank, product, bracket=None, prelie=None, anchor=None, identity=None):
        n = len(base_vars)
        if rank < 1:
            raise ShapeError("rank must be at least 1")
        tensors = zip(_TENSORS, (product, bracket, prelie))
        tables = {name: _compile(t, rank, name) for name, t in tensors if t is not None}
        if anchor is not None and (len(anchor) != rank or any(len(row) != n for row in anchor)):
            raise ShapeError(f"anchor must be {rank}x{n}")
        if identity is not None and identity.rank != rank:
            raise ShapeError("identity section has wrong rank")
        fields = None if anchor is None else dict(enumerate(map(VectorField, anchor)))
        self._store(base_vars, rank, tables, fields, identity)

    @classmethod
    def _of(cls, base_vars, rank: int, tables: dict, fields: dict | None, identity) -> "AlgebroidPresentation":
        """The presentation of ``tables`` ({name: Table}), the anchor fields {i: a(E_i)} (None for no anchor; zero
        fields may be left out) and ``identity``, taken as given."""
        A = object.__new__(cls)
        A._store(base_vars, rank, tables, fields, identity)
        return A

    def _store(self, base_vars, rank, tables, fields, identity):
        self.base_vars, self.n, self.rank, self.identity = list(base_vars), len(base_vars), rank, identity
        self._tables, self._anchored, self._points = tables, fields is not None, {}
        self._anchors = {i: vf for i, vf in (fields or {}).items() if vf.entries}  # the nonzero a(E_i)
        entries = chain((c for t in tables.values() for cell in t.values() for _, c in cell),
                        (c for vf in self._anchors.values() for _, c in vf.entries))
        self.polynomial = all(c.den.is_constant() for c in entries)  # then entries contract as numerators

    def has(self, name: str) -> bool:
        """Whether the presentation carries the named table, or for "anchor" an anchor."""
        return self._anchored if name == "anchor" else name in self._tables

    def _dense(self, name: str):
        """The named table as the rank³ nested list t[k][i][j], zeros included; None without it."""
        table = self._tables.get(name)
        if table is None:
            return None
        r, zero = range(self.rank), RatFunc.zero(self.n)
        out = [[[zero] * self.rank for _ in r] for _ in r]
        for (i, j), cell in table.items():
            for k, c in cell:
                out[k][i][j] = c
        return out

    product = property(lambda self: self._dense("product"))
    bracket = property(lambda self: self._dense("bracket"))
    prelie = property(lambda self: self._dense("prelie"))

    @property
    def anchor(self):
        """The rank rows of components of a(E_i), zeros included; None without an anchor."""
        if not self._anchored:
            return None
        zero = VectorField.zero(self.n)
        return [list(self._anchors.get(i, zero).components) for i in range(self.rank)]

    # -- frames and sections ------------------------------------------

    def basis(self, i: int) -> Section:
        return Section.basis(self.rank, self.n, i)

    def var_fn(self, m: int) -> RatFunc:
        return RatFunc.var(self.n, m)

    # -- evaluation ----------------------------------------------------

    @staticmethod
    def _contract(table: Table, X: Section, Y: Section) -> dict:
        """The E_k-components of sum X^i Y^j E_i∘E_j, keyed by k, from the nonzeros only."""
        out = {}
        for i, xi in X.entries:
            for j, yj in Y.entries:
                cell = table.get((i, j))
                if cell is None:
                    continue
                w = xi * yj
                for k, c in cell:
                    t = w * c
                    cur = out.get(k)
                    out[k] = t if cur is None else cur + t
        return out

    def multiply(self, X: Section, Y: Section) -> Section:
        if X.rank != self.rank or Y.rank != self.rank:
            raise ShapeError("section rank mismatch")
        return Section._from_dict(self._contract(self._tables["product"], X, Y), self.rank, self.n)

    def _require(self, name: str) -> Table:
        """The table of the named operation; MissingStructure without it or a needed anchor."""
        table = self._tables.get(name)
        if table is None:
            raise MissingStructure(name)
        if self.n > 0 and not self._anchored:
            raise MissingStructure("anchor")
        return table

    def _view(self, *extra) -> "AlgebroidPresentation":
        """The presentation a check with its own entries ``extra`` (RatFuncs) contracts over, which decides its entry
        type once: A itself, unless A is ``polynomial`` and an extra entry is not; then a copy of A, made once, that
        reads every entry as its ``RatFunc``. The check converts its own entries with the view's ``_value`` too."""
        if not self.polynomial or all(c.den.is_constant() for c in extra):
            return self
        if "rational" not in self._points:
            self._points["rational"] = view = copy(self)
            view.polynomial, view._points = False, {}
        return self._points["rational"]

    def _value(self, c: RatFunc):
        """An entry as ``_point_tensor`` sums it: over a point an int, or a Fraction where not integral
        (``_rational``), over a ``polynomial`` base the numerator ``Poly``, else the ``RatFunc`` itself."""
        return _rational(c.constant_value()) if not self.n else c.num if self.polynomial else c

    def _entries(self, name: str) -> list:
        """The nonzero entries of the named table as (index tuple, ((k, RatFunc), ...)): the nonzero E_k-parts of
        E_a∘E_b keyed (a, b), or for "anchor" the components a_x^m of each nonzero a(E_x) keyed (x,). MissingStructure
        as ``_require``, but for the product and the anchor, which need no other structure."""
        if name == "anchor":
            return [((x,), vf.entries) for x, vf in self._anchors.items()]
        return list((self._tables["product"] if name == "product" else self._require(name)).items())

    def constants(self, name: str):
        """The named table's nonzero cells converted once by ``_value``: {(a, b): {k: c}} for a tensor, {(x,): {m:
        a_x^m}} for "anchor", {(): {m: u^m}} for "variables", and for "commutator" {(b, c, d): {k: K_cd(E_b)^k}} of
        K_cd(E_b) = (E_b·E_c)·E_d - (E_b·E_d)·E_c."""
        if name not in self._points:
            if name == "variables":
                table = {(): {m: self._value(self.var_fn(m)) for m in range(self.n)}}
            elif name == "commutator":
                M = self.constants("product")
                table = _point_tensor((1, ((0, 1), 2), M, M), (-1, ((0, 2), 1), M, M))
            else:
                table = {idx: {k: self._value(c) for k, c in cell} for idx, cell in self._entries(name)}
            self._points[name] = table
        return self._points[name]

    def _entry_tables(self, cells) -> tuple[dict, dict]:
        """A check's own entries, (idx, ((k, c), ...)) cells of RatFuncs, as the table {idx: {k: c}} converted by
        ``_value`` and the ``_derivatives`` of its entries along ρ_x = a(E_x)."""
        table = {idx: {k: self._value(c) for k, c in cell} for idx, cell in cells}
        return table, _derivatives(self._anchors, cells, self._value)

    def derivatives(self, name: str) -> dict:
        """``_derivatives`` of the named table's entries (``_entries``) along ρ_x = a(E_x), built once: ρ_x(T_ab^k),
        or ρ_x(a_y^m) for "anchor"."""
        key = ("derivatives", name)
        if key not in self._points:
            self._points[key] = _derivatives(self._anchors, self._entries(name), self._value)
        return self._points[key]

    def matrix_of(self, f) -> list:
        """The matrix m with m[k][j] the E_k-part of f(E_j)."""
        r = range(self.rank)
        cols = [f(self.basis(j)).components for j in r]
        return [[cols[j][k] for j in r] for k in r]

    # -- helpers ---------------------------------------------------------

    def fmt(self, s: Section) -> str:
        return s.format(self.base_vars)

    def basis_name(self, i: int) -> str:
        return f"E{i + 1}"


# -- law engine ------------------------------------------------------------
#
# Every law is a residual that must vanish on labelled test sections: the
# frame E_i in tensorial slots, and also the frame scaled by each base
# variable, u^m·E_i, in slots where a Leibniz rule could break the law.


def _scaled_labels(A: AlgebroidPresentation) -> tuple:
    """The names u_m*E_i of the scaled frame, m-major: u^m·E_i is at r + m·r + i in a contraction's labels."""
    return tuple(f"{A.base_vars[m]}*{A.basis_name(i)}" for m in range(A.n) for i in range(A.rank))


def _prelie_tuples(frame, scaled) -> tuple:
    """The case spec of frame triples, then over a base the third slot scaled: slot 1 or 2 only scales by u^m."""
    return ((frame, frame, frame), (frame, frame, scaled)) if scaled else ((frame,) * 3,)


def _ratfunc(n: int, c) -> RatFunc:
    """A contraction's entry as a ``RatFunc`` in n variables: a number, a numerator ``Poly`` or the ``RatFunc``."""
    return c if type(c) is RatFunc else RatFunc(c, _normal=True) if type(c) is Poly else RatFunc.const(n, c)


def _witness(A: AlgebroidPresentation, res) -> str | None:
    """The text of a nonzero residual, a Section or a contraction's cell {k: c}; None for zero (a passing check)."""
    if isinstance(res, dict):
        res = Section._from_dict({k: _ratfunc(A.n, c) for k, c in res.items()}, A.rank, A.n)
    return None if res.is_zero() else A.fmt(res)


def _names(spec, prefix: str = "") -> list:
    """The names ``prefix(a,b,...)`` of a case spec's tuples, in order: one join each of its axes' pre-joined labels."""
    names = []
    for axes in spec:
        pieces = [[f"{a}," for a in axis] for axis in axes[:-1]] + [[f"{a})" for a in axes[-1]]]
        pieces[0] = [f"{prefix}({piece}" for piece in pieces[0]]
        names += map("".join, iproduct(*pieces))
    return names


def _sweep(A: AlgebroidPresentation, report: Report, table, prefix: str = "") -> Report:
    """Run a law table into ``report``, one block per row (spec, (law, residual)), and return it: each tuple of a case
    spec (products of label axes) is one instance ``prefix(a,...)``, named once per sweep into a list the spec's rows
    share, and fails if its ``_point_labels`` + ``_scaled_labels`` indices key the ``_point_tensor`` residual."""
    index, named = {label: i for i, label in enumerate(_point_labels(A) + _scaled_labels(A))}, {}
    for spec, (law, residual) in table:
        if spec not in named:
            named[spec] = _names(spec, prefix)
        report.blocks.append((law, named[spec], (fails := {})))
        if residual:  # list the cases, as index tuples, only to read a nonzero residual's failures
            keys = (tuple(map(index.__getitem__, t)) for axes in spec for t in iproduct(*axes))
            fails.update((i, _witness(A, residual[key])) for i, key in enumerate(keys) if key in residual)
    return report


# -- laws from the tables: each residual is a polynomial in the table entries and, over a base, in the anchor
# entries and their anchor derivatives, summed at once on every tuple of frame (and scaled frame) indices.


def _point_labels(A: AlgebroidPresentation) -> tuple:
    """The frame names E_i, in index order."""
    return tuple(A.basis_name(i) for i in range(A.rank))


def _point_tensor(*terms) -> dict:
    """Σ s·term on every tuple of indices at once, over the nonzero constants only: {index tuple: {k: c}} of exactly
    the nonzero residuals. Every check is summed here, on every presentation. A table is a dict {(i, j, ...): {k: c}}
    of its nonzero cells, as this returns, keyed by tuples ((), for no slot); a section X is the 0-slot table
    {(): {m: X^m}}. A constant c is a number over a point; a numerator ``Poly`` (``_view``), summed by ``_packed``;
    or else a ``RatFunc``, summed as one, with s = ±1.

    A term (s, shape, ∘, ⋄) has the shape (a, b, ...) for s·∘(E_a, E_b, ...) (no ⋄), or the shape of ⋄
    with one slot replaced by the slots of ∘, whose output feeds it: ((a, b), c) for s·(E_a∘E_b)⋄E_c,
    (a, (b, c)) for s·E_a⋄(E_b∘E_c), (a, ()) for s·E_a⋄X; a, b, c, ... are the positions in the index tuple."""
    out, seen = {}, {}
    terms = [(s, shape, *(seen[id(t)] if id(t) in seen else seen.setdefault(id(t), _nonzeros(t)) for t in tables))
             for s, shape, *tables in terms]
    first = next((c for _, _, inner, *_ in terms for _, _, c in inner[:1]), None)
    if type(first) is Poly:
        return _packed(terms, first.nvars)
    for s, shape, inner, *outer in terms:
        hits = [(idx, m, c, None) for idx, m, c in inner]
        if outer:  # ∘(...) = Σ c·E_m fills the slot ``at`` of ⋄, whose other slots follow ∘'s in the hit
            at, by_m = next(p for p, slot in enumerate(shape) if isinstance(slot, tuple)), {}
            for idx, k, d in outer[0]:
                by_m.setdefault(idx[at], []).append((idx[:at] + idx[at + 1:], k, d))
            hits = [(idx + rest, k, c, d) for idx, m, c, _ in hits for rest, k, d in by_m.get(m, ())]
            shape = (*shape[at], *shape[:at], *shape[at + 1:])
        perm = [shape.index(p) for p in range(len(shape))]
        key = itemgetter(*perm) if len(perm) > 1 else tuple  # a tuple key for 0 and 1 slots too
        for vals, k, c, d in hits:
            t = c if d is None else c * d
            t = t if s == 1 else -t if s == -1 else s * t
            cell = out.setdefault(key(vals), {})
            cell[k] = t if (cur := cell.get(k)) is None else cur + t
    return {key: res for key, cell in out.items() if (res := {k: c for k, c in cell.items() if c})}


def _packed(terms, n: int) -> dict:
    """``_point_tensor`` over numerator ``Poly`` constants in n variables: one dict of ints over the lcm of the
    operands' denominators, keyed by a monomial key (``ring``: ``_W``·(n + 1) bits), a guard bit and w-bit fields,
    w the bit length of the largest index: k in field 0, index position p in field p + 1, a 1 in field P + 1 for
    the length P. A term is a double loop, at each m that ∘ outputs and ⋄ takes, over two flat lists (``_flat``)
    of keys plus offsets (``_packing``). No field carries: ∘ and ⋄ fill disjoint fields, and a field of a product
    is at most its total degree, whose carry past ``MAX_DEGREE`` sets the guard bit."""
    low, rows, unit = _W * (n + 1) + 1, [], [(0, Poly(n, {0: 1}))]
    nz = [*chain.from_iterable(t for _, _, *tables in terms for t in tables)]
    w = max(chain(map(itemgetter(1), nz), chain.from_iterable(map(itemgetter(0), nz))), default=0).bit_length() or 1
    for s, shape, inner, *outer in terms:
        if not inner or outer and not outer[0]:
            continue
        at, ws, kw, mark, nest = _packing(shape, w, low)
        if not outer:  # the one list of ∘ meets the unit
            by_m, by_k = {0: unit}, {0: [(sum(map(mul, idx, ws)) + k * kw + mark, c) for idx, k, c in inner]}
        else:
            (ws2, kw2, mark2), by_m, by_k = nest, {}, {}
            for idx, k, d in outer[0]:  # ⋄'s entries by the slot ∘ fills, ∘'s by their output
                by_m.setdefault(idx[at], []).append((sum(map(mul, idx, ws2)) + k * kw2 + mark2, d))
            for idx, k, c in inner:
                if k in by_m:
                    by_k.setdefault(k, []).append((sum(map(mul, idx, ws)), c))
        for m, entries in by_k.items():
            rows.append((s, _flat(entries), _flat(by_m[m])))
    lcm, acc = int_lcm(*{l1 * l2 for _, (l1, _), (l2, _) in rows}), {}
    get = acc.get
    for s, (l1, t1), (l2, t2) in rows:
        f = s * lcm // (l1 * l2)
        for e2, b in t2:
            b *= f
            for e1, a in t1:
                e = e1 + e2
                acc[e] = get(e, 0) + a * b
    if reduce(or_, acc, 0) >> low - 1 & 1:
        raise DegreeOverflow(f"product of total degree over {MAX_DEGREE}")
    cells, mask, field, out = {}, (1 << low) - 1, (1 << w) - 1, {}
    for e, v in acc.items():
        if v:
            cells.setdefault(e >> low, {})[e & mask] = v
    for code, coeffs in cells.items():
        key = tuple([code >> w * p & field for p in range(1, (code.bit_length() - 1) // w)])
        out.setdefault(key, {})[code & field] = Poly.from_ints(n, coeffs, lcm)
    return out


def _flat(entries: list) -> tuple:
    """(L, [(key + offset, coefficient·L/denominator), ...]) of (offset, ``Poly``) pairs, L their denominators' lcm."""
    lcm, flat = 1, []
    for _, p in entries:
        lcm = int_lcm(lcm, p.denom)
    for off, p in entries:
        f = lcm // p.denom
        for e, a in p.coeffs.items():
            flat.append((e + off, a * f))
    return lcm, flat


@lru_cache(maxsize=1024)  # keys: the term shapes the library writes, for a few widths w and base sizes n
def _packing(shape: tuple, w: int, low: int) -> tuple:
    """(at, weights, kw, mark, nest) for ``_packed``: entry (idx, k) of ∘ is at Σ idx[j]·weights[j] + k·kw + mark.
    If ∘ fills slot ``at`` of ⋄, kw = mark = 0 and nest is ⋄'s (weights, kw, mark); else at and nest are None."""
    at = next((p for p, slot in enumerate(shape) if isinstance(slot, tuple)), None)
    field = lambda p: 0 if p is None else 1 << low + w * (p + 1)  # noqa: E731
    if at is None:
        return None, tuple(map(field, shape)), field(-1), field(len(shape)), None
    nest = tuple(map(field, (*shape[:at], None, *shape[at + 1:]))), field(-1), field(len(shape) + len(shape[at]) - 1)
    return at, tuple(map(field, shape[at])), 0, 0, nest


def _nonzeros(t: dict) -> list:
    """The constants of a table {index tuple: {k: c}} as (index tuple, k, c)."""
    return [(idx, k, c) for idx, cell in t.items() for k, c in cell.items()]


def _derivatives(fields: dict, cells, value) -> dict:
    """{(x, *idx): {k: ρ_x(c)}} for each vector field ρ_x = ``fields[x]`` and each entry c = E_k-part at idx of
    ``cells``, (idx, ((k, c), ...)) pairs of RatFuncs: the nonzero values, converted by ``value``."""
    return {(x, *idx): d for x, vf in fields.items() for idx, cell in cells
            if (d := {k: value(p) for k, c in cell if (p := vf.apply(c)).num.coeffs})}


def _prelie_terms(S, T) -> tuple:
    """The terms of T(S(E_i,E_j),E_k) - T(E_i,S(E_j,E_k)) - T(S(E_j,E_i),E_k) + T(E_j,S(E_i,E_k)) from the
    tables alone: the frame part of ``_rule`` for one pair."""
    return (1, ((0, 1), 2), S, T), (-1, (0, (1, 2)), S, T), (-1, ((1, 0), 2), S, T), (1, (1, (0, 2)), S, T)


def _point_psi(A: AlgebroidPresentation, i: int = 0, j: int = 1, s: int = 1) -> tuple:
    """The terms of s·Ψ(E_a,E_b,E_c) (``psi`` in the tests' oracle), with a and b in slots i and j:
    Ψ_abc^k = ρ_a(M_bc^k) + Σ_m (M_bc^m P_am^k - P_ab^m M_mc^k - P_ac^m M_bm^k) for the product M and pre-Lie P
    tables, ρ_x = a(E_x)."""
    M, P, dM = A.constants("product"), A.constants("prelie"), A.derivatives("product")
    return (s, (i, j, 2), dM), (s, (i, (j, 2)), M, P), (-s, ((i, j), 2), P, M), (-s, (j, (i, 2)), P, M)


def _scaled_slot(A: AlgebroidPresentation, t: dict) -> dict:
    """{(r + m·r + i, *key): {i: c}} for each entry c = t[key][m] and frame index i: a table whose output m is a
    base variable, moved onto the E_i of u^m·E_i, at the index ``_scaled_labels`` gives u^m·E_i."""
    r = A.rank
    return {(r + m * r + i, *key): {i: c} for key, cell in t.items() for m, c in cell.items() for i in range(r)}


def _anchor_defect(T, a, da, skew: bool = False) -> tuple:
    """The terms of {(j, k): {m: (a(T(E_j,E_k)) - [ρ_j, b_k])(u^m)}} for a 2-slot table T (T - Tᵀ when ``skew``),
    the anchor table a_x^m = ρ_x(u^m) and da[(x, y)] = {m: ρ_x(b_y^m)}: Σ_n T_jk^n a_n^m - ρ_j(b_k^m) + ρ_k(b_j^m).
    With b = a, the failure of a to map T to the commutator of vector fields."""
    transpose = ((-1, ((1, 0),), T, a),) if skew else ()
    return (1, ((0, 1),), T, a), *transpose, (-1, (0, 1), da), (1, (1, 0), da)


# -- law families: each maps a presentation to its ``_sweep`` rows ---------


def _comm_assoc(A: AlgebroidPresentation) -> list:
    frame, M = _point_labels(A), A.constants("product")
    pairs = tuple(((a,), frame[i + 1:]) for i, a in enumerate(frame))  # the frame pairs a < b
    return [
        (pairs, ("product-symmetry", _point_tensor((1, (0, 1), M), (-1, (1, 0), M)))),
        (((frame,) * 3,), ("associativity", _point_tensor((1, ((0, 1), 2), M, M), (-1, (0, (1, 2)), M, M)))),
    ]


def _lie(A: AlgebroidPresentation) -> list:
    """Antisymmetry on frame pairs; Jacobi on frame triples and with the first slot scaled by each base variable.

    With ρ_x = a(E_x), the Leibniz rules [X,fY] = f·[X,Y] + a(X)(f)·Y and [fX,Y] = f·[X,Y] - a(Y)(f)·X give the
    frame jacobiator J_abc^k = Σ_m B_ab^m B_mc^k - ρ_c(B_ab^k), summed over the cyclic shifts of (a, b, c), and
    for f = u^m J(f·E_i, E_j, E_k) = f·J_ijk + α_jk^m E_i - a_j^m (B_ik + B_ki), with α = ``_anchor_defect`` of B:
    on top of f times the frame residual, (a([Y,Z]) - [a(Y),a(Z)])(f)·X - a(Y)(f)·([X,Z] + [Z,X]), where
    a(Y)(u^m) = a_j^m.
    """
    B, dB, frame = A.constants("bracket"), A.derivatives("bracket"), _point_labels(A)
    antisym = _point_tensor((1, (0, 1), B), (1, (1, 0), B))
    J = _point_tensor(*chain.from_iterable(((1, ((a, b), c), B, B), (-1, (c, a, b), dB))
                                           for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1))))
    a = A.constants("anchor")
    alpha = _point_tensor(*_anchor_defect(B, a, A.derivatives("anchor")))
    U, alpha, anchor = (_scaled_slot(A, t) for t in (A.constants("variables"), alpha, a))
    jacobi = _point_tensor((1, (0, 1, 2), J), (1, ((0,), 1, 2), U, J), (1, (0, 1, 2), alpha),
                           (-1, ((0, 1), 2), anchor, antisym))
    return [
        (tuple(((a,), frame[i:]) for i, a in enumerate(frame)), ("bracket-antisymmetry", antisym)),
        (((frame + _scaled_labels(A), frame, frame),), ("jacobi", jacobi)),
    ]


def _point_p(A: AlgebroidPresentation) -> dict:
    """{(m, c, d): {k: P_m(c,d)^k}} for P_m(c,d) = P_E_m(E_c,E_d) (``p_tensor`` in the tests' oracle), which the
    Leibniz rules expand to Σ_n (M_cd^n B_mn^k - B_mc^n M_nd^k - B_md^n M_cn^k) + ρ_m(M_cd^k) for
    ρ_x(f) = a(E_x)(f)."""
    M, B, dM = A.constants("product"), A.constants("bracket"), A.derivatives("product")
    return _point_tensor((1, (0, (1, 2)), M, B), (-1, ((0, 1), 2), B, M), (-1, (1, (0, 2)), B, M), (1, (0, 1, 2), dM))


def _hertling_manin(A: AlgebroidPresentation) -> list:
    """Hertling-Manin on frame quadruples, which suffice because the failure tensor Phi is a (4,1) tensor field.

    From the tables, with ρ_x(f) = a(E_x)(f) and P_m(c,d) of ``_point_p``,
    Φ_abcd^k = Σ_m (M_ab^m P_m(c,d)^k - M_cd^m ρ_m(M_ab^k) + ρ_c(M_ab^m) M_md^k + ρ_d(M_ab^m) M_cm^k
    - M_am^k P_b(c,d)^m - M_bm^k P_a(c,d)^m).
    """
    M, dM, P = A.constants("product"), A.derivatives("product"), _point_p(A)
    phi = _point_tensor((1, ((0, 1), 2, 3), M, P), (-1, ((2, 3), 0, 1), M, dM), (1, ((2, 0, 1), 3), dM, M),
                        (1, (2, (3, 0, 1)), dM, M), (-1, (0, (1, 2, 3)), P, M), (-1, (1, (0, 2, 3)), P, M))
    return [(((_point_labels(A),) * 4,), ("hertling-manin", phi))]


def _frame_rule(pairs) -> dict:
    """The residual Σ_pairs T(S(X,Y),Z) - T(X,S(Y,Z)) - T(S(Y,X),Z) + T(Y,S(X,Z)) on frame triples, for operations
    with T(fX,Y) = f·T(X,Y) and T(X,fY) = f·T(X,Y) + a_T(X)(f)·Y: the pre-Lie rule, one pair (P, P), and a
    deformation's order k, the pairs (mu_(k-i), mu_i). A pair is (S, T, dS, a, da): 2-slot tables S (inside) and
    T, T's anchor table a_x^m, dS[(x, b, c)] = {k: ρ_x(S_bc^k)} and da[(x, y)] = {m: ρ_x(b_y^m)} for ρ_x = a_T(E_x)
    and b = a_S. The Leibniz rules give R_ijk = Σ_pairs (``_prelie_terms`` - ρ_i(S_jk) + ρ_j(S_ik))."""
    terms = []
    for S, T, dS, _, _ in pairs:
        terms += _prelie_terms(S, T)
        if dS:  # none over a point
            terms += (-1, (0, 1, 2), dS), (1, (1, 0, 2), dS)
    return _point_tensor(*terms)


def _commutator_defect(pairs) -> dict:
    """β = Σ_pairs ``_anchor_defect`` of S - Sᵀ on frame pairs, for the pairs of ``_frame_rule``: {(i, j): {m: c}}
    of (a_T(S(X,Y) - S(Y,X)) - [a_T(X), a_S(Y)])(u^m), the mismatch between the anchors and the commutator of S.
    Empty over a point."""
    return _point_tensor(*(term for S, _, _, a, da in pairs for term in _anchor_defect(S, a, da, skew=True)))


def _rule(A: AlgebroidPresentation, pairs) -> dict:
    """``_frame_rule`` on frame triples and with the third slot scaled by each base variable (``_prelie_tuples``).
    When the pairs (S, T) and (T, S) both occur, or S = T, f = u^m scaling the first or second slot gives f·R_ijk,
    no instance of its own, and the third gives f·R_ijk + β_ij^m E_k, β = ``_commutator_defect``: (a_T(S(X,Y) -
    S(Y,X)) - [a_T(X), a_S(Y)])(f)·Z."""
    R = _frame_rule(pairs)
    if not A.n:
        return R
    U, beta = _scaled_slot(A, A.constants("variables")), _scaled_slot(A, _commutator_defect(pairs))
    return _point_tensor((1, (0, 1, 2), R), (1, (0, 1, (2,)), U, R), (1, (2, 0, 1), beta))


def _pre_lie(A: AlgebroidPresentation) -> list:
    """Symmetry of the associator in its first two slots, on frame triples and with the third slot scaled by each
    base variable: ``_rule`` of the pair (P, P) with the anchor, so that β is the mismatch between the anchor and
    the sub-adjacent bracket."""
    P, a = A.constants("prelie"), A.constants("anchor")
    sym = _rule(A, [(P, P, A.derivatives("prelie"), a, A.derivatives("anchor"))])
    return [(_prelie_tuples(_point_labels(A), _scaled_labels(A)), ("pre-lie-symmetry", sym))]


def _psi_symmetry(A: AlgebroidPresentation) -> list:
    """Psi symmetric in its first two slots, on frame triples."""
    sym = _point_tensor(*_point_psi(A), *_point_psi(A, 1, 0, -1))
    return [(((_point_labels(A),) * 3,), ("psi-symmetry", sym))]


def _psi_vanishing(A: AlgebroidPresentation) -> list:
    """Psi = 0 on frame triples."""
    return [(((_point_labels(A),) * 3,), ("psi-vanishing", _point_tensor(*_point_psi(A))))]


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
    """Sweep the named ``LAWS`` into ``report`` as one ``_sweep``, each family once, at its first occurrence; a
    family builds its rows only when the sweep reaches it."""
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
    """Symmetry of the associator in its first two slots, including a scaled third slot (see ``_pre_lie``)."""
    return check_laws(A, ["pre-lie"], Report("pre-Lie algebroid"))


def check_pre_f(A: AlgebroidPresentation) -> Report:
    """Pre-F structure: product laws, pre-Lie laws and Psi symmetric in X,Y."""
    return check_laws(A, ["pre-f"], Report("pre-F-algebroid"))


def check_prelie_com(A: AlgebroidPresentation) -> Report:
    """PreLie-Com structure: product laws, pre-Lie laws and Psi = 0."""
    return check_laws(A, ["prelie-com"], Report("PreLie-Com algebroid"))


def sub_adjacent(A: AlgebroidPresentation) -> AlgebroidPresentation:
    """Fill in the bracket as the commutator of the pre-Lie operation."""
    if not A.has("prelie"):
        raise MissingStructure("prelie")
    P = {ij: dict(cell) for ij, cell in A._tables["prelie"].items()}
    bracket = _table(_point_tensor((1, (0, 1), P), (-1, (1, 0), P)))
    return AlgebroidPresentation._of(A.base_vars, A.rank, {**A._tables, "bracket": bracket},
                                     A._anchors if A.has("anchor") else None, A.identity)


def find_identity(A: AlgebroidPresentation):
    """Solve e·E_i = E_i for a section e by ``solve_fraction_free``; None when no identity exists."""
    r, zero, one = range(A.rank), RatFunc.zero(A.n), RatFunc.one(A.n)
    rows = [[zero] * A.rank for _ in range(A.rank ** 2)]  # row (i, k), column j: the E_k-part of E_j·E_i
    for (j, i), cell in A._tables["product"].items():
        for k, c in cell:
            rows[i * A.rank + k][j] = c
    sol = solve_fraction_free(rows, [one if i == k else zero for i in r for k in r], A.n)[0]
    return None if sol is None else Section(sol)
