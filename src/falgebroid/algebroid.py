"""Algebroid presentations and structure verification.

A presentation fixes a global frame E_1..E_r over a polynomial base with
variables u^1..u^n. The product, bracket and pre-Lie operation are given
by structure tensors of rational functions; evaluation on general
sections expands the Leibniz rules through the anchor, so differential
identities can be verified exactly on symbolic arguments.
"""

from __future__ import annotations

from itertools import chain, combinations, combinations_with_replacement
from itertools import product as iproduct

from .errors import MissingStructure, ShapeError
from .linalg import solve
from .report import Report
from .ring import RatFunc, VectorField

Tensor = list  # rank x rank x rank nested lists of RatFunc, output-index major


class Section:
    """Element of the free module spanned by the frame, r components."""

    __slots__ = ("components",)

    def __init__(self, components):
        self.components = tuple(components)

    @staticmethod
    def zero(rank: int, nvars: int) -> "Section":
        return Section(RatFunc.zero(nvars) for _ in range(rank))

    @staticmethod
    def basis(rank: int, nvars: int, i: int) -> "Section":
        return Section(
            RatFunc.const(nvars, 1) if j == i else RatFunc.zero(nvars) for j in range(rank)
        )

    @property
    def rank(self) -> int:
        return len(self.components)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __eq__(self, other) -> bool:
        return isinstance(other, Section) and self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __add__(self, other: "Section") -> "Section":
        return Section(a + b for a, b in zip(self.components, other.components))

    def __sub__(self, other: "Section") -> "Section":
        return Section(a - b for a, b in zip(self.components, other.components))

    def __neg__(self) -> "Section":
        return Section(-a for a in self.components)

    def scale_fn(self, f: RatFunc) -> "Section":
        return Section(f * a for a in self.components)

    def format(self, names: list[str]) -> str:
        return ", ".join(c.format(names) for c in self.components)

    def __repr__(self):
        return f"Section({list(self.components)!r})"


def _index_tensor(tensor: Tensor, rank: int) -> dict:
    """Sparse lookup (i, j) -> list of (k, coefficient) with nonzero entries."""
    index: dict[tuple[int, int], list] = {}
    for k in range(rank):
        for i in range(rank):
            for j in range(rank):
                val = tensor[k][i][j]
                if not val.is_zero():
                    index.setdefault((i, j), []).append((k, val))
    return index


class AlgebroidPresentation:
    """Structure tensors of an algebroid in a fixed global frame.

    ``product``, ``bracket`` and ``prelie`` are rank³ nested lists with
    the output index first: product[k][i][j] is the E_k-component of
    E_i·E_j. ``anchor`` is a list of rank rows, row i holding the
    components of the vector field a(E_i). A zero-dimensional base
    (no variables) encodes an algebra over a point.
    """

    def __init__(self, base_vars, rank, product, bracket=None, prelie=None, anchor=None, identity=None):
        self.base_vars = list(base_vars)
        self.rank = rank
        self.product = product
        self.bracket = bracket
        self.prelie = prelie
        self.anchor = anchor
        self.identity = identity
        self._check_shapes()
        self._product_index = None
        self._bracket_index = None
        self._prelie_index = None
        self._anchor_vfs = None

    @property
    def n(self) -> int:
        return len(self.base_vars)

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

    def zero_section(self) -> Section:
        return Section.zero(self.rank, self.n)

    def var_fn(self, m: int) -> RatFunc:
        return RatFunc.var(self.n, m)

    def scaled_basis(self, m: int, i: int) -> Section:
        """Section u^m · E_i, the spanning test argument for differential laws."""
        return self.basis(i).scale_fn(self.var_fn(m))

    def anchor_vf(self, i: int) -> VectorField:
        if self._anchor_vfs is None:
            if self.anchor is None:
                self._anchor_vfs = [VectorField.zero(self.n) for _ in range(self.rank)]
            else:
                self._anchor_vfs = [VectorField(row) for row in self.anchor]
        return self._anchor_vfs[i]

    def anchor_of(self, X: Section) -> VectorField:
        out = VectorField.zero(self.n)
        for i, xi in enumerate(X.components):
            if not xi.is_zero():
                out = out + self.anchor_vf(i).scale_fn(xi)
        return out

    # -- evaluation ----------------------------------------------------

    def _contract(self, index: dict, X: Section, Y: Section) -> list[RatFunc]:
        out = [RatFunc.zero(self.n) for _ in range(self.rank)]
        for i, xi in enumerate(X.components):
            if xi.is_zero():
                continue
            for j, yj in enumerate(Y.components):
                if yj.is_zero():
                    continue
                entries = index.get((i, j))
                if not entries:
                    continue
                w = xi * yj
                for k, val in entries:
                    out[k] = out[k] + w * val
        return out

    def multiply(self, X: Section, Y: Section) -> Section:
        if X.rank != self.rank or Y.rank != self.rank:
            raise ShapeError("section rank mismatch")
        if self._product_index is None:
            self._product_index = _index_tensor(self.product, self.rank)
        return Section(self._contract(self._product_index, X, Y))

    def _derivation_terms(self, X: Section, Y: Section) -> list[RatFunc]:
        """Components of sum_i X^i a(E_i)(Y^k) E_k."""
        out = [RatFunc.zero(self.n) for _ in range(self.rank)]
        if self.n == 0:
            return out
        for i, xi in enumerate(X.components):
            if xi.is_zero():
                continue
            a_i = self.anchor_vf(i)
            if a_i.is_zero():
                continue
            for k in range(self.rank):
                d = a_i.apply(Y.components[k])
                if not d.is_zero():
                    out[k] = out[k] + xi * d
        return out

    def bracket_of(self, X: Section, Y: Section) -> Section:
        if self.bracket is None:
            raise MissingStructure("bracket")
        if self.n > 0 and self.anchor is None:
            raise MissingStructure("anchor")
        if self._bracket_index is None:
            self._bracket_index = _index_tensor(self.bracket, self.rank)
        out = self._contract(self._bracket_index, X, Y)
        plus = self._derivation_terms(X, Y)
        minus = self._derivation_terms(Y, X)
        return Section(a + p - m for a, p, m in zip(out, plus, minus))

    def prelie_of(self, X: Section, Y: Section) -> Section:
        if self.prelie is None:
            raise MissingStructure("prelie")
        if self.n > 0 and self.anchor is None:
            raise MissingStructure("anchor")
        if self._prelie_index is None:
            self._prelie_index = _index_tensor(self.prelie, self.rank)
        out = self._contract(self._prelie_index, X, Y)
        plus = self._derivation_terms(X, Y)
        return Section(a + p for a, p in zip(out, plus))

    # -- derived tensors ------------------------------------------------

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

    def psi(self, X: Section, Y: Section, Z: Section) -> Section:
        """Psi(X,Y,Z) = X*(Y·Z) - (X*Y)·Z - Y·(X*Z), a (3,1) tensor."""
        return (
            self.prelie_of(X, self.multiply(Y, Z))
            - self.multiply(self.prelie_of(X, Y), Z)
            - self.multiply(Y, self.prelie_of(X, Z))
        )

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

    def with_structures(self, product=None, bracket=None, prelie=None, anchor=None, identity=None) -> "AlgebroidPresentation":
        """Copy with selected tensors replaced."""
        return AlgebroidPresentation(
            base_vars=self.base_vars,
            rank=self.rank,
            product=self.product if product is None else product,
            bracket=self.bracket if bracket is None else bracket,
            prelie=self.prelie if prelie is None else prelie,
            anchor=self.anchor if anchor is None else anchor,
            identity=self.identity if identity is None else identity,
        )

    def basis_name(self, i: int) -> str:
        return f"E{i + 1}"


def tensors_equal(t1: Tensor, t2: Tensor) -> bool:
    return all(
        c1 == c2
        for m1, m2 in zip(t1, t2)
        for r1, r2 in zip(m1, m2)
        for c1, c2 in zip(r1, r2)
    )


# -- law engine ------------------------------------------------------------
#
# Every law is a residual that must vanish on labelled test sections: the
# frame E_i in tensorial slots, and also the frame scaled by each base
# variable, u^m·E_i, in slots where a Leibniz rule could break the law.


def _frame_args(A: AlgebroidPresentation):
    """The frame sections E_i, labelled by name."""
    return [(A.basis_name(i), A.basis(i)) for i in range(A.rank)]


def _scaled_args(A: AlgebroidPresentation, variables=None):
    """The frame scaled by each base variable (or by those listed), u^m·E_i."""
    ms = range(A.n) if variables is None else variables
    return [(f"{A.base_vars[m]}*{A.basis_name(i)}", A.scaled_basis(m, i)) for m in ms for i in range(A.rank)]


def _prelie_tuples(frame, scaled):
    """Frame triples, then triples with each slot in turn scaled."""
    return chain(
        iproduct(frame, frame, frame),
        iproduct(scaled, frame, frame),
        iproduct(frame, scaled, frame),
        iproduct(frame, frame, scaled),
    )


def _record(A: AlgebroidPresentation, report: Report, law: str, instance: str, res: Section):
    """Record one instance; the residual is formatted only when it is nonzero."""
    if res.is_zero():
        report.add(law, instance, True)
    else:
        report.add(law, instance, False, A.fmt(res))


def _sweep(A: AlgebroidPresentation, report: Report, table, prefix: str = "") -> Report:
    """Run a law table into ``report`` and return it.

    Each row is (argument tuples, (law, residual), ...). Every tuple of
    labelled arguments is one instance, named ``prefix(name,...)``, and
    the row's laws are checked on it in turn.
    """
    for cases, *laws in table:
        for case in cases:
            instance = prefix + "(" + ",".join(name for name, _ in case) + ")"
            args = [arg for _, arg in case]
            for law, residual in laws:
                _record(A, report, law, instance, residual(*args))
    return report


# -- checkers ------------------------------------------------------------


def check_comm_assoc(A: AlgebroidPresentation) -> Report:
    """Commutativity and associativity of the product on the frame."""
    mul = A.multiply
    frame = _frame_args(A)
    return _sweep(A, Report("commutative associative algebroid"), [
        (combinations(frame, 2), ("product-symmetry", lambda X, Y: mul(X, Y) - mul(Y, X))),
        (iproduct(frame, repeat=3), ("associativity", lambda X, Y, Z: mul(mul(X, Y), Z) - mul(X, mul(Y, Z)))),
    ])


def check_lie_algebroid(A: AlgebroidPresentation) -> Report:
    """Antisymmetry and Jacobi, including variable-scaled arguments.

    Scaling the first slot by each base variable makes the Jacobi sweep
    sensitive to anchor inconsistencies: the scaled residual picks up
    (a([Y,Z]) - [a(Y),a(Z)])(f)·X on top of f times the basis residual.
    """
    if A.bracket is None:
        raise MissingStructure("bracket")
    if A.n > 0 and A.anchor is None:
        raise MissingStructure("anchor")
    br = A.bracket_of
    frame = _frame_args(A)
    return _sweep(A, Report("Lie algebroid"), [
        (combinations_with_replacement(frame, 2), ("bracket-antisymmetry", lambda X, Y: br(X, Y) + br(Y, X))),
        (iproduct(frame + _scaled_args(A), frame, frame), ("jacobi", A.jacobiator)),
    ])


def check_f_algebroid(A: AlgebroidPresentation) -> Report:
    """Commutative associative + Lie algebroid + Hertling-Manin on the frame.

    Basis quadruples suffice for the Hertling-Manin part because the
    failure tensor Phi is a (4,1) tensor field.
    """
    report = Report("F-algebroid")
    report.extend_from(check_comm_assoc(A))
    report.extend_from(check_lie_algebroid(A))
    return _sweep(A, report, [(iproduct(_frame_args(A), repeat=4), ("hertling-manin", A.phi))])


def check_pre_lie_algebroid(A: AlgebroidPresentation) -> Report:
    """Symmetry of the associator in its first two slots.

    Besides basis triples, each slot is scaled by each base variable in
    turn. First- and second-slot scalings exercise the two Leibniz rules;
    the third-slot scaling exposes any mismatch between the anchor and
    the sub-adjacent bracket, since the scaled residual contains
    ([a(X),a(Y)] - a(X*Y - Y*X))(f)·Z.
    """
    if A.prelie is None:
        raise MissingStructure("prelie")
    if A.n > 0 and A.anchor is None:
        raise MissingStructure("anchor")
    assoc = A.prelie_associator
    return _sweep(A, Report("pre-Lie algebroid"), [
        (_prelie_tuples(_frame_args(A), _scaled_args(A)),
         ("pre-lie-symmetry", lambda X, Y, Z: assoc(X, Y, Z) - assoc(Y, X, Z))),
    ])


def check_pre_f(A: AlgebroidPresentation) -> Report:
    """Pre-F structure: product laws, pre-Lie laws and Psi symmetric in X,Y."""
    report = Report("pre-F-algebroid")
    report.extend_from(check_comm_assoc(A))
    report.extend_from(check_pre_lie_algebroid(A))
    return _sweep(A, report, [
        (iproduct(_frame_args(A), repeat=3), ("psi-symmetry", lambda X, Y, Z: A.psi(X, Y, Z) - A.psi(Y, X, Z))),
    ])


def check_prelie_com(A: AlgebroidPresentation) -> Report:
    """PreLie-Com structure: product laws, pre-Lie laws and Psi = 0."""
    report = Report("PreLie-Com algebroid")
    report.extend_from(check_comm_assoc(A))
    report.extend_from(check_pre_lie_algebroid(A))
    return _sweep(A, report, [(iproduct(_frame_args(A), repeat=3), ("psi-vanishing", A.psi))])


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
        rhs = A.zero_section()
        for k, yk in enumerate(Y.components):
            if not yk.is_zero():
                rhs = rhs + A.bracket_of(X, A.basis(k)).scale_fn(yk) + A.basis(k).scale_fn(aX.apply(yk))
        return A.bracket_of(X, Y) - rhs

    frame = _frame_args(A)
    pairs = [pair for m in range(A.n) for pair in iproduct(frame, _scaled_args(A, [m]))]
    return _sweep(A, Report("anchor Leibniz rule"), [(pairs, ("leibniz", leibniz))])
