"""The Section oracle: the library's checks evaluated on sections, instance by instance.

The library contracts every residual from the tables (``algebroid._point_tensor``) and reads the instances off
the contraction (``algebroid._sweep``). Here the same laws are evaluated with ``multiply`` and this module's own
Section evaluation at the labelled test sections themselves, through a sweep that calls each residual on each
case, so the tests can compare instance names, pass flags and witnesses.

The Section evaluation lives here, not in the library, which never runs it: the bracket, the pre-Lie operation
and the anchor on sections (``bracket_of``, ``prelie_of``, ``anchor_of``, with the Leibniz terms of
``_derivation_terms``), the commutator of vector fields (``vf_bracket``) and the action condition on them
(``action_failure``), a bundle map on a section (``bundle_apply``), the derived tensors P_X, Φ and Ψ, the
jacobiator and the pre-Lie associator, a cochain at sections (``cochain_eval``, ``sigma_eval``), the pre-Lie
algebroid whose complex deforms a commutative associative one (``as_prelie``), the coboundary d of a pre-Lie
algebroid with any anchor (``d_def``, by its formula at frame tuples), the composition of bundle maps and the jet
residual of two flows. Each takes the presentation, cochain, bundle map, flow or algebra first. ``with_structures``
copies a presentation with some of its dense structures replaced, for the tests' mutants. ``packed_oracle`` is the
packed contraction as it was summed hit by hit, the oracle of the flat-list kernel ``algebroid._packed``.
"""

from functools import cache, partial, reduce
from itertools import chain, combinations
from itertools import product as iproduct
from math import lcm as int_lcm
from operator import itemgetter, mul, or_

from falgebroid.algebroid import AlgebroidPresentation, Section, VectorField
from falgebroid.algebroid import _packing, _prelie_tuples, _scaled_labels, _witness
from falgebroid.deformation import MultiDer
from falgebroid.duality import BundleMap
from falgebroid.errors import DegreeOverflow, MissingStructure, ShapeError
from falgebroid.hierarchy import _residual
from falgebroid.report import Report
from falgebroid.ring import _W, MAX_DEGREE, Poly, RatFunc


# -- operations and derived tensors on sections --------------------------------


def vf_bracket(v, w):
    """Commutator [v, w]^m = v(w^m) - w(v^m) of vector fields."""
    if v.rank != w.rank:
        raise ShapeError(f"cannot bracket vector fields of sizes {v.rank} and {w.rank}")
    vw = VectorField._from_dict({m: v.apply(c) for m, c in w.entries}, w.rank, w.nvars)
    return vw - VectorField._from_dict({m: w.apply(c) for m, c in v.entries}, v.rank, v.nvars)


def commutator(algebra, i, j):
    """Components of [e_i, e_j] of a ``FiniteAlgebra`` from its bracket, else from its pre-Lie operation."""
    if algebra.bracket is not None:
        return [algebra.bracket[k][i][j] for k in range(algebra.dim)]
    if algebra.prelie is not None:
        return [algebra.prelie[k][i][j] - algebra.prelie[k][j][i] for k in range(algebra.dim)]
    raise ShapeError("algebra has neither bracket nor prelie")


def action_failure(algebra, base_vars, rho):
    """The first pair i < j, with ρ([e_i,e_j]) - [ρ(e_i),ρ(e_j)], where the vector fields ``rho`` (the fields of an
    ``ActionSpec``) fail to map the algebra's commutator to theirs; None when they are an action."""
    n = len(base_vars)
    for i, j in combinations(range(algebra.dim), 2):
        lhs = VectorField.zero(n)
        for k, c in enumerate(commutator(algebra, i, j)):
            if c != 0:
                lhs = lhs + rho[k].scale_fn(RatFunc.const(n, c))
        defect = lhs - vf_bracket(rho[i], rho[j])
        if not defect.is_zero():
            return i, j, defect
    return None


def anchor_of(A, X):
    out = VectorField.zero(A.n)
    for i, xi in X.entries:
        if i in A._anchors:
            out = out + A._anchors[i].scale_fn(xi)
    return out


def _derivation_terms(A, out, X, Y, sign=1):
    """Add sign * sum_i X^i a(E_i)(Y^k) E_k into the components ``out``."""
    for i, xi in X.entries:
        a_i = A._anchors.get(i)
        if a_i is None:
            continue
        for k, yk in Y.entries:
            d = a_i.apply(yk)
            if d.is_zero():
                continue
            t = xi * d if sign > 0 else -(xi * d)
            cur = out.get(k)
            out[k] = t if cur is None else cur + t


def _anchored(A, name, X, Y):
    """The E_k-components of sum X^i Y^j E_i∘E_j for the named table, plus the Leibniz terms of X acting on Y."""
    table, out = A._require(name), {}
    for i, xi in X.entries:
        for j, yj in Y.entries:
            for k, c in table.get((i, j), ()):
                t = xi * yj * c
                out[k] = t if (cur := out.get(k)) is None else cur + t
    _derivation_terms(A, out, X, Y)
    return out


def prelie_of(A, X, Y):
    return Section._from_dict(_anchored(A, "prelie", X, Y), A.rank, A.n)


def bracket_of(A, X, Y):
    out = _anchored(A, "bracket", X, Y)
    _derivation_terms(A, out, Y, X, -1)
    return Section._from_dict(out, A.rank, A.n)


def bundle_apply(N, X):
    """The image N(X) of a section under a bundle map."""
    if X.rank != N.rank:
        raise ShapeError("section rank mismatch")
    acc = {}
    for j, xj in X.entries:
        for k, row in enumerate(N.matrix):
            if row[j].num.coeffs:
                t = row[j] * xj
                acc[k] = acc[k] + t if k in acc else t
    return Section._from_dict(acc, N.rank, X.nvars)


def with_structures(A, **changes):
    """A copy of A with the named structures (product, bracket, prelie, anchor, identity) replaced, each in the form
    the public constructor takes; a change to None keeps A's own."""
    fields = {name: getattr(A, name) for name in ("product", "bracket", "prelie", "anchor", "identity")}
    fields.update((name, value) for name, value in changes.items() if value is not None)
    return AlgebroidPresentation(A.base_vars, A.rank, **fields)


def as_prelie(A):
    """The pre-Lie algebroid whose complex deforms a commutative associative algebroid: its product as the pre-Lie
    operation, with zero anchor, in place of any pre-Lie operation and anchor that A carries."""
    zero = RatFunc.zero(A.n)
    return with_structures(A, prelie=A.product, anchor=[[zero] * A.n for _ in range(A.rank)])


def p_tensor(A, X, Y, Z):
    """P_X(Y,Z) = [X, Y·Z] - [X,Y]·Z - Y·[X,Z]."""
    return (
        bracket_of(A, X, A.multiply(Y, Z))
        - A.multiply(bracket_of(A, X, Y), Z)
        - A.multiply(Y, bracket_of(A, X, Z))
    )


def phi(A, X, Y, Z, W):
    """Failure of the Hertling-Manin relation, a (4,1) tensor."""
    return (
        p_tensor(A, A.multiply(X, Y), Z, W)
        - A.multiply(X, p_tensor(A, Y, Z, W))
        - A.multiply(Y, p_tensor(A, X, Z, W))
    )


def psi(A, X, Y, Z):
    """Psi(X,Y,Z) = X*(Y·Z) - (X*Y)·Z - Y·(X*Z), a (3,1) tensor."""
    return (
        prelie_of(A, X, A.multiply(Y, Z))
        - A.multiply(prelie_of(A, X, Y), Z)
        - A.multiply(Y, prelie_of(A, X, Z))
    )


def prelie_associator(A, X, Y, Z):
    return prelie_of(A, prelie_of(A, X, Y), Z) - prelie_of(A, X, prelie_of(A, Y, Z))


def jacobiator(A, X, Y, Z):
    return (
        bracket_of(A, bracket_of(A, X, Y), Z)
        + bracket_of(A, bracket_of(A, Y, Z), X)
        + bracket_of(A, bracket_of(A, Z, X), Y)
    )


def compose(N, M):
    """Matrix product N ∘ M of bundle maps, one image column at a time."""
    cols = [bundle_apply(N, Section(col)).components for col in zip(*M.matrix)]
    return BundleMap(zip(*cols))


def commutator_residual(F, G):
    """Per-component jet residual of the commutator of two flows."""
    if F.n != G.n:
        raise ShapeError("flows live on different base dimensions")
    return [_residual(F, G, i) for i in range(F.n)]


# -- cochains and the coboundary on sections -----------------------------------


def _lead_terms(omega, lead):
    """Nonzero coefficient products over leading index tuples."""
    terms = [((), RatFunc.one(omega.nvars))]
    for s in lead:
        terms = [(idx + (i,), w * c) for idx, w in terms for i, c in s.entries]
    return terms


def cochain_eval(omega, args):
    """Multilinear in the leading slots, sigma-Leibniz in the last."""
    last = args[-1]
    out = {}
    for idx, w in _lead_terms(omega, list(args[:-1])):
        vf = omega.sigma[idx]
        for i, c in last.entries:
            terms = [(k, w * c * v) for k, v in omega.D[idx + (i,)].entries]
            if vf.entries and (d := vf.apply(c)).num.coeffs:
                terms.append((i, w * d))
            for k, t in terms:
                out[k] = t if (cur := out.get(k)) is None else cur + t
    return Section._from_dict(out, omega.rank, omega.nvars)


def sigma_eval(omega, args):
    """Function-multilinear extension of the symbol."""
    out = VectorField.zero(omega.nvars)
    for idx, w in _lead_terms(omega, list(args)):
        out = out + omega.sigma[idx].scale_fn(w)
    return out


def _prelie_bracket(A, X, Y):
    return prelie_of(A, X, Y) - prelie_of(A, Y, X)


def d_def_eval(A, omega, args):
    """The coboundary formula evaluated directly on n+1 section arguments."""
    n = omega.degree
    last = args[n]
    total = Section.zero(omega.rank, omega.nvars)
    for i in range(1, n + 1):
        rest = args[:i - 1] + args[i:]
        head = args[:i - 1] + args[i:n]
        t1 = prelie_of(A, args[i - 1], cochain_eval(omega, rest))
        t2 = prelie_of(A, cochain_eval(omega, head + [args[i - 1]]), last)
        t3 = cochain_eval(omega, head + [prelie_of(A, args[i - 1], last)])
        term = t1 + t2 - t3
        total = total + term if i % 2 == 1 else total - term
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            others = [args[t] for t in range(n + 1) if t not in (i - 1, j - 1)]
            term = cochain_eval(omega, [_prelie_bracket(A, args[i - 1], args[j - 1])] + others)
            total = total + term if (i + j) % 2 == 0 else total - term
    return total


def d_def_sigma_eval(A, omega, args):
    """Symbol of the coboundary evaluated on n section arguments."""
    n = omega.degree
    total = VectorField.zero(omega.nvars)
    for i in range(1, n + 1):
        rest = args[:i - 1] + args[i:]
        t1 = vf_bracket(anchor_of(A, args[i - 1]), sigma_eval(omega, rest))
        t2 = anchor_of(A, cochain_eval(omega, rest + [args[i - 1]]))
        term = t1 + t2
        total = total + term if i % 2 == 1 else total - term
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            others = [args[t] for t in range(n) if t not in (i - 1, j - 1)]
            term = sigma_eval(omega, [_prelie_bracket(A, args[i - 1], args[j - 1])] + others)
            total = total + term if (i + j) % 2 == 0 else total - term
    return total


def d_def(A, omega):
    """Coboundary of a cochain on a pre-Lie algebroid presentation with any anchor, by the formula at frame tuples.

    The deformation checks multiply coordinate vectors by the sparse rows of ``deformation._d_matrix`` instead;
    with zero anchor, d_def is their oracle.
    """
    if A.prelie is None:
        raise MissingStructure("prelie")
    r, nv = omega.rank, omega.nvars
    basis = [A.basis(i) for i in range(r)]
    return MultiDer.build(omega.degree + 1, r, nv, lambda idx: d_def_eval(A, omega, [basis[i] for i in idx]),
                          lambda idx: d_def_sigma_eval(A, omega, [basis[i] for i in idx]))


# -- labelled arguments and the sweep ------------------------------------------


def frame_args(A):
    """The frame sections E_i, labelled by name."""
    return [(A.basis_name(i), A.basis(i)) for i in range(A.rank)]


def scaled_basis(A, m, i):
    """The section u^m·E_i."""
    return A.basis(i).scale_fn(A.var_fn(m))


def scaled_args(A):
    """The frame scaled by each base variable, u^m·E_i, labelled by name, in the order of ``_scaled_labels``."""
    sections = (scaled_basis(A, m, i) for m in range(A.n) for i in range(A.rank))
    return list(zip(_scaled_labels(A), sections))


def cases(spec):
    """The cases of a case spec, a tuple of products of label axes: the tuples of each product in turn."""
    return (case for axes in spec for case in iproduct(*axes))


def section_sweep(A, report, table, prefix=""):
    """Run a law table into ``report``, one block per row (spec, (law, residual)): each case of the spec (``cases``),
    a tuple of labelled sections, is one instance named ``prefix(name,...)``, checked by calling the residual on the
    sections."""
    for spec, (law, residual) in table:
        names, fails = [], {}
        report.blocks.append((law, names, fails))
        for case in cases(spec):
            labels, args = zip(*case)
            witness = _witness(A, residual(*args))
            if witness is not None:
                fails[len(names)] = witness
            names.append(f"{prefix}({','.join(labels)})")
    return report


def tensor_of(A, op):
    """The tensor t with t[k][i][j] the E_k-part of op(E_i, E_j)."""
    r = range(A.rank)
    vals = [[op(A.basis(i), A.basis(j)).components for j in r] for i in r]
    return [[[vals[i][j][k] for j in r] for i in r] for k in r]


# -- the packed contraction, hit by hit ---------------------------------------


def packed_oracle(terms, n):
    """The packed contraction as it was summed hit by hit, kept verbatim as the oracle of ``_packed``: for each
    (∘ entry, ⋄ entry) pair, one offset sum, one scale of the entry's coefficients to the lcm and one nested
    loop over their monomials. ``terms`` are as ``_packed`` takes them, each table as ``_nonzeros`` lists it."""
    low, rows, dens = _W * (n + 1) + 1, [], set()
    nz = [*chain.from_iterable(t for _, _, *tables in terms for t in tables)]
    w = max(chain(map(itemgetter(1), nz), chain.from_iterable(map(itemgetter(0), nz))), default=0).bit_length() or 1
    for s, shape, inner, *outer in terms:
        if not inner or outer and not outer[0]:
            continue
        at, ws, kw, mark, nest = _packing(shape, w, low)
        groups, lcms = None, {}
        if outer:  # ⋄'s entries by the slot ∘ fills, and the lcm of their denominators
            (ws2, kw2, mark2), groups = nest, {}
            for idx, k, d in outer[0]:
                off = sum(map(mul, idx, ws2)) + k * kw2 + mark2
                groups.setdefault(idx[at], []).append((off, d.coeffs.items(), d.denom))
                if d.denom != 1:
                    lcms[idx[at]] = int_lcm(lcms.get(idx[at], 1), d.denom)
        rows.append((s, inner, ws, kw, mark, groups))
        dens.update(c.denom * lcms.get(m, 1) for _, m, c in inner if groups is None or m in groups)
    lcm, acc = int_lcm(*dens), {}
    get = acc.get
    for s, inner, ws, kw, mark, groups in rows:
        for idx, k, c in inner:  # with no ⋄, each entry of ∘ is one hit on the unit polynomial
            f, off, t1 = s * lcm // c.denom, sum(map(mul, idx, ws)) + mark, c.coeffs.items()
            for off2, t2, den in ((k * kw, ((0, 1),), 1),) if groups is None else groups.get(k, ()):
                g, off2 = f // den, off2 + off
                for e2, b in t2:
                    b *= g
                    e2 += off2
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


# -- eventual identities and flatness ---------------------------------------


def pseudo_eventual(A, E):
    """The pseudo-eventual identity pair by pair: P_ℰ(X,Y) - [e,ℰ]·X·Y."""
    factor, frame = bracket_of(A, A.identity, E), frame_args(A)

    def residual(X, Y):
        return p_tensor(A, E, X, Y) - A.multiply(A.multiply(factor, X), Y)

    return section_sweep(A, Report("oracle"), [(((frame, frame),), ("pseudo-eventual-identity", residual))])


def pre_f_eventual(A, E):
    """The pre-F eventual-identity relations with ``psi`` and ``prelie_of``, the two laws alternating pair by pair."""
    factor, mul = prelie_of(A, E, A.identity), A.multiply
    laws = (("psi-eventual-relation", lambda X, Y: psi(A, E, X, Y) + mul(mul(factor, X), Y)),
            ("prelie-eventual-symmetry", lambda X, Y: mul(prelie_of(A, X, E), Y) - mul(prelie_of(A, Y, E), X)))
    frame = frame_args(A)
    table = [((((a,), (b,)),), law) for a in frame for b in frame for law in laws]
    return section_sweep(A, Report("oracle"), table)


def flat_condition(T, nabla, X):
    """Egorov symmetry (nabla_{d_j} X)·E_l - (nabla_{d_l} X)·E_j on the frame pairs j < l."""

    def egorov(j, l):
        lhs = T.multiply(nabla.covariant_derivative(T, j, X), T.basis(l))
        return lhs - T.multiply(nabla.covariant_derivative(T, l, X), T.basis(j))

    labelled = [(T.basis_name(i), i) for i in range(T.rank)]
    pairs = tuple(((a,), labelled[i + 1:]) for i, a in enumerate(labelled))
    return section_sweep(T, Report("oracle"), [(pairs, ("egorov-symmetry", egorov))])


# -- Nijenhuis operators --------------------------------------------------------

OPERATIONS = {"product": lambda A: A.multiply, "bracket": lambda A: partial(bracket_of, A),
              "prelie": lambda A: partial(prelie_of, A)}
MODES = {"comm": ("product",), "lie": ("bracket",), "prelie": ("prelie",), "f": ("product", "bracket"),
         "pre_f": ("product", "prelie")}
LAWS = {"product": "nijenhuis-comm", "bracket": "nijenhuis-lie", "prelie": "nijenhuis-prelie"}


def deformed_op(N, op):
    """The deformed operation μ_N(X, Y) = μ(NX, Y) + μ(X, NY) - N μ(X, Y), N given as a function."""
    return lambda X, Y: op(N(X), Y) + op(X, N(Y)) - N(op(X, Y))


def torsion(N, op):
    """The Nijenhuis torsion μ(NX, NY) - N μ_N(X, Y) of an operation."""
    apply = cache(partial(bundle_apply, N))
    deformed = deformed_op(apply, op)
    return lambda X, Y: op(apply(X), apply(Y)) - bundle_apply(N, deformed(X, Y))


def nijenhuis(A, N, on):
    """The torsion of each operation of the mode on frame pairs."""
    frame = frame_args(A)
    table = [(((frame, frame),), (LAWS[name], torsion(N, OPERATIONS[name](A)))) for name in MODES[on]]
    return section_sweep(A, Report(f"Nijenhuis operator ({on})"), table)


def nijenhuis_deformation(A, N):
    """The presentation deformed by N, from sections: the twisted operations and the anchor a∘N."""
    names = ["product"] + [name for name in ("bracket", "prelie") if getattr(A, name) is not None][:1]
    apply = partial(bundle_apply, N)
    twisted = {name: tensor_of(A, deformed_op(apply, OPERATIONS[name](A))) for name in names}
    anchor = None if A.anchor is None else [anchor_of(A, apply(A.basis(i))).components for i in range(A.rank)]
    return AlgebroidPresentation(A.base_vars, A.rank, twisted["product"], bracket=twisted.get("bracket"),
                                 prelie=twisted.get("prelie"), anchor=anchor)


# -- deformations -----------------------------------------------------------------


def mu(deform, k):
    """The degree-2 cochain of order k: mu_0 is the base product, with zero symbol."""
    A = deform.base
    if k:
        return deform.mus[k - 1]
    return MultiDer.build(2, A.rank, A.n, lambda idx: A.multiply(A.basis(idx[0]), A.basis(idx[1])))


def order_k_residual(deform, k, X, Y, Z):
    """Order-k associator-symmetry residual of the deformed product, through ``cochain_eval``."""
    A = deform.base
    total = Section.zero(A.rank, A.n)
    for i in range(max(0, k - deform.order), min(k, deform.order) + 1):
        mi, mj = mu(deform, i), mu(deform, k - i)
        term = (
            cochain_eval(mi, [cochain_eval(mj, [X, Y]), Z])
            - cochain_eval(mi, [X, cochain_eval(mj, [Y, Z])])
            - cochain_eval(mi, [cochain_eval(mj, [Y, X]), Z])
            + cochain_eval(mi, [Y, cochain_eval(mj, [X, Z])])
        )
        total = total + term
    return total


def n_deformation(deform):
    """The order-by-order rule on frame triples and with the third slot scaled (``_prelie_tuples``)."""
    A = deform.base
    report = Report(f"pre-Lie {deform.order}-deformation")
    for k in range(deform.order + 1):
        rule = lambda X, Y, Z, k=k: order_k_residual(deform, k, X, Y, Z)  # noqa: E731
        section_sweep(A, report, [(_prelie_tuples(frame_args(A), scaled_args(A)), ("pre-lie-rule", rule))],
                      prefix=f"order {k} ")
    return report
