"""The Section oracle: the library's checks evaluated on sections, instance by instance.

The library contracts every residual from the tables (``algebroid._point_tensor``) and reads the instances off
the contraction (``algebroid._sweep``). Here the same laws are evaluated with ``multiply``, ``bracket_of``,
``prelie_of``, ``BundleMap.apply`` and ``MultiDer.eval`` at the labelled test sections themselves, through a
sweep that calls each residual on each case, so the tests can compare instance names, pass flags and witnesses.
"""

from functools import cache
from itertools import combinations
from itertools import product as iproduct

from falgebroid.algebroid import AlgebroidPresentation, Section, _prelie_tuples, _scaled_labels, _witness
from falgebroid.deformation import MultiDer
from falgebroid.report import Report


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


def section_sweep(A, report, table, prefix=""):
    """Run a law table into ``report``, one block per row (cases, (law, residual)): each case, a tuple of labelled
    sections, is one instance named ``prefix(name,...)``, checked by calling the residual on the sections."""
    for cases, (law, residual) in table:
        names, fails = [], {}
        report.blocks.append((law, names, fails))
        for case in cases:
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


# -- eventual identities and flatness ---------------------------------------


def pseudo_eventual(A, E):
    """The pseudo-eventual identity pair by pair: P_ℰ(X,Y) - [e,ℰ]·X·Y."""
    factor, frame = A.bracket_of(A.identity, E), frame_args(A)

    def residual(X, Y):
        return A.p_tensor(E, X, Y) - A.multiply(A.multiply(factor, X), Y)

    return section_sweep(A, Report("oracle"), [(iproduct(frame, frame), ("pseudo-eventual-identity", residual))])


def pre_f_eventual(A, E):
    """The pre-F eventual-identity relations with ``psi`` and ``prelie_of``, the two laws alternating pair by pair."""
    factor, mul = A.prelie_of(E, A.identity), A.multiply
    laws = (("psi-eventual-relation", lambda X, Y: A.psi(E, X, Y) + mul(mul(factor, X), Y)),
            ("prelie-eventual-symmetry", lambda X, Y: mul(A.prelie_of(X, E), Y) - mul(A.prelie_of(Y, E), X)))
    table = [([pair], law) for pair in iproduct(frame_args(A), repeat=2) for law in laws]
    return section_sweep(A, Report("oracle"), table)


def flat_condition(T, nabla, X):
    """Egorov symmetry (nabla_{d_j} X)·E_l - (nabla_{d_l} X)·E_j on the frame pairs j < l."""

    def egorov(j, l):
        lhs = T.multiply(nabla.covariant_derivative(T, j, X), T.basis(l))
        return lhs - T.multiply(nabla.covariant_derivative(T, l, X), T.basis(j))

    labelled = [(T.basis_name(i), i) for i in range(T.rank)]
    return section_sweep(T, Report("oracle"), [(combinations(labelled, 2), ("egorov-symmetry", egorov))])


# -- Nijenhuis operators --------------------------------------------------------

OPERATIONS = {"product": "multiply", "bracket": "bracket_of", "prelie": "prelie_of"}
MODES = {"comm": ("product",), "lie": ("bracket",), "prelie": ("prelie",), "f": ("product", "bracket"),
         "pre_f": ("product", "prelie")}
LAWS = {"product": "nijenhuis-comm", "bracket": "nijenhuis-lie", "prelie": "nijenhuis-prelie"}


def deformed_op(N, op):
    """The deformed operation μ_N(X, Y) = μ(NX, Y) + μ(X, NY) - N μ(X, Y), N given as a function."""
    return lambda X, Y: op(N(X), Y) + op(X, N(Y)) - N(op(X, Y))


def torsion(N, op):
    """The Nijenhuis torsion μ(NX, NY) - N μ_N(X, Y) of an operation."""
    apply = cache(N.apply)
    deformed = deformed_op(apply, op)
    return lambda X, Y: op(apply(X), apply(Y)) - N.apply(deformed(X, Y))


def nijenhuis(A, N, on):
    """The torsion of each operation of the mode, on frame pairs, and for the bracket and the pre-Lie operation
    also on the scaled frame."""
    frame, table = frame_args(A), []
    for name in MODES[on]:
        args = frame if name == "product" else frame + scaled_args(A)
        table.append((iproduct(args, args), (LAWS[name], torsion(N, getattr(A, OPERATIONS[name])))))
    return section_sweep(A, Report(f"Nijenhuis operator ({on})"), table)


def nijenhuis_deformation(A, N):
    """The presentation deformed by N, from sections: the twisted operations and the anchor a∘N."""
    names = ["product"] + [name for name in ("bracket", "prelie") if getattr(A, name) is not None][:1]
    twisted = {name: tensor_of(A, deformed_op(N.apply, getattr(A, OPERATIONS[name]))) for name in names}
    anchor = None if A.anchor is None else [A.anchor_of(N.apply(A.basis(i))).components for i in range(A.rank)]
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
    """Order-k associator-symmetry residual of the deformed product, through ``MultiDer.eval``."""
    A = deform.base
    total = Section.zero(A.rank, A.n)
    for i in range(max(0, k - deform.order), min(k, deform.order) + 1):
        mi, mj = mu(deform, i), mu(deform, k - i)
        term = (
            mi.eval([mj.eval([X, Y]), Z])
            - mi.eval([X, mj.eval([Y, Z])])
            - mi.eval([mj.eval([Y, X]), Z])
            + mi.eval([Y, mj.eval([X, Z])])
        )
        total = total + term
    return total


def n_deformation(deform):
    """The order-by-order rule on frame triples and with each slot in turn scaled."""
    A = deform.base
    report = Report(f"pre-Lie {deform.order}-deformation")
    for k in range(deform.order + 1):
        rule = lambda X, Y, Z, k=k: order_k_residual(deform, k, X, Y, Z)  # noqa: E731
        section_sweep(A, report, [(_prelie_tuples(frame_args(A), scaled_args(A)), ("pre-lie-rule", rule))],
                      prefix=f"order {k} ")
    return report
