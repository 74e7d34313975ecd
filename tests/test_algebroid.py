"""Structure-law checks: fixtures pass, mutants fail with witnesses."""

import random
from fractions import Fraction
from functools import cache, partial
from itertools import chain
from itertools import product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from falgebroid.algebroid import (
    LAWS,
    AlgebroidPresentation,
    Section,
    VectorField,
    _anchor_defect,
    _names,
    _nonzeros,
    _packed,
    _point_tensor,
    _prelie_tuples,
    _witness,
    check_laws,
    check_comm_assoc,
    check_f_algebroid,
    check_lie_algebroid,
    check_pre_f,
    check_pre_lie_algebroid,
    check_prelie_com,
    find_identity,
    sub_adjacent,
)
from falgebroid.constructions import FiniteAlgebra, load_fixture
from falgebroid.duality import (
    dubrovin_dual,
    is_nijenhuis,
    is_pre_f_eventual_identity,
    is_pseudo_eventual_identity,
    multiplication_matrix,
)
from falgebroid.errors import DegreeOverflow, MissingStructure, ShapeError
from falgebroid.exprparse import parse_expr
from falgebroid.report import Report
from falgebroid.ring import MAX_DEGREE, Poly, RatFunc
from section_oracle import anchor_of, bracket_of, cases, frame_args, jacobiator, nijenhuis, phi, pre_f_eventual
from section_oracle import prelie_associator, prelie_of, pseudo_eventual, psi, scaled_args, section_sweep, vf_bracket
from section_oracle import packed_oracle, with_structures
from test_ring import DEADLINE, fractions, ratfuncs


def _mutate_tensor(tensor, k, i, j, value):
    out = [[list(row) for row in mat] for mat in tensor]
    out[k][i][j] = value
    return out


@pytest.mark.parametrize(
    "name,checker",
    [
        ("FM2", check_f_algebroid),
        ("ACT2", check_f_algebroid),
        ("SS1", check_f_algebroid),
        ("SS2", check_f_algebroid),
        ("SS3", check_f_algebroid),
        ("SS1", check_prelie_com),
        ("SS2", check_prelie_com),
        ("SS3", check_prelie_com),
        ("TR", check_prelie_com),
        ("TR2", check_prelie_com),
        ("DN2_2", check_prelie_com),
        ("POISSON_SEED", check_f_algebroid),
    ],
)
def test_fixture_laws(name, checker):
    report = checker(load_fixture(name))
    assert report.overall, report.summary()


def test_mutant_product_breaks_symmetry_and_associativity():
    A = load_fixture("SS2")
    u1 = RatFunc.var(2, 0)
    bad = with_structures(A, product=_mutate_tensor(A.product, 0, 0, 1, u1))
    report = check_comm_assoc(bad)
    assert not report.overall
    laws = {c.law for c in report.failures()}
    assert "product-symmetry" in laws
    # every failure carries a witness expression
    assert all(c.witness for c in report.failures())


def test_mutant_bracket_breaks_antisymmetry():
    A = load_fixture("SS2")
    one = RatFunc.one(2)
    bad = with_structures(A, bracket=_mutate_tensor(A.bracket, 0, 0, 0, one))
    report = check_lie_algebroid(bad)
    assert not report.overall
    assert any(c.law == "bracket-antisymmetry" for c in report.failures())


def test_mutant_jacobi_failure_over_point():
    F = Fraction
    r = 3
    # antisymmetric bracket with [e1,e2]=e3, [e1,e3]=e1, [e2,e3]=0 fails
    # Jacobi: the cyclic sum on (e1,e2,e3) leaves [e2,-e1] = e3
    b = [[[F(0)] * r for _ in range(r)] for _ in range(r)]
    for k, i, j in ((2, 0, 1), (0, 0, 2)):
        b[k][i][j] = F(1)
        b[k][j][i] = F(-1)
    prod = [[[F(0)] * r for _ in range(r)] for _ in range(r)]
    alg = FiniteAlgebra(dim=r, product=prod, bracket=b)
    report = check_lie_algebroid(alg.to_presentation())
    assert not report.overall
    assert any(c.law == "jacobi" for c in report.failures())


def test_anchor_matters_for_jacobi():
    # TR carries bracket terms only through the anchor; replacing the anchor
    # by 1 instead of u changes nothing (still a Lie algebroid), but an
    # anchor that is not a homomorphism for the bracket fails the f-scaled
    # Jacobi sweep. Build rank 2 over one variable with [E1,E2] = E2 and an
    # anchor that cannot anchor that bracket.
    n, r = 1, 2
    zero, one = RatFunc.zero(n), RatFunc.one(n)
    u = RatFunc.var(n, 0)
    bracket = [[[zero, zero], [zero, zero]], [[zero, one], [-one, zero]]]
    product = [[[one, zero], [zero, zero]], [[zero, one], [one, zero]]]
    A = AlgebroidPresentation(
        base_vars=["u"],
        rank=r,
        product=product,
        bracket=bracket,
        anchor=[[u], [u]],
    )
    report = check_lie_algebroid(A)
    assert not report.overall
    # the defect only appears on variable-scaled arguments
    basis_only = [c for c in report.failures() if "*" not in c.instance]
    assert not basis_only


def test_hertling_manin_mutant():
    A = load_fixture("SS2")
    u2 = RatFunc.var(2, 1)
    bad = with_structures(A, bracket=_mutate_tensor(A.bracket, 0, 0, 1, u2))
    # restore antisymmetry so only the compatibility law can fail
    t = _mutate_tensor(bad.bracket, 0, 1, 0, -u2)
    bad = with_structures(bad, bracket=t)
    report = check_f_algebroid(bad)
    assert not report.overall
    assert any(c.law == "hertling-manin" for c in report.failures())


def test_phi_tensoriality_on_ss2():
    A = load_fixture("SS2")
    basis = [A.basis(i) for i in range(A.rank)]
    for m in range(A.n):
        f = A.var_fn(m)
        for X in basis:
            for Y in basis:
                for Z in basis:
                    for W in basis:
                        base = phi(A, X, Y, Z, W).scale_fn(f)
                        assert phi(A, X.scale_fn(f), Y, Z, W) - base == Section.zero(2, 2)
                        assert phi(A, X, Y, Z.scale_fn(f), W) - base == Section.zero(2, 2)


def test_psi_vanishes_on_prelie_com_fixture():
    A = load_fixture("TR2")
    basis = [A.basis(i) for i in range(A.rank)]
    for X in basis:
        for Y in basis:
            for Z in basis:
                assert psi(A, X, Y, Z).is_zero()


def test_find_identity():
    A = load_fixture("SS2")
    e = find_identity(A)
    assert e is not None and all(c == RatFunc.one(2) for c in e.components)
    FM2 = load_fixture("FM2")
    e = find_identity(FM2)
    assert e is not None
    assert e.components[0] == RatFunc.one(0) and e.components[1] == RatFunc.zero(0)
    # a nil product has no identity
    zero = RatFunc.zero(0)
    nil = AlgebroidPresentation(base_vars=[], rank=1, product=[[[zero]]])
    assert find_identity(nil) is None


def test_sub_adjacent_bracket_is_prelie_commutator():
    for name in ("TR", "TR2", "DN2_2"):
        A = load_fixture(name)
        B = sub_adjacent(A)
        r = A.rank
        expected = [
            [
                [A.prelie[k][i][j] - A.prelie[k][j][i] for j in range(r)]
                for i in range(r)
            ]
            for k in range(r)
        ]
        assert B.bracket == expected
        assert check_lie_algebroid(B).overall


def test_pre_lie_checker_passes_and_missing_structure():
    A = load_fixture("TR")
    assert check_pre_lie_algebroid(A).overall
    assert check_pre_f(A).overall
    no_prelie = load_fixture("FM2")
    with pytest.raises(MissingStructure):
        check_pre_lie_algebroid(no_prelie)
    with pytest.raises(MissingStructure):
        prelie_of(no_prelie, no_prelie.basis(0), no_prelie.basis(1))


def test_anchor_leibniz_regression():
    """bracket_of expands the anchored Leibniz rule: [E_i, u^m·E_j] = u^m·[E_i,E_j] + a(E_i)(u^m)·E_j."""
    for name in ("SS2", "TR", "ACT2"):
        A = load_fixture(name)
        for m, i, j in iproduct(range(A.n), range(A.rank), range(A.rank)):
            u, E_i, E_j = RatFunc.var(A.n, m), A.basis(i), A.basis(j)
            expected = bracket_of(A, E_i, E_j).scale_fn(u) + E_j.scale_fn(anchor_of(A, E_i).apply(u))
            assert bracket_of(A, E_i, E_j.scale_fn(u)) == expected, (name, m, i, j)


def test_shape_validation():
    zero = RatFunc.zero(1)
    with pytest.raises(ShapeError):
        AlgebroidPresentation(base_vars=["u"], rank=2, product=[[[zero]]])
    with pytest.raises(ShapeError):
        AlgebroidPresentation(base_vars=["u"], rank=0, product=[])


def test_identity_consequences():
    A = load_fixture("SS2")
    e = A.identity
    for i in range(A.rank):
        assert A.multiply(e, A.basis(i)) == A.basis(i)
    # identity times arbitrary section with function coefficients
    X = Section([RatFunc.var(2, 0) ** 2, RatFunc.var(2, 1) + RatFunc.one(2)])
    assert A.multiply(e, X) == X


# -- report invariants of the law engine ----------------------------------

SHIPPED = ("FM2", "ACT2", "SS1", "SS2", "SS3", "TR", "TR2", "POISSON_SEED", "DN2_2")


# The public checker of each ``falg check`` law in the library table.
CHECKERS = {
    "comm-assoc": check_comm_assoc,
    "lie": check_lie_algebroid,
    "f-algebroid": check_f_algebroid,
    "pre-lie": check_pre_lie_algebroid,
    "pre-f": check_pre_f,
    "prelie-com": check_prelie_com,
}


def test_every_law_has_its_public_checker():
    assert list(CHECKERS) == list(LAWS)


def _carried_laws(A):
    """The ``falg check`` laws whose structures A carries."""
    needs = {"lie": "bracket", "f-algebroid": "bracket", "pre-lie": "prelie", "pre-f": "prelie", "prelie-com": "prelie"}
    return [law for law in LAWS if A.has(needs.get(law, "product"))]


def _mutants():
    """One mutant per law family, each failing its checker."""
    ss2 = load_fixture("SS2")
    u1, u2 = RatFunc.var(2, 0), RatFunc.var(2, 1)
    t = _mutate_tensor(ss2.bracket, 0, 0, 1, u2)
    hm = with_structures(ss2, bracket=_mutate_tensor(t, 0, 1, 0, -u2))
    tr2 = load_fixture("TR2")
    bad_prelie = with_structures(tr2, prelie=_mutate_tensor(tr2.prelie, 0, 0, 1, RatFunc.var(2, 0)))
    return [
        ("comm-assoc", with_structures(ss2, product=_mutate_tensor(ss2.product, 0, 0, 1, u1))),
        ("lie", with_structures(ss2, bracket=_mutate_tensor(ss2.bracket, 0, 0, 0, RatFunc.one(2)))),
        ("f-algebroid", hm),
        ("pre-lie", bad_prelie),
        ("pre-f", bad_prelie),
        ("prelie-com", bad_prelie),
    ]


def _engine_cases():
    cases = [(name, law, load_fixture(name), True) for name in SHIPPED for law in _carried_laws(load_fixture(name))]
    cases += [(f"mutant-{law}", law, A, False) for law, A in _mutants()]
    return [pytest.param(A, law, passes, id=f"{name}-{law}") for name, law, A, passes in cases]


@pytest.mark.parametrize("A,law,passes", _engine_cases())
def test_engine_report_invariants(A, law, passes):
    from falgebroid.exprparse import parse_expr

    report = CHECKERS[law](A)
    assert report.overall == passes
    pairs = [(c.law, c.instance) for c in report.checks]
    assert len(pairs) == len(set(pairs))
    for c in report.checks:
        if c.passed:
            assert c.witness is None
        else:
            assert c.witness
            values = [parse_expr(t, A.base_vars) for t in c.witness.split(", ")]
            assert len(values) == A.rank and any(not v.is_zero() for v in values)


# -- sparse sections against the dense oracle ------------------------------
#
# Test-only copies of the dense Section arithmetic, of the dense
# contraction that visits every (i, j) pair and of the dense vector field.
# Normal forms are unique, so the sparse evaluator must agree with them
# component for component.


def _dense_add(xs, ys):
    return tuple(a + b for a, b in zip(xs, ys))


def _dense_sub(xs, ys):
    return tuple(a - b for a, b in zip(xs, ys))


def _dense_contract(A, tensor, xs, ys):
    out = [RatFunc.zero(A.n)] * A.rank
    for i, xi in enumerate(xs):
        for j, yj in enumerate(ys):
            if xi.is_zero() or yj.is_zero():
                continue
            w = xi * yj
            for k in range(A.rank):
                out[k] = out[k] + w * tensor[k][i][j]
    return tuple(out)


class DenseVectorField:
    """The dense-tuple vector field that the sparse ``VectorField`` replaced.

    Kept only as the oracle: every operation must give the same components
    as ``VectorField``.
    """

    def __init__(self, comps):
        self.comps = tuple(comps)

    @staticmethod
    def zero(nvars):
        return DenseVectorField(RatFunc.zero(nvars) for _ in range(nvars))

    def __add__(self, other):
        return DenseVectorField(a + b for a, b in zip(self.comps, other.comps))

    def __sub__(self, other):
        return DenseVectorField(a - b for a, b in zip(self.comps, other.comps))

    def __neg__(self):
        return DenseVectorField(-a for a in self.comps)

    def scale_fn(self, f):
        return DenseVectorField(f * a for a in self.comps)

    def apply(self, f):
        out = RatFunc.zero(f.nvars)
        for i, v in enumerate(self.comps):
            if not v.is_zero():
                out = out + v * f.derivative(i)
        return out


def dense_vf_bracket(v, w):
    n = len(v.comps)
    comps = []
    for mu in range(n):
        c = RatFunc.zero(n)
        for i in range(n):
            if not v.comps[i].is_zero():
                c = c + v.comps[i] * w.comps[mu].derivative(i)
            if not w.comps[i].is_zero():
                c = c - w.comps[i] * v.comps[mu].derivative(i)
        comps.append(c)
    return DenseVectorField(comps)


def _dense_anchor(A, i):
    return DenseVectorField(A.anchor[i]) if A.anchor is not None else DenseVectorField.zero(A.n)


def _dense_anchor_of(A, xs):
    """Components of a(X) = sum_i X^i a(E_i)."""
    out = DenseVectorField.zero(A.n)
    for i, xi in enumerate(xs):
        out = out + _dense_anchor(A, i).scale_fn(xi)
    return out.comps


def _dense_derivation(A, xs, ys):
    """Components of sum_i X^i a(E_i)(Y^k) E_k."""
    out = [RatFunc.zero(A.n)] * A.rank
    for i, xi in enumerate(xs):
        a_i = _dense_anchor(A, i)
        for k in range(A.rank):
            out[k] = out[k] + xi * a_i.apply(ys[k])
    return tuple(out)


def _seeded_mutant():
    """SS2 with one seeded random constant changed in each of its three tensors."""
    rng = random.Random(17)
    A = load_fixture("SS2")
    u1, u2 = RatFunc.var(2, 0), RatFunc.var(2, 1)

    def value():
        return u1 * RatFunc.const(2, rng.randint(-3, 3)) + u2 * u2 * RatFunc.const(2, rng.randint(1, 3))

    def pos():
        return rng.randrange(2), rng.randrange(2), rng.randrange(2)

    return with_structures(
        A,
        product=_mutate_tensor(A.product, *pos(), value()),
        bracket=_mutate_tensor(A.bracket, *pos(), value()),
        prelie=_mutate_tensor(A.prelie, *pos(), value()),
    )


@cache
def _oracle_case(name):
    return _seeded_mutant() if name == "mutant" else load_fixture(name)


def _sections(A, rank=None, cls=Section):
    """Random sections over A (of ``rank``, by default A's): components from the ring strategies, often zero."""
    zero = RatFunc.zero(A.n)
    if A.n == 0:
        coeff = fractions.map(lambda c: RatFunc.const(0, c))
    else:
        assert A.n == 2
        coeff = ratfuncs()
    size = A.rank if rank is None else rank
    return st.lists(st.one_of(st.just(zero), coeff), min_size=size, max_size=size).map(cls)


@pytest.mark.parametrize("name", ["SS2", "TR2", "ACT2", "DN2_2", "mutant"])
@settings(max_examples=40, deadline=DEADLINE)
@given(data=st.data())
def test_sparse_evaluation_matches_dense_oracle(name, data):
    A = _oracle_case(name)
    X, Y = data.draw(_sections(A)), data.draw(_sections(A))
    xs, ys = X.components, Y.components
    assert A.multiply(X, Y).components == _dense_contract(A, A.product, xs, ys)
    plus, minus = _dense_derivation(A, xs, ys), _dense_derivation(A, ys, xs)
    if A.bracket is not None:
        want = _dense_sub(_dense_add(_dense_contract(A, A.bracket, xs, ys), plus), minus)
        assert bracket_of(A, X, Y).components == want
    if A.prelie is not None:
        assert prelie_of(A, X, Y).components == _dense_add(_dense_contract(A, A.prelie, xs, ys), plus)
    assert (X + Y).components == _dense_add(xs, ys)
    assert (X - Y).components == _dense_sub(xs, ys)
    assert (-X).components == tuple(-c for c in xs)
    f = ys[0]
    assert X.scale_fn(f).components == tuple(f * c for c in xs)
    # sections built sparse (by evaluation) equal and hash like those built dense
    for s in (X, A.multiply(X, Y), X - X, X.scale_fn(f)):
        assert Section(s.components) == s
        assert hash(Section(s.components)) == hash(s)
        assert s.is_zero() == all(c.is_zero() for c in s.components)
    # vector fields: the anchor's image and random fields over A's base
    V, W = data.draw(_sections(A, A.n, VectorField)), data.draw(_sections(A, A.n, VectorField))
    assert anchor_of(A, X).components == _dense_anchor_of(A, xs)
    for v, w in ((V, W), (anchor_of(A, X), anchor_of(A, Y))):
        dv, dw = DenseVectorField(v.components), DenseVectorField(w.components)
        for got, want in ((v + w, dv + dw), (v - w, dv - dw), (-v, -dv), (v.scale_fn(f), dv.scale_fn(f)),
                          (vf_bracket(v, w), dense_vf_bracket(dv, dw))):
            assert type(got) is VectorField and got.components == want.comps
            assert VectorField(got.components) == got and hash(VectorField(got.components)) == hash(got)
        assert v.apply(f) == dv.apply(f) and w.apply(ys[-1]) == dw.apply(ys[-1])


QU3 = {"base_vars": [], "rank": 3, "product": [[[str(int(i + j == k)) for j in range(3)] for i in range(3)]
                                               for k in range(3)]}  # Q[u]/u^3: E_i·E_j = E_(i+j) below degree 3


@cache
def built_presentations():
    """Every shipped fixture (with SS4 and DN2) and a presentation from each library builder: the Dubrovin dual of
    SS3, SS3 deformed by multiplication with its Euler field, SS2 × TR, the sub-adjacent TR2 and the semi-classical
    limit of Q[u]/u^3 along twice the weight cocycle mu1(E_i, E_j) = 2j·E_(i+j)."""
    from falgebroid.constructions import direct_product
    from falgebroid.deformation import FormalDeformation, MultiDer, semiclassical_limit
    from falgebroid.duality import nijenhuis_deformation
    from falgebroid.exprparse import parse_presentation

    out = {name: load_fixture(name) for name in SHIPPED + ("SS4", "DN2")}
    SS3, u = out["SS3"], [RatFunc.var(3, m) for m in range(3)]
    out["SS3-dual"] = _presentation("SS3-dual")
    out["SS3-nijenhuis"] = nijenhuis_deformation(SS3, multiplication_matrix(SS3, Section(u)))[1]
    out["SS2xTR"] = direct_product(out["SS2"], out["TR"])
    out["TR2-sub-adjacent"] = sub_adjacent(out["TR2"])
    qu3 = parse_presentation(QU3)
    w3 = MultiDer.build(2, 3, 0, lambda idx: Section([RatFunc.const(0, 2 * idx[1] * (idx[0] + idx[1] == k))
                                                      for k in range(3)]))
    out["QU3-semiclassical"] = semiclassical_limit(FormalDeformation(qu3, [w3]))
    return out


def test_compiled_tables_hold_exactly_the_nonzero_constants():
    """Every table is a dict keyed by index tuples: ``_tables`` holds exactly the nonzero constants, with no empty
    cell and no zero entry, and ``constants`` and ``derivatives`` hold the nonzero cells of their ``_value``s, on
    every ``built_presentations`` case and on the rational ``_view`` that a section with a denominator selects."""
    for name, A in built_presentations().items():
        r, views = range(A.rank), [A]
        if A.n:
            one = RatFunc.one(A.n)
            views.append(A._view(one / (RatFunc.var(A.n, 0) + one)))
            assert not views[1].polynomial, name
        assert all(vf.entries and vf.rank == A.n for vf in A._anchors.values()), name
        for t in ("product", "bracket", "prelie"):
            T = getattr(A, t)
            if T is None:
                assert not A.has(t), (name, t)
                continue
            cells = {(i, j): cell for i in r for j in r
                     if (cell := tuple((k, T[k][i][j]) for k in r if not T[k][i][j].is_zero()))}
            assert type(A._tables[t]) is dict and A._tables[t] == cells, (name, t)
            assert all(cell and all(c for _, c in cell) for cell in A._tables[t].values()), (name, t)
            for B in views:
                assert B.constants(t) == {ij: {k: B._value(c) for k, c in cell} for ij, cell in cells.items()}
                derivatives = B.derivatives(t)
                assert type(derivatives) is dict, (name, t)
                assert all(len(key) == 3 and key[1:] in cells and cell for key, cell in derivatives.items()), (name, t)
        for B in views:
            anchor = B.constants("anchor")
            assert type(anchor) is dict and all(len(key) == 1 and cell for key, cell in anchor.items()), name


def test_the_library_reads_no_dense_view(monkeypatch):
    """Every library builder writes tables and every check reads them: with the dense views refused, the
    ``built_presentations``, the law checks on each, both duals with their certificates, the principal hierarchy,
    point cohomology, an obstruction and ``find_identity`` still run. Only ``presentation_to_document`` reads one."""
    from falgebroid.constructions import fm2_algebra
    from falgebroid.deformation import FormalDeformation, MultiDer, cohomology_point, obstruction
    from falgebroid.duality import pre_f_dual, verify_certificate
    from falgebroid.hierarchy import Connection, principal_hierarchy

    def refuse(*args):
        raise AssertionError("the library read a dense view")

    monkeypatch.setattr(AlgebroidPresentation, "_dense", refuse)
    monkeypatch.setattr(AlgebroidPresentation, "anchor", property(refuse))
    built = built_presentations.__wrapped__()
    for name, A in built.items():
        assert check_laws(A, _carried_laws(A), Report(name)).checks, name
    SS3 = built["SS3"]
    E = Section([RatFunc.var(3, m) for m in range(3)])
    for dual in (dubrovin_dual, pre_f_dual):
        cert = dual(SS3, E)
        assert verify_certificate(cert).overall and find_identity(cert.dual) == cert.inverse
    assert principal_hierarchy(SS3, Connection(), [SS3.basis(i) for i in range(3)], 2)
    assert cohomology_point(fm2_algebra(), 2)
    SS2 = built["SS2"]
    mu1 = MultiDer.build(2, 2, 2, lambda idx: Section.zero(2, 2), lambda idx: VectorField.basis(2, 2, idx[0]))
    assert obstruction(FormalDeformation(SS2, [mu1])) is not None


def test_section_components_round_trip_with_zeros():
    zero, f = RatFunc.zero(2), RatFunc.var(2, 1)
    for dense in ([f, zero, zero], [zero, zero, f], [zero, f, zero], [zero, zero], [f]):
        s = Section(dense)
        assert s.components == tuple(dense)
        assert s.rank == len(dense) and s.nvars == 2
        assert s.entries == tuple((k, c) for k, c in enumerate(dense) if not c.is_zero())
        assert Section(s.components) == s and hash(Section(s.components)) == hash(s)
    assert Section([zero, zero]) == Section.zero(2, 2)
    assert Section([zero, RatFunc.one(2)]) == Section.basis(2, 2, 1)
    # the same components over a different rank or base are a different section
    assert Section([zero, zero]) != Section.zero(3, 2)
    assert Section([zero, zero]) != Section.zero(2, 1)


def test_section_rank_mismatch_raises():
    one = RatFunc.one(2)
    X, Y = Section([one, one]), Section([one])
    for combine in (lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(ShapeError):
            combine(X, Y)
        with pytest.raises(ShapeError):
            combine(Y, X)
    with pytest.raises(ShapeError):
        X + Section.zero(1, 2)


def test_vector_field_size_mismatch_raises():
    u, v = RatFunc.var(2, 0), RatFunc.var(1, 0)
    X, Y = VectorField([u, u]), VectorField([v])
    for combine in (lambda a, b: a + b, lambda a, b: a - b, vf_bracket):
        with pytest.raises(ShapeError):
            combine(X, Y)
        with pytest.raises(ShapeError):
            combine(Y, X)
    with pytest.raises(ShapeError):
        X + VectorField.zero(1)
    assert X + VectorField.zero(2) == X and VectorField.zero(2).rank == VectorField.zero(2).nvars == 2


# -- law residuals from the tables against their Section evaluation ---------
#
# The checkers contract every residual from the tables, on frame and scaled
# frame indices. The oracle is the Section evaluation of the same laws, row for
# row through the same engine, so instance order, pass/fail and witness text
# must agree exactly.


def _section_rows(A):
    """Each law family's rows as Section residuals, keyed by family name; over a base jacobi and pre-lie-symmetry
    also take the scaled sections u^m·E_i, in the order of the contracted rows."""
    mul, br, assoc = A.multiply, partial(bracket_of, A), partial(prelie_associator, A)
    frame, scaled = frame_args(A), scaled_args(A)
    pairs = tuple(((a,), frame[i + 1:]) for i, a in enumerate(frame))
    return {
        "comm-assoc": lambda: [
            (pairs, ("product-symmetry", lambda X, Y: mul(X, Y) - mul(Y, X))),
            (((frame,) * 3,), ("associativity", lambda X, Y, Z: mul(mul(X, Y), Z) - mul(X, mul(Y, Z)))),
        ],
        "lie": lambda: [
            (tuple(((a,), frame[i:]) for i, a in enumerate(frame)),
             ("bracket-antisymmetry", lambda X, Y: br(X, Y) + br(Y, X))),
            (((frame + scaled, frame, frame),), ("jacobi", partial(jacobiator, A))),
        ],
        "pre-lie": lambda: [
            (_prelie_tuples(frame, scaled), ("pre-lie-symmetry", lambda X, Y, Z: assoc(X, Y, Z) - assoc(Y, X, Z))),
        ],
        "psi-symmetry": lambda: [
            (((frame,) * 3,), ("psi-symmetry", lambda X, Y, Z: psi(A, X, Y, Z) - psi(A, Y, X, Z))),
        ],
        "psi-vanishing": lambda: [(((frame,) * 3,), ("psi-vanishing", partial(psi, A)))],
        "hertling-manin": lambda: [(((frame,) * 4,), ("hertling-manin", partial(phi, A)))],
    }


SECTION_ORACLE = {
    "comm-assoc": ("comm-assoc",),
    "lie": ("lie",),
    "f-algebroid": ("comm-assoc", "lie", "hertling-manin"),
    "pre-lie": ("pre-lie",),
    "pre-f": ("comm-assoc", "pre-lie", "psi-symmetry"),
    "prelie-com": ("comm-assoc", "pre-lie", "psi-vanishing"),
}


def _section_families():
    """``LAWS`` with every law family swapped for its Section rows, one function per family."""
    rows = {name: (lambda A, name=name: _section_rows(A)[name]()) for names in SECTION_ORACLE.values() for name in names}
    return {law: tuple(rows[name] for name in names) for law, names in SECTION_ORACLE.items()}


def _oracle_reports(A, laws):
    """The Section-evaluation report of each of ``laws``, each law family swept once."""
    rows, families = _section_rows(A), {}
    for name in dict.fromkeys(name for law in laws for name in SECTION_ORACLE[law]):
        families[name] = section_sweep(A, Report("oracle"), rows[name]())
    reports = {law: Report("oracle") for law in laws}
    for law, report in reports.items():
        for name in SECTION_ORACLE[law]:
            report.extend(families[name])
    return reports


def _oracle_report(A, law):
    return _oracle_reports(A, [law])[law]


def _outcomes(report):
    return [(c.law, c.instance, c.passed, c.witness) for c in report.checks]


def _presentation(name):
    """A fixture by name, or for "SS3-dual" the Dubrovin dual of SS3 at ℰ = (u1, u2², u3 + 2)."""
    if name != "SS3-dual":
        return load_fixture(name)
    u = [RatFunc.var(3, m) for m in range(3)]
    return dubrovin_dual(load_fixture("SS3"), Section([u[0], u[1] * u[1], u[2] + RatFunc.const(3, 2)])).dual


def _mutant(name, seed):
    """The presentation with one seeded entry perturbed.

    For an int seed, a product, bracket or pre-Lie constant by a rational, times a seeded base variable when there
    is one. For a seed "anchor<k>", an anchor entry by a seeded polynomial of degree at most 2; for "rational<k>",
    a table constant by the rational function u_a/(u_b + 1).
    """
    A = _presentation(name)
    rng = random.Random(f"{name}:{seed}")
    if str(seed).startswith("anchor"):
        x, m = rng.randrange(A.rank), rng.randrange(A.n)
        u = [RatFunc.var(A.n, rng.randrange(A.n)) for _ in range(2)]
        delta = RatFunc.const(A.n, Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 5])))
        delta = delta * rng.choice([u[0], u[0] * u[1], u[0] + u[1] * u[1]])
        anchor = [list(row) for row in A.anchor]
        anchor[x][m] = anchor[x][m] + delta
        return with_structures(A, anchor=anchor)
    tensor = rng.choice([t for t in ("product", "bracket", "prelie") if getattr(A, t) is not None])
    k, i, j = (rng.randrange(A.rank) for _ in range(3))
    delta = RatFunc.const(A.n, Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 5])))
    if str(seed).startswith("rational"):
        delta = RatFunc.var(A.n, rng.randrange(A.n)) / (RatFunc.var(A.n, rng.randrange(A.n)) + RatFunc.one(A.n))
    elif A.n:
        delta = delta * RatFunc.var(A.n, rng.randrange(A.n))
    T = getattr(A, tensor)
    return with_structures(A, **{tensor: _mutate_tensor(T, k, i, j, T[k][i][j] + delta)})


POINT_CASES = [(name, None) for name in ("FM2", "DN1", "DN1_2", "DN2_2")]
POINT_CASES += [(name, seed) for name in ("FM2", "DN1", "DN1_2", "DN2_2") for seed in range(6)]
POINT_CASES += [("DN2", seed) for seed in range(4)]


@cache
def _point_oracle(name, seed):
    """The Section-evaluation report of each law a point case carries, computed once for all tests."""
    A = load_fixture(name) if seed is None else _mutant(name, seed)
    return _oracle_reports(A, _carried_laws(A))


@pytest.mark.parametrize("name,seed", POINT_CASES, ids=[f"{n}-{s}" for n, s in POINT_CASES])
def test_point_residuals_match_section_evaluation(name, seed):
    A = load_fixture(name) if seed is None else _mutant(name, seed)
    assert A.n == 0
    for law, oracle in _point_oracle(name, seed).items():
        assert _outcomes(CHECKERS[law](A)) == _outcomes(oracle), law


def test_point_mutants_fail_with_witnesses():
    """The seeded mutants reach failing instances of every point law family."""
    failed = set()
    for name, seed in POINT_CASES:
        if seed is not None:
            A = _mutant(name, seed)
            failed |= {c.law for law in _carried_laws(A) for c in CHECKERS[law](A).failures() if c.witness}
    assert failed >= {"product-symmetry", "associativity", "bracket-antisymmetry", "jacobi", "pre-lie-symmetry",
                      "psi-symmetry", "psi-vanishing"}


def test_dn2_prelie_com_matches_section_evaluation():
    A = load_fixture("DN2")
    assert _outcomes(check_prelie_com(A)) == _outcomes(_oracle_report(A, "prelie-com"))


def _nonzero_cells(acc):
    return {key: res for key, cell in acc.items() if (res := {k: c for k, c in cell.items() if c})}


@pytest.mark.parametrize("ring", ["number", "poly"])
def test_point_tensor_keys_by_tuples_and_takes_sections(ring):
    """A contraction with one output slot or none is keyed by a tuple ((i,), ()), and a section enters as the 0-slot
    table {(): {m: c}}: E_i·X, X·X and 2·X against plain loops, with number and with ``Poly`` constants."""
    rng, r, nonzero = random.Random(f"point-tensor:{ring}"), 3, [-3, -1, 1, 2]
    if ring == "number":
        const = lambda: Fraction(rng.choice(nonzero), rng.choice([1, 2]))  # noqa: E731
        value = lambda c: c  # noqa: E731
    else:
        const = lambda: Poly.from_terms(2, {(rng.randint(0, 2), rng.randint(0, 1)): rng.choice(nonzero)})  # noqa: E731
        value = lambda c: RatFunc(c, _normal=True)  # noqa: E731
    cells = ({k: const() for k in range(r) if rng.random() < 0.6} for _ in range(r * r))
    M = {ij: cell for ij, cell in zip(iproduct(range(r), repeat=2), cells) if cell}  # the nonzero cells, i-major
    X = {m: const() for m in range(r) if rng.random() < 0.8}
    zero = 0 if ring == "number" else RatFunc.zero(2)
    right, square = {}, {}
    for i, j in iproduct(range(r), repeat=2):
        for k, c in M.get((i, j), {}).items():
            if j in X:
                cell = right.setdefault((i,), {})
                cell[k] = cell.get(k, zero) + value(c) * value(X[j])
            if i in X and j in X:
                cell = square.setdefault((), {})
                cell[k] = cell.get(k, zero) + value(X[i]) * value(c) * value(X[j])
    lift = lambda t: {key: {k: value(c) for k, c in cell.items()} for key, cell in t.items()}  # noqa: E731
    table = _point_tensor((1, (0, ()), {(): X}, M))
    assert lift(table) == _nonzero_cells(right)
    assert lift(_point_tensor((1, ((),), {(): X}, table))) == _nonzero_cells(square)
    assert lift(_point_tensor((2, (), {(): X}))) == {(): {m: value(c) + value(c) for m, c in X.items()}}


# Term shapes of each length P of the index tuple, with the slots of the tables they take: (shape, slots of ∘) for
# a plain term, (shape, slots of ∘, slots of ⋄) for ∘ feeding one slot of ⋄; a 0-slot table is a section.
PACKED_SHAPES = {
    0: [((), 0), (((),), 0, 1)],
    1: [((0,), 1), ((0, ()), 0, 2), (((), 0), 0, 2), (((0,),), 1, 1)],
    2: [((0, 1), 2), ((1, 0), 2), (((0,), 1), 1, 2), ((0, (1,)), 1, 2), (((0, 1),), 2, 1), (((), 0, 1), 0, 3)],
    3: [((0, 1, 2), 3), ((2, 0, 1), 3), (((0, 1), 2), 2, 2), ((0, (1, 2)), 2, 2), (((1, 0), 2), 2, 2),
        ((1, (0, 2)), 2, 2)],
}

# Coefficients with the denominators 2, 3, 4, 5 and 6, so the hits' lcm is not 1 and the entries that meet at one
# contracted index often have distinct denominators
packed_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.sampled_from([Fraction(1, 2), Fraction(2, 3), Fraction(-3, 2), Fraction(1), Fraction(-1), Fraction(3),
                     Fraction(-5, 4), Fraction(1, 5), Fraction(7, 6)]),
    min_size=1, max_size=3,
).map(lambda terms: Poly.from_terms(2, terms))


@st.composite
def packed_tables(draw, slots, hi):
    """A table {idx: {k: c}} of ``slots`` slots with indices up to ``hi`` and nonzero ``Poly`` constants, often
    empty. Often every key shares one index in one slot, so several entries meet at the index that slot contracts,
    and the outputs of a table feeding that slot mostly reach no entry."""
    index = st.integers(0, hi)
    cells = st.dictionaries(index, packed_polys, min_size=1, max_size=3)
    keys = st.tuples(*[index] * slots)
    if slots and draw(st.booleans()):
        p, m = draw(st.integers(0, slots - 1)), draw(index)
        keys = keys.map(lambda idx: (*idx[:p], m, *idx[p + 1:]))
    return draw(st.dictionaries(keys, cells, max_size=6))


@settings(max_examples=120, deadline=DEADLINE)
@given(data=st.data())
def test_packed_contraction_matches_ratfunc_contraction(data):
    """Over ``Poly`` constants with non-unit denominators, every term shape of each index length, with empty tables
    and indices as large as 9, sums to the cells of the same terms over their RatFuncs, the entries a presentation's
    rational ``_view`` reads; adding the terms once more with the opposite sign cancels the sum to {}."""
    P, hi = data.draw(st.integers(0, 3)), data.draw(st.sampled_from([1, 2, 9]))
    kinds = data.draw(st.lists(st.sampled_from(PACKED_SHAPES[P]), min_size=1, max_size=4))
    terms = [(data.draw(st.sampled_from([1, -1])), shape, *(data.draw(packed_tables(k, hi)) for k in slots))
             for shape, *slots in kinds]
    rational = lambda t: {  # noqa: E731
        idx: {k: RatFunc(c, _normal=True) for k, c in cell.items()} for idx, cell in t.items()}
    got = _point_tensor(*terms)
    assert all(type(c) is Poly for cell in got.values() for c in cell.values())
    want = _point_tensor(*((s, shape, *map(rational, tables)) for s, shape, *tables in terms))
    assert {key: {k: RatFunc(c, _normal=True) for k, c in cell.items()} for key, cell in got.items()} == want
    assert _point_tensor(*terms, *((-s, shape, *tables) for s, shape, *tables in terms)) == {}


@settings(max_examples=150, deadline=DEADLINE)
@given(data=st.data())
def test_packed_kernel_returns_the_hit_by_hit_oracle_dict(data):
    """The flat-list kernel returns exactly the dict of the hit-by-hit oracle, the same keys and equal ``Poly``s,
    on every term shape of each index length and any integer scale: with several ⋄ entries at one contracted index
    over distinct denominators, outputs of ∘ that no ⋄ entry reaches, and empty tables."""
    P, hi = data.draw(st.integers(0, 3)), data.draw(st.sampled_from([1, 2, 9]))
    kinds = data.draw(st.lists(st.sampled_from(PACKED_SHAPES[P]), min_size=1, max_size=4))
    terms = [(data.draw(st.sampled_from([1, -1, 2, -3])), shape,
              *(_nonzeros(data.draw(packed_tables(k, hi))) for k in slots)) for shape, *slots in kinds]
    assert _packed(terms, 2) == packed_oracle(terms, 2)


def test_packed_contraction_degree_boundary():
    """A product of total degree exactly ``MAX_DEGREE`` is summed, in one variable and in two; one degree more
    raises ``DegreeOverflow``, also when the products cancel or another hit in the call stays below the bound."""
    low, high = Poly.from_terms(1, {(32767,): 1}), Poly.from_terms(1, {(32768,): Fraction(1, 2)})
    T, U = {(0, 0): {0: low}}, {(0, 0): {0: high}}
    assert _point_tensor((1, ((0, 1), 2), T, U)) == {(0, 0, 0): {0: Poly.from_terms(1, {(65535,): Fraction(1, 2)})}}
    xy = Poly.from_terms(2, {(40000, 25535): 1})
    assert _point_tensor((1, ((),), {(): {0: Poly.from_terms(2, {(0, 0): 1})}}, {(0,): {1: xy}})) == {(): {1: xy}}
    for terms in [((1, ((0, 1), 2), U, U),), ((1, ((0, 1), 2), U, U), (-1, ((0, 1), 2), U, U)),
                  ((1, ((0, 1), 2), T, T), (1, ((0, 1), 2), T, U), (1, ((0, 1), 2), U, U))]:
        with pytest.raises(DegreeOverflow, match=f"^product of total degree over {MAX_DEGREE}$"):
            _point_tensor(*terms)


# Frobenius potentials in flat coordinates and the weights 1 - q_a of their Euler fields (Dubrovin,
# "Geometry of 2D topological field theories", Lecture 4).
FROBENIUS = {
    "A2": ("t1^2*t2/2 + t2^4/72", (1, Fraction(2, 3))),
    "A3": ("t1^2*t3/2 + t1*t2^2/2 + t2^2*t3^2/4 + t3^5/60", (1, Fraction(3, 4), Fraction(1, 2))),
    "B3": ("t1^2*t3/2 + t1*t2^2/2 + t2^3*t3/6 + t2^2*t3^3/6 + t3^7/210", (1, Fraction(2, 3), Fraction(1, 3))),
}


def frobenius(name):
    """The Frobenius manifold of a potential F with the zero bracket and the identity anchor, and its Euler field:
    E_a·E_b = Σ_k F_abk' / η_kk' E_k for the third derivatives F_abc and the antidiagonal metric η_ab = F_1ab."""
    text, weights = FROBENIUS[name]
    n = len(weights)
    names = [f"t{a + 1}" for a in range(n)]
    F = parse_expr(text, names)
    third = [[[F.derivative(a).derivative(b).derivative(c) for c in range(n)] for b in range(n)] for a in range(n)]
    eta = [third[0][k][n - 1 - k].constant_value() for k in range(n)]
    product = [[[third[i][j][n - 1 - k].scale(1 / eta[k]) for j in range(n)] for i in range(n)] for k in range(n)]
    zero, one = RatFunc.zero(n), RatFunc.one(n)
    A = AlgebroidPresentation(names, n, product, bracket=[[[zero] * n] * n] * n,
                              anchor=[[one if a == b else zero for b in range(n)] for a in range(n)],
                              identity=Section([one] + [zero] * (n - 1)))
    return A, Section([RatFunc.var(n, a).scale(w) for a, w in enumerate(weights)])


def _base_presentation(name):
    """A ``_presentation``, a Frobenius manifold (A2, A3, B3) or its Dubrovin dual at the Euler field (A2-dual...)."""
    if name.split("-")[0] not in FROBENIUS:
        return _presentation(name)
    A, E = frobenius(name.split("-")[0])
    return dubrovin_dual(A, E).dual if name.endswith("-dual") else A


MEMO_NAMES = ("SS2", "SS3", "SS4", "TR", "TR2", "ACT2", "POISSON_SEED", "SS3-dual")
BASE_CASES = [(name, None) for name in MEMO_NAMES + tuple(chain(*((f, f"{f}-dual") for f in FROBENIUS)))]
BASE_CASES += [(name, seed) for name in MEMO_NAMES for seed in range(3)]
# anchor mutants make α, β (``_anchor_defect``) nonzero; the rational ones contract RatFunc entries
BASE_CASES += [("SS3", "anchor0"), ("SS4", "anchor2"), ("ACT2", "anchor0"), ("TR2", "anchor1"), ("SS3-dual", "anchor1")]
BASE_CASES += [("SS2", "rational0"), ("SS4", "rational0"), ("SS3-dual", "rational1")]


@cache
def _base_case(name, seed):
    """A base case's presentation and the Section-evaluation report of each law it carries, computed once."""
    A = _base_presentation(name) if seed is None else _mutant(name, seed)
    return A, _oracle_reports(A, _carried_laws(A))


@pytest.mark.parametrize("name,seed", BASE_CASES, ids=[f"{n}-{s}" for n, s in BASE_CASES])
def test_base_residuals_match_section_evaluation(name, seed):
    A, oracle = _base_case(name, seed)
    assert A.n > 0 and A.polynomial == (not str(seed).startswith("rational"))
    for law, report in oracle.items():
        assert _outcomes(CHECKERS[law](A)) == _outcomes(report), law


def test_base_mutants_fail_with_witnesses():
    """The seeded mutants reach failing instances of every law family over a base, jacobi and pre-lie-symmetry
    also at scaled arguments, and the Frobenius manifolds and their duals pass. Every term of the scaled-slot
    residuals is nonzero on some case: the antisymmetry defect D and the anchor derivatives ρ(B), ρ(P) of the
    tables, and the anchor defects α of B and β of P - Pᵀ."""
    failed, scaled, terms = set(), set(), set()
    for name, seed in BASE_CASES:
        A, oracle = _base_case(name, seed)
        failures = [c for report in oracle.values() for c in report.failures() if c.witness]
        failed |= {c.law for c in failures}
        scaled |= {c.law for c in failures if "*" in c.instance}
        assert name.split("-")[0] not in FROBENIUS or all(report.overall for report in oracle.values())
        tables = {}
        a, da = A.constants("anchor"), A.derivatives("anchor")
        if A.bracket is not None:
            B = A.constants("bracket")
            tables["ρ(B)"], tables["α"] = A.derivatives("bracket"), _point_tensor(*_anchor_defect(B, a, da))
            tables["D"] = a and _point_tensor((1, (0, 1), B), (1, (1, 0), B))
        if A.prelie is not None:
            P = A.constants("prelie")
            tables["ρ(P)"] = A.derivatives("prelie")
            tables["β"] = _point_tensor(*_anchor_defect(P, a, da, skew=True))
        terms |= {term for term, table in tables.items() if table}
    assert failed >= {"product-symmetry", "associativity", "bracket-antisymmetry", "jacobi", "hertling-manin",
                      "pre-lie-symmetry", "psi-symmetry", "psi-vanishing"}
    assert scaled >= {"jacobi", "pre-lie-symmetry"}
    assert terms == {"ρ(B)", "ρ(P)", "α", "β", "D"}


def _family_rows(A):
    """Every row of every law family A carries, as ``check_laws`` sweeps them."""
    return [row for family in dict.fromkeys(chain(*(LAWS[law] for law in _carried_laws(A)))) for row in family(A)]


@pytest.mark.parametrize("name,seed", [("FM2", None), ("DN2_2", 1), ("SS3", None), ("SS3-dual", "anchor1"),
                                       ("SS2", "rational0"), ("SS3-dual", "rational1")])
def test_check_laws_builds_no_section_rows(name, seed, monkeypatch):
    """Over a point, over a polynomial base and over a base with a rational entry, every law family's residual is
    a ``_point_tensor`` dict, and no check evaluates the operations on sections (the pre-Lie operation on sections
    exists only in the tests' oracle, see ``test_deformation.test_the_library_keeps_no_section_evaluation``)."""
    A = _presentation(name) if seed is None else _mutant(name, seed)
    assert all(isinstance(residual, dict) for _, (_, residual) in _family_rows(A))

    def refuse(*args):
        raise AssertionError("a law was evaluated on sections")

    monkeypatch.setattr(AlgebroidPresentation, "multiply", refuse)
    assert check_laws(A, _carried_laws(A), Report("check")).checks


def test_rational_tables_contract():
    """A product constant u1/(u2+1) is contracted as a ``RatFunc``, every law with the Section evaluation's
    outcomes and witnesses."""
    A = load_fixture("SS2")
    u1, u2 = RatFunc.var(2, 0), RatFunc.var(2, 1)
    A = with_structures(A, product=_mutate_tensor(A.product, 1, 0, 0, u1 / (u2 + RatFunc.one(2))))
    assert not A.polynomial
    assert all(isinstance(residual, dict) for _, (_, residual) in _family_rows(A))
    oracle = _oracle_reports(A, _carried_laws(A))
    for law, report in oracle.items():
        assert _outcomes(CHECKERS[law](A)) == _outcomes(report), law
    assert "/(u2 + 1)" in oracle["f-algebroid"].failures()[0].witness


def _random_presentation(seed):
    """A rank-3 presentation over (u1, u2) with seeded polynomial tables, a bracket that is not antisymmetric, and
    a seeded polynomial anchor; for an odd seed one anchor entry is rational."""
    rng, n, r = random.Random(f"random-presentation:{seed}"), 2, 3
    u = [RatFunc.var(n, m) for m in range(n)]

    def poly():
        terms = [RatFunc.const(n, Fraction(rng.randint(-3, 3), rng.choice([1, 2]))) for _ in range(3)]
        return terms[0] + terms[1] * u[rng.randrange(n)] + terms[2] * u[0] * u[rng.randrange(n)]

    def tensor():
        return [[[poly() if rng.random() < 0.4 else RatFunc.zero(n) for _ in range(r)] for _ in range(r)]
                for _ in range(r)]

    anchor = [[poly() for _ in range(n)] for _ in range(r)]
    if seed % 2:
        anchor[rng.randrange(r)][rng.randrange(n)] = u[0] / (u[1] + RatFunc.const(n, 2))
    return AlgebroidPresentation(["u1", "u2"], r, tensor(), bracket=tensor(), prelie=tensor(), anchor=anchor)


@pytest.mark.parametrize("seed", range(4))
def test_scaled_slot_identities_match_the_section_residuals(seed):
    """The contracted jacobi and pre-lie-symmetry residuals, at frame and at scaled arguments, equal the
    ``jacobiator`` and ``prelie_associator`` of the same sections, entry for entry."""
    A = _random_presentation(seed)
    assert any(not c.is_zero() for c in chain(*chain(*A.bracket))) and A.polynomial == (seed % 2 == 0)
    frame, scaled = frame_args(A), scaled_args(A)
    (_, (_, antisym)), (_, (_, jacobi)) = LAWS["lie"][0](A)
    [(_, (_, sym))] = LAWS["pre-lie"][0](A)
    assert antisym and jacobi and sym
    assoc = lambda X, Y, Z: prelie_associator(A, X, Y, Z) - prelie_associator(A, Y, X, Z)  # noqa: E731
    for spec, tensor, residual in ((((frame + scaled, frame, frame),), jacobi, partial(jacobiator, A)),
                                   (_prelie_tuples(frame, scaled), sym, assoc)):
        labels = {name: i for i, (name, _) in enumerate(frame + scaled)}
        for case in cases(spec):
            names, args = zip(*case)
            assert _witness(A, tensor.get(tuple(labels[t] for t in names), {})) == _witness(A, residual(*args))


FRAME3, SCALED3 = ("E1", "E2", "E3"), ("u1*E1", "u1*E2", "u1*E3", "u2*E1", "u2*E2", "u2*E3")
NAME_SPECS = [
    ("single axis", ((FRAME3,),), ""),
    ("singleton axes", ((("E1",), ("E3",)),), ""),
    ("combinations", tuple(((a,), FRAME3[i + 1:]) for i, a in enumerate(FRAME3)), ""),  # the last axis is empty
    ("with replacement", tuple(((a,), FRAME3[i:]) for i, a in enumerate(FRAME3)), ""),
    ("all empty", (((), FRAME3),), ""),
    ("scaled", ((FRAME3 + SCALED3, FRAME3, FRAME3),), ""),
    ("order prefix", _prelie_tuples(FRAME3, SCALED3), "order 2 "),
    ("order prefix, no base", _prelie_tuples(FRAME3, ()), "order 0 "),
]


@pytest.mark.parametrize("spec,prefix", [case[1:] for case in NAME_SPECS], ids=[case[0] for case in NAME_SPECS])
def test_names_of_a_case_spec_are_its_plain_enumeration(spec, prefix):
    """``_names`` joins pre-joined pieces of each axis; the oracle joins each case's labels."""
    assert _names(spec, prefix) == [f"{prefix}({','.join(t)})" for axes in spec for t in iproduct(*axes)]


def test_rows_of_one_case_spec_share_one_names_list():
    """A sweep names each distinct case spec once: on DN2, a base with no variables, associativity, pre-lie-symmetry
    and psi-vanishing (frame triples, none scaled) share one list; the pre-F eventual laws share each pair's."""
    blocks = {law: names for law, names, _ in check_prelie_com(load_fixture("DN2")).blocks}
    assert blocks["associativity"] is blocks["pre-lie-symmetry"] is blocks["psi-vanishing"]
    assert len(blocks["associativity"]) == 20 ** 3
    SS2 = load_fixture("SS2")
    blocks = is_pre_f_eventual_identity(SS2, Section([RatFunc.var(2, 0), RatFunc.var(2, 1)])).blocks
    assert len(blocks) == 8 and all(blocks[i][1] is blocks[i + 1][1] == [blocks[i][1][0]] for i in range(0, 8, 2))


# -- every sweeping check against plain Section evaluation -------------------
#
# The oracle of each check is its Section evaluation: the law families' Section
# rows (``_section_rows``) and the Section oracles of the eventual-identity and
# Nijenhuis checks (``section_oracle``), each instance evaluated by itself; the
# reports must agree law for law, instance for instance, in pass flag and
# witness text.


def _plain_sweep(A, report, table, prefix=""):
    """The sweep loop, recording each instance of each case spec (``cases``) by itself."""
    for spec, *laws in table:
        for case in cases(spec):
            names, args = zip(*case)
            for law, residual in laws:
                witness = _witness(A, residual(*args))
                report.add(law, f"{prefix}({','.join(names)})", witness is None, witness)
    return report


def _sweeping_checks(A):
    """Every checker that sweeps A, each beside its Section oracle: its carried ``falg check`` laws, and with an
    identity the eventual-identity checks and the Nijenhuis torsion of multiplication by ℰ = (u_(i mod n))_i."""
    checks = [(partial(CHECKERS[law], A), partial(_oracle_report, A, law)) for law in _carried_laws(A)]
    if A.identity is not None:
        E = Section([RatFunc.var(A.n, i % A.n) for i in range(A.rank)])
        N = multiplication_matrix(A, E)
        if A.bracket is not None:
            checks += [(partial(is_pseudo_eventual_identity, A, E), partial(pseudo_eventual, A, E)),
                       (partial(is_nijenhuis, A, N, "f"), partial(nijenhuis, A, N, "f"))]
        if A.prelie is not None:
            checks += [(partial(is_pre_f_eventual_identity, A, E), partial(pre_f_eventual, A, E)),
                       (partial(is_nijenhuis, A, N, "pre_f"), partial(nijenhuis, A, N, "pre_f"))]
    return checks


MEMO_CASES = [(name, None) for name in MEMO_NAMES] + [(name, seed) for name in MEMO_NAMES for seed in range(3)]


@pytest.mark.parametrize("name,seed", MEMO_CASES, ids=[f"{n}-{s}" for n, s in MEMO_CASES])
def test_memoized_sweep_matches_plain_evaluation(name, seed):
    A = _presentation(name) if seed is None else _mutant(name, seed)
    assert A.n > 0
    for check, oracle in _sweeping_checks(A):
        assert _outcomes(check()) == _outcomes(oracle())


def test_sweeping_mutants_fail_with_witnesses():
    """The seeded mutants reach failing instances of every law family the sweeping checks evaluate."""
    failed = set()
    for name, seed in MEMO_CASES:
        if seed is not None:
            A = _mutant(name, seed)
            failed |= {c.law for check, _ in _sweeping_checks(A) for c in check().failures() if c.witness}
    assert failed >= {"product-symmetry", "associativity", "bracket-antisymmetry", "jacobi", "hertling-manin",
                      "pre-lie-symmetry", "psi-symmetry", "psi-vanishing", "pseudo-eventual-identity",
                      "psi-eventual-relation", "prelie-eventual-symmetry", "nijenhuis-comm", "nijenhuis-lie",
                      "nijenhuis-prelie"}


def test_converted_checks_evaluate_no_sections(monkeypatch):
    """The Nijenhuis torsion and deformation, both eventual-identity checks, the dual product and e†, the Egorov
    symmetry and the order rule over a base are contracted from the tables: with a rational N, sections of
    distinct denominators and a cochain with a rational symbol, none of them evaluates an operation on sections."""
    from falgebroid.deformation import FormalDeformation, MultiDer, semiclassical_limit
    from falgebroid.duality import BundleMap, _dual_product, _square, nijenhuis_deformation
    from falgebroid.hierarchy import Connection, check_flat_condition

    SS3, TR2 = load_fixture("SS3"), load_fixture("TR2")
    u, one, zero = [RatFunc.var(3, m) for m in range(3)], RatFunc.one(3), RatFunc.zero(3)
    N = BundleMap([[one / (u[0] + one), zero, zero], [zero, u[1], zero], [zero, zero, u[2] * u[2]]])
    E = Section([one / u[0], one / (u[1] + one), u[2]])
    v = [RatFunc.var(2, m) for m in range(2)]
    mu1 = MultiDer.build(2, 2, 2, lambda idx: Section.zero(2, 2),
                         lambda idx: VectorField([RatFunc.one(2) / (v[1] + RatFunc.one(2)), v[idx[0]]]))

    def refuse(*args):
        raise AssertionError("a check evaluated an operation on sections")

    monkeypatch.setattr(AlgebroidPresentation, "multiply", refuse)
    assert is_nijenhuis(SS3, N, "f").overall and is_nijenhuis(SS3, N, "pre_f").overall
    assert nijenhuis_deformation(SS3, N)[1] is not None
    assert is_pseudo_eventual_identity(SS3, E).overall and is_pre_f_eventual_identity(SS3, E).overall
    assert not is_pre_f_eventual_identity(TR2, Section([v[0] * v[0], v[1]])).overall
    assert _dual_product(SS3, E) and _square(SS3, E)
    assert not check_flat_condition(SS3, Connection(), Section([u[1] / (u[0] + one), zero, zero])).overall
    assert semiclassical_limit(FormalDeformation(load_fixture("SS2"), [mu1])).anchor
