"""Structure-law checks: fixtures pass, mutants fail with witnesses."""

import gc
import random
import weakref
from fractions import Fraction
from functools import cache, partial
from itertools import combinations, combinations_with_replacement
from itertools import product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from falgebroid.algebroid import (
    LAWS,
    AlgebroidPresentation,
    Section,
    VectorField,
    _frame_args,
    _prelie_tuples,
    _record,
    _sweep,
    check_laws,
    check_anchor_leibniz,
    check_comm_assoc,
    check_f_algebroid,
    check_lie_algebroid,
    check_pre_f,
    check_pre_lie_algebroid,
    check_prelie_com,
    find_identity,
    sub_adjacent,
    vf_bracket,
)
from falgebroid.constructions import FiniteAlgebra, load_fixture
from falgebroid.duality import (
    dubrovin_dual,
    is_nijenhuis,
    is_pre_f_eventual_identity,
    is_pseudo_eventual_identity,
    multiplication_matrix,
)
from falgebroid.errors import MissingStructure, ShapeError
from falgebroid.report import Report
from falgebroid.ring import RatFunc
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
    bad = A.with_structures(product=_mutate_tensor(A.product, 0, 0, 1, u1))
    report = check_comm_assoc(bad)
    assert not report.overall
    laws = {c.law for c in report.failures()}
    assert "product-symmetry" in laws
    # every failure carries a witness expression
    assert all(c.witness for c in report.failures())


def test_mutant_bracket_breaks_antisymmetry():
    A = load_fixture("SS2")
    one = RatFunc.one(2)
    bad = A.with_structures(bracket=_mutate_tensor(A.bracket, 0, 0, 0, one))
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
    bad = A.with_structures(bracket=_mutate_tensor(A.bracket, 0, 0, 1, u2))
    # restore antisymmetry so only the compatibility law can fail
    t = _mutate_tensor(bad.bracket, 0, 1, 0, -u2)
    bad = bad.with_structures(bracket=t)
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
                        base = A.phi(X, Y, Z, W).scale_fn(f)
                        assert A.phi(X.scale_fn(f), Y, Z, W) - base == Section.zero(2, 2)
                        assert A.phi(X, Y, Z.scale_fn(f), W) - base == Section.zero(2, 2)


def test_psi_vanishes_on_prelie_com_fixture():
    A = load_fixture("TR2")
    basis = [A.basis(i) for i in range(A.rank)]
    for X in basis:
        for Y in basis:
            for Z in basis:
                assert A.psi(X, Y, Z).is_zero()


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
        no_prelie.prelie_of(no_prelie.basis(0), no_prelie.basis(1))


def test_anchor_leibniz_regression():
    for name in ("SS2", "TR", "ACT2"):
        A = load_fixture(name)
        assert check_anchor_leibniz(A).overall


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
    needs = {"lie": A.bracket, "f-algebroid": A.bracket, "pre-lie": A.prelie, "pre-f": A.prelie, "prelie-com": A.prelie}
    return [law for law in LAWS if needs.get(law, A.product) is not None]


def _mutants():
    """One mutant per law family, each failing its checker."""
    ss2 = load_fixture("SS2")
    u1, u2 = RatFunc.var(2, 0), RatFunc.var(2, 1)
    t = _mutate_tensor(ss2.bracket, 0, 0, 1, u2)
    hm = ss2.with_structures(bracket=_mutate_tensor(t, 0, 1, 0, -u2))
    tr2 = load_fixture("TR2")
    bad_prelie = tr2.with_structures(prelie=_mutate_tensor(tr2.prelie, 0, 0, 1, RatFunc.var(2, 0)))
    return [
        ("comm-assoc", ss2.with_structures(product=_mutate_tensor(ss2.product, 0, 0, 1, u1))),
        ("lie", ss2.with_structures(bracket=_mutate_tensor(ss2.bracket, 0, 0, 0, RatFunc.one(2)))),
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

    return A.with_structures(
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
        assert A.bracket_of(X, Y).components == want
    if A.prelie is not None:
        assert A.prelie_of(X, Y).components == _dense_add(_dense_contract(A, A.prelie, xs, ys), plus)
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
    assert A.anchor_of(X).components == _dense_anchor_of(A, xs)
    for v, w in ((V, W), (A.anchor_of(X), A.anchor_of(Y))):
        dv, dw = DenseVectorField(v.components), DenseVectorField(w.components)
        for got, want in ((v + w, dv + dw), (v - w, dv - dw), (-v, -dv), (v.scale_fn(f), dv.scale_fn(f)),
                          (vf_bracket(v, w), dense_vf_bracket(dv, dw))):
            assert type(got) is VectorField and got.components == want.comps
            assert VectorField(got.components) == got and hash(VectorField(got.components)) == hash(got)
        assert v.apply(f) == dv.apply(f) and w.apply(ys[-1]) == dw.apply(ys[-1])


def test_compiled_tables_hold_exactly_the_nonzero_constants():
    for name in SHIPPED + ("SS4", "DN2"):
        A = load_fixture(name)
        r = range(A.rank)
        for t in ("product", "bracket", "prelie"):
            T = getattr(A, t)
            if T is not None:
                cells = [[tuple((k, T[k][i][j]) for k in r if not T[k][i][j].is_zero()) for j in r] for i in r]
                assert A._tables[t] == cells, (name, t)


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


# -- law residuals over a point against their Section evaluation -----------
#
# Over a point the checkers evaluate their residuals on frame indices from
# the Fraction tables. The oracle is the Section evaluation they replaced,
# row for row through the same engine, so instance order, pass/fail and
# witness text must agree exactly.


def _section_rows(A):
    """Each point checker's law rows as Section residuals, keyed by row name."""
    mul, br, assoc, frame = A.multiply, A.bracket_of, A.prelie_associator, _frame_args(A)
    return {
        "comm-assoc": lambda: [
            (combinations(frame, 2), ("product-symmetry", lambda X, Y: mul(X, Y) - mul(Y, X))),
            (iproduct(frame, repeat=3), ("associativity", lambda X, Y, Z: mul(mul(X, Y), Z) - mul(X, mul(Y, Z)))),
        ],
        "lie": lambda: [
            (combinations_with_replacement(frame, 2), ("bracket-antisymmetry", lambda X, Y: br(X, Y) + br(Y, X))),
            (iproduct(frame, frame, frame), ("jacobi", A.jacobiator)),
        ],
        "pre-lie": lambda: [
            (_prelie_tuples(frame, []), ("pre-lie-symmetry", lambda X, Y, Z: assoc(X, Y, Z) - assoc(Y, X, Z))),
        ],
        "psi-symmetry": lambda: [
            (iproduct(frame, repeat=3), ("psi-symmetry", lambda X, Y, Z: A.psi(X, Y, Z) - A.psi(Y, X, Z))),
        ],
        "psi-vanishing": lambda: [(iproduct(frame, repeat=3), ("psi-vanishing", A.psi))],
        "hertling-manin": lambda: [(iproduct(frame, repeat=4), ("hertling-manin", A.phi))],
    }


SECTION_ORACLE = {
    "comm-assoc": ("comm-assoc",),
    "lie": ("lie",),
    "f-algebroid": ("comm-assoc", "lie", "hertling-manin"),
    "pre-lie": ("pre-lie",),
    "pre-f": ("comm-assoc", "pre-lie", "psi-symmetry"),
    "prelie-com": ("comm-assoc", "pre-lie", "psi-vanishing"),
}


def _oracle_report(A, law):
    rows = _section_rows(A)
    return _sweep(A, Report("oracle"), [row for name in SECTION_ORACLE[law] for row in rows[name]()])


def _outcomes(report):
    return [(c.law, c.instance, c.passed, c.witness) for c in report.checks]


def _presentation(name):
    """A fixture by name, or for "SS3-dual" the Dubrovin dual of SS3 at ℰ = (u1, u2², u3 + 2)."""
    if name != "SS3-dual":
        return load_fixture(name)
    u = [RatFunc.var(3, m) for m in range(3)]
    return dubrovin_dual(load_fixture("SS3"), Section([u[0], u[1] * u[1], u[2] + RatFunc.const(3, 2)])).dual


def _mutant(name, seed):
    """The presentation with one seeded product, bracket or pre-Lie constant perturbed.

    The perturbation is a rational, times a seeded base variable when there is one.
    """
    A = _presentation(name)
    rng = random.Random(f"{name}:{seed}")
    tensor = rng.choice([t for t in ("product", "bracket", "prelie") if getattr(A, t) is not None])
    k, i, j = (rng.randrange(A.rank) for _ in range(3))
    delta = RatFunc.const(A.n, Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 5])))
    if A.n:
        delta = delta * RatFunc.var(A.n, rng.randrange(A.n))
    T = getattr(A, tensor)
    return A.with_structures(**{tensor: _mutate_tensor(T, k, i, j, T[k][i][j] + delta)})


POINT_CASES = [(name, None) for name in ("FM2", "DN1", "DN1_2", "DN2_2")]
POINT_CASES += [(name, seed) for name in ("FM2", "DN1", "DN1_2", "DN2_2") for seed in range(6)]


@pytest.mark.parametrize("name,seed", POINT_CASES, ids=[f"{n}-{s}" for n, s in POINT_CASES])
def test_point_residuals_match_section_evaluation(name, seed):
    A = load_fixture(name) if seed is None else _mutant(name, seed)
    assert A.n == 0
    for law in _carried_laws(A):
        assert _outcomes(CHECKERS[law](A)) == _outcomes(_oracle_report(A, law)), law


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


# -- the sweep memo against plain evaluation ---------------------------------
#
# Inside a sweep the frame operations are memoized by argument identity. The
# oracle runs each checker's own law table through a test-only copy of the
# sweep loop that opens no memo, so every method computes afresh; the reports
# must agree law for law, instance for instance, in pass flag and witness text.


def _plain_sweep(A, report, table, prefix=""):
    """The sweep loop with no memo."""
    for cases, *laws in table:
        for case in cases:
            names, args = zip(*case)
            for law, residual in laws:
                assert A._memo is None
                _record(A, report, law, f"{prefix}({','.join(names)})", residual(*args))
    return report


def _sweeping_checks(A):
    """Every checker that sweeps A: its carried ``falg check`` laws and the anchor Leibniz rule, and with an
    identity the eventual-identity checks and the Nijenhuis torsion of multiplication by ℰ = (u_(i mod n))_i."""
    checks = [partial(CHECKERS[law], A) for law in _carried_laws(A)]
    if A.bracket is not None:
        checks.append(partial(check_anchor_leibniz, A))
    if A.identity is not None:
        E = Section([RatFunc.var(A.n, i % A.n) for i in range(A.rank)])
        N = multiplication_matrix(A, E)
        if A.bracket is not None:
            checks += [partial(is_pseudo_eventual_identity, A, E), partial(is_nijenhuis, A, N, "f")]
        if A.prelie is not None:
            checks += [partial(is_pre_f_eventual_identity, A, E), partial(is_nijenhuis, A, N, "pre_f")]
    return checks


MEMO_NAMES = ("SS2", "SS3", "SS4", "TR", "TR2", "ACT2", "POISSON_SEED", "SS3-dual")
MEMO_CASES = [(name, None) for name in MEMO_NAMES] + [(name, seed) for name in MEMO_NAMES for seed in range(3)]


@pytest.mark.parametrize("name,seed", MEMO_CASES, ids=[f"{n}-{s}" for n, s in MEMO_CASES])
def test_memoized_sweep_matches_plain_evaluation(name, seed, monkeypatch):
    import falgebroid.algebroid
    import falgebroid.duality

    A = _presentation(name) if seed is None else _mutant(name, seed)
    assert A.n > 0
    memoized = [_outcomes(check()) for check in _sweeping_checks(A)]
    for module in (falgebroid.algebroid, falgebroid.duality):
        monkeypatch.setattr(module, "_sweep", _plain_sweep)
    assert [_outcomes(check()) for check in _sweeping_checks(A)] == memoized


def test_memo_mutants_fail_with_witnesses():
    """The seeded mutants reach failing instances of every law family the memoized sweep evaluates."""
    failed = set()
    for name, seed in MEMO_CASES:
        if seed is not None:
            A = _mutant(name, seed)
            failed |= {c.law for check in _sweeping_checks(A) for c in check().failures() if c.witness}
    assert failed >= {"product-symmetry", "associativity", "bracket-antisymmetry", "jacobi", "hertling-manin",
                      "pre-lie-symmetry", "psi-symmetry", "psi-vanishing", "pseudo-eventual-identity",
                      "psi-eventual-relation", "prelie-eventual-symmetry", "nijenhuis-comm", "nijenhuis-lie",
                      "nijenhuis-prelie"}


class _Tracked(Section):
    """A section that takes weak references."""


def test_sweep_memo_lives_for_one_sweep():
    A = load_fixture("SS3")
    X = _Tracked(A.basis(0).components)
    probe, seen = weakref.ref(X), []

    def residual(Y):
        seen.append(A._memo)
        assert A.multiply(Y, A.bracket_of(Y, Y)) is A.multiply(Y, A.bracket_of(Y, Y))
        T = _Tracked(Y.components)
        A.psi(T, Y, T)
        pinned = weakref.ref(T)
        del T
        gc.collect()
        assert pinned() is not None  # a memo entry keeps its arguments, so their ids are not reused

        def nested(Z):
            assert A._memo is seen[0]  # a nested sweep runs under the outer memo
            return A.multiply(Z, Z)

        assert not _sweep(A, Report("inner"), [([[("Y", Y)]], ("inner", nested))]).overall
        assert A._memo is seen[0]
        return A.multiply(Y, Y)

    _sweep(A, Report("probe"), [([[("X", X)]], ("probe", residual))])
    assert seen[0] and A._memo is None
    assert A.multiply(X, X) is not A.multiply(X, X)  # outside a sweep every call computes afresh
    del X, seen[:]
    gc.collect()
    assert probe() is None

    def raising(Y):
        A.prelie_of(Y, A.multiply(Y, Y))
        raise ValueError("residual failed")

    X = _Tracked(A.basis(1).components)
    probe = weakref.ref(X)
    try:  # not pytest.raises, whose saved traceback would keep the sweep's frame and X alive
        _sweep(A, Report("probe"), [([[("X", X)]], ("probe", raising))])
    except ValueError:
        pass
    assert A._memo is None
    del X
    gc.collect()
    assert probe() is None
    assert check_f_algebroid(A).overall and A._memo is None


def test_law_families_share_frame_sections_in_one_sweep(monkeypatch):
    """The frame sections are built once per sweep, so one ``check_laws`` call computes each frame pre-Lie
    product E_i⋆E_j once, although both ``pre-lie-symmetry`` and ``psi-symmetry`` evaluate it."""
    import falgebroid.algebroid

    computed, frames = [], []
    raw, raw_frame = AlgebroidPresentation.prelie_of.__wrapped__, AlgebroidPresentation._frame.__wrapped__

    def counted(self, X, Y):
        computed.append((X, Y))
        return raw(self, X, Y)

    def built(self):
        frames.append(raw_frame(self))
        return frames[-1]

    monkeypatch.setattr(AlgebroidPresentation, "prelie_of", falgebroid.algebroid._memo(counted))
    monkeypatch.setattr(AlgebroidPresentation, "_frame", falgebroid.algebroid._memo(built))
    A = load_fixture("SS4")
    counts = {}
    for laws in (["pre-lie"], ["f-algebroid", "pre-f"]):
        computed.clear(), frames.clear()
        assert check_laws(A, laws, Report("families")).overall
        assert len(frames) == 1
        frame = set(map(id, frames[0]))
        assert sum(id(X) in frame and id(Y) in frame for X, Y in computed) == A.rank ** 2
        counts[laws[-1]] = len(computed)
    assert counts == {"pre-lie": 1808, "pre-f": 1872}  # 1888 for pre-f when each family built its own frame
