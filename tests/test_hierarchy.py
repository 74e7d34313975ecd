"""Jet calculus, hydrodynamic flows, and the principal hierarchy."""

import random
from functools import partial
from itertools import combinations
from itertools import product as iproduct
from fractions import Fraction

import pytest

from falgebroid.algebroid import AlgebroidPresentation, Section
from falgebroid.constructions import load_fixture, semisimple
from falgebroid.duality import multiplication_matrix
from falgebroid.errors import (
    JetOrderOverflow,
    NonPolynomialAntiderivative,
    NotCompatible,
    NotEventual,
    NotFlat,
    NotTangent,
    ShapeError,
)
from falgebroid.exprparse import parse_expr
from falgebroid.hierarchy import (
    Connection,
    _bracket_vanishes,
    _path_integrate,
    HydroFlow,
    check_flat_condition,
    eventual_identity_flows,
    flow_from_section,
    flows_commute,
    jet_names,
    principal_hierarchy,
    total_x,
)
from falgebroid.ring import Poly, RatFunc
from section_oracle import commutator_residual, flat_condition, with_structures
from test_algebroid import _outcomes, frobenius
from test_duality import _sections

U = ["u1", "u2"]


def rfu(terms):
    return RatFunc(Poly.from_terms(2, {e: Fraction(c) for e, c in terms.items()}))


def jet(terms):
    """Polynomial in the 6 jet variables (u1, u2, u1_x, u2_x, u1_xx, u2_xx)."""
    return RatFunc(Poly.from_terms(6, {e: Fraction(c) for e, c in terms.items()}))


def test_jet_names():
    assert jet_names(U) == ["u1", "u2", "u1_x", "u2_x", "u1_xx", "u2_xx"]


def test_total_x_basics():
    u1 = RatFunc.var(2, 0).extend(6)
    assert total_x(u1) == RatFunc.var(6, 2)
    # Leibniz: D_x(u1 * u2_x) = u1_x u2_x + u1 u2_xx
    f = u1 * RatFunc.var(6, 3)
    out = total_x(f)
    expected = RatFunc.var(6, 2) * RatFunc.var(6, 3) + u1 * RatFunc.var(6, 5)
    assert out == expected
    assert out.format(jet_names(U)) == "u1*u2_xx + u1_x*u2_x"
    # chain rule on a pure coefficient
    g = rfu({(2, 1): 1}).extend(6)
    chain = total_x(g)
    assert chain == jet({(1, 1, 1, 0, 0, 0): 2, (2, 0, 0, 1, 0, 0): 1})


def test_total_x_overflow():
    with pytest.raises(JetOrderOverflow, match="leaves the supported jet range"):
        total_x(RatFunc.var(6, 4))


def test_flow_derive_overflow():
    F, _ = designated_pair()
    with pytest.raises(JetOrderOverflow, match="flow derivative applied past first-order jets"):
        F.derive(RatFunc.var(6, 5))
    # first-order jets stay in range
    assert F.derive(RatFunc.var(6, 2)) == total_x(F.velocity(0))


def test_jet_function_shape():
    with pytest.raises(ShapeError):
        total_x(RatFunc.var(2, 0))


def test_flow_from_section_examples():
    T = load_fixture("SS2")
    u1, u2 = RatFunc.var(2, 0), RatFunc.var(2, 1)
    zero, one = RatFunc.zero(2), RatFunc.one(2)
    F = flow_from_section(T, T.identity)
    assert F.V == ((one, zero), (zero, one))
    G = flow_from_section(T, Section([u1, u2]))
    assert G.V == ((u1, zero), (zero, u2))
    Z = flow_from_section(T, Section([zero, zero]))
    assert all(c.is_zero() for row in Z.V for c in row)


def test_flow_and_multiplication_matrix_match_dense_formulas():
    # a rank-2 tangent presentation whose product is not commutative,
    # so a swapped argument order changes both matrices
    u1, u2 = RatFunc.var(2, 0), RatFunc.var(2, 1)
    zero, one = RatFunc.zero(2), RatFunc.one(2)
    c = RatFunc.const
    product = [[[u1, c(2, 2)], [u2, one]], [[zero, u1 * u2], [c(2, 3), u2]]]
    T = AlgebroidPresentation(U, 2, product, anchor=[[one, zero], [zero, one]])
    X = Section([u2, u1 + one])
    V = flow_from_section(T, X).V
    M = multiplication_matrix(T, X).matrix
    for a in range(2):
        for b in range(2):
            assert V[a][b] == sum((product[a][b][k] * X.components[k] for k in range(2)), zero)
            assert M[a][b] == sum((X.components[i] * product[a][i][b] for i in range(2)), zero)


def test_flow_requires_tangent_presentation():
    with pytest.raises(NotTangent):
        flow_from_section(load_fixture("FM2"), Section.zero(2, 0))
    with pytest.raises(NotTangent):
        flow_from_section(load_fixture("TR"), Section([RatFunc.one(1)]))


def test_flows_commute_and_symmetry():
    T = load_fixture("SS2")
    F = flow_from_section(T, T.identity)
    G = flow_from_section(T, Section([RatFunc.var(2, 0), RatFunc.var(2, 1)]))
    assert flows_commute(F, G, U).overall
    assert flows_commute(G, F, U).overall
    assert flows_commute(F, F, U).overall


def designated_pair():
    z = RatFunc.zero(2)
    F = HydroFlow(((RatFunc.var(2, 1), z), (z, z)))
    G = HydroFlow(((RatFunc.var(2, 0), z), (z, z)))
    return F, G


def test_designated_noncommuting_pair():
    F, G = designated_pair()
    res = commutator_residual(F, G)
    assert res[0].format(jet_names(U)) == "u1*u1_x*u2_x"
    assert res[1].is_zero()
    report = flows_commute(F, G, U)
    assert not report.overall
    # symmetric failure
    assert not flows_commute(G, F, U).overall


def test_dimension_mismatch():
    F, _ = designated_pair()
    one = RatFunc.one(1)
    with pytest.raises(ShapeError):
        commutator_residual(F, HydroFlow(((one,),)))


def test_check_flat_condition():
    T = load_fixture("SS2")
    nabla = Connection()
    euler = Section([RatFunc.var(2, 0), RatFunc.var(2, 1)])
    assert check_flat_condition(T, nabla, euler).overall
    bad = Section([RatFunc.var(2, 1), RatFunc.zero(2)])
    report = check_flat_condition(T, nabla, bad)
    assert not report.overall and all(c.witness for c in report.failures())
    const = Section([RatFunc.const(2, 3), RatFunc.const(2, 5)])
    assert check_flat_condition(T, nabla, const).overall


@pytest.mark.parametrize("name", ["SS2", "SS3", "A3"])
def test_check_flat_condition_matches_section_evaluation(name):
    """The contracted Egorov symmetry gives the Section evaluation's pass flags and witnesses, with the zero and a
    seeded rational connection, at polynomial, shared-denominator and distinct-denominator sections."""
    T = frobenius(name)[0] if name == "A3" else load_fixture(name)
    n, rng = T.n, random.Random(f"flat-condition:{name}")
    u, one, zero = [RatFunc.var(n, m) for m in range(n)], RatFunc.one(n), RatFunc.zero(n)
    pool = [zero, zero, zero, one, u[0], u[-1] * u[0], one / (u[-1] + one)]
    gamma = tuple(tuple(tuple(rng.choice(pool) for _ in range(n)) for _ in range(n)) for _ in range(n))
    verdicts = set()
    for nabla in (Connection(), Connection(gamma)):
        for X in [Section(u)] + [X for X, _ in _sections(T)]:
            report = check_flat_condition(T, nabla, X)
            assert _outcomes(report) == _outcomes(flat_condition(T, nabla, X))
            verdicts.add(report.overall)
    assert verdicts == {True, False}


def test_eventual_identity_flows_examples():
    T = load_fixture("SS2")
    e = T.identity
    euler = Section([RatFunc.var(2, 0), RatFunc.var(2, 1)])
    assert eventual_identity_flows(T, euler, e).overall
    assert eventual_identity_flows(T, e, e).overall
    f1 = Section([rfu({(3, 0): 2, (1, 0): 1}), rfu({(0, 2): 1})])
    assert eventual_identity_flows(T, f1, euler).overall


def test_eventual_identity_flows_name_each_pair_before_its_components():
    """The report moves each pair's commutation blocks across, its instances behind "[Fa,Fb] "."""
    T = load_fixture("SS2")
    euler = Section([RatFunc.var(2, 0), RatFunc.var(2, 1)])
    flows = {"E1": flow_from_section(T, euler), "E2": flow_from_section(T, T.identity),
             "E1.E2": flow_from_section(T, T.multiply(euler, T.identity))}
    expected = [(c.law, f"[{a},{b}] {c.instance}", c.passed, c.witness)
                for (a, F), (b, G) in combinations(flows.items(), 2) for c in flows_commute(F, G, U).checks]
    report = eventual_identity_flows(T, euler, T.identity)
    assert [(c.law, c.instance, c.passed, c.witness) for c in report.checks] == expected and len(expected) == 6
    assert expected[0][1] == "[E1,E2] component u1"


def test_eventual_identity_flows_premise():
    T = load_fixture("SS2")
    bad = Section([RatFunc.var(2, 1), RatFunc.zero(2)])
    with pytest.raises(NotEventual):
        eventual_identity_flows(T, bad, T.identity)


def test_principal_hierarchy_closed_forms():
    T = load_fixture("SS2")
    data = principal_hierarchy(T, Connection(), [T.basis(0), T.basis(1)], 2)
    u1, u2 = RatFunc.var(2, 0), RatFunc.var(2, 1)
    zero = RatFunc.zero(2)
    half = RatFunc.const(2, Fraction(1, 2))
    assert data.table[(0, 1)] == Section([u1, zero])
    assert data.table[(1, 1)] == Section([zero, u2])
    assert data.table[(0, 2)] == Section([half * u1 ** 2, zero])
    assert data.table[(1, 2)] == Section([zero, half * u2 ** 2])
    assert data.commutation.overall
    assert len(data.commutation.checks) == 15  # 6 flows, all pairs
    # recursion holds exactly by re-substitution
    for (p, alpha), X in data.table.items():
        if alpha == 0:
            continue
        prev = data.table[(p, alpha - 1)]
        for j in range(T.n):
            lhs = Section([c.derivative(j) for c in X.components])
            assert lhs == T.multiply(prev, T.basis(j))


def test_principal_hierarchy_alpha_zero():
    T = load_fixture("SS1")
    data = principal_hierarchy(T, Connection(), [T.basis(0)], 0)
    assert list(data.table) == [(0, 0)]
    assert data.commutation.overall


def test_principal_hierarchy_errors():
    T = load_fixture("SS2")
    u1 = RatFunc.var(2, 0)
    with pytest.raises(NotFlat):
        principal_hierarchy(T, Connection(), [Section([u1, RatFunc.zero(2)])], 1)
    gamma = tuple(
        tuple(tuple(u1 if (i, j, k) == (0, 0, 0) else RatFunc.zero(2) for k in range(2)) for j in range(2))
        for i in range(2)
    )
    with pytest.raises(NotCompatible):
        principal_hierarchy(T, Connection(gamma), [T.basis(0), T.basis(1)], 1)


def test_principal_hierarchy_names_the_first_incompatible_pair():
    """The recursion's right-hand side R = c(X, .) must be closed; the error names the first (i, j < l)
    with d_l R^i_j - d_j R^i_l nonzero, in that order, and its value."""
    rng = random.Random(3)
    one, zero = RatFunc.one(3), RatFunc.zero(3)
    for trial in range(6):
        product = [[[RatFunc(random_base_function(rng, 3).num) if rng.random() < 0.4 else zero for _ in range(3)]
                    for _ in range(3)] for _ in range(3)]
        T = AlgebroidPresentation(["u1", "u2", "u3"], 3, product,
                                  anchor=[[one if a == b else zero for b in range(3)] for a in range(3)])
        rhs = T.matrix_of(lambda Ej: T.multiply(T.basis(1), Ej))
        diffs = [(i, j, l, rhs[i][j].derivative(l) - rhs[i][l].derivative(j))
                 for i in range(3) for j, l in combinations(range(3), 2)]
        i, j, l, d = next(x for x in diffs if x[3])
        message = f"alpha=1, component {i + 1}, pair ({j + 1},{l + 1}): {d.format(T.base_vars)}"
        with pytest.raises(NotCompatible) as err:
            principal_hierarchy(T, Connection(), [T.basis(1)], 1)
        assert str(err.value) == message


def test_non_polynomial_antiderivative():
    # rank-1 tangent presentation with product 1/u: the first recursion
    # step would need a logarithm
    u = RatFunc.var(1, 0)
    one = RatFunc.one(1)
    T = AlgebroidPresentation(
        base_vars=["u"],
        rank=1,
        product=[[[one / u]]],
        bracket=[[[RatFunc.zero(1)]]],
        anchor=[[one]],
    )
    with pytest.raises(NonPolynomialAntiderivative):
        principal_hierarchy(T, Connection(), [T.basis(0)], 1)


@pytest.mark.parametrize("seed", range(12))
def test_path_integrate_recovers_potentials(seed):
    # R_m = d_m F for seeded polynomials F with F(0) = 0 gives back F
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    potentials = []
    for _ in range(rng.randint(1, 3)):
        terms = {
            tuple(rng.randint(0, 4) for _ in range(n)): Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            for _ in range(rng.randint(1, 8))
        }
        terms.pop((0,) * n, None)
        potentials.append(RatFunc(Poly.from_terms(n, terms)))
    rows = [[F.derivative(m) for m in range(n)] for F in potentials]
    assert _path_integrate(rows, n) == potentials


def random_diagonal_section(rng, n, deg=3):
    comps = []
    for i in range(n):
        terms = {}
        for d in range(deg + 1):
            exps = [0] * n
            exps[i] = d
            c = rng.randint(-3, 3)
            if c:
                terms[tuple(exps)] = Fraction(c)
        if not terms:
            exps = [0] * n
            exps[i] = 1
            terms[tuple(exps)] = Fraction(1)
        comps.append(RatFunc(Poly.from_terms(n, terms)))
    return Section(comps)


def test_fifty_seeded_eventual_identity_flow_pairs():
    rng = random.Random(20260824)
    for trial in range(50):
        n = rng.choice([1, 2, 3])
        T = semisimple(n)
        E1 = random_diagonal_section(rng, n)
        E2 = random_diagonal_section(rng, n)
        report = eventual_identity_flows(T, E1, E2)
        assert report.overall, (trial, report.summary())


def seeded_flows(rng):
    """Flows on SS_n of a random diagonal section and of a section mixing the coordinates."""
    n = rng.choice([1, 2, 3])
    T = semisimple(n)
    diag = flow_from_section(T, random_diagonal_section(rng, n))
    two = RatFunc.const(n, 2)
    mixed = Section(
        [
            RatFunc.const(n, rng.randint(-3, 3)) * RatFunc.var(n, (i + 1) % n) / (RatFunc.var(n, i) + two)
            for i in range(n)
        ]
    )
    mixed = flow_from_section(T, mixed)
    return n, diag, mixed


def random_base_function(rng, n):
    terms = {}
    for _ in range(3):
        exps = tuple(rng.randint(0, 2) for _ in range(n))
        terms[exps] = Fraction(rng.randint(-3, 3))
    num = Poly.from_terms(n, terms)
    den = Poly.from_terms(n, {tuple(rng.randint(0, 1) for _ in range(n)): Fraction(1), (0,) * n: Fraction(2)})
    if num.is_zero():
        num = Poly.var(n, 0)
    return RatFunc(num, den)


def test_prolonged_flow_commutes_with_total_x():
    rng = random.Random(20261018)
    for trial in range(30):
        n, diag, mixed = seeded_flows(rng)
        f = random_base_function(rng, n).extend(3 * n)
        for F in (diag, mixed):
            assert F.derive(total_x(f)) == total_x(F.derive(f)), trial


def test_failing_flow_witness_reparses():
    rng = random.Random(7)
    seen = 0
    for trial in range(30):
        n, diag, mixed = seeded_flows(rng)
        names = [f"u{i + 1}" for i in range(n)]
        report = flows_commute(diag, mixed, names)
        residuals = commutator_residual(diag, mixed)
        for check, res in zip(report.checks, residuals):
            if check.passed:
                assert res.is_zero() and check.witness is None
                continue
            seen += 1
            assert parse_expr(check.witness, jet_names(names)) == res, (trial, check.witness)
    assert seen
    F, G = designated_pair()
    witness = flows_commute(F, G, U).failures()[0].witness
    assert witness == "u1*u1_x*u2_x"
    assert parse_expr(witness, jet_names(U)) == commutator_residual(F, G)[0]



# -- the base-ring commutation decision ---------------------------------------


def verdicts_match_residuals(F, G) -> int:
    """Assert that each component's verdict is the oracle's (its jet residual is zero); return the failures."""
    names = [f"u{i + 1}" for i in range(F.n)]
    residuals = commutator_residual(F, G)
    checks = flows_commute(F, G, names).checks
    assert [c.passed for c in checks] == [r.is_zero() for r in residuals]
    for c, r in zip(checks, residuals):
        assert c.witness == (None if c.passed else r.format(jet_names(names)))
    return sum(not c.passed for c in checks)


def a2_frobenius() -> AlgebroidPresentation:
    """The A2 Frobenius manifold of F = t1^2 t2 / 2 + t2^4 / 72 in flat coordinates: E2 . E2 = (t2 / 3) E1."""
    zero, one = RatFunc.zero(2), RatFunc.one(2)
    product = [[[one, zero], [zero, RatFunc.var(2, 1).scale(Fraction(1, 3))]], [[zero, one], [one, zero]]]
    return AlgebroidPresentation(["t1", "t2"], 2, product, anchor=[[one, zero], [zero, one]])


def flow_of(rows) -> HydroFlow:
    return HydroFlow(tuple(tuple(row) for row in rows))


def translation(n) -> HydroFlow:
    """u_t = u_x, which commutes with every flow."""
    return flow_of([[RatFunc.one(n) if i == j else RatFunc.zero(n) for j in range(n)] for i in range(n)])


def test_flows_commute_requires_one_name_per_variable():
    F, G = designated_pair()
    for names in (["a"], ["a", "b", "c"]):
        with pytest.raises(ShapeError, match=f"{len(names)} variable names for flows on 2 variables"):
            flows_commute(F, G, names)
    with pytest.raises(ShapeError, match="different base dimensions"):
        flows_commute(F, translation(3), U)
    assert flows_commute(F, G, ["a", "b"]).failures()[0].witness == "a*a_x*b_x"


def test_verdicts_match_residuals_on_seeded_semisimple_flows():
    """SS_n flows of diagonal, rational and polynomial mixing sections, against each other and u_t = u_x."""
    rng = random.Random(20261019)
    failed = 0
    for trial in range(25):
        n, diag, mixed = seeded_flows(rng)
        poly = flow_from_section(semisimple(n), Section([RatFunc(random_base_function(rng, n).num) for _ in range(n)]))
        for F, G in combinations([diag, mixed, poly, translation(n)], 2):
            failed += verdicts_match_residuals(F, G) + verdicts_match_residuals(G, F)
    assert failed


def test_verdicts_match_residuals_on_perturbed_principal_hierarchy_flows():
    """Each pair of A2 hierarchy flows, then with one coefficient c*t^e added to one entry of the first."""
    T = a2_frobenius()
    data = principal_hierarchy(T, Connection(), [T.basis(0), T.basis(1)], 3)
    assert data.commutation.overall and len(data.commutation.checks) == 28
    rng = random.Random(5)
    failed = 0
    for a, b in combinations(sorted(data.flows), 2):
        F, G = data.flows[a], data.flows[b]
        assert verdicts_match_residuals(F, G) == 0
        rows = [list(row) for row in F.V]
        i, j = rng.randrange(2), rng.randrange(2)
        rows[i][j] = rows[i][j] + rfu({(rng.randint(0, 2), rng.randint(0, 2)): rng.choice([-2, -1, 1, 3])})
        failed += verdicts_match_residuals(flow_of(rows), G) + verdicts_match_residuals(G, flow_of(rows))
    assert failed > 20


def test_verdicts_match_residuals_with_zero_and_nonzero_curl():
    """Constant flows have zero curl and are decided by [B,A] alone; a flow with nonzero curl commutes
    with u_t = u_x and with 2F + 3(u_t = u_x), where Q' is antisymmetric and nonzero."""
    zero, one = RatFunc.zero(2), RatFunc.one(2)
    nilpotent, transpose = flow_of([[zero, one], [zero, zero]]), flow_of([[zero, zero], [one, zero]])
    assert nilpotent.curl == [[{}, {}], [{}, {}]]
    assert verdicts_match_residuals(nilpotent, transpose) == 2
    assert verdicts_match_residuals(nilpotent, translation(2)) == 0
    rng = random.Random(11)
    curled = 0
    for trial in range(10):
        F = flow_of([[RatFunc(random_base_function(rng, 2).num) for _ in range(2)] for _ in range(2)])
        if all(not d for plane in F.curl for d in plane):
            continue
        curled += 1
        combo = flow_of([[v.scale(2) + RatFunc.const(2, 3 * (i == j)) for j, v in enumerate(row)]
                         for i, row in enumerate(F.V)])
        for G in (translation(2), combo):
            assert verdicts_match_residuals(F, G) == verdicts_match_residuals(G, F) == 0
    assert curled >= 5
    A2 = a2_frobenius()
    hierarchy_flow = principal_hierarchy(A2, Connection(), [A2.basis(1)], 2).flows[(0, 2)]
    # a flow of the principal hierarchy is a Hessian in flat coordinates, so its curl vanishes
    assert all(not d for plane in hierarchy_flow.curl for d in plane)
    assert any(d for plane in flow_from_section(load_fixture("SS2"), Section([RatFunc.var(2, 1), zero])).curl
               for d in plane)


def test_passing_hierarchy_builds_no_prolonged_field(monkeypatch):
    """Tsarev's conditions decide a passing hierarchy in the base ring; the jet ring is only for witnesses."""
    calls = []
    jet_field = HydroFlow.prolonged.func
    monkeypatch.setattr(HydroFlow, "prolonged", property(lambda self: calls.append(self) or jet_field(self)))
    T = a2_frobenius()
    assert principal_hierarchy(T, Connection(), [T.basis(0), T.basis(1)], 3).commutation.overall
    assert principal_hierarchy(load_fixture("SS3"), Connection(), [load_fixture("SS3").basis(i) for i in range(3)],
                               2).commutation.overall
    euler = Section([RatFunc.var(2, 0), RatFunc.var(2, 1)])
    assert eventual_identity_flows(load_fixture("SS2"), euler, load_fixture("SS2").identity).overall
    assert calls == []
    F, G = designated_pair()
    assert flows_commute(F, G, U).failures()[0].witness == "u1*u1_x*u2_x"
    assert calls  # the witness route goes through the counted property


def test_passing_hierarchy_takes_no_matrix_products(monkeypatch):
    """A3's product is commutative and associative, so its commutator table K is empty and decides every row of
    [B,A]; the hierarchy's flows have empty curls, so no Q' is summed either."""
    import sys

    calls = []
    sum_products = RatFunc.sum_products

    def counted(*args):
        calls.append(sys._getframe(1).f_code.co_name)
        return sum_products(*args)

    monkeypatch.setattr(RatFunc, "sum_products", staticmethod(counted))
    A3, _ = frobenius("A3")
    assert principal_hierarchy(A3, Connection(), [A3.basis(i) for i in range(3)], 2).commutation.overall
    assert A3._points["commutator"] == {} and "_commutes_at" not in calls
    F, G = designated_pair()
    assert not flows_commute(F, G, U).overall
    assert "_commutes_at" in calls  # flows with no source take the matrix products


def nonassociative(rng, T: AlgebroidPresentation, count: int) -> AlgebroidPresentation:
    """T with ``count`` random polynomial or rational terms added to random product entries."""
    product = [[list(row) for row in plane] for plane in T.product]
    for _ in range(count):
        k, i, j = (rng.randrange(T.rank) for _ in range(3))
        extra = random_base_function(rng, T.n)
        product[k][i][j] = product[k][i][j] + (extra if rng.random() < 0.3 else RatFunc(extra.num))
    return with_structures(T, product=product)


def random_tangent(rng, n: int) -> AlgebroidPresentation:
    """A tangent presentation over n variables with a random sparse product of polynomial entries."""
    zero, one = RatFunc.zero(n), RatFunc.one(n)
    product = [[[RatFunc(random_base_function(rng, n).num) if rng.random() < 0.3 else zero for _ in range(n)]
                for _ in range(n)] for _ in range(n)]
    return AlgebroidPresentation([f"u{i + 1}" for i in range(n)], n, product,
                                 anchor=[[one if a == b else zero for b in range(n)] for a in range(n)])


def has_commutator(T: AlgebroidPresentation) -> bool:
    """Whether some (E_b·E_c)·E_d - (E_b·E_d)·E_c is nonzero, by evaluating the products."""
    frame = [T.basis(i) for i in range(T.rank)]
    return any(not (T.multiply(T.multiply(b, c), d) - T.multiply(T.multiply(b, d), c)).is_zero()
               for b, c, d in iproduct(frame, repeat=3))


def test_commutator_table_verdicts_match_residuals():
    """On SS2, SS3 and A2, whose commutator table K is empty, every row of [B,A] = BA - AB of two flows of sections
    vanishes and no product is taken for it. Perturbed and random products have a nonzero K, and their flows take
    the matrix products. Either way each component's verdict is the jet oracle's and that of the same velocity
    matrices as source-free flows."""
    rng = random.Random(20261019)
    fixtures = [load_fixture("SS2"), load_fixture("SS3"), a2_frobenius()]
    makers = [partial(nonassociative, rng, T, 2) for T in fixtures] + [partial(random_tangent, rng, n) for n in (2, 3)]
    outcomes = {True: 0, False: 0}
    for empty, make in [(True, partial(lambda T: T, T)) for T in fixtures] + [(False, make) for make in makers]:
        T = make()
        while not empty and not has_commutator(T):
            T = make()
        assert has_commutator(T) != empty and (not T.constants("commutator")) == empty
        sections = [X for X, _ in _sections(T)] + [Section([RatFunc(random_base_function(rng, T.n).num)
                                                             for _ in range(T.n)])]
        flows = [flow_from_section(T, X) for X in sections]
        twice = flow_from_section(T, sections[0].scale_fn(RatFunc.const(T.n, 2)))
        for F, G in [*zip(flows, flows[1:]), (flows[0], twice)]:
            A, B, rows = F.V, G.V, range(T.n)
            bracket = [[sum((B[i][a] * A[a][b] - A[i][a] * B[a][b] for a in rows), RatFunc.zero(T.n)) for b in rows]
                       for i in rows]
            assert _bracket_vanishes(F, G) == empty and empty <= (not any(map(any, bracket)))
            verdicts = [c.passed for c in flows_commute(F, G).checks]
            assert verdicts == [r.is_zero() for r in commutator_residual(F, G)]
            assert verdicts == [c.passed for c in flows_commute(flow_of(F.V), flow_of(G.V)).checks]
            for ok in verdicts:
                outcomes[ok] += 1
    assert outcomes[True] >= 5 and outcomes[False] >= 10, outcomes


def test_flows_of_two_presentations_take_the_matrix_products():
    """Flows of sections of two presentations, even with the same empty commutator table, are compared without it;
    the source takes no part in equality, hashing or repr."""
    T = load_fixture("SS2")
    X = Section([RatFunc.var(2, 0), RatFunc.one(2)])
    F, G = flow_from_section(T, X), flow_from_section(with_structures(T), X.scale_fn(RatFunc.var(2, 1)))
    assert F == flow_of(F.V) and hash(F) == hash(flow_of(F.V)) and repr(F) == repr(flow_of(F.V))
    assert F.source[0] is not G.source[0] and flow_of(F.V).source is None
    assert _bracket_vanishes(F, flow_from_section(T, X)) and not _bracket_vanishes(F, G)
    assert not _bracket_vanishes(F, flow_of(G.V))
    with pytest.raises(TypeError):
        HydroFlow(F.V, (T, X))  # only a flow built from its section carries one
    verdicts_match_residuals(F, G)


def test_noncommutative_hierarchy_flows_are_right_multiplications():
    """With E_i·E_j = m_j E_i for m = (1, 0), which is not commutative, the recursion's matrix X·E_j is not the
    velocity matrix E_j·X = (m·X) Id of X, so the hierarchy builds every flow from its section."""
    zero, one = RatFunc.zero(2), RatFunc.one(2)
    product = [[[one, zero], [zero, zero]], [[zero, zero], [one, zero]]]
    T = AlgebroidPresentation(U, 2, product, anchor=[[one, zero], [zero, one]])
    assert T.multiply(T.basis(0), T.basis(1)) != T.multiply(T.basis(1), T.basis(0))
    data = principal_hierarchy(T, Connection(), [T.basis(0), T.basis(1)], 2)
    assert data.commutation.overall
    for key, X in data.table.items():
        assert data.flows[key].V == tuple(map(tuple, T.matrix_of(lambda Ej: T.multiply(Ej, X))))
    assert data.flows[(0, 0)].V != tuple(map(tuple, T.matrix_of(lambda Ej: T.multiply(T.basis(0), Ej))))
