"""Construction tests: actions, direct products, Poisson seeds, fixtures."""

from fractions import Fraction

import pytest

from falgebroid.algebroid import (
    VectorField,
    check_f_algebroid,
    check_pre_f,
    check_prelie_com,
    sub_adjacent,
    tensors_equal,
)
from falgebroid.constructions import (
    ActionSpec,
    FiniteAlgebra,
    action_f_algebroid,
    action_pre_f,
    derivation_algebroid,
    direct_product,
    fixture_names,
    fm2_algebra,
    load_fixture,
    poisson_seed,
    semisimple,
)
from falgebroid.errors import (
    NotAHomomorphism,
    NotClosed,
    NotFManifoldAlgebra,
    UnknownFixture,
)
from falgebroid.ring import Poly, RatFunc


def test_fm2_algebra_is_f_manifold_algebra():
    A = fm2_algebra().to_presentation()
    assert check_f_algebroid(A).overall


def test_action_requires_homomorphism():
    alg = fm2_algebra()
    n = 1
    u = RatFunc.var(n, 0)
    zero = RatFunc.zero(n)
    # [e1,e2] = e2 but rho(e1) = 0 and rho(e2) = u d/du gives [0, rho(e2)] = 0 != rho(e2)
    with pytest.raises(NotAHomomorphism):
        ActionSpec(alg, ["u"], [VectorField([zero]), VectorField([u])])


def test_abelian_action_builds_f_algebroid():
    alg = fm2_algebra()
    n = 1
    u = RatFunc.var(n, 0)
    # rho(e1) = u d/du, rho(e2) = u d/du anchors [e1,e2]=e2? No: commutator of
    # equal fields is zero but [e1,e2]=e2 maps to rho(e2) != 0 — use rho(e2)=0.
    spec = ActionSpec(alg, ["u"], [VectorField([u]), VectorField.zero(n)])
    A = action_f_algebroid(spec)
    assert check_f_algebroid(A).overall


def test_action_rejects_non_f_manifold_algebra():
    F = Fraction
    r = 2
    # product with a non-associative defect
    prod = [[[F(0)] * r for _ in range(r)] for _ in range(r)]
    prod[0][0][0] = F(1)
    prod[1][1][1] = F(1)
    prod[0][1][1] = F(1)  # e2*e2 = e1 + e2; (e2 e2) e2 != e2 (e2 e2) fails HM sweep
    b = [[[F(0)] * r for _ in range(r)] for _ in range(r)]
    b[0][0][1] = F(1)
    b[0][1][0] = F(-1)
    alg = FiniteAlgebra(dim=r, product=prod, bracket=b)
    spec = ActionSpec(alg, ["u"], [VectorField.zero(1), VectorField.zero(1)])
    with pytest.raises(NotFManifoldAlgebra):
        action_f_algebroid(spec)


def test_act2_fixture():
    A = load_fixture("ACT2")
    assert check_f_algebroid(A).overall


def test_direct_product_ss1_ss1_matches_ss2():
    P = direct_product(load_fixture("SS1"), load_fixture("SS1"))
    S = load_fixture("SS2")
    assert P.rank == 2 and P.n == 2
    assert P.base_vars == ["u1#1", "u1#2"]
    assert tensors_equal(P.product, S.product)
    assert tensors_equal(P.bracket, S.bracket)
    assert P.identity == S.identity
    assert [[c for c in row] for row in P.anchor] == [[c for c in row] for row in S.anchor]
    assert check_f_algebroid(P).overall


def test_direct_product_prelie():
    P = direct_product(load_fixture("TR"), load_fixture("TR"))
    assert check_prelie_com(P).overall


def qp(expr_terms):
    return RatFunc(Poly.from_terms(2, {e: Fraction(c) for e, c in expr_terms.items()}))


def test_poisson_candidate_span_not_closed():
    one = qp({(0, 0): 1})
    q = qp({(1, 0): 1})
    p = qp({(0, 1): 1})
    # q*q = q^2 escapes span{1, q, p, pq}
    with pytest.raises(NotClosed):
        poisson_seed([one, q, p, q * p])
    # q^2 * q^2 = q^4 escapes span{q^2}
    with pytest.raises(NotClosed):
        poisson_seed([q * q])


def test_poisson_seed_constants():
    A = poisson_seed([qp({(0, 0): 1})])
    assert A.rank == 1
    assert check_f_algebroid(A).overall
    # constant functions have zero Hamiltonian vector field
    assert A.anchor_of(A.basis(0)).is_zero()


def test_poisson_seed_fixture():
    A = load_fixture("POISSON_SEED")
    assert A.rank == 1 and A.base_vars == ["q", "p"]
    assert check_f_algebroid(A).overall


def test_semisimple_identity_and_sizes():
    for n in (1, 2, 3):
        A = semisimple(n)
        assert A.rank == n
        assert all(c == RatFunc.one(n) for c in A.identity.components)


def test_derivation_algebroid_ranks():
    # carrier w^alpha (x) D_i with |alpha| <= cap
    assert derivation_algebroid(1, 1).rank == 2
    assert derivation_algebroid(2, 2).rank == 12
    assert derivation_algebroid(2, 3).rank == 20


def test_derivation_algebroid_prelie_com_small():
    A = derivation_algebroid(2, 2)
    assert check_prelie_com(A).overall
    assert check_pre_f(A).overall


def test_sub_adjacent_of_action_pre_f_commutes_with_f_construction():
    # building the pre-F action and passing to the sub-adjacent bracket
    # agrees with building the F-algebroid action directly
    alg = fm2_algebra()
    F = Fraction
    prelie = [[[F(0)] * 2 for _ in range(2)] for _ in range(2)]
    # pre-Lie constants whose commutator is the FM2 bracket: e1*e2 = e2
    prelie[1][0][1] = F(1)
    palg = FiniteAlgebra(dim=2, product=alg.product, bracket=alg.bracket, prelie=prelie, identity=alg.identity)
    u = RatFunc.var(1, 0)
    spec = ActionSpec(palg, ["u"], [VectorField([u]), VectorField.zero(1)])
    pre = action_pre_f(spec)
    assert check_pre_f(pre).overall
    via_sub = sub_adjacent(pre)
    direct = action_f_algebroid(spec)
    assert tensors_equal(via_sub.bracket, direct.bracket)


def test_fixture_registry():
    names = fixture_names()
    assert "SS<n>" in names and "FM2" in names
    with pytest.raises(UnknownFixture):
        load_fixture("NOPE")
    with pytest.raises(UnknownFixture):
        load_fixture("SS0")
    assert load_fixture("DN2").rank == 20
