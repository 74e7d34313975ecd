"""Construction tests: actions, direct products, fixtures."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from falgebroid.algebroid import (
    AlgebroidPresentation,
    Section,
    VectorField,
    check_f_algebroid,
    check_pre_f,
    check_prelie_com,
    sub_adjacent,
)
from falgebroid.constructions import (
    MAX_FIXTURE_RANK,
    ActionSpec,
    FiniteAlgebra,
    action_f_algebroid,
    action_pre_f,
    derivation_algebroid,
    direct_product,
    fixture_names,
    fm2_algebra,
    load_fixture,
    semisimple,
)
from falgebroid.errors import NotAHomomorphism, NotFManifoldAlgebra, ShapeError, UnknownFixture
from falgebroid.ring import RatFunc
from section_oracle import action_failure


def test_fm2_algebra_is_f_manifold_algebra():
    A = fm2_algebra().to_presentation()
    assert check_f_algebroid(A).overall


def action_case(case):
    """The fields (algebra, base variables, rho) of an action: FM2 with rho(e1) = 0 and rho(e2) = u d/du, where
    [e1,e2] = e2 gives [0, rho(e2)] = 0 != rho(e2); ACT2's; FM2's zero action on the plane; or a seeded algebra of
    rank 2-3 with a bracket, a pre-Lie operation (the commutator's skew path) or both, and vector fields with
    entries from {0, 1, u, u², u1·u2, 1/(u1+1)} over 1-2 variables."""
    if case == "FM2":
        return fm2_algebra(), ["u"], [VectorField.zero(1), VectorField([RatFunc.var(1, 0)])]
    if case in ("ACT2", "zero"):
        zero, u2 = RatFunc.zero(2), RatFunc.var(2, 1)
        fields = [[zero, u2], [u2, u2 * u2]] if case == "ACT2" else [[zero, zero]] * 2
        return fm2_algebra(), ["u1", "u2"], [VectorField(v) for v in fields]
    rng = random.Random(f"action:{case}")
    dim, n, kind = rng.choice([2, 3]), rng.choice([1, 2]), rng.choice(["bracket", "prelie", "both"])
    one, u = RatFunc.one(n), lambda: RatFunc.var(n, rng.randrange(n))  # noqa: E731
    entries = [lambda: RatFunc.zero(n), lambda: one, u, lambda: u() * u(),
               lambda: RatFunc.var(n, 0) * RatFunc.var(n, n - 1), lambda: one / (RatFunc.var(n, 0) + one)]
    tensor = lambda: [[[rng.choice([0, 0, 0, 1, -1, Fraction(1, 2)]) for _ in range(dim)]  # noqa: E731
                       for _ in range(dim)] for _ in range(dim)]
    zeros = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    algebra = FiniteAlgebra(dim, zeros, bracket=tensor() if kind != "prelie" else None,
                            prelie=tensor() if kind != "bracket" else None)
    rho = [VectorField([rng.choice(entries[:1] * 3 + entries)() for _ in range(n)]) for _ in range(dim)]
    return algebra, [f"u{m + 1}" for m in range(n)], rho


ACTION_CASES = ["FM2", "ACT2", "zero", *range(40)]


def test_action_requires_homomorphism():
    """``ActionSpec`` contracts the anchor's bracket-morphism defect from the lifted tables. On every case it raises
    NotAHomomorphism exactly when the oracle's loop on sections finds a pair i < j with ρ([e_i,e_j]) ≠
    [ρ(e_i),ρ(e_j)], and names the oracle's first pair and its defect. The seeded actions reach both verdicts, and
    each kind of algebra fails."""
    verdicts, failing = {}, set()
    for case in ACTION_CASES:
        fields = action_case(case)
        failure = action_failure(*fields)
        verdicts[case] = failure is None
        if failure is None:
            ActionSpec(*fields)
            continue
        failing.add((fields[0].bracket is not None, fields[0].prelie is not None))
        i, j, defect = failure
        with pytest.raises(NotAHomomorphism) as err:
            ActionSpec(*fields)
        pair = f"rho([e{i + 1},e{j + 1}]) != [rho(e{i + 1}),rho(e{j + 1})]"
        assert str(err.value) == f"{pair}: defect {defect.format(fields[1])}", case
    with pytest.raises(NotAHomomorphism, match=r"^rho\(\[e1,e2\]\) != \[rho\(e1\),rho\(e2\)\]: defect \[u\]$"):
        ActionSpec(*action_case("FM2"))
    assert verdicts["ACT2"] and verdicts["zero"]
    seeded = [case for case in ACTION_CASES if isinstance(case, int)]
    assert any(verdicts[case] for case in seeded) and not all(verdicts[case] for case in seeded)
    assert failing == {(True, False), (False, True), (True, True)}  # (bracket, pre-Lie) of the failing algebras


def test_action_without_a_bracket_or_prelie_needs_rank_one():
    """An algebra with neither a bracket nor a pre-Lie operation has no commutator: ShapeError from rank 2, none at
    rank 1, which has no pair to check."""
    with pytest.raises(ShapeError, match="neither bracket nor prelie"):
        ActionSpec(FiniteAlgebra(2, [[[0, 0], [0, 0]]] * 2), ["u"], [VectorField.zero(1)] * 2)
    ActionSpec(FiniteAlgebra(1, [[[1]]]), ["u"], [VectorField([RatFunc.var(1, 0)])])


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
    assert P.product == S.product
    assert P.bracket == S.bracket
    assert P.identity == S.identity
    assert [[c for c in row] for row in P.anchor] == [[c for c in row] for row in S.anchor]
    assert check_f_algebroid(P).overall


def test_direct_product_prelie():
    P = direct_product(load_fixture("TR"), load_fixture("TR"))
    assert check_prelie_com(P).overall


def test_poisson_seed_constants():
    """POISSON_SEED is the rank-1 algebra of constants: zero bracket, zero anchor, identity E1."""
    A = load_fixture("POISSON_SEED")
    assert all(c.is_zero() for m in A.bracket for row in m for c in row)
    assert all(c.is_zero() for row in A.anchor for c in row)
    assert A.multiply(A.basis(0), A.basis(0)) == A.basis(0) == A.identity


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
    assert via_sub.bracket == direct.bracket


def test_fixture_registry():
    names = fixture_names()
    assert "SS<n>" in names and "FM2" in names
    with pytest.raises(UnknownFixture):
        load_fixture("NOPE")
    with pytest.raises(UnknownFixture):
        load_fixture("SS0")
    assert load_fixture("DN2").rank == 20


# -- oracle: the hand-built fixture bodies each construction replaced ------


def _ref_zero_tensor(r, n):
    z = RatFunc.zero(n)
    return [[[z for _ in range(r)] for _ in range(r)] for _ in range(r)]


def _ref_const_tensor(constants, n):
    return [[[RatFunc.const(n, c) for c in row] for row in mat] for mat in constants]


def _ref_action(spec, use_prelie):
    alg, n = spec.algebra, len(spec.base_vars)
    ident = None if alg.identity is None else Section(RatFunc.const(n, c) for c in alg.identity)
    return AlgebroidPresentation(
        base_vars=list(spec.base_vars),
        rank=alg.dim,
        product=_ref_const_tensor(alg.product, n),
        bracket=None if use_prelie else _ref_const_tensor(alg.bracket, n),
        prelie=_ref_const_tensor(alg.prelie, n) if use_prelie else None,
        anchor=[list(v.components) for v in spec.rho],
        identity=ident,
    )


def _ref_fm2():
    alg = fm2_algebra()
    return AlgebroidPresentation(
        base_vars=[],
        rank=2,
        product=_ref_const_tensor(alg.product, 0),
        bracket=_ref_const_tensor(alg.bracket, 0),
        anchor=[[], []],
        identity=Section(RatFunc.const(0, c) for c in alg.identity),
    )


def _ref_act2():
    zero, u2 = RatFunc.zero(2), RatFunc.var(2, 1)
    rho = [VectorField([zero, u2]), VectorField([u2, u2 * u2])]
    return _ref_action(ActionSpec(fm2_algebra(), ["u1", "u2"], rho), use_prelie=False)


def _ref_semisimple(n):
    zero = RatFunc.zero(n)
    one = RatFunc.const(n, 1)
    product = [[[one if i == j == k else zero for j in range(n)] for i in range(n)] for k in range(n)]
    return AlgebroidPresentation(
        base_vars=[f"u{i + 1}" for i in range(n)],
        rank=n,
        product=product,
        bracket=_ref_zero_tensor(n, n),
        prelie=_ref_zero_tensor(n, n),
        anchor=[[one if i == j else zero for j in range(n)] for i in range(n)],
        identity=Section(one for _ in range(n)),
    )


def _ref_tangent_line():
    u, one = RatFunc.var(1, 0), RatFunc.const(1, 1)
    return AlgebroidPresentation(
        base_vars=["u1"],
        rank=1,
        product=[[[one]]],
        bracket=_ref_zero_tensor(1, 1),
        prelie=_ref_zero_tensor(1, 1),
        anchor=[[u]],
        identity=Section([one]),
    )


def _ref_tangent_plane():
    zero, one = RatFunc.zero(2), RatFunc.const(2, 1)
    return AlgebroidPresentation(
        base_vars=["u1", "u2"],
        rank=2,
        product=[[[one, zero], [zero, zero]], [[zero, one], [one, zero]]],
        bracket=_ref_zero_tensor(2, 2),
        prelie=_ref_zero_tensor(2, 2),
        anchor=[[one, zero], [zero, one]],
        identity=Section([one, zero]),
    )


def _ref_derivation_algebroid(n, degree_cap):
    monos = []
    for total in range(degree_cap + 1):
        for combo in combinations_with_replacement(range(n), total):
            alpha = [0] * n
            for c in combo:
                alpha[c] += 1
            monos.append(tuple(alpha))
    mono_pos = {m: i for i, m in enumerate(monos)}
    basis = [(alpha, i) for alpha in monos for i in range(n)]
    pos = {b: i for i, b in enumerate(basis)}
    r = len(basis)
    zero, one = RatFunc.zero(0), RatFunc.const(0, 1)
    product = _ref_zero_tensor(r, 0)
    prelie = _ref_zero_tensor(r, 0)
    for a, (alpha, i) in enumerate(basis):
        for b, (beta, j) in enumerate(basis):
            gamma = tuple(x + y for x, y in zip(alpha, beta))
            if gamma not in mono_pos:
                continue
            if i == j:
                product[pos[(gamma, i)]][a][b] = one
            if beta[i] != 0:
                prelie[pos[(gamma, j)]][a][b] = RatFunc.const(0, beta[i])
    identity = Section(one if basis[k][0] == (0,) * n else zero for k in range(r))
    return AlgebroidPresentation(
        base_vars=[], rank=r, product=product, prelie=prelie, anchor=[[] for _ in range(r)], identity=identity
    )


def _ref_poisson_seed():
    zero, one = RatFunc.zero(2), RatFunc.const(2, 1)
    return AlgebroidPresentation(
        base_vars=["q", "p"],
        rank=1,
        product=[[[one]]],
        bracket=[[[zero]]],
        anchor=[[zero, zero]],
        identity=Section([one]),
    )


_REFERENCE_FIXTURES = {
    "FM2": _ref_fm2,
    "ACT2": _ref_act2,
    **{f"SS{n}": (lambda n=n: _ref_semisimple(n)) for n in (1, 2, 3, 4)},
    "TR": _ref_tangent_line,
    "TR2": _ref_tangent_plane,
    "POISSON_SEED": _ref_poisson_seed,
    "DN1": lambda: _ref_derivation_algebroid(1, 3),
    "DN1_2": lambda: _ref_derivation_algebroid(1, 2),
    "DN2_2": lambda: _ref_derivation_algebroid(2, 2),
    "DN2": lambda: _ref_derivation_algebroid(2, 3),
}


def assert_same_presentation(A, B):
    """Equal field by field: every tensor entry, anchor entry and identity component."""
    for name in ("base_vars", "rank", "product", "bracket", "prelie", "anchor", "identity"):
        assert getattr(A, name) == getattr(B, name), name


@pytest.mark.parametrize("name", sorted(_REFERENCE_FIXTURES))
def test_fixture_matches_hand_built_reference(name):
    assert_same_presentation(load_fixture(name), _REFERENCE_FIXTURES[name]())


def test_action_constructors_match_reference():
    alg = fm2_algebra()
    prelie = [[[0, 0], [0, 0]], [[0, 1], [0, 0]]]  # e1*e2 = e2, whose commutator is the FM2 bracket
    palg = FiniteAlgebra(dim=2, product=alg.product, bracket=alg.bracket, prelie=prelie, identity=alg.identity)
    u = RatFunc.var(1, 0)
    spec = ActionSpec(palg, ["u"], [VectorField([u]), VectorField.zero(1)])
    assert_same_presentation(action_f_algebroid(spec), _ref_action(spec, use_prelie=False))
    assert_same_presentation(action_pre_f(spec), _ref_action(spec, use_prelie=True))


@pytest.mark.parametrize("name", ["DN1_100", "DN2_9", "DN" + "1" * 5000], ids=["DN1_100", "DN2_9", "DN1x5000"])
def test_fixture_past_rank_limit_is_rejected_before_building(name):
    # DN1_100 has rank 101 and DN2_9 rank 110; tests/test_cli.py has SS101 and the 5000-digit names
    with pytest.raises(UnknownFixture, match=f"rank above the limit {MAX_FIXTURE_RANK}"):
        load_fixture(name)


def test_fixture_names_within_the_rank_limit_and_unknown_names():
    assert MAX_FIXTURE_RANK == 100
    assert load_fixture("DN3").rank == 60
    assert load_fixture("SS0002").rank == 2
    assert load_fixture("DN1_0").rank == 1
    for name in ("DN0", "DN0_" + "1" * 5000, "SS2_3"):
        with pytest.raises(UnknownFixture, match="unknown fixture"):
            load_fixture(name)


def test_dn3_builds_only_its_tables():
    """DN3 (rank 60, 504 nonzero constants) is built from its tables: its tracemalloc peak stays under 1 MB, where
    its two dense rank³ tensors of 216000 entries each took about 8 MB."""
    import tracemalloc

    load_fixture("DN2")  # warm the imports and caches a first build fills
    tracemalloc.start()
    try:
        A = load_fixture("DN3")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert A.rank == 60 and sum(len(cell) for t in A._tables.values() for cell in t.values()) == 504
    assert peak < 1_000_000, peak
