"""Formal deformations, the coboundary complex, and point cohomology."""

import itertools
import math
import random
from fractions import Fraction
from functools import partial

import pytest

from falgebroid import linalg
from falgebroid.algebroid import AlgebroidPresentation, Section, VectorField, check_f_algebroid
from falgebroid.constructions import FiniteAlgebra, fm2_algebra, load_fixture
from falgebroid.deformation import (
    FormalDeformation,
    MultiDer,
    _coord_args,
    _d_matrix,
    _d_times,
    check_n_deformation,
    cohomology_point,
    equivalence_check,
    extend,
    obstruction,
    semiclassical_limit,
)
from falgebroid.errors import (
    BaseNotPoint,
    FalgError,
    NotADeformation,
    ObstructionNonzero,
    ShapeError,
)
from falgebroid.duality import BundleMap, dubrovin_dual
from falgebroid.hierarchy import HydroFlow
from falgebroid.report import Report
from falgebroid.ring import Poly, RatFunc
from linalg_oracle import nullspace, rank as mat_rank, rref as oracle_rref, solve
from section_oracle import as_prelie, bracket_of, cochain_eval, d_def, d_def_eval, d_def_sigma_eval, frame_args
from section_oracle import n_deformation, order_k_residual, prelie_associator, scaled_basis, sigma_eval, vf_bracket
from test_algebroid import _outcomes, _random_presentation


# -- the truncated polynomial algebra example ------------------------------


def truncated_poly_algebra(order=4):
    """Basis u^0..u^{order-1}, product truncates at u^order."""
    F = Fraction
    r = order
    prod = [
        [[F(1) if i + j == k else F(0) for j in range(r)] for i in range(r)]
        for k in range(r)
    ]
    identity = [F(1)] + [F(0)] * (r - 1)
    return FiniteAlgebra(dim=r, product=prod, identity=identity)


def euler_weight(A, sec):
    """The derivation u d/du: u^k maps to k u^k."""
    return Section(
        tuple(RatFunc.const(0, k) * c for k, c in enumerate(sec.components))
    )


def mu1_euler(A):
    return MultiDer.build(
        2, A.rank, 0, lambda idx: A.multiply(A.basis(idx[0]), euler_weight(A, A.basis(idx[1])))
    )


def test_first_order_deformation_checks():
    A = truncated_poly_algebra().to_presentation()
    deform = FormalDeformation(A, [mu1_euler(A)])
    assert check_n_deformation(deform).overall


def test_order_two_with_zero_mu2():
    A = truncated_poly_algebra().to_presentation()
    deform = FormalDeformation(A, [mu1_euler(A), MultiDer.zero(2, A.rank, 0)])
    assert check_n_deformation(deform).overall


def test_semiclassical_limit_bracket_oracle():
    A = truncated_poly_algebra().to_presentation()
    deform = FormalDeformation(A, [mu1_euler(A)])
    limit = semiclassical_limit(deform)
    mu1 = deform.mus[0]
    for i in range(A.rank):
        for j in range(A.rank):
            x, y = A.basis(i), A.basis(j)
            # hand formula: [x, y] = x.D(y) - y.D(x)
            expected = A.multiply(x, euler_weight(A, y)) - A.multiply(y, euler_weight(A, x))
            assert bracket_of(limit, x, y) == expected
    assert check_f_algebroid(limit).overall


def test_obstruction_vanishes_and_zero_extension():
    A = truncated_poly_algebra().to_presentation()
    deform = FormalDeformation(A, [mu1_euler(A)])
    theta = obstruction(deform)
    assert theta.is_zero()
    extended = extend(deform, MultiDer.zero(2, A.rank, 0))
    assert extended.order == 2
    assert check_n_deformation(extended).overall


def test_invalid_second_order_cochain_rejected():
    A = truncated_poly_algebra().to_presentation()
    # mu2(x, y) = x . D^2(y) / 2 does not satisfy the order-2 condition
    def d2(sec):
        return euler_weight(A, euler_weight(A, sec))

    half = RatFunc.const(0, Fraction(1, 2))
    mu2 = MultiDer.build(
        2, A.rank, 0, lambda idx: A.multiply(A.basis(idx[0]), d2(A.basis(idx[1]))).scale_fn(half)
    )
    deform = FormalDeformation(A, [mu1_euler(A), mu2])
    assert not check_n_deformation(deform).overall
    with pytest.raises(NotADeformation):
        semiclassical_limit(deform)


def test_nonzero_coboundary_blocks_zero_psi_obstruction_match():
    A = truncated_poly_algebra().to_presentation()
    deform = FormalDeformation(A, [mu1_euler(A)])
    # Theta_1 = 0, so any psi that is not closed mismatches
    psi = MultiDer.zero(2, A.rank, 0)
    D = dict(psi.D)
    D[(1, 1)] = A.basis(1)
    psi = MultiDer(2, A.rank, 0, D, psi.sigma)
    assert not d_def(as_prelie(A), psi).is_zero()
    with pytest.raises(ObstructionNonzero):
        extend(deform, psi)


# -- multiderivation semantics ---------------------------------------------


def rand_poly(rng, nvars, deg=2):
    terms = {}
    for _ in range(3):
        exps = tuple(rng.randint(0, deg) for _ in range(nvars))
        terms[exps] = Fraction(rng.randint(-3, 3))
    return RatFunc(Poly.from_terms(nvars, terms))


def rand_section(rng, r, nv):
    return Section([rand_poly(rng, nv) for _ in range(r)])


def rand_vf(rng, nv):
    return VectorField([rand_poly(rng, nv) for _ in range(nv)])


def rand_multider(rng, degree, r, nv):
    return MultiDer.build(
        degree,
        r,
        nv,
        lambda idx: rand_section(rng, r, nv),
        lambda idx: rand_vf(rng, nv),
    )


def test_multider_leibniz_rule():
    rng = random.Random(5)
    A = load_fixture("TR2")
    md = rand_multider(rng, 2, 2, 2)
    X = rand_section(rng, 2, 2)
    Y = rand_section(rng, 2, 2)
    f = rand_poly(rng, 2)
    lhs = cochain_eval(md, [X, Y.scale_fn(f)])
    rhs = cochain_eval(md, [X, Y]).scale_fn(f) + Y.scale_fn(sigma_eval(md, [X]).apply(f))
    assert lhs == rhs
    # function-linearity in the leading slot
    assert cochain_eval(md, [X.scale_fn(f), Y]) == cochain_eval(md, [X, Y]).scale_fn(f)


def test_coboundary_consistency_on_prelie_fixtures():
    rng = random.Random(11)
    for name in ("TR", "SS2"):
        A = load_fixture(name)
        r, nv = A.rank, A.n
        for degree in (1, 2):
            md = rand_multider(rng, degree, r, nv)
            d1 = d_def(A, md)
            args = [scaled_basis(A, 0, i % r) for i in range(degree + 1)]
            assert cochain_eval(d1, args) == d_def_eval(A, md, args)
            assert (
                sigma_eval(d1, args[:-1]) - d_def_sigma_eval(A, md, args[:-1])
            ).is_zero()


def test_d_squared_zero_on_prelie_fixtures():
    rng = random.Random(13)
    for name in ("TR", "SS2"):
        A = load_fixture(name)
        for degree in (1, 2):
            md = rand_multider(rng, degree, A.rank, A.n)
            assert d_def(A, d_def(A, md)).is_zero()


def test_d_squared_zero_100_seeded_over_fm2():
    A = as_prelie(fm2_algebra().to_presentation())
    rng = random.Random(2026)
    for _ in range(50):
        for degree in (1, 2):
            md = rand_multider(rng, degree, A.rank, 0)
            assert d_def(A, d_def(A, md)).is_zero()


def test_seeded_valid_one_deformations_have_closed_obstruction():
    base = fm2_algebra().to_presentation()
    P = as_prelie(base)
    rng = random.Random(99)
    reps = cohomology_point(fm2_algebra(), 2).representatives
    for _ in range(25):
        # a generic 2-cocycle: coboundary plus a combination of representatives
        phi = rand_multider(rng, 1, base.rank, 0)
        mu1 = d_def(P, phi)
        for rep in reps:
            mu1 = mu1 + rep.scale(Fraction(rng.randint(-2, 2)))
        deform = FormalDeformation(base, [mu1])
        assert check_n_deformation(deform).overall
        theta = obstruction(deform)
        assert d_def(P, theta).is_zero()


@pytest.mark.parametrize("name", ["TR", "TR2", "SS2", "SS3", "FM2"])
def test_d_def_matches_the_coboundary_formula_at_every_index_tuple(name):
    """d_def evaluates only sorted leading slots; the formula, at all tuples, is the oracle."""
    A = as_prelie(fm2_algebra().to_presentation()) if name == "FM2" else load_fixture(name)
    r = A.rank
    basis = [A.basis(i) for i in range(r)]
    rng = random.Random(name)
    for degree in (1, 2, 3):  # build makes a random degree-3 cochain alternate
        md = rand_multider(rng, degree, r, A.n)
        for omega in (md, d_def(A, md)) if degree < 3 else (md,):
            d = d_def(A, omega)
            for idx in itertools.product(range(r), repeat=omega.degree + 1):
                assert d.D[idx] == d_def_eval(A, omega, [basis[i] for i in idx]), (degree, idx)
            for idx in itertools.product(range(r), repeat=omega.degree):
                assert d.sigma[idx] == d_def_sigma_eval(A, omega, [basis[i] for i in idx]), (degree, idx)


def test_obstruction_matches_the_residual_at_every_basis_triple():
    alg = truncated_poly_algebra(4)
    A = alg.to_presentation()
    P = as_prelie(A)
    rng = random.Random(4)
    mu1 = d_def(P, rand_multider(rng, 1, A.rank, 0))
    for rep in cohomology_point(alg, 2).representatives:
        mu1 = mu1 + rep.scale(Fraction(rng.randint(-2, 2)))
    deform = FormalDeformation(A, [mu1])
    theta = obstruction(deform)
    assert not theta.is_zero()
    basis = [A.basis(i) for i in range(A.rank)]
    for idx in itertools.product(range(A.rank), repeat=3):
        assert theta.D[idx] == order_k_residual(deform, 2, *(basis[i] for i in idx)), idx


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_build_evaluates_only_strictly_increasing_leading_slots(degree):
    r = 4
    calls = {"d": [], "sigma": []}
    ones = [RatFunc.const(0, 1)] * r

    def d_fn(idx):
        calls["d"].append(idx)
        return Section(ones)

    def sigma_fn(idx):
        calls["sigma"].append(idx)
        return VectorField([])

    md = MultiDer.build(degree, r, 0, d_fn, sigma_fn)
    assert len(calls["d"]) == math.comb(r, degree - 1) * r
    assert len(calls["sigma"]) == math.comb(r, degree - 1)
    assert all(list(idx[:-1]) == sorted(set(idx[:-1])) for idx in calls["d"])
    for idx, s in md.D.items():
        head = idx[:-1]
        if len(set(head)) < len(head):
            assert s.is_zero(), idx
        else:
            odd = sum(a > b for a, b in itertools.combinations(head, 2)) % 2
            assert s == (-Section(ones) if odd else Section(ones)), idx


# -- cohomology over a point -----------------------------------------------


def n_coords(A, degree):
    """The length of a degree-``degree`` coordinate vector over A's base: D slots, then symbol slots."""
    return len(_coord_args(A.rank, degree)) * A.rank + math.comb(A.rank, degree - 1) * A.n


def coordinate(A, c):
    """The number c as a coordinate over A's base: a Fraction over a point, else a RatFunc."""
    return RatFunc.const(A.n, c) if A.n else Fraction(c)


def dense_d_matrix(A, degree):
    """``_d_matrix`` with its sparse rows written out over every source column."""
    zero = coordinate(A, 0)
    return [[row.get(j, zero) for j in range(n_coords(A, degree))] for row in _d_matrix(A, degree)]


def test_cohomology_dimensions_consistent_with_raw_linear_algebra():
    alg = fm2_algebra()
    A = as_prelie(alg.to_presentation())
    zero, one = Fraction(0), Fraction(1)
    res = cohomology_point(alg, 2)
    d1 = dense_d_matrix(A, 1)
    d2 = dense_d_matrix(A, 2)
    assert res.coboundary_dim == mat_rank(d1, one)
    assert res.cocycle_dim == len(nullspace(d2, zero, one))
    assert res.dim == res.cocycle_dim - res.coboundary_dim
    assert len(res.representatives) == res.dim
    for rep in res.representatives:
        assert d_def(A, rep).is_zero()  # 2-closed


def test_cohomology_degree_three():
    alg = fm2_algebra()
    res = cohomology_point(alg, 3)
    assert res.dim == res.cocycle_dim - res.coboundary_dim
    assert res.dim >= 0
    with pytest.raises(ShapeError):
        cohomology_point(alg, 4)



@pytest.mark.parametrize("degree", [1, 2, 3])
def test_base_cochain_coordinates_round_trip(degree):
    """Over a base a cochain's coordinates are its D values, then its symbol values, as RatFuncs; a cochain built
    by hand from D and sigma, as the command line and the benchmark build them, has them as its views."""
    rng, r, n = random.Random(degree), 3, 2
    md = rand_multider(rng, degree, r, n)
    vec, at = md.vec, len(_coord_args(r, degree)) * r
    assert all(type(c) is RatFunc for c in vec)
    assert vec[:at] == [c for idx in _coord_args(r, degree) for c in md.D[idx].components]
    assert vec[at:] == [c for head in itertools.combinations(range(r), degree - 1) for c in md.sigma[head].components]
    assert MultiDer.from_vector(degree, r, n, list(vec)) == md == MultiDer(degree, r, n, md.D, md.sigma)
    if degree == 2:
        D = {(i, j): rand_section(rng, r, n) for i in range(r) for j in range(r)}
        sigma = {(i,): rand_vf(rng, n) for i in range(r)}
        hand = MultiDer(2, r, n, D, sigma)
        assert hand.D == D and hand.sigma == sigma


def assert_point_normal_form(values):
    """Every value over a point is an int exactly when it is integral, else a Fraction with denominator > 1: never an
    integral Fraction, a float or a bool."""
    for c in values:
        assert type(c) is int or type(c) is Fraction and c.denominator > 1, (type(c), c)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_point_cochain_coordinates_round_trip(degree):
    """Over a point the coordinates are ints, or Fractions where not integral, and the D view alternates in the
    leading slots."""
    rng = random.Random(degree)
    r = 3
    vec = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(len(_coord_args(r, degree)) * r)]
    md = MultiDer.from_vector(degree, r, 0, vec)
    rebuilt = MultiDer(degree, r, 0, md.D, md.sigma).vec
    assert rebuilt == vec
    assert_point_normal_form(rebuilt)
    assert md.is_zero() == (not any(vec))
    for idx, s in md.D.items():
        head, last = idx[:-1], idx[-1]
        if len(set(head)) < len(head):
            assert s.is_zero()
        for a in range(len(head) - 1):
            swapped = head[:a] + (head[a + 1], head[a]) + head[a + 2:]
            assert md.D[swapped + (last,)] == -s
    if degree == 2:
        D = {(i, j): Section([RatFunc.const(0, Fraction(rng.randint(-2, 2), rng.randint(1, 2))) for _ in range(r)])
             for i in range(r) for j in range(r)}
        sigma = {(i,): VectorField([]) for i in range(r)}
        hand = MultiDer(2, r, 0, D, sigma)
        assert hand.D == D and hand.sigma == sigma
        assert_point_normal_form(hand.vec)
        assert {type(c) for c in hand.vec} == {int, Fraction}
        for derived in (hand.scale(Fraction(2)), hand.scale(3), hand - hand, hand + hand):
            assert_point_normal_form(derived.vec)


def d_matrix_through_d_def(A, degree, columns=None):
    """The coboundary matrix column by column: d_def of each basis cochain, read as coordinates."""
    r, n = A.rank, n_coords(A, degree)
    cols = {}
    for j in range(n) if columns is None else columns:
        basis_cochain = MultiDer.from_vector(degree, r, A.n, [coordinate(A, int(i == j)) for i in range(n)])
        cols[j] = d_def(A, basis_cochain).vec
    return cols, n_coords(A, degree + 1)


def random_prelie_presentation(rng, r, n=0):
    """Presentation with random, mostly non-commutative product and pre-Lie constants and zero anchor: over a point,
    or over n base variables with entries of degree at most 1."""
    def entry():
        c = RatFunc.const(n, rng.choice([0, 0, 1, -1, 2, Fraction(1, 2)]))
        return c * RatFunc.var(n, rng.randrange(n)) if n and rng.random() < 0.5 else c

    def tensor():
        return [[[entry() for _ in range(r)] for _ in range(r)] for _ in range(r)]

    names = [f"u{v + 1}" for v in range(n)]
    return AlgebroidPresentation(names, r, tensor(), prelie=tensor(), anchor=[[RatFunc.zero(n)] * n for _ in range(r)])


def assert_d_matrix_matches_d_def(A, degree, columns=None, cochains=()):
    """The sparse rows of A's complex equal d_def on ``as_prelie(A)``, A's product with zero anchor, column by column
    (on ``columns``, default all) and on the coordinates of each of ``cochains``: over a base, where d is linear
    over the base functions, on cochains with nonzero symbols too."""
    rows, P = _d_matrix(A, degree), as_prelie(A)
    assert all(all(row.values()) for row in rows)  # sparse: no stored zero
    if not A.n:  # the rows and the tables they are read off (``A.constants``)
        assert_point_normal_form(c for row in rows for c in row.values())
        assert_point_normal_form(c for cell in A.constants("product").values() for c in cell.values())
    got = dense_d_matrix(A, degree)
    cols, m = d_matrix_through_d_def(P, degree, columns)
    assert len(got) == m
    for j, col in cols.items():
        assert [row[j] for row in got] == col, (degree, j)
    for omega in cochains:
        assert _d_times(rows, omega.vec, coordinate(A, 0)) == d_def(P, omega).vec, degree


POINT_ALGEBRAS = {
    "FM2": fm2_algebra,
    "Q[u]/u^3": lambda: truncated_poly_algebra(3),
    "Q[u]/u^4": lambda: truncated_poly_algebra(4),
    "Q[u]/u^5": lambda: truncated_poly_algebra(5),
}


def ss2_rational_dual():
    """SS2's Dubrovin dual at the eventual identity (1/(u1 + 1), u2/(u2^2 + 1)): a product with rational entries."""
    u1, u2, one = RatFunc.var(2, 0), RatFunc.var(2, 1), RatFunc.one(2)
    return dubrovin_dual(load_fixture("SS2"), Section([one / (u1 + one), u2 / (u2 * u2 + one)])).dual


BASE_PRESENTATIONS = {name: partial(load_fixture, name) for name in ("TR", "TR2", "SS2", "SS3")}
BASE_PRESENTATIONS["SS2 dual"] = ss2_rational_dual


@pytest.mark.parametrize("name", ["FM2", "Q[u]/u^3", "Q[u]/u^4", *BASE_PRESENTATIONS])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_d_matrix_matches_d_def_oracle(name, degree):
    """The rows of the complex of the product with zero anchor, over a point and over a base; there, also on
    seeded cochains with nonzero symbols."""
    if name in BASE_PRESENTATIONS:
        A = BASE_PRESENTATIONS[name]()
        rng = random.Random(f"{name}:{degree}")
        assert_d_matrix_matches_d_def(A, degree, None, [rand_multider(rng, degree, A.rank, A.n) for _ in range(3)])
        return
    A = POINT_ALGEBRAS[name]().to_presentation()
    columns = None
    if A.rank == 4 and degree == 3:
        # the d_def route costs about 60 ms per column here; check a seeded 12 of the 96
        columns = random.Random(8).sample(range(96), 12)
    assert_d_matrix_matches_d_def(A, degree, columns)


@pytest.mark.parametrize("seed", range(4))
def test_d_matrix_matches_d_def_on_random_prelie_constants(seed):
    """Non-commutative constants, over a point and over one or two base variables, where the bracket's symbol rows
    and the derivatives of the constants are nonzero. ``_d_matrix`` reads the product, so the random pre-Lie
    constants go in the product slot, and d_def runs on them as the pre-Lie operation (``as_prelie``)."""
    rng = random.Random(seed)
    r = 2 + seed % 3
    A = random_prelie_presentation(rng, r)
    A = A.with_structures(product=A.prelie)
    for degree in (1, 2, 3) if r < 4 else (1, 2):
        assert_d_matrix_matches_d_def(A, degree)
    B = random_prelie_presentation(rng, r, 1 + seed % 2)
    B = B.with_structures(product=B.prelie)
    for degree in (1, 2, 3) if r < 4 else (1, 2):
        assert_d_matrix_matches_d_def(B, degree, None, [rand_multider(rng, degree, r, B.n)])


@pytest.mark.parametrize(
    "name, degree, expected",
    [
        ("FM2", 2, (2, 5, 3)),
        ("FM2", 3, (1, 4, 3)),
        ("Q[u]/u^3", 2, (6, 13, 7)),
        ("Q[u]/u^3", 3, (6, 20, 14)),
        ("Q[u]/u^4", 2, (12, 25, 13)),
        ("Q[u]/u^4", 3, (18, 57, 39)),
        ("Q[u]/u^5", 2, (20, 41, 21)),
    ],
)
def test_cohomology_point_dimensions(name, degree, expected):
    res = cohomology_point(POINT_ALGEBRAS[name](), degree)
    assert (res.dim, res.cocycle_dim, res.coboundary_dim) == expected
    assert len(res.representatives) == res.dim


def oracle_representatives(alg, degree):
    """``cohomology_point``'s representatives by the tests' Fraction elimination: the kernel of d_out, and its
    vectors at the pivots of the rref of [image of d_in | kernel]."""
    A, zero, one = as_prelie(alg.to_presentation()), Fraction(0), Fraction(1)
    d_in, d_out = ([[Fraction(c) for c in row] for row in dense_d_matrix(A, p)] for p in (degree - 1, degree))
    n_in, n_out = n_coords(A, degree - 1), n_coords(A, degree)
    kernel = nullspace(d_out + [[zero] * n_out], zero, one)
    _, pivots = oracle_rref([row + [v[i] for v in kernel] for i, row in enumerate(d_in)], one)
    return [kernel[c - n_in] for c in pivots if c >= n_in]


@pytest.mark.parametrize("name, degree", [("FM2", 2), ("FM2", 3), ("Q[u]/u^3", 2), ("Q[u]/u^3", 3), ("Q[u]/u^4", 2)])
def test_point_cohomology_matches_the_fraction_elimination(name, degree):
    """The representatives equal the Fraction elimination's, entry by entry, as ints, or Fractions where not
    integral."""
    reps = [rep.vec for rep in cohomology_point(POINT_ALGEBRAS[name](), degree).representatives]
    assert reps == oracle_representatives(POINT_ALGEBRAS[name](), degree)
    assert_point_normal_form(c for vec in reps for c in vec)


@pytest.mark.parametrize("name", ["FM2", "Q[u]/u^3", "Q[u]/u^4"])
def test_point_obstruction_and_extension_stay_in_normal_form(name):
    """The obstruction, an extension solving d(psi) = theta and the obstruction past it, on seeded cocycles with
    half-integral coordinates, obstructed ones and a coboundary: ints, or Fractions where not integral, and some of
    each."""
    A, mu1, rng = point_case(name, 0)
    P = as_prelie(A)
    seen, extended = set(), 0
    for mu in (mu1, mu1.scale(Fraction(1, 2)), d_def(P, point_cochain(rng, 1, A.rank))):
        theta = obstruction(FormalDeformation(A, [mu]))
        values = [*mu.vec, *theta.vec]
        psi = linalg.solve(_d_matrix(P, 2), n_coords(A, 2), theta.vec)
        if psi is not None:
            deform = extend(FormalDeformation(A, [mu]), MultiDer.from_vector(2, A.rank, 0, psi))
            values += [*psi, *obstruction(deform).vec]
            extended += 1
        assert_point_normal_form(values)
        seen |= {type(c) for c in values}
    assert seen == {int, Fraction} and extended

def test_equivalence_separates_coboundary_shifts():
    alg = fm2_algebra()
    base = alg.to_presentation()
    P = as_prelie(base)
    rng = random.Random(3)

    def rnd_phi():
        return MultiDer.build(
            1,
            base.rank,
            0,
            lambda idx: Section(
                [RatFunc.const(0, Fraction(rng.randint(-2, 2))) for _ in range(base.rank)]
            ),
        )

    mu1 = d_def(P, rnd_phi())
    phi = rnd_phi()
    shifted = mu1 - d_def(P, phi)
    report = equivalence_check(base, mu1, shifted)
    assert report.overall
    assert equivalence_check(base, mu1, shifted, phi=phi).overall
    reps = cohomology_point(alg, 2).representatives
    inequivalent = mu1 + reps[0]
    report = equivalence_check(base, mu1, inequivalent)
    assert not report.overall
    assert any(c.law == "coboundary-solve" for c in report.failures())


def test_equivalence_over_base_needs_witness():
    A = load_fixture("SS2")
    md = MultiDer.zero(2, A.rank, A.n)
    with pytest.raises(BaseNotPoint):
        equivalence_check(A, md, md)
    # with an explicit witness the check runs over any base
    phi = MultiDer.zero(1, A.rank, A.n)
    assert equivalence_check(A, md, md, phi=phi).overall
    # mu1 - mu1' - d(phi) nonzero only in its symbol fails with the symbol as its witness
    u1 = RatFunc.var(2, 0)
    mu1 = MultiDer.build(2, 2, 2, lambda idx: Section.zero(2, 2), lambda idx: VectorField([u1, RatFunc.zero(2)]))
    report = equivalence_check(A, mu1, md, phi)
    assert not report.overall
    last = report.failures()[-1]
    assert (last.law, last.witness) == ("coboundary-witness", "[u1, 0]")


# -- the coordinate path against cochain_eval and d_def -------------------------
#
# At every base dimension the deformation checks run on coordinate vectors and
# sparse coboundary rows. The oracles below take the Section route of
# ``section_oracle``: every residual and the obstruction's symbol through
# cochain_eval and sigma_eval, and every coboundary through d_def.


def oracle_check_n_deformation(deform):
    A = deform.base
    report = Report(f"pre-Lie {deform.order}-deformation")
    for k in range(deform.order + 1):
        for case in itertools.product(frame_args(A), repeat=3):
            names, args = zip(*case)
            res = order_k_residual(deform, k, *args)
            report.add("pre-lie-rule", f"order {k} ({','.join(names)})", res.is_zero(), A.fmt(res))
    return report


def oracle_obstruction(deform):
    """Theta's values are the next order's residual; its symbol on (X, Y) is
    Σ_(i+j=n+1) sigma_i(mu_j(X,Y) - mu_j(Y,X)) - [sigma_i(X), sigma_j(Y)]."""
    A, n = deform.base, deform.order
    basis = [A.basis(i) for i in range(A.rank)]

    def theta_sigma(X, Y):
        total = VectorField.zero(A.n)
        for i in range(1, n + 1):
            mi, mj = deform.mus[i - 1], deform.mus[n - i]
            total = total + sigma_eval(mi, [cochain_eval(mj, [X, Y]) - cochain_eval(mj, [Y, X])])
            total = total - vf_bracket(sigma_eval(mi, [X]), sigma_eval(mj, [Y]))
        return total

    theta = MultiDer.build(3, A.rank, A.n, lambda idx: order_k_residual(deform, n + 1, *(basis[i] for i in idx)),
                           lambda idx: theta_sigma(basis[idx[0]], basis[idx[1]]))
    if not d_def(as_prelie(A), theta).is_zero():
        raise FalgError("obstruction cochain is not closed; deformation data invalid")
    return theta


def first_nonzero(md, names):
    """The text of the first nonzero value of md.D, else of md.sigma; None when both are zero: the oracles' witness,
    a reference for MultiDer.witness, which reads the coordinates."""
    return next((v.format(names) for v in itertools.chain(md.D.values(), md.sigma.values()) if not v.is_zero()), None)


def oracle_extend(deform, psi):
    A = deform.base
    witness = first_nonzero(oracle_obstruction(deform) - d_def(as_prelie(A), psi), A.base_vars)
    if witness is not None:
        raise ObstructionNonzero(witness)
    extended = FormalDeformation(A, deform.mus + [psi])
    n_deformation(extended).require(NotADeformation)
    return extended


def oracle_equivalence_check(A, mu1, mu1_prime, phi=None):
    P, basis = as_prelie(A), [A.basis(i) for i in range(A.rank)]
    report = Report("deformation equivalence")
    for name, m in (("mu1", mu1), ("mu1'", mu1_prime)):
        ok = d_def(P, m).is_zero()
        report.add("cocycle", name, ok, "coboundary of candidate is nonzero")
    ok = all(sigma_eval(mu1, [X]) == sigma_eval(mu1_prime, [X]) for X in basis)
    report.add("symbol-match", "sigma(mu1) = sigma(mu1')", ok, "symbols differ")
    diff = mu1 - mu1_prime
    if phi is not None:
        witness = first_nonzero(diff - d_def(P, phi), A.base_vars)
        report.add("coboundary-witness", "mu1 - mu1' = d(phi)", witness is None, witness)
        return report
    cols, m = d_matrix_through_d_def(P, 1)
    d1 = [[cols[j][i] for j in sorted(cols)] for i in range(m)]
    coords = [c.constant_value() for idx in _coord_args(A.rank, 2) for c in diff.D[idx].components]
    ok = solve(d1, coords, Fraction(0), Fraction(1)) is not None
    witness = None if ok else first_nonzero(diff, A.base_vars)
    report.add("coboundary-solve", "mu1 - mu1' in image of d", ok, witness)
    return report


def outcome(fn, *args):
    """What fn returns, comparable with ==, or the type and message of the FalgError it raises."""
    try:
        out = fn(*args)
    except FalgError as exc:
        return type(exc), str(exc)
    if isinstance(out, Report):
        return out.subject, [(c.law, c.instance, c.passed, c.witness) for c in out.checks]
    return out.mus if isinstance(out, FormalDeformation) else out


def point_cochain(rng, degree, r):
    vec = [Fraction(rng.choice([0, 0, 1, -1, 2, Fraction(1, 2)])) for _ in range(len(_coord_args(r, degree)) * r)]
    return MultiDer.from_vector(degree, r, 0, vec)


def mutant(rng, md):
    """md with one seeded coordinate perturbed."""
    vec = list(md.vec)
    i, c = rng.randrange(len(vec)), rng.choice([1, -1, Fraction(1, 3)])
    vec[i] += RatFunc.const(md.nvars, c) if md.nvars else c
    return MultiDer.from_vector(md.degree, md.rank, md.nvars, vec)


def point_case(name, seed):
    """A point base and a seeded mu1: a 2-cocycle d(phi) + Σ c·rep on an algebra, random on random constants."""
    rng = random.Random(f"{name}:{seed}")
    if name == "random":
        A = random_prelie_presentation(rng, 2 + seed % 3)
        return A, point_cochain(rng, 2, A.rank), rng
    alg = POINT_ALGEBRAS[name]()
    A = alg.to_presentation()
    mu1 = d_def(as_prelie(A), point_cochain(rng, 1, A.rank))
    for rep in cohomology_point(alg, 2).representatives:
        mu1 = mu1 + rep.scale(Fraction(rng.randint(-2, 2)))
    return A, mu1, rng


POINT_PATH_CASES = [(name, seed) for name in ("FM2", "Q[u]/u^3", "Q[u]/u^4") for seed in range(2)]
POINT_PATH_CASES += [("random", seed) for seed in range(4)]


@pytest.mark.parametrize("name,seed", POINT_PATH_CASES, ids=[f"{n}-{s}" for n, s in POINT_PATH_CASES])
def test_point_deformation_checks_match_the_multider_oracle(name, seed):
    A, mu1, rng = point_case(name, seed)
    r, P = A.rank, as_prelie(A)
    kinds = set()
    for mus in ([mu1], [mutant(rng, mu1)], [mu1, point_cochain(rng, 2, r)], [mu1, mutant(rng, mu1)]):
        deform = FormalDeformation(A, mus)
        got = outcome(check_n_deformation, deform)
        assert got == outcome(oracle_check_n_deformation, deform)
        theta = outcome(obstruction, deform)
        assert theta == outcome(oracle_obstruction, deform)
        kinds |= {all(c[2] for c in got[1]), theta[0] if isinstance(theta, tuple) else MultiDer}
    phi = point_cochain(rng, 1, r)
    for deform in (FormalDeformation(A, [mu1]), FormalDeformation(A, [d_def(P, phi)])):
        psis = [MultiDer.zero(2, r, 0), point_cochain(rng, 2, r)]
        theta = outcome(obstruction, deform)
        if isinstance(theta, MultiDer):  # solve d(psi) = theta for an extension that succeeds when theta is exact
            sol = solve(dense_d_matrix(P, 2), theta.vec, Fraction(0), Fraction(1))
            if sol is not None:
                psis += [MultiDer.from_vector(2, r, 0, sol), mutant(rng, MultiDer.from_vector(2, r, 0, sol))]
        for psi in psis:
            got = outcome(extend, deform, psi)
            assert got == outcome(oracle_extend, deform, psi)
            kinds.add(got[0] if isinstance(got, tuple) else FormalDeformation)
    shifted = mu1 - d_def(P, phi)
    for mu1_prime in (shifted, mutant(rng, shifted)):
        for witness in (None, phi, mutant(rng, phi)):
            got = outcome(equivalence_check, A, mu1, mu1_prime, witness)
            assert got == outcome(oracle_equivalence_check, A, mu1, mu1_prime, witness)
            kinds.add(all(c[2] for c in got[1]))
    # the seeded cases reach passing and failing reports, obstructions, extensions and refusals to extend;
    # over FM2 every degree-3 cochain is closed, as its rank-2 frame has no three distinct leading slots
    if name == "random":
        assert False in kinds and kinds & {FalgError, ObstructionNonzero}
    else:
        assert {True, False, MultiDer, FormalDeformation, ObstructionNonzero} <= kinds
        assert (FalgError in kinds) == (name != "FM2")


# Names the tests' Section oracle (``section_oracle``) holds and the library does not: the Section evaluation of
# the laws, of the bracket, of cochains and of the coboundary, the commutator of vector fields and of an algebra's
# constants that the action condition was evaluated with, the pre-Lie copy of a presentation that the coboundary's
# oracle runs on, the composition of bundle maps, the jet residual of two flows, and the error only that
# evaluation raised.
ORACLE_ONLY = {
    "prelie_of", "anchor_of", "p_tensor", "phi", "psi", "prelie_associator", "jacobiator", "eval", "sigma_eval",
    "_lead_terms", "_prelie_bracket", "d_def", "d_def_eval", "d_def_sigma_eval", "compose", "commutator_residual",
    "ArityMismatch", "bracket_of", "_derivation_terms", "as_prelie", "vf_bracket", "commutator", "action_failure",
}


def test_the_library_keeps_no_section_evaluation():
    """No falgebroid module, and no class defined in one, defines or imports a name of the Section oracle, and the
    package exports none: the library evaluates every law, cochain and coboundary one way, by contraction."""
    import importlib
    import inspect
    import pkgutil

    import falgebroid

    names = [m.name for m in pkgutil.iter_modules(falgebroid.__path__)]
    assert {"algebroid", "cli", "deformation", "duality", "errors", "hierarchy"} <= set(names)
    modules = [importlib.import_module(f"falgebroid.{name}") for name in names]
    classes = [cls for mod in modules for cls in vars(mod).values()
               if inspect.isclass(cls) and cls.__module__ == mod.__name__]
    assert {AlgebroidPresentation, MultiDer, BundleMap, HydroFlow} <= set(classes)
    found = {(owner.__name__, name) for owner in modules + classes for name in ORACLE_ONLY & set(vars(owner))}
    assert found == set()
    assert ORACLE_ONLY & set(dir(falgebroid)) == set()
    assert "apply" not in vars(BundleMap)  # a bundle map on a section is the oracle's ``bundle_apply``


def test_point_deformation_checks_run_on_coordinates():
    """Over Q[u]/u^3, the order rule, the obstruction, an extension and both equivalence checks pass on the weight
    cocycle, a coboundary shift of it and an H^2 representative."""
    A = truncated_poly_algebra(3).to_presentation()
    P = as_prelie(A)
    mu1, phi = mu1_euler(A), point_cochain(random.Random(1), 1, A.rank)
    shifted = mu1 - d_def(P, phi)
    psi = cohomology_point(truncated_poly_algebra(3), 2).representatives[0]
    deform = FormalDeformation(A, [mu1])
    assert check_n_deformation(deform).overall
    assert obstruction(deform).is_zero()
    assert extend(deform, psi).order == 2
    assert equivalence_check(A, mu1, shifted).overall
    assert equivalence_check(A, mu1, shifted, phi).overall


def test_base_deformation_checks_run_on_coordinates():
    """Over SS2, along D = 0 with the identity symbol rows, the checks take the coordinate path too."""
    A = load_fixture("SS2")
    P, one, zero = as_prelie(A), RatFunc.one(2), RatFunc.zero(2)
    rows = [[one, zero], [zero, one]]
    mu1 = MultiDer.build(2, 2, 2, lambda idx: Section.zero(2, 2), lambda idx: VectorField(rows[idx[0]]))
    phi = rand_multider(random.Random(1), 1, A.rank, A.n)
    d_phi = d_def(P, phi)
    deform = FormalDeformation(A, [mu1])
    assert check_n_deformation(deform).overall
    assert obstruction(deform).is_zero()
    assert extend(deform, d_phi).order == 2
    assert equivalence_check(A, mu1, mu1 - d_phi, phi).overall
    assert not equivalence_check(A, mu1, mu1 - d_phi, MultiDer.zero(1, 2, 2)).overall


def count_view_builds(monkeypatch) -> list:
    """The cochains whose D and sigma views are built from here on."""
    builds, build = [], MultiDer._build_views
    monkeypatch.setattr(MultiDer, "_build_views", lambda self: builds.append(self) or build(self))
    return builds


def fresh(md):
    """md as a new cochain with the same coordinates, none of its views built yet."""
    return MultiDer.from_vector(md.degree, md.rank, md.nvars, list(md.vec))


@pytest.mark.parametrize("name", ["Q[u]/u^3", "SS2"])
def test_deformation_functions_build_no_views(name, monkeypatch):
    """Over Q[u]/u^3 and over SS2 along D = 0 with the identity symbol rows, the deformation functions read only
    coordinate vectors: no D or sigma view is built, of their inputs or of what they return, on passing and on
    failing checks."""
    rng = random.Random(name)
    if name == "SS2":
        A, one, zero = load_fixture("SS2"), RatFunc.one(2), RatFunc.zero(2)
        rows = [[one, zero], [zero, one]]
        mu1 = MultiDer.build(2, 2, 2, lambda idx: Section.zero(2, 2), lambda idx: VectorField(rows[idx[0]]))
        phi = rand_multider(rng, 1, A.rank, A.n)
    else:
        alg = truncated_poly_algebra(3)
        A = alg.to_presentation()
        mu1, phi = mu1_euler(A), point_cochain(rng, 1, A.rank)
    d_phi = d_def(as_prelie(A), phi)
    psi = MultiDer.build(2, A.rank, A.n, lambda idx: A.basis(1) if idx == (0, 1) else Section.zero(A.rank, A.n))
    mu1, phi, d_phi, psi, shifted = (fresh(m) for m in (mu1, phi, d_phi, psi, mu1 - d_phi))
    builds = count_view_builds(monkeypatch)
    deform = FormalDeformation(A, [mu1])
    assert check_n_deformation(deform).overall
    theta = obstruction(deform)
    assert theta.is_zero()
    assert extend(deform, d_phi).order == 2
    with pytest.raises(ObstructionNonzero):
        extend(deform, psi)
    assert semiclassical_limit(deform).rank == A.rank
    assert equivalence_check(A, mu1, shifted, phi).overall
    assert not equivalence_check(A, mu1, shifted, MultiDer.zero(1, A.rank, A.n)).overall
    if not A.n:
        assert equivalence_check(A, mu1, shifted).overall
        assert not equivalence_check(A, mu1, psi).overall
        assert [cohomology_point(alg, degree).dim for degree in (2, 3)] == [6, 6]
    assert builds == []
    assert theta.D and builds == [theta]  # the counter sees a view build


def test_equivalence_and_extend_refuse_cochains_outside_the_frame(monkeypatch):
    """mu1 and mu1' must be degree 2 in A's frame (its rank and base variables), phi degree 1, and extend's psi
    degree 2, each refused with ShapeError before a coordinate is read. Two degree-3 cochains over FM2 raised
    KeyError, and a nonzero rank-3 mu1 passed with its entry at (E3,E3) and raised IndexError with it at (E1,E1)."""
    import falgebroid.deformation

    A, rng = fm2_algebra().to_presentation(), random.Random(7)
    flat, cubic = MultiDer.zero(2, 2, 0), point_cochain(rng, 3, 2)
    with pytest.raises(ShapeError):
        equivalence_check(A, cubic, cubic)
    wide = []
    for at in ((2, 2), (0, 0)):
        D = {(i, j): Section.basis(3, 0, 0) if (i, j) == at else Section.zero(3, 0) for i in range(3) for j in range(3)}
        wide.append(MultiDer(2, 3, 0, D, {(i,): VectorField([]) for i in range(3)}))
        for pair in ((wide[-1], wide[-1]), (wide[-1], flat), (flat, wide[-1])):
            with pytest.raises(ShapeError):
                equivalence_check(A, *pair)
    for phi in (flat, MultiDer.zero(1, 3, 0), MultiDer.zero(1, 2, 1)):
        with pytest.raises(ShapeError):
            equivalence_check(A, flat, flat, phi)

    def refuse(deform):
        raise AssertionError("the obstruction ran before psi was checked")

    monkeypatch.setattr(falgebroid.deformation, "obstruction", refuse)
    for psi in (cubic, *wide, MultiDer.zero(2, 2, 1)):
        with pytest.raises(ShapeError):
            extend(FormalDeformation(A, [flat]), psi)


# -- the order rule over a base against cochain_eval ----------------------------------
#
# Over a positive-dimensional base the order-k rule and the obstruction's D values
# are contracted from the tables of D and sigma (``_rule``). The oracle evaluates
# every residual through cochain_eval, on frame triples and with the third slot
# scaled by each base variable; a scaled first or second slot gives u^m times the
# frame residual (``test_rules_scale_in_their_first_two_slots``).


def base_cochain(rng, A, seed):
    """A degree-2 cochain over A's base: seeds 0 and 1 carry only a symbol (D = 0), seeds 2 and 3 a sparse D too;
    odd seeds divide some entries by u1 + 2."""
    n, r = A.n, A.rank
    den = RatFunc.var(n, 0) + RatFunc.const(n, 2)

    def entry(p):
        f = rand_poly(rng, n, 1) if rng.random() < p else RatFunc.zero(n)
        return f / den if seed % 2 and rng.random() < 0.5 else f

    return MultiDer.build(2, r, n, lambda idx: Section([entry(0.25 if seed >= 2 else 0) for _ in range(r)]),
                          lambda idx: VectorField([entry(0.5) for _ in range(n)]))


BASE_DEFORMATION_CASES = [(name, seed) for name in ("SS2", "TR2") for seed in range(4)] + [("SS3", 1), ("SS3", 3)]


def base_deformations(name, seed):
    """The deformations of a base case: its first cochain alone, and both."""
    A, rng = load_fixture(name), random.Random(f"base-deformation:{name}:{seed}")
    mus = [base_cochain(rng, A, seed) for _ in range(2)]
    return [FormalDeformation(A, mus[:1]), FormalDeformation(A, mus)]


@pytest.mark.parametrize("name,seed", BASE_DEFORMATION_CASES, ids=[f"{n}-{s}" for n, s in BASE_DEFORMATION_CASES])
def test_base_deformation_rule_matches_the_multider_oracle(name, seed):
    """check_n_deformation gives the instances, pass flags and witnesses of ``cochain_eval``, and the contracted
    residual of the next order is the obstruction's D value at every frame triple. obstruction, extend and
    equivalence_check with a witness phi return what the MultiDer oracles return, or raise what they raise."""
    from falgebroid.algebroid import _ratfunc
    from falgebroid.algebroid import _frame_rule
    from falgebroid.deformation import _pairs, _tables

    for deform in base_deformations(name, seed):
        A, k = deform.base, deform.order + 1
        assert _outcomes(check_n_deformation(deform)) == _outcomes(n_deformation(deform))
        residual, basis = _frame_rule(_pairs(deform, k, _tables(deform))), [A.basis(i) for i in range(A.rank)]
        for idx in itertools.product(range(A.rank), repeat=3):
            want = order_k_residual(deform, k, *(basis[i] for i in idx))
            assert Section._from_dict({c: _ratfunc(A.n, v) for c, v in residual.get(idx, {}).items()}, A.rank,
                                      A.n) == want, idx
        assert outcome(obstruction, deform) == outcome(oracle_obstruction, deform)
    A, (deform, _) = deform.base, base_deformations(name, seed)
    rng, P = random.Random(f"base-extension:{name}:{seed}"), as_prelie(A)
    phi = rand_multider(rng, 1, A.rank, A.n)
    mu1 = deform.mus[0]
    for psi in (MultiDer.zero(2, A.rank, A.n), d_def(P, phi), mu1, mutant(rng, mu1)):
        assert outcome(extend, deform, psi) == outcome(oracle_extend, deform, psi)
    shifted = mu1 - d_def(P, phi)
    for mu1_prime in (shifted, mutant(rng, shifted), mu1 + mutant(rng, MultiDer.zero(2, A.rank, A.n))):
        for witness in (phi, mutant(rng, phi)):
            got = outcome(equivalence_check, A, mu1, mu1_prime, witness)
            assert got == outcome(oracle_equivalence_check, A, mu1, mu1_prime, witness)


def test_base_deformation_cases_reach_every_verdict():
    """The base cases pass and fail, with polynomial and with rational entries, and some fail only at a scaled
    third slot, where the rule's symbol commutator term β lives. Their obstructions are zero, nonzero in D, nonzero
    only in the symbol, or not closed."""
    kinds = set()
    for name, seed in BASE_DEFORMATION_CASES:
        for deform in base_deformations(name, seed):
            report = check_n_deformation(deform)
            slots = [["*" in t for t in c.instance.split("(")[1].split(",")] for c in report.failures() if c.witness]
            kinds.add((report.overall, seed % 2))
            if slots and all(scaled == [False, False, True] for scaled in slots):
                kinds.add("scaled third slot")
            theta = outcome(obstruction, deform)
            kinds.add(theta[0] if isinstance(theta, tuple) else theta.is_zero() or
                      ("D" if any(not s.is_zero() for s in theta.D.values()) else "symbol"))
    assert kinds >= {(True, 0), (True, 1), (False, 0), (False, 1), "scaled third slot"}
    assert kinds >= {True, "D", "symbol", FalgError}


def _section_rules(name):
    """(A, residuals) pairs of Section residuals: pre-lie-symmetry on each random presentation of
    ``_random_presentation``, or each checked order rule of the base deformations of the fixture ``name``."""
    if name == "random":
        return [(A, [lambda X, Y, Z, A=A: prelie_associator(A, X, Y, Z) - prelie_associator(A, Y, X, Z)])
                for A in map(_random_presentation, range(4))]
    pairs = [base_deformations(name, seed) for case, seed in BASE_DEFORMATION_CASES if case == name]
    return [(pair[0].base, [partial(order_k_residual, deform, k) for deform in pair for k in range(deform.order + 1)])
            for pair in pairs]


@pytest.mark.parametrize("name", ["random", "SS2", "SS3"])
def test_rules_scale_in_their_first_two_slots(name):
    """The fact the pre-Lie and order rules rest on when they check no scaled first or second slot: the Section
    residual at (u^m·E_i, E_j, E_k) and at (E_i, u^m·E_j, E_k) is u^m times its value at (E_i, E_j, E_k)."""
    nonzero = 0
    for A, rules in _section_rules(name):
        basis = [A.basis(i) for i in range(A.rank)]
        for rule, (i, j, k) in itertools.product(rules, itertools.product(range(A.rank), repeat=3)):
            frame = rule(basis[i], basis[j], basis[k])
            nonzero += not frame.is_zero()
            for m in range(A.n):
                scaled = frame.scale_fn(A.var_fn(m))
                assert rule(scaled_basis(A, m, i), basis[j], basis[k]) == scaled, (i, j, k, m)
                assert rule(basis[i], scaled_basis(A, m, j), basis[k]) == scaled, (i, j, k, m)
    assert nonzero


# -- the complex of the product with zero anchor ------------------------------
#
# A presentation that carries a pre-Lie tensor and an anchor of its own (SS<n>,
# TR, TR2, DN<n>) deforms in the complex of its product with zero anchor, the
# mu_0 of check_n_deformation.


def test_ss3_symbol_deformation_has_a_closed_symbol_obstruction():
    """D = 0 with symbol rows (u2, 0, 0), (0, u3, 0), 0 passes every order rule on SS3; its obstruction is closed in
    the complex of the product, and nonzero only in its symbol, -[sigma(E1), sigma(E2)] = [u3, 0, 0]."""
    A = load_fixture("SS3")
    u1, u2, u3 = (RatFunc.var(3, v) for v in range(3))
    zero = RatFunc.zero(3)
    rows = [[u2, zero, zero], [zero, u3, zero], [zero, zero, zero]]
    mu1 = MultiDer.build(2, 3, 3, lambda idx: Section.zero(3, 3), lambda idx: VectorField(rows[idx[0]]))
    deform = FormalDeformation(A, [mu1])
    assert check_n_deformation(deform).overall
    theta = obstruction(deform)
    assert theta.witness(A.base_vars) == "[u3, 0, 0]"
    assert theta == oracle_obstruction(deform)


def test_point_extension_by_a_coboundary_of_the_product():
    """DN1_2 carries a pre-Lie tensor; a coboundary d(phi) of its product's complex extends the zero deformation."""
    A = load_fixture("DN1_2")
    assert A.n == 0 and A.prelie is not None
    phi = point_cochain(random.Random(5), 1, A.rank)
    d_phi = d_def(A.with_structures(prelie=A.product), phi)
    assert not d_phi.is_zero()
    extended = extend(FormalDeformation(A, [MultiDer.zero(2, A.rank, 0)]), d_phi)
    assert extended.mus[1] == d_phi


def test_point_cohomology_ignores_a_pre_lie_tensor():
    """Q[u]/u^3 with the pre-Lie constant E2⋆E2 = E2 has the cohomology of Q[u]/u^3."""
    alg = truncated_poly_algebra(3)
    prelie = [[[Fraction(int(i == j == k == 1)) for j in range(3)] for i in range(3)] for k in range(3)]
    with_prelie = FiniteAlgebra(dim=3, product=alg.product, prelie=prelie, identity=alg.identity)
    res = cohomology_point(with_prelie, 2)
    assert (res.dim, res.cocycle_dim, res.coboundary_dim) == (6, 13, 7)
