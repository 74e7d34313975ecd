"""Acceptance gate: one test and one pass/fail line per shipped criterion.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
summary lines even on success).
"""

import random
from fractions import Fraction

from falgebroid.algebroid import (
    Section,
    check_f_algebroid,
    check_prelie_com,
)
from falgebroid.constructions import fm2_algebra, load_fixture, semisimple
from falgebroid.deformation import (
    FormalDeformation,
    MultiDer,
    check_n_deformation,
    cohomology_point,
    equivalence_check,
    extend,
    obstruction,
    semiclassical_limit,
)
from falgebroid.duality import (
    BundleMap,
    deform_by_nijenhuis,
    dubrovin_dual,
    is_nijenhuis,
    pre_f_dual,
    verify_certificate,
)
from falgebroid.hierarchy import (
    Connection,
    HydroFlow,
    eventual_identity_flows,
    flow_from_section,
    flows_commute,
    jet_names,
    principal_hierarchy,
)
from falgebroid.ring import RatFunc

from linalg_oracle import nullspace, rank as mat_rank
from section_oracle import as_prelie, bracket_of, cochain_eval, commutator_residual, compose, d_def, phi
from test_deformation import dense_d_matrix, mu1_euler, rand_multider, truncated_poly_algebra
from test_exprparse import random_ratfunc, run_parser_fuzz
from test_hierarchy import random_diagonal_section


def report_line(number: int, title: str, ok: bool):
    print(f"criterion {number} [{title}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({title}) failed"


def test_criterion_1_fixture_validation():
    ok = True
    ok &= check_f_algebroid(load_fixture("FM2")).overall
    ok &= check_f_algebroid(load_fixture("ACT2")).overall
    ok &= check_prelie_com(load_fixture("TR")).overall
    ok &= check_prelie_com(load_fixture("TR2")).overall
    ok &= check_prelie_com(load_fixture("DN2")).overall  # cap 3
    for n in (1, 2, 3):
        A = load_fixture(f"SS{n}")
        ok &= check_f_algebroid(A).overall
        ok &= check_prelie_com(A).overall
    report_line(1, "fixture validation", ok)


def test_criterion_2_phi_tensoriality():
    ok = True
    for name in ("SS3", "ACT2"):
        A = load_fixture(name)
        basis = [A.basis(i) for i in range(A.rank)]
        for m in range(A.n):
            f = A.var_fn(m)
            for X in basis:
                for Y in basis:
                    for Z in basis:
                        for W in basis:
                            base = phi(A, X, Y, Z, W).scale_fn(f)
                            ok &= (phi(A, X.scale_fn(f), Y, Z, W) - base).is_zero()
                            ok &= (phi(A, X, Y, Z.scale_fn(f), W) - base).is_zero()
    report_line(2, "tensoriality of the compatibility tensor", ok)


def test_criterion_3_dubrovin_involution():
    A = load_fixture("SS2")
    u1, u2 = RatFunc.var(2, 0), RatFunc.var(2, 1)
    zero, one = RatFunc.zero(2), RatFunc.one(2)
    E = Section([u1, u2])
    expected_product = [[[u1, zero], [zero, zero]], [[zero, zero], [zero, u2]]]
    expected_identity = (one / u1, one / u2)
    ok = True
    for builder in (dubrovin_dual, pre_f_dual):
        cert = builder(A, E)
        ok &= cert.dual.product == expected_product
        ok &= cert.dual.identity.components == expected_identity
        ok &= cert.e_dagger.components == (one / u1 ** 2, one / u2 ** 2)
        ok &= verify_certificate(cert).overall  # includes involution
    report_line(3, "eventual-identity dual involution", ok)


def test_criterion_4_nijenhuis_suite():
    A = load_fixture("SS2")
    u1, u2 = RatFunc.var(2, 0), RatFunc.var(2, 1)
    zero = RatFunc.zero(2)
    N = BundleMap([[u1, zero], [zero, u2]])
    ok = True
    for mode in ("comm", "lie", "prelie", "f", "pre_f"):
        ok &= is_nijenhuis(A, N, mode).overall
    deformed = deform_by_nijenhuis(A, N)
    ok &= check_f_algebroid(deformed).overall
    twice = deform_by_nijenhuis(deformed, N)
    squared = deform_by_nijenhuis(A, compose(N, N))
    ok &= twice.product == squared.product
    ok &= twice.bracket == squared.bracket
    cert = dubrovin_dual(A, Section([u1, u2]))
    ok &= deformed.product == cert.dual.product
    report_line(4, "Nijenhuis deformation suite", ok)


def test_criterion_5_deformation_suite():
    A = truncated_poly_algebra().to_presentation()
    mu1 = mu1_euler(A)
    ok = True
    deform = FormalDeformation(A, [mu1, MultiDer.zero(2, A.rank, 0)])
    ok &= check_n_deformation(deform).overall  # to order 2 with mu2 = 0
    limit = semiclassical_limit(FormalDeformation(A, [mu1]))
    for i in range(A.rank):
        for j in range(A.rank):
            x, y = A.basis(i), A.basis(j)
            ok &= bracket_of(limit, x, y) == cochain_eval(mu1, [x, y]) - cochain_eval(mu1, [y, x])
    theta = obstruction(FormalDeformation(A, [mu1]))
    ok &= theta.is_zero()
    ok &= extend(FormalDeformation(A, [mu1]), MultiDer.zero(2, A.rank, 0)).order == 2
    # 100 seeded random cochains over the two-dimensional algebra
    FM = fm2_algebra()
    P = as_prelie(FM.to_presentation())
    rng = random.Random(20260824)
    for _ in range(50):
        for degree in (1, 2):
            md = rand_multider(rng, degree, P.rank, 0)
            ok &= d_def(P, d_def(P, md)).is_zero()
    # seeded valid 1-deformations have closed obstruction
    reps = cohomology_point(FM, 2).representatives
    for _ in range(20):
        mu = d_def(P, rand_multider(rng, 1, P.rank, 0))
        for rep in reps:
            mu = mu + rep.scale(Fraction(rng.randint(-2, 2)))
        d1 = FormalDeformation(FM.to_presentation(), [mu])
        ok &= check_n_deformation(d1).overall
        ok &= d_def(P, obstruction(d1)).is_zero()
    report_line(5, "formal deformation suite", ok)


def test_criterion_6_cohomology_point():
    alg = fm2_algebra()
    P = as_prelie(alg.to_presentation())
    zero, one = Fraction(0), Fraction(1)
    res = cohomology_point(alg, 2)
    d1 = dense_d_matrix(P, 1)
    d2 = dense_d_matrix(P, 2)
    ok = res.coboundary_dim == mat_rank(d1, one)
    ok &= res.cocycle_dim == len(nullspace(d2, zero, one))
    ok &= res.dim == res.cocycle_dim - res.coboundary_dim
    for rep in res.representatives:
        ok &= d_def(P, rep).is_zero()
    rng = random.Random(6)
    phi = rand_multider(rng, 1, P.rank, 0)
    mu1 = d_def(P, rand_multider(rng, 1, P.rank, 0))
    base = alg.to_presentation()
    ok &= equivalence_check(base, mu1, mu1 - d_def(P, phi)).overall
    ok &= not equivalence_check(base, mu1, mu1 + res.representatives[0]).overall
    report_line(6, "deformation cohomology over a point", ok)


def test_criterion_7_hierarchy_suite():
    T = load_fixture("SS2")
    u1, u2 = RatFunc.var(2, 0), RatFunc.var(2, 1)
    zero = RatFunc.zero(2)
    half = RatFunc.const(2, Fraction(1, 2))
    ok = flows_commute(
        flow_from_section(T, T.identity), flow_from_section(T, Section([u1, u2]))
    ).overall
    data = principal_hierarchy(T, Connection(), [T.basis(0), T.basis(1)], 2)
    ok &= data.table[(0, 1)] == Section([u1, zero])
    ok &= data.table[(1, 1)] == Section([zero, u2])
    ok &= data.table[(0, 2)] == Section([half * u1 ** 2, zero])
    ok &= data.table[(1, 2)] == Section([zero, half * u2 ** 2])
    ok &= data.commutation.overall and len(data.commutation.checks) == 15
    F = HydroFlow(((u2, zero), (zero, zero)))
    G = HydroFlow(((u1, zero), (zero, zero)))
    ok &= commutator_residual(F, G)[0].format(jet_names(["u1", "u2"])) == "u1*u1_x*u2_x"
    rng = random.Random(20260824)
    for _ in range(50):
        n = rng.choice([1, 2, 3])
        S = semisimple(n)
        ok &= eventual_identity_flows(
            S, random_diagonal_section(rng, n), random_diagonal_section(rng, n)
        ).overall
    report_line(7, "hydrodynamic hierarchy suite", ok)


def test_criterion_8_parser_robustness():
    from falgebroid.exprparse import parse_expr, print_expr

    ok = run_parser_fuzz(10000, seed=20260824) == 10000
    rng = random.Random(8)
    for _ in range(100):
        f = random_ratfunc(rng)
        ok &= parse_expr(print_expr(f, ["u1", "u2"]), ["u1", "u2"]) == f
    report_line(8, "parser robustness", ok)
