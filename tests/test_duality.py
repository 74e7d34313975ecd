"""Eventual-identity duals and Nijenhuis deformations."""

import random
from fractions import Fraction
from itertools import product as iproduct

import pytest

import falgebroid.duality as duality
from falgebroid.algebroid import AlgebroidPresentation, Section, _compile, check_f_algebroid, check_pre_f
from falgebroid.constructions import load_fixture
from falgebroid.duality import (
    BundleMap,
    _dual_product,
    _square,
    deform_by_nijenhuis,
    dubrovin_dual,
    ev_identity_closure,
    invert_section,
    is_nijenhuis,
    is_pre_f_eventual_identity,
    is_pseudo_eventual_identity,
    multiplication_matrix,
    nijenhuis_deformation,
    nijenhuis_from_eventual,
    pre_f_dual,
    verify_certificate,
)
from falgebroid.errors import NotEventual, NotInvertible, NotNijenhuis, ShapeError
from falgebroid.report import Report
from falgebroid.ring import Poly, RatFunc
import section_oracle
from section_oracle import bundle_apply, compose, pre_f_eventual, pseudo_eventual, tensor_of, with_structures
from test_algebroid import _mutant, _mutate_tensor, _outcomes, _presentation, _random_presentation, frobenius
from test_report import check_to_dict


def euler(n):
    return Section([RatFunc.var(n, i) for i in range(n)])


def test_euler_is_pseudo_eventual_on_ss2():
    A = load_fixture("SS2")
    assert is_pseudo_eventual_identity(A, euler(2)).overall
    assert is_pre_f_eventual_identity(A, euler(2)).overall


def test_tr2_pre_f_eventual_fails_for_quadratic_component():
    A = load_fixture("TR2")
    E = Section([RatFunc.var(2, 0) ** 2, RatFunc.var(2, 1)])
    # the pseudo relation holds, but the pre-F exchange symmetry does not
    assert is_pseudo_eventual_identity(A, E).overall
    report = is_pre_f_eventual_identity(A, E)
    assert not report.overall
    # the two relations alternate pair by pair, so the first failure is the first in that order
    laws, pairs = ("psi-eventual-relation", "prelie-eventual-symmetry"), ("(E1,E1)", "(E1,E2)", "(E2,E1)", "(E2,E2)")
    assert [(c.law, c.instance) for c in report.checks] == [(law, pair) for pair in pairs for law in laws]
    with pytest.raises(NotEventual):
        pre_f_dual(A, E)


def test_dubrovin_dual_closed_form_on_ss2():
    A = load_fixture("SS2")
    cert = dubrovin_dual(A, euler(2))
    dual = cert.dual
    u1, u2 = RatFunc.var(2, 0), RatFunc.var(2, 1)
    zero = RatFunc.zero(2)
    # dual product: E_i ._E E_j = delta_ij u^i E_i
    expected = [
        [[u1, zero], [zero, zero]],
        [[zero, zero], [zero, u2]],
    ]
    assert dual.product == expected
    # dual identity: (1/u1, 1/u2)
    one = RatFunc.one(2)
    assert dual.identity.components == (one / u1, one / u2)
    assert cert.e_dagger.components == (one / u1 ** 2, one / u2 ** 2)
    assert verify_certificate(cert).overall
    assert check_f_algebroid(dual).overall


def test_pre_f_dual_on_ss2():
    A = load_fixture("SS2")
    cert = pre_f_dual(A, euler(2))
    assert verify_certificate(cert).overall
    assert check_pre_f(cert.dual).overall


def test_involution_compares_whole_tensors(monkeypatch):
    """A double dual that extends the original product by one rank is not the original product."""
    import falgebroid.duality

    A = load_fixture("SS2")
    cert = dubrovin_dual(A, euler(2))
    assert verify_certificate(cert).overall
    padded = {**A._tables["product"], (2, 2): ((2, RatFunc.one(2)),)}  # E3·E3 = E3 past the rank
    monkeypatch.setattr(falgebroid.duality, "_dual_product", lambda dual, E: padded)
    assert [c.law for c in verify_certificate(cert).failures()] == ["involution"]


def test_trivial_dual_at_identity():
    A = load_fixture("SS2")
    cert = dubrovin_dual(A, A.identity)
    assert cert.dual.product == A.product
    assert cert.dual.identity == A.identity


def test_dual_rejects_non_eventual_section():
    A = load_fixture("SS2")
    bad = Section([RatFunc.var(2, 1), RatFunc.zero(2)])
    with pytest.raises((NotEventual, NotInvertible)):
        dubrovin_dual(A, bad)


def test_invert_section_not_invertible():
    A = load_fixture("TR2")
    with pytest.raises(NotInvertible):
        invert_section(A, A.basis(1))  # nilpotent frame direction


def test_invert_section_singular_but_solvable():
    # over a point with E1·E1 = E1 and every other product 0, taking e = E1: ℰ = E1 solves ℰ·x = e with x = E1,
    # but its multiplication matrix is singular, so ℰ has no inverse
    one, zero = RatFunc.one(0), RatFunc.zero(0)
    product = [[[one, zero], [zero, zero]], [[zero, zero], [zero, zero]]]
    A = AlgebroidPresentation([], 2, product, identity=Section.basis(2, 0, 0))
    with pytest.raises(NotInvertible, match="^matrix is singular$"):
        invert_section(A, A.basis(0))


def test_ev_identity_closure_on_ss2():
    A = load_fixture("SS2")
    u1, u2 = RatFunc.var(2, 0), RatFunc.var(2, 1)
    E1 = euler(2)
    E2 = Section([u1 ** 2, u2 ** 2])
    assert ev_identity_closure(A, E1, E2).overall


def diagonal_eventual(rng, n, kind):
    """A seeded eventual identity Σ f_i(u_i)·E_i of SS<n>: polynomial components; or one component p(u_j)/(u_j - b),
    the only nonconstant denominator ("shared"); or each component over its own u_i - b_i ("distinct"). The
    coefficients of p are positive and b > 0, so no denominator cancels."""
    u, j = [RatFunc.var(n, i) for i in range(n)], rng.randrange(n)

    def const(choices):
        return RatFunc.const(n, rng.choice(choices))

    def component(i):
        p = const([1, 2, Fraction(1, 2)]) + const([1, 2]) * u[i] + const([0, 1, 3]) * u[i] * u[i]
        return p / (u[i] - const([1, 2, 3])) if kind == "distinct" or kind == "shared" and i == j else p

    return Section([component(i) for i in range(n)])


CLOSURE_KINDS = [("polynomial", "polynomial"), ("polynomial", "shared"), ("shared", "shared"),
                 ("shared", "distinct"), ("distinct", "polynomial")]


@pytest.mark.parametrize("name", ["SS2", "SS3"])
@pytest.mark.parametrize("kinds", CLOSURE_KINDS, ids="-".join)
@pytest.mark.parametrize("seed", range(2))
def test_ev_identity_closure_matches_the_section_bracket(name, kinds, seed):
    """Products and brackets of seeded eventual identities stay eventual, and the bracket in the closure's instance
    text, contracted from the tables, is the Section oracle's ``bracket_of``: over shared denominators, where the
    contraction sums numerators, and over distinct ones, where it sums RatFuncs."""
    A, rng = load_fixture(name), random.Random(f"closure:{name}:{kinds}:{seed}")
    E1, E2 = (diagonal_eventual(rng, A.n, kind) for kind in kinds)
    for E, kind in zip((E1, E2), kinds):  # each section takes the path its kind names
        assert all(c.is_polynomial() for c in E.components) == (kind == "polynomial")
        assert (E.shared_denominator() is None) == (kind == "distinct")
    report = ev_identity_closure(A, E1, E2)
    assert report.overall
    instances = {c.law: c.instance for c in report.checks}
    assert instances["product-closure"] == f"E1·E2 = [{A.fmt(A.multiply(E1, E2))}]"
    assert instances["bracket-closure"] == f"[E1,E2] = [{A.fmt(section_oracle.bracket_of(A, E1, E2))}]"


@pytest.mark.parametrize("name", ["SS2", "SS3"])
def test_ev_identity_closure_refuses_a_non_eventual_premise(name):
    """Negative control: u1·u2·E1 + Σ_(i>1) u_i·E_i is not eventual, and the closure stops at its premise."""
    A = load_fixture(name)
    u = [RatFunc.var(A.n, i) for i in range(A.n)]
    bad = Section([u[0] * u[1], *u[1:]])
    with pytest.raises(NotEventual, match=r"^not an eventual identity: E2 eventual: -u1, 0"):
        ev_identity_closure(A, euler(A.n), bad)


def diag_n(A):
    u1, u2 = RatFunc.var(2, 0), RatFunc.var(2, 1)
    zero = RatFunc.zero(2)
    return BundleMap([[u1, zero], [zero, u2]])



def test_bundle_map_apply_and_compose_match_dense_formulas():
    rng = random.Random(11)
    u1, u2, one = RatFunc.var(2, 0), RatFunc.var(2, 1), RatFunc.one(2)
    pool = [RatFunc.zero(2)] * 3 + [one, u1, u2 - one - one, u1 * u2, one / (u1 + one)]
    for r in (1, 2, 3, 4):
        for _ in range(10):
            M = [[rng.choice(pool) for _ in range(r)] for _ in range(r)]
            P = [[rng.choice(pool) for _ in range(r)] for _ in range(r)]
            X = Section([rng.choice(pool) for _ in range(r)])
            image = bundle_apply(BundleMap(M), X)
            xs = X.components
            dense = [sum((M[k][j] * xs[j] for j in range(r)), RatFunc.zero(2)) for k in range(r)]
            assert image.components == tuple(dense)
            assert image.entries == tuple((k, c) for k, c in enumerate(dense) if not c.is_zero())
            product = compose(BundleMap(M), BundleMap(P)).matrix
            assert product == [
                [sum((M[k][t] * P[t][j] for t in range(r)), RatFunc.zero(2)) for j in range(r)]
                for k in range(r)
            ]

def test_nijenhuis_all_modes_on_ss2():
    A = load_fixture("SS2")
    N = diag_n(A)
    for mode in ("comm", "lie", "f"):
        assert is_nijenhuis(A, N, mode).overall, mode
    P = load_fixture("SS2")  # carries prelie too
    for mode in ("prelie", "pre_f"):
        assert is_nijenhuis(P, N, mode).overall, mode
    with pytest.raises(ShapeError):
        is_nijenhuis(A, N, "bogus")


def test_nijenhuis_deformation_passes_and_squares():
    A = load_fixture("SS2")
    N = diag_n(A)
    deformed = deform_by_nijenhuis(A, N)
    assert check_f_algebroid(deformed).overall
    # double deformation equals deformation by N^2
    twice = deform_by_nijenhuis(deformed, N)
    squared = deform_by_nijenhuis(A, compose(N, N))
    assert twice.product == squared.product
    assert twice.bracket == squared.bracket


def test_nijenhuis_deformation_checks_the_bracket_before_the_prelie_operation():
    """N is checked and deformed on the product with the bracket when A has one, else with the pre-Lie operation,
    else on the product alone: SS2 carries both, and its pre-Lie operation is neither checked nor deformed."""
    A = load_fixture("SS2")
    N = diag_n(A)
    prelie = AlgebroidPresentation(A.base_vars, A.rank, A.product, prelie=A.prelie, anchor=A.anchor)
    product = AlgebroidPresentation(A.base_vars, A.rank, A.product, anchor=A.anchor)
    cases = [(A, ["nijenhuis-comm", "nijenhuis-lie"], (True, False)),
             (prelie, ["nijenhuis-comm", "nijenhuis-prelie"], (False, True)),
             (product, ["nijenhuis-comm"], (False, False))]
    for B, laws, carried in cases:
        report, deformed = nijenhuis_deformation(B, N)
        assert report.overall and [law for law, _, _ in report.blocks] == laws
        assert (deformed.bracket is not None, deformed.prelie is not None) == carried


def test_deformed_product_matches_dual_product():
    A = load_fixture("SS2")
    E = euler(2)
    N = nijenhuis_from_eventual(A, E)
    assert N.matrix == diag_n(A).matrix
    deformed = deform_by_nijenhuis(A, N)
    cert = dubrovin_dual(A, E)
    assert deformed.product == cert.dual.product


def test_non_nijenhuis_rejected():
    A = load_fixture("SS2")
    u1, u2 = RatFunc.var(2, 0), RatFunc.var(2, 1)
    zero = RatFunc.zero(2)
    bad = BundleMap([[zero, u1], [u2, zero]])
    report = is_nijenhuis(A, bad, "f")
    assert not report.overall
    assert all(c.witness for c in report.failures())
    with pytest.raises(NotNijenhuis):
        deform_by_nijenhuis(A, bad)


def test_add_verdict_records_a_sub_report_as_one_check():
    sub = Report("sub")
    sub.add("a", "x", True)
    sub.add("b", "y", False, "w1")
    sub.add("c", "z", False, "w2")
    report = Report("top")
    report.add_verdict("law", "failing", sub)
    report.add_verdict("law", "passing", Report("empty"))
    assert [check_to_dict(c) for c in report.checks] == [
        {"law": "law", "instance": "failing", "pass": False, "witness": "w1"},
        {"law": "law", "instance": "passing", "pass": True},
    ]


# -- contractions over one shared denominator against Section evaluation ------


def _shared(A, *sections):
    """Whether the sections enter a contraction as numerators over shared denominators."""
    return all(type(den) is Poly for den, _ in duality._sections(A, *sections)[1])


def _perturbed(E, k, f):
    """ℰ with f added to its component k."""
    components = list(E.components)
    components[k] = components[k] + f
    return Section(components)


def _frobenius_case(name):
    """A Frobenius manifold (A2, A3, B3) at its Euler field, or its Dubrovin dual at e† (A2-dual...)."""
    A, E = frobenius(name.split("-")[0])
    if name.endswith("-dual"):
        cert = dubrovin_dual(A, E)
        return cert.dual, cert.e_dagger
    return A, E


def _ss_dual(n):
    """The Dubrovin dual of SS<n> at ℰ = (u1, u2², ...): its identity 1/f_i(u_i) has distinct denominators."""
    u = [RatFunc.var(n, m) for m in range(n)]
    cert = dubrovin_dual(load_fixture(f"SS{n}"), Section([u[m] ** (m + 1) for m in range(n)]))
    return cert.dual, cert.e_dagger


def _eventual_cases():
    """(name, A, ℰ, whether e and ℰ enter as numerators over shared denominators) for the pseudo-eventual oracle."""
    for name in ("A2", "A3", "B3", "A2-dual", "A3-dual", "B3-dual"):
        A, E = _frobenius_case(name)
        yield name, A, E, True
        if name in ("A2", "A3", "B3", "A2-dual"):
            t = [RatFunc.var(A.n, m) for m in range(A.n)]
            for k, f in enumerate((t[-1], RatFunc.const(A.n, 2), t[0] * t[0])):
                yield f"{name} perturbed {k}", A, _perturbed(E, k % A.rank, f), True
    SS2 = load_fixture("SS2")
    u1, u2, one = RatFunc.var(2, 0), RatFunc.var(2, 1), RatFunc.one(2)
    yield "SS2 mixed", SS2, Section([u2 / (u1 + one), u2]), True
    yield "SS2 distinct", SS2, Section([one / u1, one / (u2 + one)]), False
    for n in (2, 3):
        A, E = _ss_dual(n)
        yield f"SS{n}-dual", A, E, False
        yield f"SS{n}-dual perturbed", A, _perturbed(E, 0, RatFunc.var(n, n - 1)), False
    rational = with_structures(SS2, product=_mutate_tensor(SS2.product, 1, 0, 0, u1 / (u2 + one)))
    yield "SS2 rational table", rational, Section([u1, u2]), False
    yield "SS2 rational table mixed", rational, Section([u2 / (u1 + one), u2]), False


def test_pseudo_eventual_contraction_matches_section_evaluation():
    """The contracted check and Section evaluation agree in every pass flag and witness text: at Euler fields, on
    the duals at e†, on one-component perturbations of ℰ, and on the inputs contracted over RatFuncs (distinct
    denominators, a rational table entry)."""
    passed, witnessed = set(), set()
    for name, A, E, shared in _eventual_cases():
        assert _shared(A, A.identity, E) == shared, name
        report, oracle = is_pseudo_eventual_identity(A, E), pseudo_eventual(A, E)
        assert _outcomes(report) == _outcomes(oracle), name
        passed |= {name} if report.overall else set()
        witnessed |= {(name, shared)} if any(c.witness for c in report.failures()) else set()
    assert passed == {"A2", "A3", "B3", "A2-dual", "A3-dual", "B3-dual", "SS2 distinct", "SS2-dual", "SS3-dual"}
    assert {("A2-dual perturbed 0", True), ("B3 perturbed 2", True), ("SS2 mixed", True),
            ("SS2-dual perturbed", False), ("SS2 rational table", False)} <= witnessed


def test_pre_f_eventual_identity_matches_section_evaluation():
    """The contracted pre-F check agrees with ``psi`` in every pass flag and witness text, on the pre-F fixtures and
    their seeded mutants, at ℰ = (u_(i mod n))_i and at the identity."""
    failed = set()
    for name in ("SS2", "SS3", "TR2", "SS3-dual"):
        for A in [_presentation(name)] + [_mutant(name, seed) for seed in range(3)]:
            for E in (Section([RatFunc.var(A.n, i % A.n) for i in range(A.rank)]), A.identity):
                report = is_pre_f_eventual_identity(A, E)
                assert _outcomes(report) == _outcomes(pre_f_eventual(A, E)), name
                failed |= {c.law for c in report.failures() if c.witness}
    assert failed == {"psi-eventual-relation", "prelie-eventual-symmetry"}


def _sections(A):
    """Polynomial, mixed, shared-denominator and distinct-denominator sections over A, and whether each shares
    one denominator."""
    t, one, zero = [RatFunc.var(A.n, m) for m in range(A.n)], RatFunc.one(A.n), RatFunc.zero(A.n)
    pad = lambda cs: Section((cs + [t[-1]] * A.rank)[:A.rank])  # noqa: E731
    D = t[0] * t[0] + t[-1] + one
    return [
        (pad([t[0], t[-1] * t[-1] - one, RatFunc.const(A.n, 3)]), True),
        (pad([t[0] / (t[-1] + one), zero, t[-1]]), True),
        (pad([one / D, t[0] / D, (t[-1] - one) / D]), True),
        (pad([one / t[0], one / (t[-1] + one), t[0]]), False),
    ]


def _noncommutative(name):
    """The fixture with E1·E2 given an extra u1·E1, so that the product is not commutative."""
    A = load_fixture(name)
    return with_structures(A, product=_mutate_tensor(A.product, 0, 0, 1, A.product[0][0][1] + RatFunc.var(A.n, 0)))


@pytest.mark.parametrize("name", ["A3", "SS3", "SS3-noncommutative"])
def test_dual_product_and_square_match_section_evaluation(name):
    """``_dual_product`` equals the compiled ``tensor_of`` of X·Y·ℰ and ``_square`` equals ``multiply``, entry for
    entry; on the noncommutative product the order of the factors is checked too."""
    A = frobenius(name)[0] if name == "A3" else _noncommutative("SS3") if "-" in name else load_fixture(name)
    assert A.polynomial
    for X, shared in _sections(A):
        assert _shared(A, X) == shared
        assert _dual_product(A, X) == _compile(tensor_of(A, lambda Y, Z: A.multiply(A.multiply(Y, Z), X)), A.rank)
        assert _square(A, X) == A.multiply(X, X)


@pytest.mark.parametrize("name", ["SS2", "SS3", "TR2", "A3"])
def test_eventual_checks_match_section_evaluation_on_every_kind_of_section(name):
    """Polynomial, shared-denominator and distinct-denominator sections ℰ, contracted over numerators or over
    RatFuncs, give the Section evaluation's pass flags and witnesses in both eventual-identity checks."""
    A = frobenius(name)[0] if name == "A3" else load_fixture(name)
    for E, shared in _sections(A):
        assert _shared(A, A.identity, E) == shared
        if A.bracket is not None:
            assert _outcomes(is_pseudo_eventual_identity(A, E)) == _outcomes(pseudo_eventual(A, E))
        if A.prelie is not None:
            assert _outcomes(is_pre_f_eventual_identity(A, E)) == _outcomes(pre_f_eventual(A, E))


# -- Nijenhuis torsion from the tables against Section evaluation ----------------


def _bundle_maps(A):
    """Multiplication by ℰ = (u_(i mod n))_i, a diagonal map with the entry 1/(u1 + 1), and a seeded map whose
    entries include rational functions; over a point, constants in their place."""
    n, r = A.n, A.rank
    one, zero = RatFunc.one(n), RatFunc.zero(n)
    u = [RatFunc.var(n, m) for m in range(n)] or [RatFunc.const(0, 2), RatFunc.const(0, -1)]
    E = Section([u[i % len(u)] for i in range(r)])
    diagonal = [[(one / (u[0] + one) if i == 0 else u[i % len(u)]) if i == j else zero for j in range(r)]
                for i in range(r)]
    rng = random.Random(f"bundle-map:{A.base_vars}:{r}")
    pool = [zero, zero, one, u[0], u[-1] * u[0] - one, one / (u[-1] + one + one)]
    return [multiplication_matrix(A, E), BundleMap(diagonal), BundleMap([[rng.choice(pool) for _ in range(r)]
                                                                        for _ in range(r)])]


def _modes(A):
    """The Nijenhuis modes whose operations A carries."""
    return [mode for mode, names in section_oracle.MODES.items() if all(getattr(A, x) is not None for x in names)]


NIJENHUIS_CASES = [(name, None) for name in ("FM2", "ACT2", "SS2", "SS3", "TR2", "SS3-dual")]
NIJENHUIS_CASES += [(name, seed) for name in ("SS2", "TR2", "SS3-dual") for seed in (0, 1, "anchor0", "rational0")]


@pytest.mark.parametrize("name,seed", NIJENHUIS_CASES, ids=[f"{n}-{s}" for n, s in NIJENHUIS_CASES])
def test_nijenhuis_torsion_matches_section_evaluation(name, seed):
    """In every mode A carries, the contracted torsion gives the Section evaluation's instances, pass flags and
    witnesses, for polynomial and rational N; a passing N deforms A into the presentation built from sections."""
    A = _presentation(name) if seed is None else _mutant(name, seed)
    for N in _bundle_maps(A):
        for mode in _modes(A):
            assert _outcomes(is_nijenhuis(A, N, mode)) == _outcomes(section_oracle.nijenhuis(A, N, mode)), mode
        report, deformed = nijenhuis_deformation(A, N)
        if report.overall:
            want = section_oracle.nijenhuis_deformation(A, N)
            assert (deformed.product, deformed.bracket, deformed.prelie) == (want.product, want.bracket, want.prelie)
            assert deformed.anchor == (want.anchor and [list(row) for row in want.anchor])


def test_nijenhuis_cases_reach_every_verdict():
    """The torsion cases fail every torsion law with witnesses, and a rational N passes. That torsion needs no
    scaled instance is ``test_torsion_is_a_tensor_at_scaled_arguments``."""
    failed, passed = set(), set()
    for name, seed in NIJENHUIS_CASES:
        A = _presentation(name) if seed is None else _mutant(name, seed)
        for index, N in enumerate(_bundle_maps(A)):
            for mode in _modes(A):
                report = is_nijenhuis(A, N, mode)
                failed |= {c.law for c in report.failures() if c.witness}
                passed |= {(mode, index)} if report.overall and A.n else set()
    assert failed == {"nijenhuis-comm", "nijenhuis-lie", "nijenhuis-prelie"}
    assert {("f", 1), ("pre_f", 1)} <= passed


@pytest.mark.parametrize("seed", range(6))
def test_torsion_is_a_tensor_at_scaled_arguments(seed):
    """The fact the torsion contraction rests on: on a random presentation whose bracket is not antisymmetric,
    with a rational anchor entry on odd seeds, and a seeded N with a rational entry, the Section torsion of the
    product, the bracket and the pre-Lie operation at (u^m·E_i, u^p·E_j) is u^m·u^p times its value at
    (E_i, E_j)."""
    A = _random_presentation(seed)
    rng, n, r = random.Random(f"torsion-tensor:{seed}"), A.n, A.rank
    u, one = [RatFunc.var(n, m) for m in range(n)], RatFunc.one(n)
    pool = [RatFunc.zero(n), one, u[0], u[1] * u[0] + one, one / (u[rng.randrange(n)] + one)]
    N = BundleMap([[rng.choice(pool) for _ in range(r)] for _ in range(r)])
    N.matrix[rng.randrange(r)][rng.randrange(r)] = u[1] / (u[0] + one)
    factors = [(None, one)] + list(enumerate(u))
    nonzero = 0
    for name, op in section_oracle.OPERATIONS.items():
        T = section_oracle.torsion(N, op(A))
        for i, j in iproduct(range(r), repeat=2):
            frame = T(A.basis(i), A.basis(j))
            nonzero += not frame.is_zero()
            for (m, f), (p, g) in iproduct(factors, repeat=2):
                X = A.basis(i) if m is None else section_oracle.scaled_basis(A, m, i)
                Y = A.basis(j) if p is None else section_oracle.scaled_basis(A, p, j)
                assert T(X, Y) == frame.scale_fn(f * g), (name, i, j, m, p)
    assert nonzero
