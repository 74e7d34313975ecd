"""Property tests for exact polynomial and rational-function arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from falgebroid import ring
from falgebroid.errors import DivisionByZero, NotDivisible
from falgebroid.exprparse import parse_expr
from falgebroid.ring import Poly, RatFunc, VectorField, vf_bracket

NVARS = 2

fractions = st.builds(
    Fraction, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4)
)

exponents = st.tuples(
    st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)
)


@st.composite
def polys(draw, max_terms=3):
    terms = draw(st.dictionaries(exponents, fractions, max_size=max_terms))
    return Poly.from_terms(NVARS, terms)


@st.composite
def nonzero_polys(draw, max_terms=3):
    p = draw(polys(max_terms=max_terms))
    if p.is_zero():
        exp = draw(exponents)
        p = p + Poly.from_terms(NVARS, {exp: Fraction(1)})
    return p


@st.composite
def ratfuncs(draw):
    return RatFunc(draw(polys()), draw(nonzero_polys(max_terms=2)))


@given(polys(), polys(), polys())
def test_poly_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Poly.zero(NVARS) == a
    assert a * Poly.const(NVARS, 1) == a
    assert a - a == Poly.zero(NVARS)


@given(nonzero_polys(max_terms=2), nonzero_polys(max_terms=2))
@settings(max_examples=40, deadline=None)
def test_poly_gcd_divides_both(a, b):
    g = Poly.gcd(a, b)
    assert not g.is_zero()
    # exact division succeeds for both arguments
    a.exact_div(g)
    b.exact_div(g)


@given(polys(), nonzero_polys(max_terms=2), nonzero_polys(max_terms=2))
@settings(max_examples=40, deadline=None)
def test_ratfunc_common_factor_cancels(a, b, c):
    assert RatFunc(a * c, b * c) == RatFunc(a, b)


@given(ratfuncs(), ratfuncs(), ratfuncs())
@settings(max_examples=60, deadline=None)
def test_ratfunc_field_laws(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h
    assert f - f == RatFunc.zero(NVARS)


@given(ratfuncs())
@settings(max_examples=40, deadline=None)
def test_ratfunc_inverse(f):
    if f.is_zero():
        with pytest.raises(DivisionByZero):
            RatFunc.one(NVARS) / f
    else:
        assert f * (RatFunc.one(NVARS) / f) == RatFunc.one(NVARS)


@given(polys(), nonzero_polys(max_terms=2), polys(), nonzero_polys(max_terms=2))
@settings(max_examples=40, deadline=None)
def test_normal_form_uniqueness(a, b, c, d):
    # equality of normal forms agrees with the cross-multiplication test
    assert (RatFunc(a, b) == RatFunc(c, d)) == (a * d == c * b)


@given(ratfuncs(), ratfuncs(), st.integers(min_value=0, max_value=1))
@settings(max_examples=40, deadline=None)
def test_derivative_leibniz(f, g, i):
    lhs = (f * g).derivative(i)
    rhs = f.derivative(i) * g + f * g.derivative(i)
    assert lhs == rhs


@given(ratfuncs(), st.integers(min_value=0, max_value=1), st.integers(min_value=0, max_value=1))
@settings(max_examples=40, deadline=None)
def test_mixed_partials_commute(f, i, j):
    assert f.derivative(i).derivative(j) == f.derivative(j).derivative(i)


def prs_gcd(a, b):
    """The primitive PRS gcd, kept in ``Poly`` as the heuristic's fallback."""
    if a.is_zero():
        return b._to_integer_primitive()
    if b.is_zero():
        return a._to_integer_primitive()
    return Poly._gcd_prim(a._to_integer_primitive(), b._to_integer_primitive())


def prs_normal(num, den):
    """(num, den) in normal form, reduced with the PRS gcd and exact division."""
    if num.is_zero():
        return {}, Poly.const(num.nvars, 1).terms
    g = prs_gcd(num, den)
    num, den = num.exact_div(g), den.exact_div(g)
    lead = den.leading()[1]
    return num.scale(1 / lead).terms, den.scale(1 / lead).terms


def assert_gcd_matches_prs(a, b):
    g, ca, cb = Poly.gcd_cofactors(a, b)
    assert g.terms == prs_gcd(a, b).terms
    assert Poly.gcd(a, b).terms == g.terms
    if not g.is_zero():
        assert (g * ca).terms == a.terms
        assert (g * cb).terms == b.terms


def assert_normal(f, num, den):
    expected = RatFunc(num, den)
    assert (f.num.terms, f.den.terms) == (expected.num.terms, expected.den.terms)


@given(polys(), nonzero_polys(max_terms=2), nonzero_polys(max_terms=2))
@settings(max_examples=60, deadline=None)
def test_normal_form_matches_prs(a, b, c):
    f = RatFunc(a * c, b * c)
    assert (f.num.terms, f.den.terms) == prs_normal(a * c, b * c)


@given(polys(), polys())
@settings(max_examples=80, deadline=None)
def test_gcd_matches_prs(a, b):
    assert_gcd_matches_prs(a, b)


@given(nonzero_polys(), nonzero_polys(), nonzero_polys())
@settings(max_examples=60, deadline=None)
def test_gcd_matches_prs_with_common_factor(a, b, c):
    assert_gcd_matches_prs(a * c, b * c)
    assert_gcd_matches_prs(a * c * c, a * b * c)


# the discriminant of the A3 Frobenius potential, in t1, t2, t3
A3_NAMES = ["t1", "t2", "t3"]
A3_D = parse_expr(
    "t3^6 - t1*t3^4 - 7/32*t2^2*t3^3 - t1^2*t3^2 - 9/32*t1*t2^2*t3 - 27/8192*t2^4 + t1^3",
    A3_NAMES,
).num
A3_A = parse_expr("t1*t2 - 3/4*t3^2 + 2", A3_NAMES).num
A3_B = parse_expr("t2^3 + 5*t1*t3 - 1/2", A3_NAMES).num


def test_gcd_matches_prs_on_a3_discriminant():
    D, a, b = A3_D, A3_A, A3_B
    assert_gcd_matches_prs(D, a)
    assert Poly.gcd(D, a).is_constant()
    assert_gcd_matches_prs(D * a, D * b)
    assert_gcd_matches_prs(D * D, D * a)
    assert Poly.gcd(D * D, D * a) == Poly.gcd(D * a, D * b) == D._to_integer_primitive()


def test_gcd_falls_back_to_prs_when_heuristic_gives_up(monkeypatch):
    monkeypatch.setattr(ring, "HEU_GCD_MAX", 0)
    D, a, b = A3_D, A3_A, A3_B
    assert_gcd_matches_prs(D * a, D * b)
    assert_gcd_matches_prs(a, b)
    assert RatFunc(a * b, D * a) == RatFunc(b, D)


def test_ratfunc_arithmetic_on_a3_discriminant():
    D, a, b = A3_D, A3_A, A3_B
    f = RatFunc(a, D)
    g = RatFunc(b, D * a)
    h = RatFunc(a * b, D * D)
    for x, y in [(f, g), (g, h), (f, h), (f, f * RatFunc(a))]:
        assert_normal(x + y, x.num * y.den + y.num * x.den, x.den * y.den)
        assert_normal(x - y, x.num * y.den - y.num * x.den, x.den * y.den)
        assert_normal(x * y, x.num * y.num, x.den * y.den)
        assert_normal(x / y, x.num * y.den, x.den * y.num)
    for i in range(3):
        assert_normal(h.derivative(i), h.num.derivative(i) * h.den - h.num * h.den.derivative(i), h.den * h.den)


@given(ratfuncs(), ratfuncs())
@settings(max_examples=80, deadline=None)
def test_ratfunc_arithmetic_matches_constructor_path(f, g):
    assert_normal(f, f.num, f.den)
    assert_normal(f + g, f.num * g.den + g.num * f.den, f.den * g.den)
    assert_normal(f - g, f.num * g.den - g.num * f.den, f.den * g.den)
    assert_normal(f * g, f.num * g.num, f.den * g.den)
    assert_normal(f + f, f.num * f.den + f.num * f.den, f.den * f.den)
    if not g.is_zero():
        assert_normal(f / g, f.num * g.den, f.den * g.num)
    for i in range(NVARS):
        assert_normal(f.derivative(i), f.num.derivative(i) * f.den - f.num * f.den.derivative(i), f.den * f.den)


def test_exact_div_remainder_raises():
    u1 = Poly.from_terms(NVARS, {(1, 0): Fraction(1)})
    one = Poly.const(NVARS, 1)
    with pytest.raises(NotDivisible):
        (u1 + one).exact_div(u1)


polyfields = st.tuples(polys(max_terms=2), polys(max_terms=2)).map(
    lambda t: VectorField([RatFunc(t[0]), RatFunc(t[1])])
)


@given(polyfields, polyfields, polyfields)
@settings(max_examples=25, deadline=None)
def test_vector_field_jacobi(x, y, z):
    total = (
        vf_bracket(x, vf_bracket(y, z))
        + vf_bracket(y, vf_bracket(z, x))
        + vf_bracket(z, vf_bracket(x, y))
    )
    assert total.is_zero()


@given(polyfields, polyfields, ratfuncs())
@settings(max_examples=25, deadline=None)
def test_vector_field_bracket_action(x, y, f):
    # [x, y](f) = x(y(f)) - y(x(f))
    assert vf_bracket(x, y).apply(f) == x.apply(y.apply(f)) - y.apply(x.apply(f))
