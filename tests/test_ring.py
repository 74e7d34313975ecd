"""Property tests for exact polynomial and rational-function arithmetic."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from falgebroid import ring
from falgebroid.errors import DegreeOverflow, DivisionByZero, NotDivisible, ShapeError
from falgebroid.exprparse import parse_expr
from falgebroid.algebroid import VectorField
from falgebroid.ring import MAX_DEGREE, Poly, RatFunc
from section_oracle import vf_bracket

NVARS = 2

# Per-example hypothesis deadline in milliseconds: over 20x the slowest example
# measured (109 ms, 16 hypothesis seeds, 2 cores, CPython 3.11), so a 2x
# slower machine still passes and only a complexity cliff fails.
DEADLINE = 2500

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
@settings(max_examples=40, deadline=DEADLINE)
def test_poly_gcd_divides_both(a, b):
    g = Poly.gcd(a, b)
    assert not g.is_zero()
    # exact division succeeds for both arguments
    a.exact_div(g)
    b.exact_div(g)


@given(polys(), nonzero_polys(max_terms=2), nonzero_polys(max_terms=2))
@settings(max_examples=40, deadline=DEADLINE)
def test_ratfunc_common_factor_cancels(a, b, c):
    assert RatFunc(a * c, b * c) == RatFunc(a, b)


@given(ratfuncs(), ratfuncs(), ratfuncs())
@settings(max_examples=60, deadline=DEADLINE)
def test_ratfunc_field_laws(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h
    assert f - f == RatFunc.zero(NVARS)


@given(ratfuncs())
@settings(max_examples=40, deadline=DEADLINE)
def test_ratfunc_inverse(f):
    if f.is_zero():
        with pytest.raises(DivisionByZero):
            RatFunc.one(NVARS) / f
    else:
        assert f * (RatFunc.one(NVARS) / f) == RatFunc.one(NVARS)


@given(polys(), nonzero_polys(max_terms=2), polys(), nonzero_polys(max_terms=2))
@settings(max_examples=40, deadline=DEADLINE)
def test_normal_form_uniqueness(a, b, c, d):
    # equality of normal forms agrees with the cross-multiplication test
    assert (RatFunc(a, b) == RatFunc(c, d)) == (a * d == c * b)


@given(ratfuncs(), ratfuncs(), st.integers(min_value=0, max_value=1))
@settings(max_examples=40, deadline=DEADLINE)
def test_derivative_leibniz(f, g, i):
    lhs = (f * g).derivative(i)
    rhs = f.derivative(i) * g + f * g.derivative(i)
    assert lhs == rhs


@given(ratfuncs(), st.integers(min_value=0, max_value=1), st.integers(min_value=0, max_value=1))
@settings(max_examples=40, deadline=DEADLINE)
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
@settings(max_examples=60, deadline=DEADLINE)
def test_normal_form_matches_prs(a, b, c):
    f = RatFunc(a * c, b * c)
    assert (f.num.terms, f.den.terms) == prs_normal(a * c, b * c)


@given(polys(), polys())
@settings(max_examples=80, deadline=DEADLINE)
def test_gcd_matches_prs(a, b):
    assert_gcd_matches_prs(a, b)


@given(nonzero_polys(), nonzero_polys(), nonzero_polys())
@settings(max_examples=60, deadline=DEADLINE)
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
@settings(max_examples=80, deadline=DEADLINE)
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


def test_exact_div_at_field_boundaries():
    # the key difference is non-negative, but a field borrows from the one above
    x1, x2 = Poly.var(2, 0), Poly.var(2, 1)
    with pytest.raises(NotDivisible):
        (x1**MAX_DEGREE).exact_div(x2**MAX_DEGREE)
    with pytest.raises(NotDivisible):
        Poly.from_terms(3, {(1, 0, 5): 1}).exact_div(Poly.from_terms(3, {(0, 1, 5): 1}))
    with pytest.raises(NotDivisible):
        (x1**MAX_DEGREE + x2).exact_div(x2**MAX_DEGREE + x1)
    assert (x1**MAX_DEGREE).exact_div(x1 ** (MAX_DEGREE - 1)) == x1
    one = Poly.const(2, 1)
    assert (x1 ** (MAX_DEGREE - 1) * x2 + x1).exact_div(x1 ** (MAX_DEGREE - 2) * x2 + one) == x1


polyfields = st.tuples(polys(max_terms=2), polys(max_terms=2)).map(
    lambda t: VectorField([RatFunc(t[0]), RatFunc(t[1])])
)


@given(polyfields, polyfields, polyfields)
@settings(max_examples=25, deadline=DEADLINE)
def test_vector_field_jacobi(x, y, z):
    total = (
        vf_bracket(x, vf_bracket(y, z))
        + vf_bracket(y, vf_bracket(z, x))
        + vf_bracket(z, vf_bracket(x, y))
    )
    assert total.is_zero()


@given(polyfields, polyfields, ratfuncs())
@settings(max_examples=25, deadline=DEADLINE)
def test_vector_field_bracket_action(x, y, f):
    # [x, y](f) = x(y(f)) - y(x(f))
    assert vf_bracket(x, y).apply(f) == x.apply(y.apply(f)) - y.apply(x.apply(f))


def test_poly_equality_respects_nvars():
    assert Poly.zero(2) != Poly.zero(3)
    assert Poly.const(2, 5) != Poly.const(3, 5)
    assert len({Poly.zero(2), Poly.zero(3)}) == 2
    assert Poly.from_terms(2, {(0, 0): Fraction(1, 2)}) == Poly.const(2, Fraction(1, 2))


def grlex(exp):
    return (sum(exp), exp)


class FracPoly:
    """The Fraction-coefficient kernel on exponent tuples, replaced by the integer and then the packed-key kernel.

    Kept only as the oracle: every operation must give the same
    ``{exponent tuple: Fraction}`` terms as ``Poly``.
    """

    def __init__(self, nvars, terms):
        self.nvars = nvars
        self.terms = terms

    @staticmethod
    def of(p):
        return FracPoly(p.nvars, p.terms)

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(all(e == 0 for e in exp) for exp in self.terms)

    def leading(self):
        exp = max(self.terms, key=grlex)
        return exp, self.terms[exp]

    def degree_in(self, i):
        return max((exp[i] for exp in self.terms), default=-1)

    def __add__(self, other):
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            s = terms.get(exp, Fraction(0)) + c
            if s == 0:
                terms.pop(exp, None)
            else:
                terms[exp] = s
        return FracPoly(self.nvars, terms)

    def __neg__(self):
        return FracPoly(self.nvars, {exp: -c for exp, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(exp, Fraction(0)) + c1 * c2
                if s == 0:
                    terms.pop(exp, None)
                else:
                    terms[exp] = s
        return FracPoly(self.nvars, terms)

    def scale(self, c):
        c = Fraction(c)
        if c == 0:
            return FracPoly(self.nvars, {})
        return FracPoly(self.nvars, {exp: k * c for exp, k in self.terms.items()})

    def __pow__(self, n):
        result = FracPoly(self.nvars, {(0,) * self.nvars: Fraction(1)})
        for _ in range(n):
            result = result * self
        return result

    def derivative(self, i):
        terms = {}
        for exp, c in self.terms.items():
            if exp[i]:
                new = list(exp)
                new[i] -= 1
                terms[tuple(new)] = c * exp[i]
        return FracPoly(self.nvars, terms)

    def extend(self, nvars, offset=0):
        pad_left, pad_right = (0,) * offset, (0,) * (nvars - offset - self.nvars)
        return FracPoly(nvars, {pad_left + exp + pad_right: c for exp, c in self.terms.items()})

    def exact_div(self, other):
        if other.is_constant():
            return self.scale(1 / next(iter(other.terms.values())))
        lead_exp, lead_c = other.leading()
        rem, quot = self, {}
        while not rem.is_zero():
            rexp, rc = rem.leading()
            qexp = tuple(a - b for a, b in zip(rexp, lead_exp))
            if any(e < 0 for e in qexp):
                raise NotDivisible("leading term not divisible")
            quot[qexp] = rc / lead_c
            rem = rem - other * FracPoly(self.nvars, {qexp: rc / lead_c})
        return FracPoly(self.nvars, quot)

    def format(self, names):
        if self.is_zero():
            return "0"
        parts = []
        for exp in sorted(self.terms, key=grlex, reverse=True):
            c = self.terms[exp]
            factors = []
            for i, e in enumerate(exp):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append(f"{names[i]}^{e}")
            mono = "*".join(factors)
            coeff = abs(c)
            if coeff == 1 and mono:
                text = mono
            else:
                cs = str(coeff.numerator) if coeff.denominator == 1 else f"{coeff.numerator}/{coeff.denominator}"
                text = f"{cs}*{mono}" if mono else cs
            if not parts:
                parts.append(text if c > 0 else f"-{text}")
            else:
                parts.append(f"+ {text}" if c > 0 else f"- {text}")
        return " ".join(parts)


def outcome(op):
    try:
        p = op()
    except NotDivisible:
        return NotDivisible
    return p.terms, normal_form(p)


def normal_form(p):
    """The integer form ``Poly.from_terms`` builds from the terms: it must be the stored one."""
    return Poly.from_terms(p.nvars, p.terms)


def assert_same(p, fp):
    assert p.terms == fp.terms
    assert p == normal_form(fp)


def assert_kernel_matches_fractions(a, b):
    fa, fb = FracPoly.of(a), FracPoly.of(b)
    assert_same(a, fa)
    assert_same(a + b, fa + fb)
    assert_same(a - b, fa - fb)
    assert_same(-b, -fb)
    assert_same(a * b, fa * fb)
    assert_same(a.scale(Fraction(-3, 4)), fa.scale(Fraction(-3, 4)))
    assert_same(b.scale(6), fb.scale(6))
    for n in range(4):
        assert_same(a**n, fa**n)
    for i in range(a.nvars):
        assert_same(a.derivative(i), fa.derivative(i))
    assert_same(a.extend(a.nvars + 2, 1), fa.extend(a.nvars + 2, 1))
    if not b.is_zero():
        assert outcome(lambda: (a * b).exact_div(b)) == outcome(lambda: (fa * fb).exact_div(fb))
        assert outcome(lambda: a.exact_div(b)) == outcome(lambda: fa.exact_div(fb))
    if not a.is_zero():
        assert a.leading() == fa.leading()
    if a.is_constant():
        assert a.constant_value() == fa.terms.get((0,) * a.nvars, 0)
    for i in range(a.nvars):
        assert a.degree_in(i) == fa.degree_in(i)
    names = [f"x{i}" for i in range(a.nvars)]
    assert a.format(names) == fa.format(names)
    assert_cofactors_match_fractions(a, b)


def assert_cofactors_match_fractions(a, b):
    """``gcd_cofactors``: ``g`` times each cofactor gives back the input, in the Fraction kernel."""
    g, ca, cb = Poly.gcd_cofactors(a, b)
    fg = FracPoly.of(g)
    assert (fg * FracPoly.of(ca)).terms == a.terms
    assert (fg * FracPoly.of(cb)).terms == b.terms
    if not g.is_zero():
        assert fg.leading()[1] > 0
        assert all(c.denominator == 1 for c in fg.terms.values())


def fraction_normal(num, den, gcd):
    """num/den in normal form: ``gcd``, then the Fraction kernel."""
    if num.is_zero():
        return FracPoly(num.nvars, {}), FracPoly(num.nvars, {(0,) * num.nvars: Fraction(1)})
    g = FracPoly.of(gcd(normal_form(num), normal_form(den)))
    num, den = num.exact_div(g), den.exact_div(g)
    lead = den.leading()[1]
    return num.scale(1 / lead), den.scale(1 / lead)


def assert_ratfunc_matches_fractions(f, g, gcd=prs_gcd):
    a, b, c, d = (FracPoly.of(p) for p in (f.num, f.den, g.num, g.den))
    expected = [(f + g, a * d + c * b, b * d), (f - g, a * d - c * b, b * d), (f * g, a * c, b * d), (f**2, a**2, b**2)]
    if not g.is_zero():
        expected.append((f / g, a * d, b * c))
    for i in range(f.nvars):
        expected.append((f.derivative(i), a.derivative(i) * b - a * b.derivative(i), b * b))
    for h, num, den in expected:
        num, den = fraction_normal(num, den, gcd)
        assert_same(h.num, num)
        assert_same(h.den, den)


@given(polys(), polys())
@settings(max_examples=80, deadline=DEADLINE)
def test_poly_kernel_matches_fraction_kernel(a, b):
    assert_kernel_matches_fractions(a, b)


@given(ratfuncs(), ratfuncs())
@settings(max_examples=60, deadline=DEADLINE)
def test_ratfunc_matches_fraction_kernel(f, g):
    assert_ratfunc_matches_fractions(f, g)


def jet_poly(rng, max_terms):
    """A seeded polynomial in the 6 jet variables of two fields, with non-integer coefficients."""
    terms = {
        tuple(rng.randint(0, 2) for _ in range(6)): Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))
        for _ in range(rng.randint(1, max_terms))
    }
    return Poly.from_terms(6, terms)


@pytest.mark.parametrize("seed", range(40))
def test_jet_kernel_matches_fraction_kernel(seed):
    rng = random.Random(seed)
    a, b = jet_poly(rng, 6), jet_poly(rng, 6)
    assert_kernel_matches_fractions(a, b)
    # the PRS gcd blows up in 6 variables; Poly.gcd is checked against it above
    assert_ratfunc_matches_fractions(RatFunc(a, jet_poly(rng, 2)), RatFunc(b), Poly.gcd)


def test_gcd_cofactors_match_fraction_kernel_on_a3_discriminant():
    D, a, b = A3_D, A3_A, A3_B
    for x, y in [(D * a, D * b), (D * D, D * a), (a * b, b)]:
        assert_cofactors_match_fractions(x, y)


@settings(max_examples=200)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(st.tuples(*[st.integers(min_value=0, max_value=MAX_DEGREE // n)] * n), min_size=1)
    )
)
def test_packed_key_order_is_grlex(exps):
    n = len(exps[0])
    keys = {e: next(iter(Poly.from_terms(n, {e: 1}).coeffs)) for e in exps}
    assert sorted(exps, key=keys.__getitem__) == sorted(exps, key=grlex)
    assert len(set(keys.values())) == len(keys)


@given(polys())
def test_terms_round_trip(a):
    assert Poly.from_terms(a.nvars, a.terms) == a


def test_terms_round_trip_at_max_degree():
    terms = {(MAX_DEGREE, 0, 0): Fraction(1, 3), (0, MAX_DEGREE, 0): Fraction(-2), (1, 2, 3): Fraction(5)}
    p = Poly.from_terms(3, terms)
    assert p.terms == terms
    assert Poly.from_terms(3, p.terms) == p
    assert [p.degree_in(i) for i in range(3)] == [MAX_DEGREE, MAX_DEGREE, 3]
    assert p.derivative(0).terms == {(MAX_DEGREE - 1, 0, 0): Fraction(MAX_DEGREE, 3), (0, 2, 3): Fraction(5)}
    assert p.extend(5, 1).terms == {(0, *e, 0): c for e, c in terms.items()}
    assert repr(Poly.var(2, 1) ** 2) == "Poly(2, {(0, 2): 1}, 1)"


def test_variable_index_out_of_range_raises_shape_error():
    p = Poly.var(2, 1) ** 2
    f = RatFunc(p, Poly.var(2, 0) + Poly.const(2, 1))
    for i in (-1, 2):
        with pytest.raises(ShapeError):
            p.derivative(i)
        with pytest.raises(ShapeError):
            p.degree_in(i)
        with pytest.raises(ShapeError):
            RatFunc(p).derivative(i)
        with pytest.raises(ShapeError):
            f.derivative(i)
        with pytest.raises(ShapeError):
            Poly.zero(2).derivative(i)


def test_degree_over_max_raises_degree_overflow():
    u1, u2 = Poly.var(2, 0), Poly.var(2, 1)
    assert (u1**MAX_DEGREE).degree_in(0) == MAX_DEGREE
    assert (u1 ** (MAX_DEGREE - 1) * u2).leading() == ((MAX_DEGREE - 1, 1), 1)
    with pytest.raises(DegreeOverflow):
        u1 ** (MAX_DEGREE + 1)
    with pytest.raises(DegreeOverflow):
        u1**40000 * u2**40000
    with pytest.raises(DegreeOverflow):
        # rejected before any product is formed
        (u1 * u2 + u1) ** 40000
    with pytest.raises(DegreeOverflow):
        Poly.from_terms(2, {(40000, 40000): 1})
    with pytest.raises(ShapeError):
        Poly.from_terms(2, {(1, 0, 0): 1})


def loop_derive_along(f, field):
    """The loop ``RatFunc.derive_along`` replaced, one ``+`` and one ``*`` per entry: kept as the oracle."""
    out = RatFunc.zero(f.nvars)
    for m, c in field:
        out = out + c * f.derivative(m)
    return out


def derive_outcome(derive, f, field):
    try:
        h = derive(f, field)
    except DegreeOverflow as e:
        return DegreeOverflow, str(e)
    return h.num.terms, h.den.terms, h


def assert_derive_along_matches_loop(f, field):
    got = derive_outcome(RatFunc.derive_along, f, field)
    assert got == derive_outcome(loop_derive_along, f, field)
    return got


def seeded_poly(rng, n, max_terms):
    """A polynomial in ``n`` variables of at most ``max_terms`` jet-sized terms, with non-unit denominators."""
    terms = {
        tuple(rng.randint(0, 2) for _ in range(n)): Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.choice([1, 1, 2, 3, 6]))
        for _ in range(rng.randint(1, max_terms))
    }
    return Poly.from_terms(n, terms)


@pytest.mark.parametrize("seed", range(60))
def test_derive_along_matches_loop(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    rational = seed % 4 == 3
    f = RatFunc(seeded_poly(rng, n, 16), seeded_poly(rng, n, 2) if seed % 5 == 4 else None)
    entries = []
    for m in sorted(rng.sample(range(n), rng.randint(1, n))):
        kind = rng.choice(["zero", "one", "poly", "poly", "poly"] + ["rational"] * rational)
        if kind == "zero":
            c = RatFunc.zero(n)
        elif kind == "one":
            c = RatFunc.one(n)
        else:
            c = RatFunc(seeded_poly(rng, n, 8), seeded_poly(rng, n, 2) if kind == "rational" else None)
        entries.append((m, c))
    assert_derive_along_matches_loop(f, entries)
    field = VectorField._from_dict(dict(entries), n, n)
    assert field.apply(f) == loop_derive_along(f, entries)
    for m, c in entries:
        assert_derive_along_matches_loop(f, [(m, c)])


def test_derive_along_sums_over_unequal_denominators_and_drops_cancelled_terms():
    names = ["u1", "u2"]
    f = parse_expr("u1*u2 + 1/2*u1^2 + u2", names)
    # (u1/2) d/du1 + (1/3 - u2/2) d/du2: the denominators differ and the terms in u1*u2 cancel
    field = [(0, parse_expr("1/2*u1", names)), (1, parse_expr("1/3 - 1/2*u2", names))]
    *_, h = assert_derive_along_matches_loop(f, field)
    assert h == parse_expr("1/2*u1^2 + 1/3*u1 - 1/2*u2 + 1/3", names)
    u1, u2 = RatFunc.var(2, 0), RatFunc.var(2, 1)
    assert_derive_along_matches_loop(u1 * u2, [(0, u1), (1, -u2)])
    assert (u1 * u2).derive_along([(0, u1), (1, -u2)]).is_zero()


def test_derive_along_degree_overflow_follows_each_derivative():
    u1, u2 = RatFunc.var(2, 0), RatFunc.var(2, 1)
    top = u1 ** (MAX_DEGREE - 1)
    # u1^65534 * d(u1^2)/du1 has total degree 65535
    *_, h = assert_derive_along_matches_loop(u1 * u1, [(0, top), (1, u1)])
    assert h == (top * u1).scale(2)
    got = assert_derive_along_matches_loop(u1 * u1, [(0, top * u1), (1, u1)])
    assert got == (DegreeOverflow, f"product of total degree over {MAX_DEGREE}")
    # d/du1 of u2^65535 + u1 is 1, so u1^65000 multiplies a constant, not a degree-65534 polynomial
    f = u2**MAX_DEGREE + u1
    *_, h = assert_derive_along_matches_loop(f, [(0, u1**65000), (1, u2)])
    assert h == u1**65000 + u2**MAX_DEGREE * RatFunc.const(2, MAX_DEGREE)


def parent_derive_along(f, field):
    """``derive_along`` before it called ``sum_products``: its own one-dict loop over polynomials."""
    n = f.nvars
    if len(field) > 1 and f.den.is_constant() and all(c.den.is_constant() for _, c in field):
        cs = [(m, c.num) for m, c in field if c.num.coeffs]
        if len(cs) > 1:
            lcm, top, acc = math.lcm(*(c.denom for _, c in cs)), ring._W * n, {}
            for m, c in cs:
                s, step = ring._shift(n, m), ring._var_key(n, m)
                d = [(k - step, a * e) for k, a in f.num.coeffs.items() if (e := k >> s & MAX_DEGREE)]
                if d and (max(d)[0] >> top) + (max(c.coeffs) >> top) > MAX_DEGREE:
                    raise DegreeOverflow(f"product of total degree over {MAX_DEGREE}")
                for k2, b in c.coeffs.items():
                    b *= lcm // c.denom
                    for k1, a in d:
                        acc[k1 + k2] = acc.get(k1 + k2, 0) + a * b
            acc = {k: v for k, v in acc.items() if v}
            return RatFunc(Poly(n, *ring._cancel(acc, lcm * f.num.denom)), _normal=True)
    return loop_derive_along(f, field)


def raw(h: RatFunc) -> tuple:
    """The representation itself: numerator keys, ints and denominator, and the denominator's."""
    return h.num.coeffs, h.num.denom, h.den.coeffs, h.den.denom


@pytest.mark.parametrize("seed", range(40))
def test_derive_along_matches_the_parent_kernel_term_for_term(seed):
    rng = random.Random(1000 + seed)
    n = rng.randint(1, 9)
    f = RatFunc(seeded_poly(rng, n, 16), seeded_poly(rng, n, 2) if seed % 8 == 7 else None)
    field = [(m, RatFunc(seeded_poly(rng, n, 8), seeded_poly(rng, n, 2) if seed % 5 == 4 else None))
             for m in sorted(rng.sample(range(n), rng.randint(1, n)))]
    assert raw(f.derive_along(field)) == raw(parent_derive_along(f, field))


def ratfunc_sum_of_products(n, plus, minus):
    out = RatFunc.zero(n)
    for p, q in plus:
        out = out + p * q
    for p, q in minus:
        out = out - p * q
    return out


@pytest.mark.parametrize("seed", range(40))
def test_sum_products_matches_ratfunc_sums(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)

    def operand():
        kind = rng.choice(["zero", "one", "poly", "poly", "poly"] + ["rational"] * (seed % 4 == 3))
        if kind in ("zero", "one"):
            return RatFunc.zero(n) if kind == "zero" else RatFunc.one(n)
        return RatFunc(seeded_poly(rng, n, 6), seeded_poly(rng, n, 2) if kind == "rational" else None)

    plus = [(operand(), operand()) for _ in range(rng.randint(0, 5))]
    minus = [(operand(), operand()) for _ in range(rng.randint(0, 5))]
    assert raw(RatFunc.sum_products(n, plus, minus)) == raw(ratfunc_sum_of_products(n, plus, minus))
    assert raw(RatFunc.sum_products(n, plus + minus, minus + plus)) == raw(RatFunc.zero(n))


def test_sum_products_over_unequal_denominators_cancels_and_checks_the_degree():
    names = ["u1", "u2"]
    p = lambda text: parse_expr(text, names)  # noqa: E731
    # (u1/2)(u2/3) - (u1/6)(u2) cancels across three denominators
    assert RatFunc.sum_products(2, [(p("1/2*u1"), p("1/3*u2"))], [(p("1/6*u1"), p("u2"))]).is_zero()
    got = RatFunc.sum_products(2, [(p("1/2*u1"), p("u1")), (p("1/3*u2"), p("u2 + 1/5"))])
    assert raw(got) == raw(p("1/2*u1^2 + 1/3*u2^2 + 1/15*u2")) and got.num.denom == 30
    # a sum of products of polynomials is exact: the common denominator 2*3 is cancelled to 1 here
    assert raw(RatFunc.sum_products(2, [(p("3/2*u1"), p("2/3*u2")), (p("1/2"), p("u1*u2"))])) == raw(p("3/2*u1*u2"))
    u1, u2 = RatFunc.var(2, 0), RatFunc.var(2, 1)
    top = u1 ** (MAX_DEGREE - 1)
    assert RatFunc.sum_products(2, [(top, u2), (u1, u2)]) == top * u2 + u1 * u2
    with pytest.raises(DegreeOverflow, match=f"product of total degree over {MAX_DEGREE}"):
        RatFunc.sum_products(2, [(u1, u2)], [(top, u2 * u2)])
    with pytest.raises(DegreeOverflow):
        RatFunc.sum_products(2, [(top, u2 * u2)])
    # a rational operand takes the RatFunc sums
    assert RatFunc.sum_products(2, [(u1 / (u2 + RatFunc.one(2)), u2 + RatFunc.one(2)), (u1, u2)]) == u1 + u1 * u2


def refuse_general_gcd(*args):
    raise AssertionError("a monomial operand took the general gcd path")


def seeded_monomial_pairs():
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        exp = tuple(rng.randint(0, 3) for _ in range(n))
        mono = Poly.from_terms(n, {exp: Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))})
        other = seeded_poly(rng, n, 6) * Poly.from_terms(n, {tuple(rng.randint(0, 2) for _ in range(n)): 1})
        yield mono, other
        yield other, mono


def test_monomial_gcd_reads_the_keys(monkeypatch):
    pairs = list(seeded_monomial_pairs())
    pairs.append((Poly.var(2, 0) ** MAX_DEGREE, Poly.var(2, 0) ** MAX_DEGREE))
    pairs.append((Poly.var(2, 0) ** MAX_DEGREE, Poly.var(2, 0) ** 3 * Poly.var(2, 1) + Poly.var(2, 0) ** 5))
    # the primitive PRS gcd and exact division give the general path's normal form
    expected = []
    for a, b in pairs:
        g = prs_gcd(a, b)
        expected.append((g, a.exact_div(g), b.exact_div(g)))
    monkeypatch.setattr(ring, "_heu_gcd", refuse_general_gcd)
    monkeypatch.setattr(ring, "_gcd_degree_bounds", refuse_general_gcd)
    for (a, b), want in zip(pairs, expected):
        got = Poly.gcd_cofactors(a, b)
        assert [p.terms for p in got] == [p.terms for p in want]
        assert got == want


def loop_div_exact(f, h, n):
    """The division loop that takes ``max`` of the remainder for every quotient term: the oracle of ``_div_exact``."""
    low = sum(1 << ring._W * j for j in range(1, n + 1))
    lead = max(h)
    lc = h[lead]
    tail = [(k, c) for k, c in h.items() if k != lead]
    rem = dict(f)
    quot = {}
    while rem:
        e = max(rem)
        q, r = divmod(rem.pop(e), lc)
        qe = e - lead
        if r or qe < 0 or (e ^ lead ^ qe) & low:
            return None
        quot[qe] = q
        for hk, hc in tail:
            t = qe + hk
            c = rem.get(t, 0) - q * hc
            if c:
                rem[t] = c
            else:
                rem.pop(t, None)
    return quot


def seeded_division(rng):
    """An integer dividend and divisor on packed keys, one in two of them not dividing."""
    n = rng.randint(1, 4)
    top = MAX_DEGREE // (2 * n) if rng.random() < 0.2 else 4

    def poly(terms):
        exps = [tuple(rng.randint(0, top) for _ in range(n)) for _ in range(terms)]
        return Poly.from_terms(n, {e: rng.choice([-1, 1]) * rng.randint(1, 9) for e in exps})

    h = poly(1 if rng.random() < 0.7 else rng.randint(2, 3))
    f = dict((poly(rng.randint(1, 12)) * h).coeffs)
    kind = rng.choice(["exact", "coefficient", "term", "constant"])
    if kind == "coefficient":
        k = rng.choice(list(f))
        f[k] = 2 * f[k] + 1
    elif kind == "term":
        f.update(poly(1).coeffs)
    elif kind == "constant":
        f[0] = f.get(0, 0) + 1 or 1
    return f, h.coeffs, n


def test_div_exact_matches_the_loop():
    for seed in range(400):
        f, h, n = seeded_division(random.Random(seed))
        got, want = ring._div_exact(f, h, n), loop_div_exact(f, h, n)
        assert got == want, seed
        assert got is None or list(got.items()) == list(want.items()), seed


def test_div_exact_by_a_monomial_on_4000_terms():
    x1 = Poly.var(2, 0)
    p = Poly.from_terms(2, {(i, j): i - j or 1 for i in range(80) for j in range(50)})
    assert (p * x1).exact_div(x1) == p
    assert ring._div_exact({**(p * x1).coeffs, 0: 1}, x1.coeffs, 2) is None
