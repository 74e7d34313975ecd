"""Exact multivariate polynomial and rational function arithmetic.

This module holds the coefficient ring only; a vector field is a section
of the tangent frame, ``algebroid.VectorField``. Polynomials are sparse
dictionaries mapping exponent tuples to integer numerators over one
positive common denominator, so the ring kernels run on Python ints.
Rational functions keep a normalized numerator/denominator pair: the gcd
is cancelled and the denominator is made monic under the graded
lexicographic order, so equal functions have identical representations
and equality never relies on sampling.

Gcds come from ``Poly.gcd_cofactors``: the heuristic GCDHEU on integer
coefficients, whose candidate is kept only when it divides both inputs
exactly and reaches degree bounds taken from images modulo a prime, with
the primitive PRS gcd as the fallback when it gives up. The cofactors it
returns are the reduced parts, so nothing is divided twice.
Sums and products of rational functions follow Henrici: a sum cancels
``gcd(b, d)`` of the denominators before cross-multiplying and then only
what that gcd can still share with the numerator, and a product cancels
across ``gcd(a, d)`` and ``gcd(c, b)`` first, so its result is reduced.
Operands with constant denominators skip all of this.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd as int_gcd, isqrt, lcm as int_lcm
from operator import add

from .errors import DivisionByZero, NotDivisible, ShapeError


def _grlex_key(exp: tuple[int, ...]) -> tuple:
    return (sum(exp), exp)


# Retries of the heuristic gcd before falling back to the PRS gcd.
HEU_GCD_MAX = 6


def _cancel(coeffs: dict, denom: int) -> tuple[dict, int]:
    """Divide integer ``coeffs`` and ``denom`` by their common factor (zero gets 1)."""
    if denom == 1:
        return coeffs, 1
    g = int_gcd(denom, *coeffs.values())
    if g == 1:
        return coeffs, denom
    return {e: c // g for e, c in coeffs.items()}, denom // g


def _evaluate(f: dict, v: int, x: int) -> dict:
    """Substitute the integer ``x`` for variable ``v``."""
    powers = [1]
    out: dict = {}
    for e, c in f.items():
        k = e[v]
        while len(powers) <= k:
            powers.append(powers[-1] * x)
        key = e[:v] + (0,) + e[v + 1 :]
        out[key] = out.get(key, 0) + c * powers[k]
    return {e: c for e, c in out.items() if c}


def _interpolate(h: dict, x: int, v: int) -> dict:
    """Read the coefficients of ``h`` as symmetric base-``x`` digits in variable ``v``."""
    out: dict = {}
    half = x // 2
    i = 0
    while h:
        rest = {}
        for e, c in h.items():
            d = c % x
            if d > half:
                d -= x
            if d:
                out[e[:v] + (i,) + e[v + 1 :]] = d
            q = (c - d) // x
            if q:
                rest[e] = q
        h = rest
        i += 1
    return out


def _div_exact(f: dict, h: dict) -> dict | None:
    """Quotient ``f / h`` over the integers, or None if ``h`` does not divide ``f``."""
    lead = max(h)
    lc = h[lead]
    tail = [(e, c) for e, c in h.items() if e != lead]
    rem = dict(f)
    quot = {}
    while rem:
        e = max(rem)
        q, r = divmod(rem.pop(e), lc)
        if r:
            return None
        qe = tuple(a - b for a, b in zip(e, lead))
        if min(qe) < 0:
            return None
        quot[qe] = q
        for he, hc in tail:
            t = tuple(a + b for a, b in zip(qe, he))
            c = rem.get(t, 0) - q * hc
            if c:
                rem[t] = c
            else:
                rem.pop(t, None)
    return quot


# Images of a gcd are taken modulo this prime, at points that are powers of
# its primitive root 7 (so fixed, and spread over the field).
_PRIME = 2**31 - 1
_IMAGE_POINTS = 2


def _image_mod_p(f: dict, v: int, k: int) -> list[int]:
    """Coefficients in variable ``v`` of ``f`` at the ``k``-th point, modulo the prime."""
    n = len(next(iter(f)))
    point = [pow(7, 1 + j + 97 * k, _PRIME) for j in range(n)]
    coeffs = [0] * (max(e[v] for e in f) + 1)
    for e, c in f.items():
        for j, d in enumerate(e):
            if d and j != v:
                c = c * pow(point[j], d, _PRIME)
        coeffs[e[v]] = (coeffs[e[v]] + c) % _PRIME
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _gcd_degree_mod_p(a: list[int], b: list[int]) -> int:
    """Degree of the gcd of two univariate polynomials over the integers modulo the prime."""
    while b:
        inv = pow(b[-1], -1, _PRIME)
        while len(a) >= len(b):
            q = a[-1] * inv % _PRIME
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - q * c) % _PRIME
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) - 1


def _gcd_degree_bounds(f: dict, g: dict) -> list[int]:
    """Upper bounds on the degree of ``gcd(f, g)`` in each variable.

    ``gcd(f, g)`` maps into the gcd of the images of ``f`` and ``g`` at a
    point modulo a prime, keeping its degree whenever a leading coefficient
    of ``f`` or ``g`` survives there, so that image's degree bounds it.
    """
    n = len(next(iter(f)))
    bounds = []
    for v in range(n):
        df = max(e[v] for e in f)
        dg = max(e[v] for e in g)
        bound = min(df, dg)
        for k in range(_IMAGE_POINTS):
            if not bound:
                break
            fi = _image_mod_p(f, v, k)
            gi = _image_mod_p(g, v, k)
            if len(fi) - 1 == df or len(gi) - 1 == dg:
                bound = min(bound, _gcd_degree_mod_p(fi, gi))
        bounds.append(bound)
    return bounds


def _heu_gcd(f: dict, g: dict, bounds: list[int] | None = None) -> tuple[dict, dict, dict] | None:
    """GCDHEU on nonzero integer polynomials: ``(h, f/h, g/h)``, or None on failure.

    A candidate ``h`` must divide both inputs exactly. When ``bounds`` are
    given (upper bounds on the gcd's degree in each variable), it must also
    reach them: a common divisor that does is the gcd. Exponent tuples are
    lex-ordered, so ``max`` gives the lex-leading term, and the first
    variable that occurs is evaluated first.
    """
    n = len(next(iter(f)))
    active = [v for v in range(n) if any(e[v] for e in f) or any(e[v] for e in g)]
    if not active:
        zero = (0,) * n
        a, b = f[zero], g[zero]
        h = int_gcd(a, b)
        return {zero: h}, {zero: a // h}, {zero: b // h}
    v = active[0]
    content = int_gcd(*f.values(), *g.values())
    if content != 1:
        f = {e: c // content for e, c in f.items()}
        g = {e: c // content for e, c in g.items()}
    f_norm = max(abs(c) for c in f.values())
    g_norm = max(abs(c) for c in g.values())
    # the usual GCDHEU start: about twice the smaller norm, capped near 99*sqrt of it
    b = 2 * min(f_norm, g_norm) + 29
    x = max(min(b, 99 * isqrt(b)), 2 * min(f_norm // abs(f[max(f)]), g_norm // abs(g[max(g)])) + 4)

    def reaches_bounds(h):
        return bounds is None or all(max(e[i] for e in h) == d for i, d in enumerate(bounds))

    for _ in range(HEU_GCD_MAX):
        ff = _evaluate(f, v, x)
        gg = _evaluate(g, v, x)
        if ff and gg:
            found = _heu_gcd(ff, gg)
            if found is None:
                return None
            hh, cff, cfg = found
            h = _interpolate(hh, x, v)
            hc = int_gcd(*h.values())
            if hc != 1:
                h = {e: c // hc for e, c in h.items()}
            if reaches_bounds(h):
                cf = _div_exact(f, h)
                if cf is not None:
                    cg = _div_exact(g, h)
                    if cg is not None:
                        return _scaled(h, content), cf, cg
            cf = _interpolate(cff, x, v)
            h = _div_exact(f, cf)
            if h is not None and reaches_bounds(h):
                cg = _div_exact(g, h)
                if cg is not None:
                    return _scaled(h, content), cf, cg
            cg = _interpolate(cfg, x, v)
            h = _div_exact(g, cg)
            if h is not None and reaches_bounds(h):
                cf = _div_exact(f, h)
                if cf is not None:
                    return _scaled(h, content), cf, cg
        x = 73794 * x * isqrt(isqrt(x)) // 27011
    return None


def _scaled(h: dict, c: int) -> dict:
    return h if c == 1 else {e: v * c for e, v in h.items()}


class Poly:
    """Sparse polynomial in ``nvars`` variables over the rationals.

    Its value is ``sum(coeffs[e] * x**e) / denom``: ``coeffs`` maps exponent
    tuples to nonzero ints and ``denom`` is a positive int coprime to their
    content (1 for zero), so the representation is unique. ``terms`` gives
    the ``{exponent: Fraction}`` view.
    """

    __slots__ = ("nvars", "coeffs", "denom")

    def __init__(self, nvars: int, coeffs: dict[tuple[int, ...], int], denom: int = 1):
        self.nvars = nvars
        self.coeffs = coeffs
        self.denom = denom

    # -- constructors ------------------------------------------------

    @staticmethod
    def from_ints(nvars: int, coeffs: dict[tuple[int, ...], int], denom: int = 1) -> "Poly":
        """``sum(coeffs[e] * x**e) / denom`` for nonzero ints and ``denom > 0``, in normal form."""
        return Poly(nvars, *_cancel(coeffs, denom))

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly(nvars, {})

    @staticmethod
    def const(nvars: int, c) -> "Poly":
        if type(c) is not int:
            c = Fraction(c)
            if c.denominator != 1:
                return Poly(nvars, {(0,) * nvars: c.numerator}, c.denominator)
            c = c.numerator
        return Poly(nvars, {(0,) * nvars: c} if c else {})

    @staticmethod
    def var(nvars: int, i: int) -> "Poly":
        if not 0 <= i < nvars:
            raise ShapeError(f"variable index {i} out of range for {nvars} variables")
        exp = tuple(1 if j == i else 0 for j in range(nvars))
        return Poly(nvars, {exp: 1})

    @staticmethod
    def from_terms(nvars: int, terms: dict) -> "Poly":
        clean = {}
        for exp, c in terms.items():
            c = Fraction(c)
            if c != 0:
                clean[tuple(exp)] = c
        # over the lcm of the reduced denominators the numerators are already coprime to it
        denom = int_lcm(*(c.denominator for c in clean.values()))
        return Poly(nvars, {e: c.numerator * (denom // c.denominator) for e, c in clean.items()}, denom)

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        """The coefficients as ``{exponent: Fraction}``, built on each access."""
        return {e: Fraction(c, self.denom) for e, c in self.coeffs.items()}

    # -- predicates --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return not any(any(exp) for exp in self.coeffs)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ShapeError("polynomial is not constant")
        return Fraction(next(iter(self.coeffs.values())), self.denom)

    def degree_in(self, i: int) -> int:
        return max((exp[i] for exp in self.coeffs), default=-1)

    def leading(self) -> tuple[tuple[int, ...], Fraction]:
        """Leading term under graded lexicographic order."""
        exp = max(self.coeffs, key=_grlex_key)
        return exp, Fraction(self.coeffs[exp], self.denom)

    # -- arithmetic --------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b, denom = self.coeffs, other.coeffs, self.denom
        if denom != other.denom:
            g = int_gcd(denom, other.denom)
            ma, mb = other.denom // g, denom // g
            a = {e: c * ma for e, c in a.items()}
            b = {e: c * mb for e, c in b.items()} if mb != 1 else b
            denom *= ma
        else:
            a = dict(a)
        for exp, c in b.items():
            s = a.get(exp, 0) + c
            if s:
                a[exp] = s
            else:
                del a[exp]
        return Poly(self.nvars, *_cancel(a, denom))

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {exp: -c for exp, c in self.coeffs.items()}, self.denom)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        # Henrici: with both operands reduced, cancelling gcd(self.denom,
        # content(other)) and gcd(other.denom, content(self)) reduces the product
        a, db = _cancel(self.coeffs, other.denom)
        b, da = _cancel(other.coeffs, self.denom)
        terms: dict[tuple[int, ...], int] = {}
        get = terms.get
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                exp = tuple(map(add, e1, e2))
                terms[exp] = get(exp, 0) + c1 * c2
        return Poly(self.nvars, {e: c for e, c in terms.items() if c}, da * db)

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        if c == 0:
            return Poly.zero(self.nvars)
        coeffs, q = _cancel(self.coeffs, c.denominator)
        g = int_gcd(self.denom, c.numerator)
        p = c.numerator // g
        return Poly(self.nvars, {exp: k * p for exp, k in coeffs.items()}, self.denom // g * q)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ShapeError("negative polynomial power")
        result = Poly.const(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return False
        return self.coeffs == other.coeffs and self.denom == other.denom and self.nvars == other.nvars

    def __hash__(self):
        return hash((self.nvars, self.denom, frozenset(self.coeffs.items())))

    def derivative(self, i: int) -> "Poly":
        terms: dict[tuple[int, ...], int] = {}
        for exp, c in self.coeffs.items():
            if exp[i]:
                terms[exp[:i] + (exp[i] - 1,) + exp[i + 1 :]] = c * exp[i]
        return Poly(self.nvars, *_cancel(terms, self.denom))

    def extend(self, nvars: int, offset: int = 0) -> "Poly":
        """Reinterpret in a larger variable list, original vars shifted by offset."""
        if offset + self.nvars > nvars:
            raise ShapeError("extension does not fit")
        pad_left = (0,) * offset
        pad_right = (0,) * (nvars - offset - self.nvars)
        return Poly(nvars, {pad_left + exp + pad_right: c for exp, c in self.coeffs.items()}, self.denom)

    # -- division and gcd --------------------------------------------

    def exact_div(self, other: "Poly") -> "Poly":
        """Divide exactly by ``other``, raising NotDivisible on remainder."""
        if other.is_zero():
            raise DivisionByZero("exact division by zero polynomial")
        if other.is_constant():
            return self.scale(1 / other.constant_value())
        # a primitive divisor over Q divides over Z too (Gauss's lemma)
        content = int_gcd(*other.coeffs.values())
        quot = _div_exact(self.coeffs, {e: c // content for e, c in other.coeffs.items()})
        if quot is None:
            raise NotDivisible("leading term not divisible")
        return Poly.from_ints(self.nvars, {e: c * other.denom for e, c in quot.items()}, self.denom * content)

    def _to_integer_primitive(self) -> "Poly":
        """Integer coefficients with content 1 and positive leading coefficient."""
        if self.is_zero():
            return self
        content = int_gcd(*self.coeffs.values())
        if self.coeffs[max(self.coeffs, key=_grlex_key)] < 0:
            content = -content
        return Poly(self.nvars, {exp: c // content for exp, c in self.coeffs.items()})

    def _main_var(self) -> int:
        return max((i for exp in self.coeffs for i, d in enumerate(exp) if d), default=-1)

    def _univariate_view(self, v: int) -> dict[int, "Poly"]:
        """Coefficients of powers of variable ``v``, as polynomials in the rest."""
        coeffs: dict[int, dict] = {}
        for exp, c in self.coeffs.items():
            coeffs.setdefault(exp[v], {})[exp[:v] + (0,) + exp[v + 1 :]] = c
        return {d: Poly.from_ints(self.nvars, t, self.denom) for d, t in coeffs.items()}

    @staticmethod
    def gcd(a: "Poly", b: "Poly") -> "Poly":
        """Greatest common divisor, primitive with positive leading coefficient.

        Integer coefficients with content 1, and a positive grlex leading
        coefficient; ``gcd(0, 0)`` is zero. It is the first entry of
        ``gcd_cofactors``: a heuristic GCDHEU candidate, kept only when it
        divides both inputs exactly and reaches degree bounds taken modulo
        a prime, or else the primitive PRS gcd.
        """
        return Poly.gcd_cofactors(a, b)[0]

    @staticmethod
    def gcd_cofactors(a: "Poly", b: "Poly") -> tuple["Poly", "Poly", "Poly"]:
        """Return ``(g, a/g, b/g)`` with ``g = Poly.gcd(a, b)``.

        Works on the primitive parts of the integer numerators. First, the
        images of both inputs at fixed points modulo a prime bound the gcd's
        degree in each variable from above; if every bound is 0 the inputs
        are coprime. Otherwise the heuristic GCDHEU (Char, Geddes and Gonnet,
        J. Symb. Comput. 1989) evaluates at large integers down to an
        integer gcd and rebuilds a candidate from its symmetric base-xi
        digits. A candidate is kept only if it divides both inputs exactly
        and reaches every degree bound, which proves it is the gcd. After
        ``HEU_GCD_MAX`` evaluation points without one, the primitive PRS gcd
        is used instead.
        """
        n = a.nvars
        if not a.coeffs or not b.coeffs:
            if not a.coeffs and not b.coeffs:
                return a, a, b
            other = b if not a.coeffs else a
            g = other._to_integer_primitive()
            scale = Poly.const(n, other.leading()[1] / g.leading()[1])
            return (g, Poly.zero(n), scale) if not a.coeffs else (g, scale, Poly.zero(n))
        if a.is_constant() or b.is_constant():
            return Poly.const(n, 1), a, b
        sa = int_gcd(*a.coeffs.values())
        sb = int_gcd(*b.coeffs.values())
        fa = {e: c // sa for e, c in a.coeffs.items()}
        fb = {e: c // sb for e, c in b.coeffs.items()}
        bounds = _gcd_degree_bounds(fa, fb)
        if not any(bounds):
            return Poly.const(n, 1), a, b
        found = _heu_gcd(fa, fb, bounds)
        if found is None:
            g = Poly._gcd_prim(a._to_integer_primitive(), b._to_integer_primitive())
            return g, a.exact_div(g), b.exact_div(g)
        g, ca, cb = found
        lead = max(g, key=_grlex_key)
        if g[lead] < 0:
            g = {e: -c for e, c in g.items()}
            sa, sb = -sa, -sb
        if len(g) == 1 and lead == (0,) * n:
            return Poly.const(n, 1), a, b
        # the cofactors are primitive, so their numerators stay coprime to the denominators
        return (
            Poly(n, g),
            Poly(n, {e: c * sa for e, c in ca.items()}, a.denom),
            Poly(n, {e: c * sb for e, c in cb.items()}, b.denom),
        )

    @staticmethod
    def _gcd_prim(a: "Poly", b: "Poly") -> "Poly":
        """Primitive PRS gcd of integer-primitive polynomials.

        The fallback of ``gcd_cofactors``, and the reference the heuristic
        is tested against; it never calls the heuristic.
        """
        v = max(a._main_var(), b._main_var())
        if v < 0:
            return Poly.const(a.nvars, 1)
        ca, pa = a._content_pp(v)
        cb, pb = b._content_pp(v)
        cont = Poly._gcd_prim(ca, cb)
        if pa.degree_in(v) < pb.degree_in(v):
            pa, pb = pb, pa
        while True:
            if pb.degree_in(v) == 0:
                pp = Poly.const(a.nvars, 1)
                break
            r = Poly._prem(pa, pb, v)
            if r.is_zero():
                pp = pb
                break
            pa, pb = pb, r._content_pp(v)[1]
        return (cont * pp)._to_integer_primitive()

    def _content_pp(self, v: int) -> tuple["Poly", "Poly"]:
        content = Poly.zero(self.nvars)
        for p in self._univariate_view(v).values():
            if content.is_zero():
                content = p._to_integer_primitive()
            else:
                content = Poly._gcd_prim(content, p._to_integer_primitive())
            if content.is_constant():
                break
        if content.is_constant():
            return Poly.const(self.nvars, 1), self._to_integer_primitive()
        return content, self.exact_div(content)

    @staticmethod
    def _prem(a: "Poly", b: "Poly", v: int) -> "Poly":
        """Pseudo-remainder of a by b with respect to variable v."""
        db = b.degree_in(v)
        bc = b._univariate_view(v)[db]
        r = a
        while not r.is_zero() and r.degree_in(v) >= db:
            dr = r.degree_in(v)
            rc = r._univariate_view(v)[dr]
            shift = Poly(a.nvars, {tuple(dr - db if i == v else 0 for i in range(a.nvars)): 1})
            r = bc * r - rc * shift * b
        return r

    def format(self, names: list[str]) -> str:
        """Render as expression text that the parser accepts."""
        if self.is_zero():
            return "0"
        terms = self.terms
        parts = []
        for exp in sorted(terms, key=_grlex_key, reverse=True):
            c = terms[exp]
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

    def __repr__(self):
        return f"Poly({self.nvars}, {self.coeffs!r}, {self.denom})"


class RatFunc:
    """Quotient of two polynomials in normal form.

    The denominator is monic under graded lexicographic order and shares
    no factor with the numerator, so the representation is unique.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None, _normal: bool = False):
        if den is None:
            den = Poly.const(num.nvars, 1)
        if not _normal:
            num, den = RatFunc._normalize(num, den)
        self.num = num
        self.den = den

    @staticmethod
    def _normalize(num: Poly, den: Poly) -> tuple[Poly, Poly]:
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        if num.is_zero():
            return num, Poly.const(num.nvars, 1)
        if not den.is_constant():
            _, num, den = Poly.gcd_cofactors(num, den)
        return RatFunc._monic(num, den)

    @staticmethod
    def _monic(num: Poly, den: Poly) -> tuple[Poly, Poly]:
        lead = den.coeffs[max(den.coeffs, key=_grlex_key)]
        if lead != 1 or den.denom != 1:
            s = Fraction(den.denom, lead)
            num, den = num.scale(s), den.scale(s)
        return num, den

    # -- constructors ------------------------------------------------

    @staticmethod
    @cache
    def zero(nvars: int) -> "RatFunc":
        return RatFunc(Poly.zero(nvars), _normal=False)

    @staticmethod
    @cache
    def one(nvars: int) -> "RatFunc":
        return RatFunc(Poly.const(nvars, 1), _normal=False)

    @staticmethod
    def const(nvars: int, c) -> "RatFunc":
        return RatFunc(Poly.const(nvars, c), _normal=False)

    @staticmethod
    def var(nvars: int, i: int) -> "RatFunc":
        return RatFunc(Poly.var(nvars, i), _normal=False)

    @property
    def nvars(self) -> int:
        return self.num.nvars

    # -- predicates --------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        t = self.num.coeffs
        if len(t) != 1 or self.num.denom != 1:
            return False
        ((exp, c),) = t.items()
        return c == 1 and not any(exp) and self.den.is_constant()

    def is_polynomial(self) -> bool:
        return self.den.is_constant()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> Fraction:
        return self.num.constant_value() / self.den.constant_value()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- arithmetic --------------------------------------------------

    def __add__(self, other: "RatFunc") -> "RatFunc":
        if not self.num.coeffs:
            return other
        if not other.num.coeffs:
            return self
        if self.den.is_constant() and other.den.is_constant():
            return RatFunc(self.num + other.num, _normal=True)
        return self._henrici_sum(other.num, other.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        if not other.num.coeffs:
            return self
        if not self.num.coeffs:
            return -other
        if self.den.is_constant() and other.den.is_constant():
            return RatFunc(self.num - other.num, _normal=True)
        return self._henrici_sum(-other.num, other.den)

    def _henrici_sum(self, c: Poly, d: Poly) -> "RatFunc":
        """``a/b + c/d`` for reduced operands, cancelling only what can cancel.

        With ``g = gcd(b, d)``, ``b = g*b1`` and ``d = g*d1``, the sum is
        ``(a*d1 + c*b1) / (g*b1*d1)`` and its numerator is coprime to
        ``b1*d1``, so only ``gcd(numerator, g)`` is left to cancel.
        """
        a, b = self.num, self.den
        if b == d:
            return RatFunc(a + c, b)
        g, b1, d1 = Poly.gcd_cofactors(b, d)
        num = a * d1 + c * b1
        if not num.coeffs:
            return RatFunc.zero(num.nvars)
        _, num, g1 = Poly.gcd_cofactors(num, g)
        return RatFunc(*RatFunc._monic(num, g1 * b1 * d1), _normal=True)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den, _normal=True)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        if not self.num.coeffs or not other.num.coeffs:
            return RatFunc.zero(self.num.nvars)
        if self.is_one():
            return other
        if other.is_one():
            return self
        if self.den.is_constant() and other.den.is_constant():
            return RatFunc(self.num * other.num, _normal=True)
        return RatFunc._cross_cancel(self.num, self.den, other.num, other.den)

    @staticmethod
    def _cross_cancel(a: Poly, b: Poly, c: Poly, d: Poly) -> "RatFunc":
        """``(a/b) * (c/d)`` for reduced operands: cancel ``gcd(a, d)`` and ``gcd(c, b)`` first."""
        _, a, d = Poly.gcd_cofactors(a, d)
        _, c, b = Poly.gcd_cofactors(c, b)
        return RatFunc(*RatFunc._monic(a * c, b * d), _normal=True)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.is_zero():
            raise DivisionByZero("division by zero rational function")
        if other.is_constant():
            return self.scale(1 / other.constant_value())
        if not self.num.coeffs:
            return self
        return RatFunc._cross_cancel(self.num, self.den, other.den, other.num)

    def scale(self, c) -> "RatFunc":
        return RatFunc(self.num.scale(c), self.den, _normal=Fraction(c) != 0)

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            if self.is_zero():
                raise DivisionByZero("zero to a negative power")
            return RatFunc(*RatFunc._monic(self.den ** (-n), self.num ** (-n)), _normal=True)
        return RatFunc(self.num**n, self.den**n, _normal=True)

    def derivative(self, i: int) -> "RatFunc":
        if self.den.is_constant():
            return RatFunc(self.num.derivative(i), self.den, _normal=True)
        # with b = g*b1 and b' = g*c1 for g = gcd(b, b'), (a/b)' = t / (g*b1^2)
        # where t = a'*b1 - a*c1 shares no factor with b1, so only gcd(t, g) cancels
        g, b1, c1 = Poly.gcd_cofactors(self.den, self.den.derivative(i))
        t = self.num.derivative(i) * b1 - self.num * c1
        if not t.coeffs:
            return RatFunc.zero(t.nvars)
        _, t, g1 = Poly.gcd_cofactors(t, g)
        return RatFunc(*RatFunc._monic(t, g1 * b1 * b1), _normal=True)

    def extend(self, nvars: int, offset: int = 0) -> "RatFunc":
        return RatFunc(self.num.extend(nvars, offset), self.den.extend(nvars, offset), _normal=True)

    def format(self, names: list[str]) -> str:
        if self.den.is_constant():
            return self.num.format(names)
        num = self.num.format(names)
        return f"({num})/({self.den.format(names)})"

    def __repr__(self):
        return f"RatFunc({self.num!r}, {self.den!r})"

