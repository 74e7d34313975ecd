"""Exact multivariate polynomial and rational function arithmetic.

This module holds the coefficient ring only; a vector field is a section
of the tangent frame, ``algebroid.VectorField``. A polynomial maps packed
monomial keys to integer numerators over one positive common denominator,
so the ring kernels run on Python ints. The key of x_1^e_1 ... x_n^e_n is
one int of n + 1 fields of 16 bits: the total degree in the top field,
then e_1 down to e_n in the lowest (Johnson, EUROSAM 1974; Monagan and
Pearce, CASC 2007). Plain int order is then the graded lexicographic
order, and the key of a product of monomials is the sum of their keys.
No field is larger than the total degree, so none can carry while that
stays at most ``MAX_DEGREE``; a product or power that would pass it
raises ``DegreeOverflow``. Every kernel, gcd and exact division included,
works on the keys; only the exponent-tuple views decode or build them.

Rational functions keep a normalized numerator/denominator pair: the gcd
(``Poly.gcd_cofactors``) is cancelled and the denominator is made monic
under the graded lexicographic order, so equal functions have identical
representations and equality never relies on sampling. Sums and products
follow Henrici: a sum cancels ``gcd(b, d)`` of the denominators before
cross-multiplying and then only what that gcd can still share with the
numerator, and a product cancels across ``gcd(a, d)`` and ``gcd(c, b)``
first, so its result is reduced. Operands with constant denominators
skip all of this. A sum of products of polynomials (``sum_products``, and
so ``derive_along``) is multiplied out into one integer dict over the lcm
of the denominators and normalized once.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import cache, reduce
from math import gcd as int_gcd, isqrt, lcm as int_lcm
from operator import or_

from .errors import CoefficientOverflow, DegreeOverflow, DivisionByZero, NotDivisible, ShapeError

# Width of one exponent field of a monomial key, and the largest total degree.
_W = 16
MAX_DEGREE = 2**_W - 1

# Retries of the heuristic gcd before falling back to the PRS gcd.
HEU_GCD_MAX = 6


def _shift(nvars: int, i: int) -> int:
    """Bit offset of the exponent of variable ``i`` in a monomial key."""
    if not 0 <= i < nvars:
        raise ShapeError(f"variable index {i} out of range for {nvars} variables")
    return _W * (nvars - 1 - i)


def _var_key(nvars: int, i: int) -> int:
    """The key of the monomial x_i."""
    return 1 << _W * nvars | 1 << _shift(nvars, i)


def _key(exp: tuple[int, ...]) -> int:
    """The packed key of an exponent tuple."""
    key = sum(exp)
    if key > MAX_DEGREE:
        raise DegreeOverflow(f"total degree {key} exceeds {MAX_DEGREE}")
    for e in exp:
        key = key << _W | e
    return key


def _exps(key: int, nvars: int) -> tuple[int, ...]:
    """The exponent tuple of a packed key."""
    return tuple(key >> s & MAX_DEGREE for s in range(_W * (nvars - 1), -1, -_W))


def _variables(keys, nvars: int) -> list[int]:
    """Indices of the variables that occur in any of the monomial ``keys``, found in one OR pass."""
    seen = reduce(or_, keys, 0)
    return [i for i, s in enumerate(range(_W * (nvars - 1), -1, -_W)) if seen >> s & MAX_DEGREE]


def _degrees(keys, nvars: int, pick=max) -> list[int]:
    """The largest (or with ``pick=min`` the smallest) exponent of each variable over the monomial ``keys``."""
    return [pick(k >> _shift(nvars, i) & MAX_DEGREE for k in keys) for i in range(nvars)]


def _cancel(coeffs: dict, denom: int) -> tuple[dict, int]:
    """Divide integer ``coeffs`` and ``denom`` by their common factor (zero gets 1)."""
    if denom == 1:
        return coeffs, 1
    g = int_gcd(denom, *coeffs.values())
    if g == 1:
        return coeffs, denom
    return {e: c // g for e, c in coeffs.items()}, denom // g


def _evaluate(f: dict, n: int, v: int, x: int) -> dict:
    """Substitute the integer ``x`` for variable ``v``: each key drops its power of x_v."""
    s, step = _shift(n, v), _var_key(n, v)
    powers = [1]
    out: dict = {}
    for k, c in f.items():
        d = k >> s & MAX_DEGREE
        while len(powers) <= d:
            powers.append(powers[-1] * x)
        k -= d * step
        out[k] = out.get(k, 0) + c * powers[d]
    return {k: c for k, c in out.items() if c}


def _interpolate(h: dict, x: int, n: int, v: int) -> dict:
    """Read the coefficients of ``h`` as symmetric base-``x`` digits in variable ``v``."""
    step = _var_key(n, v)
    out: dict = {}
    half = x // 2
    power = 0
    while h:
        rest = {}
        for k, c in h.items():
            d = c % x
            if d > half:
                d -= x
            if d:
                # a power past MAX_DEGREE carries out of its field, but then the total
                # degree passes every input's, so _div_exact rejects the candidate
                out[k + power] = d
            q = (c - d) // x
            if q:
                rest[k] = q
        h = rest
        power += step
    return out


def _div_exact(f: dict, h: dict, n: int) -> dict | None:
    """Quotient ``f / h`` over the integers, or None if ``h`` does not divide ``f``."""
    low = sum(1 << _W * j for j in range(1, n + 1))
    lead = max(h)
    lc = h[lead]
    tail = [(k, c) for k, c in h.items() if k != lead]
    rem = dict(f)
    quot = {}
    # a monomial divisor adds no terms to rem, so one sort gives the order of the maxima: one pass
    desc = None if tail else iter(sorted(f, reverse=True))
    while rem:
        e = max(rem) if tail else next(desc)
        q, r = divmod(rem.pop(e), lc)
        # lead divides e when no field borrowed from the one above: a borrow flips
        # that field's lowest bit, one of the bits of low, in e ^ lead ^ qe
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


# Images of a gcd are taken modulo this prime, at points that are powers of
# its primitive root 7 (so fixed, and spread over the field).
_PRIME = 2**31 - 1
_IMAGE_POINTS = 2


def _image_mod_p(f: dict, n: int, v: int, k: int) -> list[int]:
    """Coefficients in variable ``v`` of ``f`` at the ``k``-th point, modulo the prime."""
    others = [(_shift(n, j), pow(7, 1 + j + 97 * k, _PRIME)) for j in range(n) if j != v]
    s = _shift(n, v)
    coeffs = [0] * (max(key >> s & MAX_DEGREE for key in f) + 1)
    for key, c in f.items():
        for t, x in others:
            if d := key >> t & MAX_DEGREE:
                c = c * pow(x, d, _PRIME)
        d = key >> s & MAX_DEGREE
        coeffs[d] = (coeffs[d] + c) % _PRIME
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


def _gcd_degree_bounds(f: dict, g: dict, n: int) -> list[int]:
    """Upper bounds on the degree of ``gcd(f, g)`` in each variable.

    ``gcd(f, g)`` maps into the gcd of the images of ``f`` and ``g`` at a
    point modulo a prime, keeping its degree whenever a leading coefficient
    of ``f`` or ``g`` survives there, so that image's degree bounds it.
    """
    bounds = []
    for v, (df, dg) in enumerate(zip(_degrees(f, n), _degrees(g, n))):
        bound = min(df, dg)
        for k in range(_IMAGE_POINTS):
            if not bound:
                break
            fi = _image_mod_p(f, n, v, k)
            gi = _image_mod_p(g, n, v, k)
            if len(fi) - 1 == df or len(gi) - 1 == dg:
                bound = min(bound, _gcd_degree_mod_p(fi, gi))
        bounds.append(bound)
    return bounds


def _heu_gcd(f: dict, g: dict, n: int, bounds: list[int] | None = None) -> tuple[dict, dict, dict] | None:
    """GCDHEU on nonzero integer polynomials in ``n`` variables: ``(h, f/h, g/h)``, or None on failure.

    A candidate ``h`` must divide both inputs exactly. When ``bounds`` are
    given (upper bounds on the gcd's degree in each variable), it must also
    reach them: a common divisor that does is the gcd. The first variable
    that occurs is evaluated first. Below the total-degree field key order
    is lexicographic, so ``lex`` finds the lex-leading coefficients.
    """
    active = _variables(f.keys() | g.keys(), n)
    if not active:
        a, b = f[0], g[0]
        h = int_gcd(a, b)
        return {0: h}, {0: a // h}, {0: b // h}
    v = active[0]
    content = int_gcd(*f.values(), *g.values())
    if content != 1:
        f = {e: c // content for e, c in f.items()}
        g = {e: c // content for e, c in g.items()}
    f_norm = max(abs(c) for c in f.values())
    g_norm = max(abs(c) for c in g.values())
    lex = ((1 << _W * n) - 1).__and__
    # the usual GCDHEU start: about twice the smaller norm, capped near 99*sqrt of it
    b = 2 * min(f_norm, g_norm) + 29
    x = max(min(b, 99 * isqrt(b)), 2 * min(f_norm // abs(f[max(f, key=lex)]), g_norm // abs(g[max(g, key=lex)])) + 4)

    def reaches_bounds(h):
        return bounds is None or _degrees(h, n) == bounds

    for _ in range(HEU_GCD_MAX):
        ff = _evaluate(f, n, v, x)
        gg = _evaluate(g, n, v, x)
        if ff and gg:
            found = _heu_gcd(ff, gg, n)
            if found is None:
                return None
            hh, cff, cfg = found
            h = _interpolate(hh, x, n, v)
            hc = int_gcd(*h.values())
            if hc != 1:
                h = {e: c // hc for e, c in h.items()}
            if reaches_bounds(h):
                cf = _div_exact(f, h, n)
                if cf is not None:
                    cg = _div_exact(g, h, n)
                    if cg is not None:
                        return _scaled(h, content), cf, cg
            cf = _interpolate(cff, x, n, v)
            h = _div_exact(f, cf, n)
            if h is not None and reaches_bounds(h):
                cg = _div_exact(g, h, n)
                if cg is not None:
                    return _scaled(h, content), cf, cg
            cg = _interpolate(cfg, x, n, v)
            h = _div_exact(g, cg, n)
            if h is not None and reaches_bounds(h):
                cf = _div_exact(f, h, n)
                if cf is not None:
                    return _scaled(h, content), cf, cg
        x = 73794 * x * isqrt(isqrt(x)) // 27011
    return None


def _scaled(h: dict, c: int) -> dict:
    return h if c == 1 else {e: v * c for e, v in h.items()}


def _rational(c):
    """A value over a point in normal form: an integral Fraction as its int, any other value (an int, a Fraction
    that is not integral, a Poly, a RatFunc) as it is."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


class Poly:
    """Sparse polynomial in ``nvars`` variables over the rationals.

    Its value is ``sum(coeffs[k] * x**exp(k)) / denom``: ``coeffs`` maps
    packed monomial keys (see the module docstring) to nonzero ints and
    ``denom`` is a positive int coprime to their content (1 for zero), so
    the representation is unique. The constant monomial has key 0, and
    ``max(coeffs)`` is the graded lexicographic leading term. ``terms``
    gives the ``{exponent tuple: Fraction}`` view.
    """

    __slots__ = ("nvars", "coeffs", "denom")

    def __init__(self, nvars: int, coeffs: dict[int, int], denom: int = 1):
        self.nvars = nvars
        self.coeffs = coeffs
        self.denom = denom

    # -- constructors ------------------------------------------------

    @staticmethod
    def from_ints(nvars: int, coeffs: dict[int, int], denom: int = 1) -> "Poly":
        """``sum(coeffs[k] * x**exp(k)) / denom`` for nonzero ints and ``denom > 0``, in normal form."""
        return Poly(nvars, *_cancel(coeffs, denom))

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly(nvars, {})

    @staticmethod
    def const(nvars: int, c) -> "Poly":
        if type(c) is not int:
            c = Fraction(c)
            if c.denominator != 1:
                return Poly(nvars, {0: c.numerator}, c.denominator)
            c = c.numerator
        return Poly(nvars, {0: c} if c else {})

    @staticmethod
    def var(nvars: int, i: int) -> "Poly":
        return Poly(nvars, {_var_key(nvars, i): 1})

    @staticmethod
    def from_terms(nvars: int, terms: dict) -> "Poly":
        """The polynomial with ``{exponent tuple: coefficient}`` terms."""
        clean = {}
        for exp, c in terms.items():
            exp = tuple(exp)
            if len(exp) != nvars or min(exp, default=0) < 0:
                raise ShapeError(f"exponent {exp} is not {nvars} non-negative integers")
            c = Fraction(c)
            if c != 0:
                clean[_key(exp)] = c
        # over the lcm of the reduced denominators the numerators are already coprime to it
        denom = int_lcm(*(c.denominator for c in clean.values()))
        return Poly(nvars, {k: c.numerator * (denom // c.denominator) for k, c in clean.items()}, denom)

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        """The coefficients as ``{exponent tuple: Fraction}``, built on each access."""
        return {_exps(k, self.nvars): Fraction(c, self.denom) for k, c in self.coeffs.items()}

    # -- predicates --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return not any(self.coeffs)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ShapeError("polynomial is not constant")
        return Fraction(self.coeffs.get(0, 0), self.denom)

    def degree_in(self, i: int) -> int:
        s = _shift(self.nvars, i)
        return max((k >> s & MAX_DEGREE for k in self.coeffs), default=-1)

    def leading(self) -> tuple[tuple[int, ...], Fraction]:
        """Leading term under graded lexicographic order."""
        k = max(self.coeffs)
        return _exps(k, self.nvars), Fraction(self.coeffs[k], self.denom)

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
        if a and b and (max(a) >> _W * self.nvars) + (max(b) >> _W * self.nvars) > MAX_DEGREE:
            raise DegreeOverflow(f"product of total degree over {MAX_DEGREE}")
        terms: dict[int, int] = {}
        get = terms.get
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = k1 + k2
                terms[k] = get(k, 0) + c1 * c2
        return Poly(self.nvars, {k: c for k, c in terms.items() if c}, da * db)

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
        if self.coeffs and (max(self.coeffs) >> _W * self.nvars) * n > MAX_DEGREE:
            raise DegreeOverflow(f"power of total degree over {MAX_DEGREE}")
        result, base = Poly.const(self.nvars, 1), self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return False
        return self.coeffs == other.coeffs and self.denom == other.denom and self.nvars == other.nvars

    def __hash__(self):
        return hash((self.nvars, self.denom, frozenset(self.coeffs.items())))

    def derivative(self, i: int) -> "Poly":
        s, step = _shift(self.nvars, i), _var_key(self.nvars, i)
        terms = {k - step: c * e for k, c in self.coeffs.items() if (e := k >> s & MAX_DEGREE)}
        return Poly(self.nvars, *_cancel(terms, self.denom))

    def extend(self, nvars: int, offset: int = 0) -> "Poly":
        """Reinterpret in a larger variable list, original vars shifted by offset."""
        if offset + self.nvars > nvars:
            raise ShapeError("extension does not fit")
        s, low = _W * self.nvars, _W * (nvars - offset - self.nvars)
        body = (1 << s) - 1
        return Poly(nvars, {k >> s << _W * nvars | (k & body) << low: c for k, c in self.coeffs.items()}, self.denom)

    # -- division and gcd --------------------------------------------

    def exact_div(self, other: "Poly") -> "Poly":
        """Divide exactly by ``other``, raising NotDivisible on remainder."""
        if other.is_zero():
            raise DivisionByZero("exact division by zero polynomial")
        if other.is_constant():
            return self.scale(1 / other.constant_value())
        # a primitive divisor over Q divides over Z too (Gauss's lemma)
        content = int_gcd(*other.coeffs.values())
        divisor = {k: c // content for k, c in other.coeffs.items()}
        quot = _div_exact(self.coeffs, divisor, self.nvars)
        if quot is None:
            raise NotDivisible("leading term not divisible")
        return Poly.from_ints(self.nvars, {k: c * other.denom for k, c in quot.items()}, self.denom * content)

    def _to_integer_primitive(self) -> "Poly":
        """Integer coefficients with content 1 and positive leading coefficient."""
        if self.is_zero():
            return self
        content = int_gcd(*self.coeffs.values())
        if self.coeffs[max(self.coeffs)] < 0:
            content = -content
        return Poly(self.nvars, {exp: c // content for exp, c in self.coeffs.items()})

    def _main_var(self) -> int:
        return max(_variables(self.coeffs, self.nvars), default=-1)

    def _univariate_view(self, v: int) -> dict[int, "Poly"]:
        """Coefficients of powers of variable ``v``, as polynomials in the rest."""
        s, step = _shift(self.nvars, v), _var_key(self.nvars, v)
        coeffs: dict[int, dict] = {}
        for k, c in self.coeffs.items():
            d = k >> s & MAX_DEGREE
            coeffs.setdefault(d, {})[k - d * step] = c
        return {d: Poly.from_ints(self.nvars, t, self.denom) for d, t in coeffs.items()}

    @staticmethod
    def gcd(a: "Poly", b: "Poly") -> "Poly":
        """First of ``gcd_cofactors``: content 1, positive grlex leading coefficient; ``gcd(0, 0)`` is 0."""
        return Poly.gcd_cofactors(a, b)[0]

    @staticmethod
    def gcd_cofactors(a: "Poly", b: "Poly") -> tuple["Poly", "Poly", "Poly"]:
        """Return ``(g, a/g, b/g)`` with ``g = Poly.gcd(a, b)``.

        On the primitive integer numerators: images at fixed points modulo
        a prime bound the gcd's degree in each variable (all 0: coprime).
        GCDHEU (Char, Geddes and Gonnet, J. Symb. Comput. 1989) then
        evaluates at large integers down to an integer gcd and rebuilds
        candidates from symmetric base-xi digits; one that divides both
        inputs and reaches every bound is the gcd. After ``HEU_GCD_MAX``
        points without one, the primitive PRS gcd is used: it is exact, but
        it ran past 20 s on 6-variable jet polynomials (ROADMAP item 2(b)).
        A monomial operand skips all of this: its gcd is read off the keys.
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
        if len(a.coeffs) == 1 or len(b.coeffs) == 1:
            # a monomial's gcd with anything is x^(the smallest exponent of each variable)
            g = Poly(n, {_key(tuple(_degrees(a.coeffs.keys() | b.coeffs.keys(), n, min))): 1})
            return g, a.exact_div(g), b.exact_div(g)
        sa = int_gcd(*a.coeffs.values())
        sb = int_gcd(*b.coeffs.values())
        fa = {k: c // sa for k, c in a.coeffs.items()}
        fb = {k: c // sb for k, c in b.coeffs.items()}
        bounds = _gcd_degree_bounds(fa, fb, n)
        if not any(bounds):
            return Poly.const(n, 1), a, b
        found = _heu_gcd(fa, fb, n, bounds)
        if found is None:
            g = Poly._gcd_prim(a._to_integer_primitive(), b._to_integer_primitive())
            return g, a.exact_div(g), b.exact_div(g)
        g, ca, cb = found
        lead = max(g)
        if g[lead] < 0:
            g = {e: -c for e, c in g.items()}
            sa, sb = -sa, -sb
        if lead == 0:
            return Poly.const(n, 1), a, b
        # the cofactors are primitive, so their numerators stay coprime to the denominators
        return (
            Poly(n, g),
            Poly(n, {e: c * sa for e, c in ca.items()}, a.denom),
            Poly(n, {e: c * sb for e, c in cb.items()}, b.denom),
        )

    @staticmethod
    def _gcd_prim(a: "Poly", b: "Poly") -> "Poly":
        """Primitive PRS gcd, without the heuristic: the fallback of ``gcd_cofactors`` and its test reference."""
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
            shift = Poly(a.nvars, {(dr - db) * _var_key(a.nvars, v): 1})
            r = bc * r - rc * shift * b
        return r

    def format(self, names: list[str]) -> str:
        """Render as expression text that the parser accepts."""
        if self.is_zero():
            return "0"
        parts = []
        for k in sorted(self.coeffs, reverse=True):
            c = Fraction(self.coeffs[k], self.denom)
            mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(names, _exps(k, self.nvars)) if e)
            coeff = abs(c)
            try:
                text = mono if coeff == 1 and mono else f"{coeff}*{mono}" if mono else str(coeff)
            except ValueError:
                raise CoefficientOverflow(f"coefficient of more than {sys.get_int_max_str_digits()} digits") from None
            if not parts:
                parts.append(text if c > 0 else f"-{text}")
            else:
                parts.append(f"+ {text}" if c > 0 else f"- {text}")
        return " ".join(parts)

    def __repr__(self):
        exps = {_exps(k, self.nvars): c for k, c in self.coeffs.items()}
        return f"Poly({self.nvars}, {exps!r}, {self.denom})"


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
        lead = den.coeffs[max(den.coeffs)]
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
        return len(t) == 1 and t.get(0) == 1 and self.num.denom == 1 and self.den.is_constant()

    def is_polynomial(self) -> bool:
        return self.den.is_constant()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def variables(self) -> list[int]:
        """Indices of the variables that occur in the numerator or the denominator."""
        return _variables(self.num.coeffs.keys() | self.den.coeffs.keys(), self.nvars)

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
        """``a/b + c/d`` for reduced operands, cancelling only what can cancel.

        With ``g = gcd(b, d)``, ``b = g*b1`` and ``d = g*d1``, the sum is
        ``(a*d1 + c*b1) / (g*b1*d1)`` and its numerator is coprime to
        ``b1*d1``, so only ``gcd(numerator, g)`` is left to cancel.
        """
        a, b, c, d = self.num, self.den, other.num, other.den
        if not a.coeffs:
            return other
        if not c.coeffs:
            return self
        if b.is_constant() and d.is_constant():
            return RatFunc(a + c, _normal=True)
        if b == d:
            return RatFunc(a + c, b)
        g, b1, d1 = Poly.gcd_cofactors(b, d)
        num = a * d1 + c * b1
        if not num.coeffs:
            return RatFunc.zero(num.nvars)
        _, num, g1 = Poly.gcd_cofactors(num, g)
        return RatFunc(*RatFunc._monic(num, g1 * b1 * d1), _normal=True)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + -other

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

    @staticmethod
    def sum_products(n: int, plus, minus=()) -> "RatFunc":
        """``sum(p * q for p, q in plus) - sum(p * q for p, q in minus)`` in ``n`` variables.

        Two or more products of polynomials are multiplied out into one integer dict over the lcm of their
        denominators, with ``__mul__``'s degree check, and normalized once; else a sum of ``RatFunc`` products.
        """
        pairs = [(s, p, q) for s, pq in ((1, plus), (-1, minus)) for p, q in pq if p.num.coeffs and q.num.coeffs]
        if len(pairs) < 2 or not all(p.den.is_constant() and q.den.is_constant() for _, p, q in pairs):
            return sum((p * q if s > 0 else -(p * q) for s, p, q in pairs), RatFunc.zero(n))
        lcm, acc, top = int_lcm(*(p.num.denom * q.num.denom for _, p, q in pairs)), {}, _W * n
        get = acc.get
        for s, p, q in pairs:
            if (max(p.num.coeffs) >> top) + (max(q.num.coeffs) >> top) > MAX_DEGREE:
                raise DegreeOverflow(f"product of total degree over {MAX_DEGREE}")
            mult, a = s * lcm // (p.num.denom * q.num.denom), p.num.coeffs.items()
            for k2, c2 in q.num.coeffs.items():
                c2 *= mult
                for k1, c1 in a:
                    k = k1 + k2
                    acc[k] = get(k, 0) + c1 * c2
        return RatFunc(Poly.from_ints(n, {k: v for k, v in acc.items() if v}, lcm), _normal=True)

    def derive_along(self, field) -> "RatFunc":
        """``sum(c * self.derivative(m))`` over the ``(m, c)`` pairs of ``field``, by ``sum_products``."""
        if len(field) == 1:  # an anchor's field, mostly a unit: no list, and 1 * f is f
            return field[0][1] * self.derivative(field[0][0])
        return RatFunc.sum_products(self.nvars, [(c, self.derivative(m)) for m, c in field])

    def extend(self, nvars: int, offset: int = 0) -> "RatFunc":
        return RatFunc(self.num.extend(nvars, offset), self.den.extend(nvars, offset), _normal=True)

    def format(self, names: list[str]) -> str:
        if self.den.is_constant():
            return self.num.format(names)
        return f"({self.num.format(names)})/({self.den.format(names)})"

    def __repr__(self):
        return f"RatFunc({self.num!r}, {self.den!r})"

