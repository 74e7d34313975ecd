"""Parser tests: grammar, error reporting, round-trips, fuzz, schema."""

import json
import random
import sys
from fractions import Fraction

import pytest

from falgebroid.errors import ExprSyntaxError, SchemaError, UnknownVariable
from falgebroid.exprparse import (
    parse_expr,
    parse_presentation,
    presentation_to_document,
    print_expr,
)
from falgebroid.ring import MAX_DEGREE, Poly, RatFunc
from test_algebroid import built_presentations

VARS = ["u1", "u2"]


def rf(num_terms, den_terms=None):
    num = Poly.from_terms(2, {e: Fraction(c) for e, c in num_terms.items()})
    if den_terms is None:
        return RatFunc(num)
    den = Poly.from_terms(2, {e: Fraction(c) for e, c in den_terms.items()})
    return RatFunc(num, den)


def test_basic_expressions():
    assert parse_expr("u1 + u2", VARS) == rf({(1, 0): 1, (0, 1): 1})
    assert parse_expr("u1*u2 - 3", VARS) == rf({(1, 1): 1, (0, 0): -3})
    assert parse_expr("u1^3", VARS) == rf({(3, 0): 1})
    assert parse_expr("-u1", VARS) == rf({(1, 0): -1})
    assert parse_expr("(u1 + 1)*(u1 - 1)", VARS) == rf({(2, 0): 1, (0, 0): -1})
    assert parse_expr("1/2", VARS) == rf({(0, 0): Fraction(1, 2)})
    assert parse_expr("u1 / (u2 + 1)", VARS) == rf({(1, 0): 1}, {(0, 1): 1, (0, 0): 1})
    assert parse_expr("2^3", VARS) == rf({(0, 0): 8})
    assert parse_expr("--u1", VARS) == rf({(1, 0): 1})


def test_division_simplifies():
    assert parse_expr("(u1^2 - u2^2)/(u1 + u2)", VARS) == rf({(1, 0): 1, (0, 1): -1})


def test_syntax_errors_carry_positions():
    with pytest.raises(ExprSyntaxError) as e:
        parse_expr("u1 +", VARS)
    assert e.value.position == 4
    with pytest.raises(ExprSyntaxError) as e:
        parse_expr("u1 $ u2", VARS)
    assert e.value.position == 3
    with pytest.raises(ExprSyntaxError):
        parse_expr("u1 ^ u2", VARS)  # exponent must be an integer literal
    with pytest.raises(ExprSyntaxError):
        parse_expr("(u1", VARS)
    with pytest.raises(ExprSyntaxError):
        parse_expr("", VARS)
    with pytest.raises(ExprSyntaxError):
        parse_expr("u1 u2", VARS)  # no implicit multiplication


@pytest.mark.parametrize("text, position", [("²", 0), ("u1^²", 3), ("1²", 1)])
def test_unicode_digits_are_not_integers(text, position):
    # str.isdigit() holds for superscripts, which int() rejects
    with pytest.raises(ExprSyntaxError) as e:
        parse_expr(text, VARS)
    assert (e.value.position, e.value.expected) == (position, "valid token, found '²'")


def test_unknown_variable():
    with pytest.raises(UnknownVariable) as e:
        parse_expr("u1 + q", VARS)
    assert e.value.name == "q"


def test_division_by_zero_is_a_syntax_error():
    with pytest.raises(ExprSyntaxError):
        parse_expr("1/0", VARS)


def test_exponent_above_max_degree_is_a_syntax_error():
    with pytest.raises(ExprSyntaxError) as e:
        parse_expr("u1^65536", VARS)
    assert (e.value.position, e.value.expected) == (3, f"exponent at most {MAX_DEGREE}")
    with pytest.raises(ExprSyntaxError) as e:
        parse_expr("u2 + u1^" + "9" * 5000, VARS)
    assert e.value.position == 8


def test_literal_past_the_int_string_limit_is_a_syntax_error():
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ExprSyntaxError) as e:
        parse_expr("u2 + " + "1" * (limit + 1), VARS)
    assert (e.value.position, e.value.expected) == (5, f"integer of at most {limit} digits")
    assert parse_expr("9" * limit + "*u1", VARS).num.leading()[1] == int("9" * limit)


def test_degree_overflow_is_a_syntax_error():
    with pytest.raises(ExprSyntaxError) as e:
        parse_expr("u1^40000*u1^40000", VARS)
    assert e.value.expected == f"total degree at most {MAX_DEGREE}"
    with pytest.raises(ExprSyntaxError):
        parse_expr("(u1*u2)^40000", VARS)


def test_max_degree_still_parses():
    assert parse_expr("u1^65535", VARS).num.degree_in(0) == MAX_DEGREE
    assert parse_expr("u1^00065535", VARS) == parse_expr("u1^32768*u1^32767", VARS)


_NESTED = "(" * 5000 + "u1" + ")" * 5000


@pytest.mark.parametrize("text", [_NESTED, "-" * 5000 + "u1"], ids=["parentheses", "unary-minus"])
def test_deep_nesting_is_a_syntax_error(text):
    with pytest.raises(ExprSyntaxError) as e:
        parse_expr(text, VARS)
    assert e.value.expected == "expression nested less deeply"
    assert 0 < e.value.position < len(text)
    with pytest.raises(ExprSyntaxError):
        parse_expr("u1/(u2 - u2)", VARS)


def random_ratfunc(rng):
    def poly():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            terms[(rng.randint(0, 3), rng.randint(0, 3))] = Fraction(
                rng.randint(-9, 9), rng.randint(1, 5)
            )
        return Poly.from_terms(2, terms)

    num = poly()
    den = poly()
    if den.is_zero():
        den = Poly.const(2, 1)
    return RatFunc(num, den)


def test_round_trip_100():
    rng = random.Random(20260824)
    done = 0
    while done < 100:
        f = random_ratfunc(rng)
        assert parse_expr(print_expr(f, VARS), VARS) == f
        done += 1


FUZZ_ALPHABET = "u12qp+-*/^() .#_abc0"


def run_parser_fuzz(cases: int, seed: int = 7) -> int:
    """Feed random strings to the parser; only documented errors may escape."""
    rng = random.Random(seed)
    survived = 0
    for _ in range(cases):
        text = "".join(rng.choice(FUZZ_ALPHABET) for _ in range(rng.randint(1, 25)))
        try:
            parse_expr(text, VARS)
        except (ExprSyntaxError, UnknownVariable):
            pass
        survived += 1
    return survived


def test_fuzz_2000_cases():
    assert run_parser_fuzz(2000) == 2000


# -- structure documents ---------------------------------------------------


def doc_ss1():
    return {
        "base_vars": ["u1"],
        "rank": 1,
        "product": [[["1"]]],
        "bracket": [[["0"]]],
        "anchor": [["1"]],
        "identity": ["1"],
    }


def test_presentation_round_trip():
    """Writing and parsing a presentation keeps its tables, with no empty cell and no zero entry, its anchor fields,
    whether it has an anchor and its identity: for a parsed document, every shipped fixture and a presentation from
    each library builder (``built_presentations``)."""
    A = parse_presentation(doc_ss1())
    assert A.rank == 1 and A.base_vars == ["u1"]
    for name, A in {"SS1 document": A, **built_presentations()}.items():
        B = parse_presentation(json.dumps(presentation_to_document(A)))
        assert (B._tables, B._anchors, B.has("anchor"), B.identity) == (A._tables, A._anchors, A.has("anchor"),
                                                                          A.identity), name
        assert all(cell and all(c for _, c in cell) for t in B._tables.values() for cell in t.values()), name


def test_schema_rejects_unknown_field():
    doc = doc_ss1()
    doc["extra"] = 1
    with pytest.raises(SchemaError):
        parse_presentation(doc)


@pytest.mark.parametrize("missing", ["base_vars", "rank", "product"])
def test_schema_requires_core_fields(missing):
    doc = doc_ss1()
    del doc[missing]
    with pytest.raises(SchemaError):
        parse_presentation(doc)


def test_schema_shape_and_type_errors():
    doc = doc_ss1()
    doc["product"] = [[["1", "0"]]]
    with pytest.raises(SchemaError):
        parse_presentation(doc)
    doc = doc_ss1()
    doc["product"] = [[[1]]]
    with pytest.raises(SchemaError):
        parse_presentation(doc)
    doc = doc_ss1()
    doc["identity"] = ["1", "0"]
    with pytest.raises(SchemaError):
        parse_presentation(doc)
    doc = doc_ss1()
    doc["base_vars"] = ["u1", "u1"]
    with pytest.raises(SchemaError):
        parse_presentation(doc)
    doc = doc_ss1()
    doc["rank"] = 0
    with pytest.raises(SchemaError):
        parse_presentation(doc)
    doc = doc_ss1()
    doc["rank"] = True  # a bool is an int in Python, but not a rank
    with pytest.raises(SchemaError) as e:
        parse_presentation(doc)
    assert str(e.value) == "rank: expected integer >= 1"



def test_schema_expression_errors_name_their_path():
    doc = doc_ss1()
    doc["product"] = [[["v"]]]
    with pytest.raises(SchemaError) as e:
        parse_presentation(doc)
    assert e.value.path == "product[0][0][0]"
    assert str(e.value) == "product[0][0][0]: unknown variable 'v'"
    doc = doc_ss1()
    doc["identity"] = ["u1+"]
    with pytest.raises(SchemaError) as e:
        parse_presentation(doc)
    assert str(e.value) == "identity[0]: at position 3: expected integer, variable or '('"
    doc = doc_ss1()
    doc["product"][0][0][0] = _NESTED
    with pytest.raises(SchemaError) as e:
        parse_presentation(doc)
    assert e.value.path == "product[0][0][0]"
    assert str(e.value).endswith(": expected expression nested less deeply")
    doc = doc_ss1()
    doc["product"][0][0][0] = "u1^40000*u1^40000"
    with pytest.raises(SchemaError) as e:
        parse_presentation(doc)
    assert str(e.value) == f"product[0][0][0]: at position 17: expected total degree at most {MAX_DEGREE}"

def test_schema_anchor_required_with_bracket():
    doc = doc_ss1()
    del doc["anchor"]
    with pytest.raises(SchemaError):
        parse_presentation(doc)
    # but a plain commutative algebroid needs no anchor
    del doc["bracket"]
    assert parse_presentation(doc).bracket is None


def test_invalid_json_text():
    with pytest.raises(SchemaError):
        parse_presentation("{not json")
    with pytest.raises(SchemaError):
        parse_presentation("[1,2]")
