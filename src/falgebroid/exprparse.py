"""Expression and structure-file parsing.

Expressions use standard infix notation over declared variables with
integer literals, +, -, *, /, unary minus and ^ with non-negative
integer exponents. There is no implicit multiplication. Parsing
evaluates directly into exact rational functions. An expression nested
too deeply for the recursive descent, an exponent above
``ring.MAX_DEGREE``, a result whose degree would pass it and an integer
longer than Python reads (``sys.get_int_max_str_digits()``) are
ExprSyntaxErrors.

Structure files are JSON documents with fields base_vars, rank,
product, bracket, prelie, anchor and identity; tensor entries are
expression strings.
"""

from __future__ import annotations

import json
import sys

from .errors import DegreeOverflow, DivisionByZero, ExprSyntaxError, SchemaError, UnknownVariable
from .ring import MAX_DEGREE, RatFunc

_OPS = set("+-*/^()")


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(_Token("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "_#"):
                j += 1
            tokens.append(_Token("ident", text[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(i, f"valid token, found {ch!r}")
    tokens.append(_Token("eof", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], variables: list[str]):
        self.tokens = tokens
        self.pos = 0
        self.variables = list(variables)
        self.index = {name: i for i, name in enumerate(self.variables)}
        self.nvars = len(self.variables)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(tok.pos, f"{kind!r}")
        return self.advance()

    def parse(self) -> RatFunc:
        value = self.expr()
        tok = self.peek()
        if tok.kind != "eof":
            raise ExprSyntaxError(tok.pos, "end of expression or operator")
        return value

    def expr(self) -> RatFunc:
        value = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            value = value + rhs if op.kind == "+" else value - rhs
        return value

    def term(self) -> RatFunc:
        value = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.advance()
            rhs = self.unary()
            if op.kind == "*":
                value = value * rhs
            else:
                try:
                    value = value / rhs
                except DivisionByZero:
                    raise ExprSyntaxError(op.pos, "nonzero divisor")
        return value

    def unary(self) -> RatFunc:
        if self.peek().kind == "-":
            self.advance()
            return -self.unary()
        return self.power()

    def power(self) -> RatFunc:
        value = self.atom()
        while self.peek().kind == "^":
            self.advance()
            tok = self.peek()
            if tok.kind != "int":
                raise ExprSyntaxError(tok.pos, "non-negative integer exponent")
            # leading zeros stripped, so that no huge literal reaches int()
            digits = tok.text.lstrip("0") or "0"
            if len(digits) > len(str(MAX_DEGREE)) or int(digits) > MAX_DEGREE:
                raise ExprSyntaxError(tok.pos, f"exponent at most {MAX_DEGREE}")
            self.advance()
            value = value ** int(digits)
        return value

    def atom(self) -> RatFunc:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            try:
                value = int(tok.text)
            except ValueError:
                raise ExprSyntaxError(tok.pos, f"integer of at most {sys.get_int_max_str_digits()} digits") from None
            return RatFunc.const(self.nvars, value)
        if tok.kind == "ident":
            self.advance()
            i = self.index.get(tok.text)
            if i is None:
                raise UnknownVariable(tok.text, tok.pos)
            return RatFunc.var(self.nvars, i)
        if tok.kind == "(":
            self.advance()
            value = self.expr()
            self.expect(")")
            return value
        raise ExprSyntaxError(tok.pos, "integer, variable or '('")


def parse_expr(text: str, variables: list[str]) -> RatFunc:
    """Parse expression text over the given variable names into a RatFunc."""
    if not isinstance(text, str) or not text.strip():
        raise ExprSyntaxError(0, "non-empty expression")
    parser = _Parser(_tokenize(text), variables)
    try:
        return parser.parse()
    except RecursionError:
        raise ExprSyntaxError(parser.peek().pos, "expression nested less deeply") from None
    except DegreeOverflow:
        raise ExprSyntaxError(parser.peek().pos, f"total degree at most {MAX_DEGREE}") from None


def print_expr(f: RatFunc, variables: list[str]) -> str:
    """Render a rational function as text that parse_expr accepts."""
    return f.format(list(variables))


# -- structure files -----------------------------------------------------


def decode_json(data):
    """Decode a JSON document from UTF-8 bytes or text.

    Bytes that are not UTF-8, malformed JSON and nesting too deep to
    decode all raise SchemaError at ``$``.
    """
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError("$", f"invalid JSON: {exc}") from None


def _require(doc: dict, key: str):
    if key not in doc:
        raise SchemaError(key, "missing required field")
    return doc[key]


_LEVELS = ("entries", "rows", "matrices")  # what a list holds, by the depth below it


def parse_array(raw, shape: tuple, variables: list[str], path: str):
    """Parse a nested array of expression strings with the given shape.

    ``shape`` lists the length at each depth: (r, r, r) for a tensor,
    (rows, cols) for a matrix, (r,) for a section. A list of the wrong
    length, a non-string entry or an expression that does not parse
    raises SchemaError naming its exact path, ``path[i][j]...``.
    """
    if not shape:
        if not isinstance(raw, str):
            raise SchemaError(path, "expected expression string")
        try:
            return parse_expr(raw, variables)
        except (ExprSyntaxError, UnknownVariable) as exc:
            raise SchemaError(path, str(exc)) from None
    size, inner = shape[0], shape[1:]
    if not isinstance(raw, list) or len(raw) != size:
        raise SchemaError(path, f"expected {size} {_LEVELS[len(inner)]}")
    return [parse_array(item, inner, variables, f"{path}[{i}]") for i, item in enumerate(raw)]


_KNOWN_KEYS = {"name", "description", "base_vars", "rank", "product", "bracket", "prelie", "anchor", "identity"}


def parse_presentation(document):
    """Build a shape-checked AlgebroidPresentation from a JSON document.

    Accepts JSON text, UTF-8 bytes (both read with ``decode_json``) or an
    already decoded dictionary. Field names, the rank, tensor and matrix
    shapes and every expression are checked; the structure laws are not
    (the ``check`` functions test them).
    """
    from .algebroid import AlgebroidPresentation, Section

    doc = decode_json(document) if isinstance(document, (str, bytes)) else document
    if not isinstance(doc, dict):
        raise SchemaError("$", "expected a JSON object")
    for key in doc:
        if key not in _KNOWN_KEYS:
            raise SchemaError(key, "unknown field")

    base_vars = _require(doc, "base_vars")
    if not isinstance(base_vars, list) or not all(isinstance(v, str) and v for v in base_vars):
        raise SchemaError("base_vars", "expected list of variable names")
    if len(set(base_vars)) != len(base_vars):
        raise SchemaError("base_vars", "duplicate variable names")
    n = len(base_vars)

    rank = _require(doc, "rank")
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
        raise SchemaError("rank", "expected integer >= 1")

    product = parse_array(_require(doc, "product"), (rank,) * 3, base_vars, "product")

    bracket = None
    if doc.get("bracket") is not None:
        bracket = parse_array(doc["bracket"], (rank,) * 3, base_vars, "bracket")
    prelie = None
    if doc.get("prelie") is not None:
        prelie = parse_array(doc["prelie"], (rank,) * 3, base_vars, "prelie")

    anchor = None
    if doc.get("anchor") is not None:
        anchor = parse_array(doc["anchor"], (rank, n), base_vars, "anchor")
    if anchor is None and n > 0 and (bracket is not None or prelie is not None):
        raise SchemaError("anchor", "anchor required when bracket or prelie is present over a base")

    identity = None
    if doc.get("identity") is not None:
        identity = Section(parse_array(doc["identity"], (rank,), base_vars, "identity"))

    return AlgebroidPresentation(
        base_vars=list(base_vars),
        rank=rank,
        product=product,
        bracket=bracket,
        prelie=prelie,
        anchor=anchor,
        identity=identity,
    )


def presentation_to_document(A) -> dict:
    """Serialize a presentation back to the structure-file dictionary form."""
    names = A.base_vars
    doc = {"base_vars": list(names), "rank": A.rank}

    def tensor(t):
        return [[[cell.format(names) for cell in row] for row in mat] for mat in t]

    doc["product"] = tensor(A.product)
    if A.has("bracket"):
        doc["bracket"] = tensor(A.bracket)
    if A.has("prelie"):
        doc["prelie"] = tensor(A.prelie)
    if A.has("anchor"):
        doc["anchor"] = [[cell.format(names) for cell in row] for row in A.anchor]
    if A.identity is not None:
        doc["identity"] = [cell.format(names) for cell in A.identity.components]
    return doc
