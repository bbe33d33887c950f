"""Tokenizer and expression parsing shared by all textual input formats.

Model, automaton, invariant and certificate files all embed the same
little language of affine expressions and comparison atoms:

    expr  :=  term (('+' | '-') term)*
    term  :=  unary (('*' | '/') unary)*
    unary :=  '-' unary | NUMBER | IDENT | '(' expr ')'
    atom  :=  expr REL expr          REL in { <=, <, >=, >, =, == }
            | 'mode' ('==' | '!=') IDENT
    conj  :=  'true' | atom ('and' atom)*

The parser is the only place that knows the normal form every later
stage reads: an atom is `form <= 0` or `form < 0`.  With d = lhs - rhs,

    lhs <= rhs   reads as   d <= 0
    lhs <  rhs   reads as   d < 0
    lhs >= rhs   reads as   -d <= 0
    lhs >  rhs   reads as   -d < 0
    lhs =  rhs   reads as   d <= 0 and -d <= 0      (and so does ==)

Each atom gets one form per relation it reads as: both sides are summed
into one coefficient map (`expr.FormSum`), the lhs with +1 and the rhs
with -1, term by term and in place, and each form is built from that map.
A name's form comes from the resolver, which builds it once per document.

Expressions must stay affine in variables: products are allowed only when
at most one factor mentions a variable (parameters may multiply freely),
and division only by a nonzero numeric constant.  Numerals, including
decimals like 0.1, are read as exact rationals from their digits as
integers: n.m is the integer nm over a power of ten (`numeral`).

Errors carry line and column positions pointing into the source file.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable

from .expr import Atom, FormSum, LinForm, Rel

_F1 = Fraction(1)

# whitespace separates tokens and is skipped; every other character is a
# token or starts one (`bad` when none fits)
_TOKEN_RE = re.compile(
    r"""
      (?P<num>\d+(?:\.\d+)?)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op><=|>=|==|!=|->|[+\-*/()<>=,:;{}\[\]'|])
    | (?P<bad>[^ \t])
    """,
    re.VERBOSE,
)

# each relation as the (sign of lhs - rhs, relation) pairs it reads as
_READ = {
    "<=": ((1, Rel.LE),),
    "<": ((1, Rel.LT),),
    ">=": ((-1, Rel.LE),),
    ">": ((-1, Rel.LT),),
    "=": ((1, Rel.LE), (-1, Rel.LE)),
    "==": ((1, Rel.LE), (-1, Rel.LE)),
}


class SourceError(ValueError):
    """Parse or validation error anchored to a file position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col

    @classmethod
    def at(cls, tok: Token, message: str) -> SourceError:
        """`message` at the position of `tok`."""
        return cls(message, tok.line, tok.col)


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind  # num | ident | op | eof
        self.text = text
        self.line = line
        self.col = col


class ModeTest:
    """Guard atom over the finite mode component: mode ==/!= name."""

    __slots__ = ("mode", "equal")

    def __init__(self, mode: str, equal: bool):
        self.mode = mode
        self.equal = equal

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is ModeTest
            and self.mode == other.mode
            and self.equal == other.equal
        )

    def __hash__(self) -> int:
        return hash((self.mode, self.equal))

    def holds(self, mode: str) -> bool:
        return (mode == self.mode) if self.equal else (mode != self.mode)


def tokenize(text: str, line: int = 1, col: int = 1) -> list[Token]:
    """The tokens of one logical line, numbered `line`, then an eof token.
    `text` starts at column `col` of the line."""
    tokens: list[Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise SourceError(
                f"unexpected character {m.group()!r}", line, col + m.start()
            )
        tokens.append(Token(kind, m.group(), line, col + m.start()))
    tokens.append(Token("eof", "", line, col + len(text)))
    return tokens


def numeral(text: str) -> Fraction:
    """The exact value of a NUMBER token, `n` or `n.m`, read as integers."""
    whole, _, frac = text.partition(".")
    if not frac:
        return Fraction(int(whole))
    return Fraction(int(whole + frac), 10 ** len(frac))


class TokenStream:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    def peek(self) -> Token:
        return self._tokens[self._pos]

    def advance(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != "eof":
            self._pos += 1
        return tok

    def at_end(self) -> bool:
        return self.peek().kind == "eof"

    def match(self, text: str) -> bool:
        tok = self._tokens[self._pos]
        if tok.text == text and tok.kind != "eof":
            self._pos += 1
            return True
        return False

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text or tok.kind == "eof":
            shown = tok.text or "end of input"
            raise SourceError.at(tok, f"expected {text!r}, found {shown!r}")
        return self.advance()

    def expect_ident(self, what: str = "identifier") -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            shown = tok.text or "end of input"
            raise SourceError.at(tok, f"expected {what}, found {shown!r}")
        return self.advance()

    def error(self, message: str) -> SourceError:
        return SourceError.at(self.peek(), message)


# resolve(name) maps an identifier to its LinForm meaning (a variable or a
# parameter), or returns None for unknown names.  Each loader passes the
# `get` of a table it builds once per document.
Resolver = Callable[[str], "LinForm | None"]


def parse_number(ts: TokenStream) -> Fraction:
    """A signed numeric literal, allowing n, n.m and n/m."""
    sign = 1
    while ts.peek().text == "-":
        ts.advance()
        sign = -sign
    tok = ts.peek()
    if tok.kind != "num":
        raise ts.error(f"expected number, found {tok.text!r}")
    ts.advance()
    value = numeral(tok.text)
    if ts.match("/"):
        den = ts.peek()
        if den.kind != "num":
            raise ts.error("expected denominator")
        ts.advance()
        d = numeral(den.text)
        if not d:
            raise SourceError.at(den, "division by zero")
        value /= d
    return value if sign > 0 else -value


# A product read so far: factor * form, the form None for a number.
_Product = tuple[Fraction, "LinForm | None"]


def _unary(ts: TokenStream, resolve: Resolver) -> _Product:
    tok = ts.peek()
    if tok.kind == "ident":
        meaning = resolve(tok.text)
        if meaning is None:
            raise SourceError.at(tok, f"unknown name {tok.text!r}")
        ts.advance()
        return _F1, meaning
    if tok.kind == "num":
        ts.advance()
        return numeral(tok.text), None
    if tok.text == "-":
        ts.advance()
        factor, form = _unary(ts, resolve)
        return -factor, form
    if tok.text == "(":
        ts.advance()
        inner = FormSum()
        _add_sum(ts, resolve, inner, 1)
        ts.expect(")")
        return _F1, inner.form()
    raise ts.error(f"expected expression, found {tok.text or 'end of input'!r}")


def _product(ts: TokenStream, resolve: Resolver) -> _Product:
    factor, form = _unary(ts, resolve)
    while True:
        tok = ts.peek()
        if tok.text == "*":
            ts.advance()
            f, g = _unary(ts, resolve)
            factor *= f
            if not factor:
                form = None  # a zero product: a later factor may be anything
            elif form is None:
                form = g
            elif g is not None:
                if not form.coeffs:
                    form = g.mul_poly(form.const)
                elif not g.coeffs:
                    form = form.mul_poly(g.const)
                else:
                    raise SourceError.at(
                        tok,
                        "product of two variable-dependent expressions is "
                        "not affine",
                    )
        elif tok.text == "/":
            ts.advance()
            f, g = _unary(ts, resolve)
            if g is not None:
                if g.coeffs or not g.const.is_constant():
                    raise SourceError.at(tok, "division only by numeric constants")
                f *= g.const.constant_value()
            if not f:
                raise SourceError.at(tok, "division by zero")
            factor /= f
        else:
            return factor, form


def _add_sum(ts: TokenStream, resolve: Resolver, acc: FormSum, sign: int) -> None:
    """Add sign * (the sum at the stream) into acc, term by term."""
    term_sign = sign
    while True:
        factor, form = _product(ts, resolve)
        acc.add(factor if term_sign > 0 else -factor, form)
        op = ts.peek().text
        if op == "+":
            term_sign = sign
        elif op == "-":
            term_sign = -sign
        else:
            return
        ts.advance()


def parse_expression(ts: TokenStream, resolve: Resolver) -> LinForm:
    acc = FormSum()
    _add_sum(ts, resolve, acc, 1)
    return acc.form()


def parse_atom(
    ts: TokenStream, resolve: Resolver, modes: tuple[str, ...] | None = None
) -> tuple[Atom, ...] | ModeTest:
    """One comparison as its `<=`/`<` atoms (see the module docstring), or
    'mode ==/!= name' when modes are given.  Both sides are summed into one
    map, lhs - rhs, and each atom's form is built from it once."""
    tok = ts.peek()
    if modes is not None and tok.kind == "ident" and tok.text == "mode":
        ts.advance()
        op = ts.peek()
        if op.text not in ("==", "!=", "="):
            raise ts.error("expected '==' or '!=' after 'mode'")
        ts.advance()
        name = ts.expect_ident("mode name")
        if name.text not in modes:
            raise SourceError.at(name, f"unknown mode {name.text!r}")
        return ModeTest(name.text, equal=op.text != "!=")
    diff = FormSum()
    _add_sum(ts, resolve, diff, 1)
    read = _READ.get(ts.peek().text)
    if read is None:
        raise ts.error("expected comparison operator")
    ts.advance()
    _add_sum(ts, resolve, diff, -1)
    return tuple(Atom(diff.form(sign), rel) for sign, rel in read)


def parse_conjunction(
    ts: TokenStream, resolve: Resolver, modes: tuple[str, ...] | None = None
) -> tuple[list[Atom], list[ModeTest]]:
    """'true' or a nonempty 'and'-separated list of atoms."""
    tok = ts.peek()
    if tok.kind == "ident" and tok.text == "true":
        ts.advance()
        return [], []
    atoms: list[Atom] = []
    tests: list[ModeTest] = []
    while True:
        item = parse_atom(ts, resolve, modes)
        if isinstance(item, ModeTest):
            tests.append(item)
        else:
            atoms.extend(item)
        tok = ts.peek()
        if not (tok.kind == "ident" and tok.text == "and"):
            return atoms, tests
        ts.advance()


def parse_names(ts: TokenStream, what: str) -> tuple[str, ...]:
    """The rest of the line as one or more distinct `what` names."""
    names = [ts.expect_ident(f"{what} name").text]
    while not ts.at_end():
        names.append(ts.expect_ident(f"{what} name").text)
    if len(set(names)) != len(names):
        raise ts.error(f"duplicate {what} name")
    return tuple(names)


def strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def logical_lines(text: str) -> list[tuple[int, str]]:
    """Non-blank lines with comments removed, keyed by 1-based line number."""
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        body = strip_comment(raw).rstrip()
        if body.strip():
            out.append((i, body))
    return out
