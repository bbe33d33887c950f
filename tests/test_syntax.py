"""Tests for the shared tokenizer and expression/atom parsing."""

import operator
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from streettsm.automata import parse_dsa
from streettsm.benchmarks import (
    load_benchmark,
    manifest,
    read_corpus_text,
)
from streettsm.expr import LinForm, Poly, Rel
from streettsm.syntax import (
    ModeTest,
    SourceError,
    TokenStream,
    logical_lines,
    numeral,
    parse_atom,
    parse_conjunction,
    parse_expression,
    parse_names,
    parse_number,
    strip_comment,
    tokenize,
)


def _ts(text, line=1):
    return TokenStream(tokenize(text, line=line))


def _resolver(variables=("x", "y"), params=("kappa", "alpha")):
    def resolve(name):
        if name in variables:
            return LinForm.var(name)
        if name in params:
            return LinForm.from_poly(Poly.param(name))
        return None

    return resolve


def test_token_positions():
    toks = tokenize("x <= 10", line=7)
    assert [(t.kind, t.text) for t in toks] == [
        ("ident", "x"),
        ("op", "<="),
        ("num", "10"),
        ("eof", ""),
    ]
    assert toks[0].line == 7 and toks[0].col == 1
    assert toks[2].col == 6
    # a tab is one column, like a space; eof sits just past the text
    toks = tokenize("x\t<=  10", line=7)
    assert [(t.text, t.col) for t in toks] == [
        ("x", 1), ("<=", 3), ("10", 7), ("", 9)
    ]
    # a bad character inside a transition label is reported at its column
    # in the whole line, although the label is tokenized on its own
    text = "states: q0\ninit: q0\ntrans q0 -> q0: x >= 0 and x @ 1\n"
    with pytest.raises(SourceError, match="unexpected character '@'") as e:
        parse_dsa(text + "pair: A { q0 } B { }\n", variables=("x",))
    assert (e.value.line, e.value.col) == (3, 30)


def test_tokenize_rejects_stray_characters():
    with pytest.raises(SourceError) as e:
        tokenize("x @ 1")
    assert e.value.col == 3


def test_parse_number_forms():
    assert parse_number(_ts("3")) == 3
    assert parse_number(_ts("0.125")) == F(1, 8)
    assert parse_number(_ts("-7/2")) == F(-7, 2)
    assert parse_number(_ts("--5")) == 5  # signs compose
    with pytest.raises(SourceError):
        parse_number(_ts("x"))
    # a zero denominator is reported at the denominator
    with pytest.raises(SourceError, match="^line 1, col 6: division by zero$"):
        parse_number(_ts("-1 / 0.0"))
    # so is a missing one
    with pytest.raises(SourceError, match="^line 4, col 3: expected denominator$"):
        parse_number(_ts("1/x", line=4))


ROWS = manifest()["benchmarks"] + manifest()["extras"]


DIGITS = st.text("0123456789", min_size=1, max_size=12)


@given(DIGITS, st.one_of(st.none(), DIGITS))
def test_numerals_read_as_integers_equal_their_fraction(whole, frac):
    # leading and trailing zeros included: "007", "0.500", "0.000"
    text = whole if frac is None else f"{whole}.{frac}"
    (tok, _eof) = tokenize(text)
    assert tok.kind == "num" and tok.text == text
    assert numeral(text) == F(text)
    assert type(numeral(text)) is F


def test_every_corpus_numeral_reads_as_its_fraction():
    seen = 0
    for row in ROWS:
        for key in ("model", "dsa", "invariant"):
            if not row[key]:
                continue
            for lineno, line in logical_lines(read_corpus_text(row[key])):
                for tok in tokenize(line, lineno):
                    if tok.kind == "num":
                        assert numeral(tok.text) == F(tok.text), tok
                        seen += 1
    assert seen > 100


def test_expression_affine_arithmetic():
    form = parse_expression(_ts("2*x - (x + 1)/2"), _resolver())
    assert form.coeff("x") == Poly.const(F(3, 2))
    assert form.const == Poly.const(F(-1, 2))
    # a divisor may be any constant expression
    assert parse_expression(_ts("x / (1 + 1)"), _resolver()) == parse_expression(
        _ts("x / 2"), _resolver()
    )


def test_expression_parameter_products():
    # parameters may multiply variables; the coefficient stays polynomial
    form = parse_expression(_ts("kappa*x + alpha*kappa"), _resolver())
    assert form.coeff("x") == Poly.param("kappa")
    assert form.const == Poly.param("alpha") * Poly.param("kappa")
    # in either order
    assert parse_expression(_ts("x * kappa"), _resolver()) == parse_expression(
        _ts("kappa * x"), _resolver()
    )


def test_expression_rejects_nonaffine():
    with pytest.raises(SourceError) as e:
        parse_expression(_ts("x * y"), _resolver())
    assert "not affine" in str(e.value)
    with pytest.raises(SourceError):
        parse_expression(_ts("1 / x"), _resolver())
    with pytest.raises(SourceError):
        parse_expression(_ts("x / 0"), _resolver())


def test_expression_unknown_name_position():
    with pytest.raises(SourceError) as e:
        parse_expression(_ts("x + zz", line=12), _resolver())
    assert e.value.line == 12 and e.value.col == 5


def test_atom_relations():
    (a,) = parse_atom(_ts("x + 1 >= 2*y"), _resolver())
    assert a.rel == Rel.LE
    # rhs - lhs is stored: 2*y - x - 1 <= 0
    assert a.form.coeff("y") == Poly.const(2)
    assert a.form.coeff("x") == Poly.const(-1)
    assert a.form.const == Poly.const(-1)

    le, ge = parse_atom(_ts("x = 1"), _resolver())
    assert le.rel == ge.rel == Rel.LE and ge.form == -le.form

    # a zero factor makes the whole product 0, whatever follows it
    (z,) = parse_atom(_ts("0 * x * y <= 1"), _resolver())
    assert z.form == LinForm.constant(F(-1)) and z.rel == Rel.LE

    with pytest.raises(SourceError):
        parse_atom(_ts("x + 1"), _resolver())


def test_mode_atoms_need_mode_list():
    t = parse_atom(_ts("mode == ev"), _resolver(), modes=("ev", "od"))
    assert t == ModeTest("ev", equal=True)
    assert t.holds("ev") and not t.holds("od")
    t2 = parse_atom(_ts("mode != ev"), _resolver(), modes=("ev", "od"))
    assert not t2.holds("ev") and t2.holds("od")

    with pytest.raises(SourceError):
        parse_atom(_ts("mode == hot"), _resolver(), modes=("ev", "od"))
    with pytest.raises(
        SourceError, match="^line 2, col 6: expected '==' or '!=' after 'mode'$"
    ):
        parse_atom(_ts("mode < ev", line=2), _resolver(), modes=("ev", "od"))
    # without a mode list, 'mode' is an ordinary (unknown) identifier
    with pytest.raises(SourceError):
        parse_atom(_ts("mode == ev"), _resolver())


def test_conjunction_true_and_lists():
    atoms, tests = parse_conjunction(_ts("true"), _resolver())
    assert atoms == [] and tests == []

    atoms, tests = parse_conjunction(
        _ts("x >= 1 and mode == od and x < 2"),
        _resolver(),
        modes=("ev", "od"),
    )
    assert len(atoms) == 2 and len(tests) == 1
    assert atoms[1].rel == Rel.LT


def test_comment_and_line_handling():
    assert strip_comment("x >= 1  # boundary") == "x >= 1  "
    text = "a: 1\n\n# full comment line\nb: 2  # tail\n"
    assert logical_lines(text) == [(1, "a: 1"), (4, "b: 2")]


@st.composite
def linear_texts(draw):
    """A random affine expression as source text plus its exact meaning."""
    rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    terms = []
    coeff = {"x": F(0), "y": F(0)}
    const = F(0)
    for _ in range(draw(st.integers(1, 4))):
        c = draw(rationals)
        v = draw(st.sampled_from(["x", "y", None]))
        lit = f"({c.numerator}/{c.denominator})" if c.denominator != 1 else (
            f"({c.numerator})"
        )
        if v is None:
            terms.append(lit)
            const += c
        else:
            terms.append(f"{lit}*{v}")
            coeff[v] += c
    return " + ".join(terms), coeff, const


@given(linear_texts())
def test_parse_expression_matches_direct_meaning(case):
    text, coeff, const = case
    form = parse_expression(_ts(text), _resolver())
    for v, c in coeff.items():
        assert form.coeff(v) == Poly.const(c)
    assert form.const == Poly.const(const)


COMPARE = {
    "<=": operator.le,
    "<": operator.lt,
    ">=": operator.ge,
    ">": operator.gt,
    "=": operator.eq,
    "==": operator.eq,
}


@given(
    st.sampled_from(sorted(COMPARE)),
    linear_texts(),
    st.fixed_dictionaries(
        {v: st.fractions(-2, 2, max_denominator=2) for v in "xy"}
    ),
    st.data(),
)
def test_parsed_atoms_are_le_or_lt_and_mean_the_comparison(op, lhs, point, data):
    # the rhs is sometimes the lhs itself, so equality and the strict
    # boundaries are met, not only drawn past
    rhs = data.draw(st.one_of(linear_texts(), st.just(lhs)))
    atoms = parse_atom(_ts(f"{lhs[0]} {op} {rhs[0]}"), _resolver())
    assert len(atoms) == (2 if op in ("=", "==") else 1)
    assert all(a.rel in (Rel.LE, Rel.LT) for a in atoms)

    def value(case):
        _text, coeff, const = case
        return sum(c * point[v] for v, c in coeff.items()) + const

    expected = COMPARE[op](value(lhs), value(rhs))
    assert all(a.holds({}, point) for a in atoms) == expected


def test_corpus_atoms_are_le_or_lt():
    # guards, edges, invariant rows and side constraints, as parsed
    names = [row["name"] for row in ROWS]
    assert len(names) == 13
    for name in names:
        b = load_benchmark(name)
        atoms = [a for br in b.model.branches for a in br.guard]
        atoms += [a for t in b.dsa.transitions for a in t.atoms]
        atoms += b.model.side_constraints
        if b.invariant is not None:
            atoms += [a for rows in b.invariant.rows.values() for a in rows]
        assert atoms, name
        assert {a.rel for a in atoms} <= {Rel.LE, Rel.LT}, name


def test_parse_names_rejects_duplicates_at_the_line_end():
    assert parse_names(_ts("x y z"), "variable") == ("x", "y", "z")
    with pytest.raises(SourceError, match="^line 3, col 9: duplicate mode name$"):
        parse_names(_ts("ev od ev", line=3), "mode")
    with pytest.raises(SourceError, match="expected state name, found '1'"):
        parse_names(_ts("q0 1"), "state")
