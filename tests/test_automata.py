"""Tests for guarded deterministic Streett automata."""

import re
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from streettsm.automata import GuardedDSA, StreettPair, Transition, parse_dsa
from streettsm.benchmarks import load_benchmark, manifest, read_corpus_text
from streettsm.expr import Atom, LinForm, Rel
from streettsm.syntax import (
    SourceError,
    TokenStream,
    logical_lines,
    parse_conjunction,
    tokenize,
)

BAND = """
states: q0 q1
init: q0
trans q0 -> q0: x >= 1
trans q0 -> q1: x < 1
trans q1 -> q1: true
pair: A { q1 } B { }
"""


def test_parse_and_shape():
    dsa = parse_dsa(BAND, variables=("x",))
    assert dsa.states == ("q0", "q1") and dsa.init == "q0"
    assert len(dsa.transitions) == 3
    assert dsa.pairs == (StreettPair(frozenset({"q1"}), frozenset()),)


def test_step_follows_unique_transition():
    dsa = parse_dsa(BAND, variables=("x",))
    assert dsa.step("q0", {"x": F(1)}, "_") == "q0"
    assert dsa.step("q0", {"x": F(999, 1000)}, "_") == "q1"
    assert dsa.step("q1", {"x": F(-50)}, "_") == "q1"


def test_step_rejects_two_successors_and_none():
    # built directly: `parse_dsa` rejects both automata
    x_ge_0 = Atom(-LinForm.var("x"), Rel.LE)
    x_ge_1 = Atom(LinForm.constant(F(1)) - LinForm.var("x"), Rel.LE)
    pair = (StreettPair(frozenset({"q1"}), frozenset()),)
    two = GuardedDSA(
        ("q0", "q1"),
        "q0",
        (Transition("q0", "q0", (x_ge_0,)), Transition("q0", "q1", (x_ge_0,))),
        pair,
    )
    with pytest.raises(ValueError) as e:
        two.step("q0", {"x": F(0)}, "_")
    assert str(e.value) == "nondeterministic step from 'q0' at {'x': Fraction(0, 1)}"
    none = GuardedDSA(
        ("q0", "q1"), "q0", (Transition("q0", "q1", (x_ge_1,)),), pair
    )
    with pytest.raises(ValueError) as e:
        none.step("q0", {"x": F(0)}, "_")
    assert (
        str(e.value) == "no transition from 'q0' at {'x': Fraction(0, 1)} mode '_'"
    )


def test_nondeterminism_rejected_with_lines():
    bad = BAND.replace("trans q0 -> q1: x < 1", "trans q0 -> q1: x <= 1")
    with pytest.raises(SourceError) as e:
        parse_dsa(bad, variables=("x",))
    assert "nondeterminism" in str(e.value)
    assert "lines 4 and 5" in str(e.value)


def test_totality_gap_rejected():
    bad = BAND.replace("trans q0 -> q0: x >= 1", "trans q0 -> q0: x > 1")
    with pytest.raises(SourceError, match="no transition"):
        parse_dsa(bad, variables=("x",))


def test_missing_sections_rejected():
    with pytest.raises(SourceError, match="missing acceptance"):
        parse_dsa(BAND.replace("pair: A { q1 } B { }", ""), variables=("x",))
    with pytest.raises(SourceError, match="not declared"):
        parse_dsa(BAND.replace("init: q0", "init: qq"), variables=("x",))
    with pytest.raises(SourceError, match="unknown states"):
        parse_dsa(
            BAND.replace("A { q1 }", "A { q7 }"), variables=("x",)
        )


@pytest.mark.parametrize(
    "statement, extended, line, col",
    [
        pytest.param("init: q0", "init: q0 q1", 3, 10, id="init"),
        pytest.param(
            "pair: A { q1 } B { }",
            "pair: A { q1 } B { } C { q0 }",
            7,
            22,
            id="pair",
        ),
    ],
)
def test_trailing_input_is_rejected(statement, extended, line, col):
    # reported at the first token past the statement
    with pytest.raises(SourceError) as e:
        parse_dsa(BAND.replace(statement, extended), variables=("x",))
    assert e.value.message == "trailing input"
    assert (e.value.line, e.value.col) == (line, col)


def test_errors_point_at_their_line():
    # BAND's lines: 2 states, 3 init, 4-6 trans, 7 pair
    def line_of(text):
        with pytest.raises(SourceError) as e:
            parse_dsa(text, variables=("x",))
        return e.value.line

    assert line_of(BAND.replace("init: q0", "init: qq")) == 3
    assert line_of(BAND.replace("A { q1 }", "A { q7 }")) == 7
    # incomplete from q0: reported at q0's first transition
    assert line_of(BAND.replace("q0: x >= 1", "q0: x > 1")) == 4
    with pytest.raises(SourceError) as e:
        parse_dsa(BAND.replace("q0: x >= 1", "q0: x > 1"), variables=("x",))
    assert str(e.value).endswith("e.g. x = 1")
    # q1 has no transition at all: reported at the states line
    assert line_of(BAND.replace("trans q1 -> q1: true", "")) == 2


def test_mode_tests_route_by_mode():
    text = """
states: a b
init: a
trans a -> a: mode == ev
trans a -> b: mode != ev
trans b -> b: true
pair: A { b } B { }
"""
    dsa = parse_dsa(text, variables=("x",), modes=("ev", "od"))
    assert dsa.step("a", {"x": F(0)}, "ev") == "a"
    assert dsa.step("a", {"x": F(0)}, "od") == "b"
    # same guards without the mode split are nondeterministic
    with pytest.raises(SourceError, match="nondeterminism"):
        parse_dsa(
            text.replace("mode == ev", "true").replace("mode != ev", "true"),
            variables=("x",),
            modes=("ev", "od"),
        )


def test_totality_is_checked_per_mode():
    # covers ev only; od has no applicable transition from a
    text = """
states: a
init: a
trans a -> a: mode == ev
pair: A { } B { }
"""
    with pytest.raises(SourceError, match="mode 'od'"):
        parse_dsa(text, variables=("x",), modes=("ev", "od"))


def test_classification_partitions_states():
    pair = StreettPair(frozenset({"q0", "q2"}), frozenset({"q2", "q3"}))
    assert pair.classify("q0") == "dec"  # A minus B
    assert pair.classify("q2") == "inc"  # B wins over A
    assert pair.classify("q3") == "inc"
    assert pair.classify("q1") == "noninc"


def test_parameters_in_guards_rejected():
    dsa_text = BAND.replace("x >= 1", "k*x >= 1").replace("x < 1", "k*x < 1")
    # unknown names are an error when the variable universe is pinned
    with pytest.raises(SourceError, match="unknown name"):
        parse_dsa(dsa_text, variables=("x",))


def test_corpus_observer_frozen_run():
    dsa = load_benchmark("example2").dsa
    # a trace crossing the low threshold is absorbed in q2
    trace = [F(2), F(0), F(-3), F(100)]
    q, seen = "q0", []
    for x in trace:
        q = dsa.step(q, {"x": x}, "_")
        seen.append(q)
    assert seen == ["q0", "q1", "q2", "q2"]


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=10)
ROWS = manifest()["benchmarks"] + manifest()["extras"]
CORPUS = [row["name"] for row in ROWS]


@pytest.fixture(scope="module")
def corpus():
    """Every corpus benchmark, loaded once for all drawn points."""
    return {name: load_benchmark(name) for name in CORPUS}


@given(st.sampled_from(sorted(CORPUS)), rationals, rationals)
def test_exactly_one_transition_everywhere(corpus, name, x0, x1):
    # determinism + totality, probed pointwise across the whole corpus
    b = corpus[name]
    state = (x0,) if len(b.model.state_vars) == 1 else (x0, x1)
    env = b.model.state_env(state)
    for q in b.dsa.states:
        for mode in b.model.modes:
            hits = [
                t
                for t in b.dsa.outgoing(q)
                if t.applies_in_mode(mode)
                and all(a.holds({}, env) for a in t.atoms)
            ]
            assert len(hits) == 1


def test_parse_from_corpus_text_roundtrip():
    text = read_corpus_text("example2.dsa")
    dsa = parse_dsa(text, variables=("x",))
    assert dsa == load_benchmark("example2").dsa


def test_nondeterminism_error_names_a_state_both_guards_take():
    # 0 < x < 2 and 1 < y <= 3 meet 1 <= x and y > 2 on 1 <= x < 2, 2 < y <= 3
    text = """
states: q0
init: q0
trans q0 -> q0: x > 0 and x < 2 and y > 1 and y <= 3
trans q0 -> q0: x >= 1 and y > 2
pair: A { q0 } B { }
"""
    with pytest.raises(SourceError, match="nondeterminism") as e:
        parse_dsa(text, variables=("x", "y"))
    named = re.search(
        r"both fire at x = (-?\d+(?:/\d+)?), y = (-?\d+(?:/\d+)?)$",
        str(e.value),
    )
    assert named is not None
    x, y = map(F, named.groups())
    assert 0 < x < 2 and 1 < y <= 3
    assert x >= 1 and y > 2


def _labels(text):
    """Each transition line's label text (after its first ':'), by line."""
    return {
        lineno: line.partition(":")[2]
        for lineno, line in logical_lines(text)
        if line.split(None, 1)[0] == "trans"
    }


@pytest.mark.parametrize("name", CORPUS)
def test_equal_labels_share_one_parse(name):
    b = load_benchmark(name)
    labels = _labels(read_corpus_text(b.files["dsa"]))
    forms = {v: LinForm.var(v) for v in b.model.state_vars}
    first = {}
    for t in b.dsa.transitions:
        label = labels[t.line]
        if label in first:
            shared = first[label]
            assert t.atoms is shared.atoms and t.mode_tests is shared.mode_tests
            continue
        first[label] = t
        ts = TokenStream(tokenize(label))
        atoms, tests = parse_conjunction(ts, forms.get, b.model.modes)
        assert ts.at_end()
        assert (t.atoms, t.mode_tests) == (tuple(atoms), tuple(tests))


def test_a_repeated_malformed_label_is_reported_at_its_first_line():
    # the label is parsed once, at line 4, and line 6 shares that parse
    text = BAND.replace("q0 -> q0: x >= 1", "q0 -> q0: x >= *").replace(
        "q1 -> q1: true", "q1 -> q1: x >= *"
    )
    with pytest.raises(SourceError, match="expected expression, found '[*]'") as e:
        parse_dsa(text, variables=("x",))
    assert (e.value.line, e.value.col) == (4, 22)
