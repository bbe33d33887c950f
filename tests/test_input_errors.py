"""Input errors of the three document parsers, each with its exact message
and the line and column it is reported at.

A fault in one token is reported at that token; a missing part at the
token where it was due, or at line 1, col 1 when it is a whole
declaration."""

import pytest

from streettsm.automata import parse_dsa
from streettsm.benchmarks import load_benchmark
from streettsm.model import parse_model
from streettsm.syntax import SourceError
from streettsm.templates import parse_invariant
from tests.test_automata import BAND
from tests.test_model import WALK

FINITE = "disturbance: w finite { (1): 1/2, (0): 1/2 }"


def _position(parse, text):
    with pytest.raises(SourceError) as e:
        parse(text)
    return e.value.message, e.value.line, e.value.col


# WALK's lines: 2 state_dim, 3 init, 4 disturbance, 5-7 and 8-10 branches
MODEL_CASES = {
    "state_dim": (
        WALK.replace("state_dim: 1", "state_dim: 0"),
        "state_dim must be a positive integer", 2, 12,
    ),
    "state_dim fraction": (
        WALK.replace("state_dim: 1", "state_dim: 3/2"),
        "state_dim must be a positive integer", 2, 12,
    ),
    "duplicate disturbance": (
        WALK.replace(FINITE, f"{FINITE}\n{FINITE}"),
        "duplicate disturbance declaration", 5, 14,
    ),
    "support of mixed dimension": (
        WALK.replace(FINITE, "disturbance: w finite { (1): 1/2, (0, 1): 1/2 }"),
        "support points of mixed dimension", 4, 35,
    ),
    "box field missing": (
        WALK.replace(FINITE, "disturbance: w box { lo = -1, hi = 1 }"),
        "box needs exactly lo, hi, mean", 4, 38,
    ),
    "box field unknown": (
        WALK.replace(
            FINITE, "disturbance: w box { lo = -1, hi = 1, mean = 0, sd = 1 }"
        ),
        "box needs exactly lo, hi, mean", 4, 49,
    ),
    "box field repeated": (
        WALK.replace(FINITE, "disturbance: w box { lo = -1, hi = 1, lo = 0 }"),
        "box needs exactly lo, hi, mean", 4, 39,
    ),
    "box of mixed dimension": (
        WALK.replace(
            FINITE, "disturbance: w box { lo = -1, hi = (1, 2), mean = 0 }"
        ),
        "box fields of mixed dimension", 4, 36,
    ),
    "box mean outside": (
        WALK.replace(FINITE, "disturbance: w box { lo = -1, mean = 2, hi = 1 }"),
        "box requires lo <= mean <= hi per dimension", 4, 38,
    ),
    "disturbance kind": (
        WALK.replace(FINITE, "disturbance: w normal { (1): 1 }"),
        "disturbance kind must be 'finite' or 'box'", 4, 16,
    ),
    "probability": (
        WALK.replace(FINITE, "disturbance: w finite { (1): 3/2, (0): -1/2 }"),
        "probabilities must be positive", 4, 40,
    ),
    "probabilities sum": (
        WALK.replace(FINITE, "disturbance: w finite { (1): 1/2, (0): 1/3 }"),
        "probabilities sum != 1", 4, 23,
    ),
    "control without in": (
        WALK + "control: k at [0, 1]\n",
        "expected 'in [lo, hi]'", 11, 12,
    ),
    "empty control interval": (
        WALK + "control: k in [1, 0]\n",
        "empty control interval", 11, 15,
    ),
    "duplicate control": (
        WALK + "control: k in [0, 1]\ncontrol: k in [0, 2]\n",
        "duplicate control 'k'", 12, 10,
    ),
    "duplicate guard": (
        WALK.replace("  guard: x >= 0\n", "  guard: x >= 0\n  guard: x >= 1\n"),
        "duplicate guard", 7, 10,
    ),
    "duplicate update": (
        WALK.replace(
            "  update: x' = x - 1\n", "  update: x' = x - 1\n  update: x' = x\n"
        ),
        "duplicate update", 11, 11,
    ),
    "unknown state variable": (
        WALK.replace("update: x' = x - 1", "update: y' = x - 1"),
        "unknown state variable 'y'", 10, 11,
    ),
    "update twice in one line": (
        WALK.replace("update: x' = x - 1", "update: x' = x - 1, x' = x"),
        "duplicate update for 'x'", 10, 23,
    ),
    "missing update": (
        WALK.replace("state_dim: 1", "vars: x y")
        .replace("init: x = 0", "init: x = 0, y = 0")
        .replace("update: x' = x - 1", "update: x' = x - 1, y' = y"),
        "missing update for ['y']", 7, 11,
    ),
    "missing state_dim or vars": (
        WALK.replace("state_dim: 1\n", ""),
        "missing state_dim or vars", 1, 1,
    ),
    "unknown mode in branch header": (
        WALK.replace("branch _ -> _:\n  guard: x < 0", "branch _ -> zz:\n  guard: x < 0"),
        "unknown mode in branch header", 8, 13,
    ),
    "branch missing guard": (
        WALK.replace("  guard: x < 0\n", ""),
        "branch missing guard", 8, 1,
    ),
    "branch missing update": (
        WALK.replace("  update: x' = x - 1\n", ""),
        "branch missing update", 8, 1,
    ),
    "trailing input after a statement": (
        WALK.replace("init: x = 0", "init: x = 0 1"),
        "trailing input", 3, 13,
    ),
    "trailing input after a guard": (
        WALK.replace("guard: x < 0", "guard: x < 0 0"),
        "trailing input", 9, 16,
    ),
    "trailing input after an update": (
        WALK.replace("update: x' = x - 1", "update: x' = x - 1 )"),
        "trailing input", 10, 22,
    ),
    "trailing input after a constraint": (
        WALK + "control: k in [0, 1]\nconstraint: k <= 1 1\n",
        "trailing input", 12, 20,
    ),
    "branch header without an arrow": (
        WALK.replace("branch _ -> _:\n  guard: x < 0", "branch _ _:\n  guard: x < 0"),
        "expected '->', found '_'", 8, 10,
    ),
    "statement without a keyword": (
        WALK + "1: x\n", "expected a statement keyword", 11, 1,
    ),
    # `lp._strict_tableau` adds an LP column of its own, named so that no
    # identifier can be it: a variable named like it is a plain name, and
    # the gap is reported at the first branch
    "gap over a variable named like an LP column": (
        """vars: __t y
init: __t = 0, y = 0
disturbance: w finite { (1): 1/2, (0): 1/2 }
branch _ -> _:
  guard: __t + y <= 0
  update: __t' = __t, y' = y
branch _ -> _:
  guard: __t + y >= 1
  update: __t' = __t, y' = y
""",
        "branch guards do not cover mode '_': uncovered region "
        "{-1*__t - 1*y < 0 and __t + y - 1 < 0}, e.g. state __t = 1/2, y = 0",
        4, 1,
    ),
    "gap in one variable named like an LP column": (
        """vars: __t
init: __t = 0
disturbance: w finite { (1): 1/2, (0): 1/2 }
branch _ -> _:
  guard: __t <= 0
  update: __t' = __t
branch _ -> _:
  guard: __t >= 1
  update: __t' = __t
""",
        "branch guards do not cover mode '_': uncovered region "
        "{-1*__t < 0 and __t - 1 < 0}, e.g. state __t = 1/2",
        4, 1,
    ),
}


@pytest.mark.parametrize("name", list(MODEL_CASES))
def test_model_error_position(name):
    text, message, line, col = MODEL_CASES[name]
    assert _position(parse_model, text) == (message, line, col)


def test_state_dim_without_vars_names_the_variables():
    model = parse_model(
        WALK.replace("state_dim: 1", "state_dim: 2")
        .replace("init: x = 0", "init: x0 = 0, x1 = 1")
        .replace("x' = x + 2*w - 1", "x0' = x0 + 2*w - 1, x1' = x1")
        .replace("x' = x - 1", "x0' = x0 - 1, x1' = x1")
        .replace("x >= 0", "x0 >= 0")
        .replace("x < 0", "x0 < 0")
    )
    assert model.state_vars == ("x0", "x1")


def _parse_dsa_over_x(text):
    return parse_dsa(text, variables=("x",))


# BAND's lines: 2 states, 3 init, 4-6 trans, 7 pair
DSA_CASES = {
    "duplicate init": (
        BAND.replace("init: q0", "init: q0\ninit: q1"),
        "duplicate init", 4, 7,
    ),
    "acceptance set label": (
        BAND.replace("pair: A { q1 }", "pair: X { q1 }"),
        "expected 'A'", 7, 7,
    ),
    "unknown statement": (BAND + "accept: q1\n", "unknown statement 'accept'", 8, 1),
    "missing states": (
        BAND.replace("states: q0 q1\n", ""),
        "missing states declaration", 1, 1,
    ),
    "missing init": (
        BAND.replace("init: q0\n", ""), "missing init declaration", 1, 1
    ),
    "transition to an unknown state": (
        BAND.replace("trans q1 -> q1: true", "trans q1 -> q2: true"),
        "transition names unknown state", 6, 13,
    ),
    "transition from an unknown state": (
        BAND.replace("trans q1 -> q1: true", "trans q2 -> q1: true"),
        "transition names unknown state", 6, 7,
    ),
    "trailing input in a label": (
        BAND.replace("trans q0 -> q0: x >= 1", "trans q0 -> q0: x >= 1 1"),
        "trailing input", 4, 24,
    ),
}


@pytest.mark.parametrize("name", list(DSA_CASES))
def test_dsa_error_position(name):
    text, message, line, col = DSA_CASES[name]
    assert _position(_parse_dsa_over_x, text) == (message, line, col)


INV_CASES = {
    "not at": (
        "in q_ae ev: x >= 0\n",
        "expected 'at <state> [<mode>]:'", 1, 1,
    ),
    "unknown state": (
        "at q_ae ev: true\nat q9 ev: x >= 0\n",
        "unknown automaton state 'q9'", 2, 4,
    ),
    "unknown mode": ("at q_ae zz: x >= 0\n", "unknown mode 'zz'", 1, 9),
    "location without a mode": (
        "  at q_ae: x >= 0\n",
        "model has several modes; location needs one", 1, 10,
    ),
    "duplicate location": (
        "at q_ae ev: true\n  at q_ae ev: x >= 0\n",
        "duplicate location ('q_ae', 'ev')", 2, 3,
    ),
    "trailing input": ("at q_ae ev: x >= 0 x\n", "trailing input", 1, 20),
    "trailing input after false": (
        "at q_ae ev: false 1\n", "trailing input", 1, 19
    ),
}


@pytest.mark.parametrize("name", list(INV_CASES))
def test_invariant_error_position(name):
    bench = load_benchmark("evenOrNegative")  # modes ev, od

    def parse(text):
        return parse_invariant(text, bench.model, bench.dsa)

    text, message, line, col = INV_CASES[name]
    assert _position(parse, text) == (message, line, col)
