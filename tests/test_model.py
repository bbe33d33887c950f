"""Tests for model parsing, validation and exact stepping."""

from fractions import Fraction as F

import itertools
import operator
import re
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streettsm import lp
from streettsm.automata import parse_dsa
from streettsm.benchmarks import load_benchmark, manifest
from streettsm.expr import Atom, LinForm, Rel
from streettsm.model import (
    DEFAULT_MODE,
    guards_cover_space,
    negate_atom,
    parse_model,
    partition_fault,
)
from streettsm.syntax import SourceError

WALK = """
state_dim: 1
init: x = 0
disturbance: w finite { (1): 1/2, (0): 1/2 }
branch _ -> _:
  guard: x >= 0
  update: x' = x + 2*w - 1
branch _ -> _:
  guard: x < 0
  update: x' = x - 1
"""

def test_parse_minimal_model():
    m = parse_model(WALK)
    assert m.state_vars == ("x",) and m.modes == (DEFAULT_MODE,)
    assert m.init_state == (F(0),) and m.init_mode == DEFAULT_MODE
    assert m.disturbance.kind == "finite"
    assert m.disturbance.mean_vector() == (F(1, 2),)
    assert len(m.branches) == 2 and not m.guards_parameter_bearing


def test_step_walks_the_right_branch():
    m = parse_model(WALK)
    assert m.step((F(0),), DEFAULT_MODE, (F(1),)) == ((F(1),), DEFAULT_MODE)
    assert m.step((F(0),), DEFAULT_MODE, (F(0),)) == ((F(-1),), DEFAULT_MODE)
    assert m.step((F(-1),), DEFAULT_MODE, (F(1),)) == ((F(-2),), DEFAULT_MODE)


def test_step_frozen_oracles_from_corpus():
    # thermostat with affine feedback: one exact step from the setpoint
    t1 = load_benchmark("Temperature1").model
    nxt, mode = t1.step(
        (F(280),),
        t1.init_mode,
        (F(1),),
        control={"alpha": F(-1, 32), "beta": F(4787, 512)},
    )
    assert nxt == (F(718591, 2560),)

    # parameterized switching logic: guard decides the mode transition
    fmc = load_benchmark("FinMemoryControl").model
    kappa = {"l": F(1, 8), "m": F(14), "p": F(1, 2), "q": F(51), "alpha": F(56)}
    nxt, mode = fmc.step((F(50),), "b1", (F(1),), control=kappa)
    assert (nxt, mode) == ((F(107),), "b1")
    nxt, mode = fmc.step((F(50),), "b1", (F(0),), control=kappa)
    assert (nxt, mode) == ((F(106),), "b1")

    # two-variable system: both components update in one step
    grw = load_benchmark("GuaranteeRW").model
    nxt, mode = grw.step((F(3), F(1)), grw.init_mode, (F(1),))
    assert nxt == (F(14), F(1))

    # randomized parity flip through the middle band
    eon = load_benchmark("evenOrNegative").model
    nxt, mode = eon.step((F(0),), "ev", (F(1),))
    assert (nxt, mode) == ((F(1),), "od")


def test_step_requires_exactly_one_guard():
    # parameter-bearing guards skip the static cover check, so bad control
    # values can gap or overlap the partition; step must catch both
    text = """
state_dim: 1
init: x = 0
disturbance: w finite { (1): 1 }
control: k in [-1, 1]
branch _ -> _:
  guard: k*x <= 0
  update: x' = x
branch _ -> _:
  guard: k*x >= 1
  update: x' = x
"""
    m = parse_model(text)
    assert m.guards_parameter_bearing
    with pytest.raises(ValueError, match="no branch applicable"):
        m.step((F(1, 2),), DEFAULT_MODE, (F(1),), control={"k": F(1)})
    overlap = parse_model(text.replace("k*x >= 1", "k*x >= 0"))
    with pytest.raises(ValueError, match="guard cover violated"):
        overlap.step((F(0),), DEFAULT_MODE, (F(1),), control={"k": F(1)})


def test_corpus_parses_with_expected_flags():
    for row in manifest()["benchmarks"] + manifest()["extras"]:
        name = row["name"]
        b = load_benchmark(name)
        assert len(b.model.state_vars) in (1, 2)
        flagged = b.model.guards_parameter_bearing
        assert flagged == (name == "FinMemoryControl")


def test_guard_overlap_is_rejected_with_witness():
    bad = WALK.replace("guard: x < 0", "guard: x <= 0")
    with pytest.raises(SourceError) as e:
        parse_model(bad)
    assert "overlap" in str(e.value) and "at state x = 0 " in str(e.value)


def test_guard_gap_is_rejected_with_region():
    bad = WALK.replace("guard: x >= 0", "guard: x > 0")
    with pytest.raises(SourceError) as e:
        parse_model(bad)
    assert "do not cover" in str(e.value)
    assert str(e.value).endswith("e.g. state x = 0")


def test_strict_boundaries_partition_exactly():
    # complementary strict/non-strict pairs pass the exact cover check
    parse_model(WALK.replace("x >= 0", "x >= 0").replace("x < 0", "x < 0"))
    both_strict = WALK.replace("x >= 0", "x > 0")
    with pytest.raises(SourceError):
        parse_model(both_strict)


@given(
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=F(1, 4), max_value=3, max_denominator=4),
)
def test_threshold_partitions_cover_iff_exact(t, gap):
    u = t + gap
    tmpl = """
state_dim: 1
init: x = 0
disturbance: w finite { (1): 1 }
branch _ -> _:
  guard: x < %s
  update: x' = x
branch _ -> _:
  guard: %s <= x and x < %s
  update: x' = x
branch _ -> _:
  guard: x >= %s
  update: x' = x
"""

    def lit(q):
        return f"({q.numerator}/{q.denominator})"

    good = tmpl % (lit(t), lit(t), lit(u), lit(u))
    parse_model(good)  # exact three-interval partition
    gap_text = good.replace(f"{lit(t)} <= x", f"{lit(t)} < x", 1)
    with pytest.raises(SourceError, match="do not cover"):
        parse_model(gap_text)
    overlap = good.replace(f"x < {lit(t)}", f"x <= {lit(t)}", 1)
    with pytest.raises(SourceError, match="overlap"):
        parse_model(overlap)


OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
offsets = st.sampled_from([F(0), F(1, 2), F(1), F(3)])


@st.composite
def guards_through(draw, point):
    """A conjunction of one-variable atoms (var, op, const) over x and y
    that holds at `point`, strict and non-strict mixed."""
    guard = []
    for _ in range(draw(st.integers(1, 3))):
        v, op = draw(st.sampled_from("xy")), draw(st.sampled_from(sorted(OPS)))
        d = draw(offsets.filter(bool) if len(op) == 1 else offsets)
        guard.append((v, op, point[v] + d if op[0] == "<" else point[v] - d))
    return guard


def _text(guard):
    return " and ".join(
        f"{v} {op} ({c.numerator}/{c.denominator})" for v, op, c in guard
    )


def _holds(guard, state):
    return all(OPS[op](state[v], c) for v, op, c in guard)


def _named_state(message, names):
    # the state is printed as `x = 1/2, y = 3`
    values = re.search(
        ", ".join(rf"{v} = (-?\d+(?:/\d+)?)" for v in names), message
    )
    assert values is not None
    return {v: F(text) for v, text in zip(names, values.groups())}


def _atom(v, op, c):
    # v > c and v >= c flip to c - v < 0 and c - v <= 0
    form = LinForm.var(v) - LinForm.constant(c)
    if op in (">", ">="):
        form = -form
    return Atom(form, Rel.LT if op in ("<", ">") else Rel.LE)


points = st.fixed_dictionaries(
    {v: st.fractions(-2, 2, max_denominator=2) for v in "xy"}
)


@given(points, st.data())
def test_overlap_error_names_a_state_in_both_guards(p, data):
    g1, g2 = data.draw(guards_through(p)), data.draw(guards_through(p))
    text = f"""
vars: x y
init: x = 0, y = 0
disturbance: w finite {{ (1): 1 }}
branch _ -> _:
  guard: {_text(g1)}
  update: x' = x, y' = y
branch _ -> _:
  guard: {_text(g2)}
  update: x' = x, y' = y
"""
    with pytest.raises(SourceError, match="overlap") as e:
        parse_model(text)
    state = _named_state(str(e.value), "xy")
    assert _holds(g1, state) and _holds(g2, state)


def test_uncovered_region_point_meets_its_strict_atoms():
    # uncovered: 0 < x <= 1 and y < 0, strict on x's lower and y's upper
    # end; the slack transform's tableau point
    guards = [
        (_atom("x", "<=", F(0)),),
        (_atom("x", ">", F(1)),),
        (_atom("y", ">=", F(0)),),
    ]
    ok, region, point = guards_cover_space(guards, ("x", "y"))
    assert not ok and point == {"x": F(1), "y": F(-1)}
    assert all(a.holds({}, point) for a in region)


@given(st.lists(st.lists(
    st.tuples(
        st.sampled_from("xy"),
        st.sampled_from(sorted(OPS)),
        st.fractions(-2, 2, max_denominator=2),
    ),
    min_size=1, max_size=2,
), min_size=1, max_size=4))
def test_uncovered_point_is_in_its_region_and_in_no_guard(drawn):
    guards = [tuple(_atom(*a) for a in g) for g in drawn]
    ok, region, point = guards_cover_space(guards, ("x", "y"))
    if ok:
        return
    assert all(a.holds({}, point) for a in region)
    assert not any(_holds(g, point) for g in drawn)


# -- the cover check against the LP walk ---------------------------------------


def _atoms_feasible(atoms, variables):
    return lp.solve(lp.system_from_atoms(atoms, variables))


def _lp_cover(guards, variables):
    """The cover check as an LP per partial region (the oracle)."""
    negated = [[negate_atom(a) for a in g] for g in guards]

    def extend(region):
        # depth-first over one negated atom per guard, in product order;
        # an infeasible partial region prunes every completion of it
        res = _atoms_feasible(region, variables)
        if res.status != "optimal":
            return None
        if len(region) == len(negated):
            return region, {v: res.assignment[v] for v in variables}
        for atom in negated[len(region)]:
            found = extend(region + [atom])
            if found is not None:
                return found
        return None

    found = extend([])
    if found is None:
        return True, [], None
    region, point = found
    return False, region, point


def _lp_partition_fault(guards, variables):
    """`partition_fault` with every pair decided by LP (the oracle)."""
    for i, j in itertools.combinations(range(len(guards)), 2):
        res = _atoms_feasible(list(guards[i] + guards[j]), variables)
        if res.status == "optimal":
            return "overlap", (i, j), {v: res.assignment[v] for v in variables}
    ok, region, point = _lp_cover(guards, variables)
    return None if ok else ("gap", region, point)


cover_atoms = st.one_of(
    st.builds(
        lambda v, a, c, rel: Atom(
            (LinForm.var(v) - LinForm.constant(c)).scale(a), rel
        ),
        st.sampled_from("xyz"),
        st.sampled_from([F(1), F(-1), F(2), F(-3), F(1, 3)]),
        st.sampled_from([F(-1), F(0), F(1, 2), F(1)]),
        st.sampled_from([Rel.LE, Rel.LT]),
    ),
    st.builds(
        lambda c, rel: Atom(LinForm.constant(c), rel),
        st.sampled_from([F(-1), F(0), F(1)]),
        st.sampled_from([Rel.LE, Rel.LT]),
    ),
)
# 1-6 guards of 0-2 atoms each; an empty guard holds everywhere
guard_sets = st.lists(
    st.lists(cover_atoms, max_size=2).map(tuple), min_size=1, max_size=6
)


@settings(max_examples=200, deadline=None)
@given(guard_sets)
def test_cover_check_matches_the_lp_walk(guards):
    variables = ("x", "y", "z")
    assert guards_cover_space(guards, variables) == _lp_cover(guards, variables)
    assert partition_fault(guards, variables) == _lp_partition_fault(
        guards, variables
    )


def _grid(k, closed):
    """The k x k half-open boxes  i <= x < i + 1, j <= y < j + 1  over
    0 <= i, j < k, or  i < x <= i + 1, ...  when `closed` is "upper", the
    outer ones open to infinity: a partition of R^2."""
    rels = (Rel.LE, Rel.LT)
    low_rel, high_rel = rels if closed == "lower" else rels[::-1]

    def strip(v, i):
        form = LinForm.var(v)
        low = (Atom(LinForm.constant(i) - form, low_rel),) if i else ()
        high = (Atom(form - LinForm.constant(i + 1), high_rel),) * (i < k - 1)
        return low + high

    return [strip("x", i) + strip("y", j) for i in range(k) for j in range(k)]


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("closed", ["lower", "upper"])
def test_a_grid_of_boxes_is_decided_by_counting_cells(k, closed, monkeypatch):
    screens = []
    monkeypatch.setattr(lp, "defining_atoms", lambda *a: screens.append(a))
    assert partition_fault(_grid(k, closed), ("x", "y")) is None
    assert screens == []


# every cell of the small grids; the last cell of the larger ones, whose gap
# the search over negated atoms finds first (it takes seconds on an early
# cell of the 5 x 5 grid, and the LP walk longer)
GRID_CELLS = [(k, c) for k in (2, 3) for c in range(k * k)] + [(4, 15), (5, 24)]


@pytest.mark.parametrize("k, cell", GRID_CELLS)
@pytest.mark.parametrize("closed", ["lower", "upper"])
@pytest.mark.parametrize("fault", ["gap", "overlap"])
def test_a_grid_with_a_cell_dropped_or_duplicated_matches_the_lp_walk(
    k, cell, closed, fault
):
    guards = _grid(k, closed)
    if fault == "gap":
        del guards[cell]
    else:
        guards.append(guards[cell])
    got = partition_fault(guards, ("x", "y"))
    assert got is not None and got[0] == fault
    assert got == _lp_partition_fault(guards, ("x", "y"))


def test_a_guard_over_two_variables_is_decided_by_lp():
    # x + y < 1 or x >= 1 or y >= 2 leaves {x + y >= 1, x < 1, y < 2}
    x, y = LinForm.var("x"), LinForm.var("y")
    one = LinForm.constant(1)
    guards = [
        (Atom(x + y - one, Rel.LT),),
        (Atom(one - x, Rel.LE),),
        (Atom(LinForm.constant(2) - y, Rel.LE),),
    ]
    want = _lp_cover(guards, ("x", "y"))
    assert not want[0]
    assert guards_cover_space(guards, ("x", "y")) == want
    assert partition_fault(guards, ("x", "y")) == _lp_partition_fault(
        guards, ("x", "y")
    )


@given(st.fractions(min_value=-4, max_value=4, max_denominator=8))
def test_step_matches_piecewise_oracle(x):
    # independent piecewise formula for the parity/negative walk
    m = load_benchmark("evenOrNegative").model
    for mode in ("ev", "od"):
        for w in (F(0), F(1)):
            nxt, nmode = m.step((x,), mode, (w,))
            if x >= F(1, 2):
                want = (x + 1, {"ev": "od", "od": "ev"}[mode])
            elif x <= F(-1, 2):
                want = (x - 2, mode)
            elif mode == "ev":
                want = (2 * w - 1, "od")
            else:
                want = (x + 1, "ev")
            assert (nxt[0], nmode) == want


def test_probability_validation():
    bad_sum = WALK.replace("(1): 1/2, (0): 1/2", "(1): 1/2, (0): 1/3")
    with pytest.raises(SourceError, match="sum != 1"):
        parse_model(bad_sum)
    bad_sign = WALK.replace("(1): 1/2, (0): 1/2", "(1): 3/2, (0): -1/2")
    with pytest.raises(SourceError, match="positive"):
        parse_model(bad_sign)


def test_box_disturbance_validation():
    box = WALK.replace(
        "w finite { (1): 1/2, (0): 1/2 }",
        "w box { lo = -1, hi = 1, mean = 1/4 }",
    )
    m = parse_model(box)
    assert m.disturbance.kind == "box"
    assert m.disturbance.mean_vector() == (F(1, 4),)
    bad = box.replace("mean = 1/4", "mean = 2")
    with pytest.raises(SourceError, match="lo <= mean <= hi"):
        parse_model(bad)


FINITE = "disturbance: w finite { (1): 1/2, (0): 1/2 }"


@pytest.mark.parametrize(
    "old, new",
    [
        ("init: x = 0", "init: x = 1/0"),
        (FINITE, "disturbance: w finite { (1/0): 1/2, (0): 1/2 }"),
        (FINITE, "disturbance: w finite { (1): 1/2, (0): 1/0 }"),
        (FINITE, "disturbance: w box { lo = -1, hi = 1/0, mean = 0 }"),
        ("init: x = 0", "init: x = 0\ncontrol: k in [-1/0, 1]"),
    ],
    ids=["init", "support-value", "probability", "box-field", "control-bound"],
)
def test_a_zero_denominator_is_reported_at_it(old, new):
    text = WALK.replace(old, new)
    statement = new.splitlines()[-1]
    line = text.splitlines().index(statement) + 1
    col = statement.index("/0") + 2
    with pytest.raises(
        SourceError, match=f"^line {line}, col {col}: division by zero$"
    ):
        parse_model(text)


def test_box_quadratic_disturbance_rejected():
    # the box mean stands in for w in Post V, which is exact for affine V
    # only when no update monomial carries two disturbance factors
    box = WALK.replace(
        "w finite { (1): 1/2, (0): 1/2 }",
        "w box { lo = -1, hi = 1, mean = 0 }",
    )
    parse_model(box.replace("x' = x - 1", "x' = w*x - 1"))
    with pytest.raises(SourceError, match="quadratic disturbance") as e:
        parse_model(box.replace("x' = x - 1", "x' = x + w*w"))
    assert (e.value.line, e.value.col) == (10, 11)


def test_missing_declarations():
    with pytest.raises(SourceError, match="missing disturbance"):
        parse_model("state_dim: 1\ninit: x = 0\nbranch _ -> _:\n"
                    "  guard: true\n  update: x' = x\n")
    with pytest.raises(SourceError, match="missing init"):
        parse_model("state_dim: 1\n"
                    "disturbance: w finite { (1): 1 }\n"
                    "branch _ -> _:\n  guard: true\n  update: x' = x\n")
    with pytest.raises(SourceError, match="no branches"):
        parse_model("state_dim: 1\ninit: x = 0\n"
                    "disturbance: w finite { (1): 1 }\n")
    with pytest.raises(SourceError, match="state_dim 2 != 1"):
        parse_model("state_dim: 2\nvars: x\ninit: x = 0\n"
                    "disturbance: w finite { (1): 1 }\n"
                    "branch _ -> _:\n  guard: true\n  update: x' = x\n")


def test_name_collisions_and_duplicates():
    clash = WALK.replace("disturbance: w", "disturbance: x")
    with pytest.raises(SourceError, match="name used twice"):
        parse_model(clash)
    dup = WALK + "control: k in [0, 1]\ncontrol: k in [0, 2]\n"
    with pytest.raises(SourceError, match="duplicate control"):
        parse_model(dup)
    modes = WALK.replace("state_dim: 1", "state_dim: 1\nmodes: a b")
    line = "init: x = 0, mode = a, mode = b"
    twice = modes.replace("init: x = 0", line)
    with pytest.raises(SourceError, match="duplicate init for 'mode'") as err:
        parse_model(twice)
    # anchored at the second `mode` token
    assert err.value.line == twice.splitlines().index(line) + 1
    assert err.value.col == line.rindex("mode") + 1


def test_update_outside_block_is_an_error():
    with pytest.raises(SourceError, match="outside a branch block"):
        parse_model("state_dim: 1\nupdate: x' = x\n")


@pytest.mark.parametrize(
    "line, keyword",
    [("post _:", "post"), ("  case 1 -> _: x' = x", "case")],
    ids=["post", "case"],
)
def test_post_table_syntax_is_rejected(line, keyword):
    with pytest.raises(SourceError, match=f"unknown statement '{keyword}'") as err:
        parse_model(WALK + line + "\n")
    assert err.value.line == len(WALK.splitlines()) + 1


DSA = "states: a\ninit: a\ntrans a -> a: true\npair: A { } B { }\n"


def _parse_dsa_over_x(text):
    return parse_dsa(text, variables=("x",))


@pytest.mark.parametrize(
    "keyword, parse, text",
    [
        ("state_dim", parse_model, WALK.replace("state_dim: 1", "state_dim: 1\n" * 2)),
        ("vars", parse_model, WALK.replace("state_dim: 1", "vars: x\nvars: x")),
        ("modes", parse_model, WALK + "modes: _\nmodes: _\n"),
        ("init", parse_model, WALK.replace("init: x = 0", "init: x = 0\ninit: x = 5")),
        ("states", _parse_dsa_over_x, "states: a b\n" + DSA),
    ],
    ids=["state_dim", "vars", "modes", "init", "states"],
)
def test_repeated_one_shot_declaration_is_an_error(keyword, parse, text):
    # the error names the repeated declaration and points at its line
    lines = [
        i
        for i, ln in enumerate(text.splitlines(), 1)
        if ln.startswith(keyword + ":")
    ]
    with pytest.raises(SourceError, match=f"duplicate {keyword} declaration") as err:
        parse(text)
    assert err.value.line == lines[1]


def test_side_constraints_parse_over_controls_only():
    text = WALK + "control: kappa in [-4, 4]\n" + "constraint: 2*kappa <= 1\n"
    m = parse_model(text)
    assert len(m.side_constraints) == 1
    assert m.side_constraints[0].holds({"kappa": F(1, 2)}, {})
    assert not m.side_constraints[0].holds({"kappa": F(1)}, {})
    with pytest.raises(SourceError, match="unknown name"):
        parse_model(WALK + "constraint: x <= 1\n")


def test_errors_point_at_their_statement_line():
    # errors found once every statement is read name the statement's line
    def line_of(text, match):
        with pytest.raises(SourceError, match=match) as e:
            parse_model(text)
        return e.value.line

    def line_in(text, statement):
        return text.splitlines().index(statement) + 1

    corpus = resources.files("streettsm.benchmarks")
    line = "init: mode = zz, x = 50"
    bad = (corpus / "RecurRW.model").read_text().replace("init: x = 50", line)
    assert line_of(bad, "unknown init mode 'zz'") == line_in(bad, line) == 4

    two = WALK.replace("state_dim: 1", "vars: x y")
    assert line_of(two, "init must assign") == line_in(two, "init: x = 0")
    modes = WALK.replace("state_dim: 1", "state_dim: 1\nmodes: a b")
    assert line_of(modes, "init must name a mode") == line_in(
        modes, "init: x = 0"
    )
    idle = modes.replace("init: x = 0", "init: x = 0, mode = a").replace(
        "branch _ -> _", "branch a -> a"
    )
    assert line_of(idle, "mode 'b' has no branches") == line_in(
        idle, "modes: a b"
    )

    dist = WALK.replace("disturbance: w", "disturbance: x")
    assert line_of(dist, "name used twice") == line_in(
        dist, "disturbance: x finite { (1): 1/2, (0): 1/2 }"
    )
    control = WALK + "control: k in [0, 1]\ncontrol: x in [0, 1]\n"
    assert line_of(control, "name used twice") == line_in(
        control, "control: x in [0, 1]"
    )

    # the later of the two declarations that disagree
    for header in ("state_dim: 2\nvars: x", "vars: x\nstate_dim: 2"):
        text = WALK.replace("state_dim: 1", header)
        later = line_in(text, header.splitlines()[1])
        assert line_of(text, "state_dim 2 != 1") == later


def test_a_control_may_not_reuse_a_disturbance_name():
    # the control would become the disturbance's parameter in the updates,
    # and Post V would substitute the disturbance for it
    def clash_line(text, name):
        with pytest.raises(SourceError, match=f"twice: \\['{name}'\\]") as e:
            parse_model(text)
        return e.value.line

    decl = "disturbance: w finite { (1): 1/2, (0): 1/2 }"
    ctl = "control: w in [0, 1]"
    after = WALK + f"control: k in [0, 1]\n{ctl}\n"
    assert clash_line(after, "w") == after.splitlines().index(ctl) + 1
    before = WALK.replace(decl, f"{ctl}\n{decl}")
    assert clash_line(before, "w") == before.splitlines().index(ctl) + 1
    # a component of a vector disturbance, and its base name
    pair = "disturbance: w finite { (1, 0): 1/2, (0, 1): 1/2 }"
    vector = WALK.replace(decl, pair).replace("2*w", "2*w0")
    for name in ("w1", "w"):
        text = vector + f"control: {name} in [0, 1]\n"
        assert clash_line(text, name) == len(text.splitlines())


# guards `x <= l` and `x > m` partition the line only when l = m, and
# then x never decreases
GAPPED = """
state_dim: 1
init: x = 5
disturbance: w finite { (0): 1/2, (1): 1/2 }
control: l in [0, 10]
control: m in [0, 10]
branch _ -> _:
  guard: x <= l
  update: x' = x + w
branch _ -> _:
  guard: x > m
  update: x' = x + w
"""


def test_with_control_rejects_a_control_that_leaves_a_gap():
    model = parse_model(GAPPED)
    assert model.guards_parameter_bearing
    with pytest.raises(ValueError, match="leave a gap") as e:
        model.with_control({"l": 0, "m": 10})
    x = F(re.search(r"x = (\S+)", str(e.value)).group(1))
    assert 0 < x <= 10  # no guard holds there at l = 0, m = 10
    with pytest.raises(ValueError, match="overlap"):
        model.with_control({"l": 6, "m": 4})


def test_with_control_gives_a_controlless_model_that_steps():
    fixed = parse_model(GAPPED).with_control({"l": 5, "m": F(5)})
    assert fixed.controls == () and fixed.side_constraints == ()
    assert not fixed.guards_parameter_bearing
    assert all(
        a.form.is_param_free() for br in fixed.branches for a in br.guard
    )
    for x in (F(5), F(6)):
        assert fixed.step((x,), DEFAULT_MODE, (F(1),)) == ((x + 1,), DEFAULT_MODE)


def test_with_control_checks_the_declared_box_and_side_constraints():
    model = parse_model(GAPPED + "constraint: l + m <= 12\n")
    with pytest.raises(ValueError, match="outside"):
        model.with_control({"l": 11, "m": 11})
    with pytest.raises(ValueError, match="side constraint"):
        model.with_control({"l": 7, "m": 7})
    with pytest.raises(ValueError, match="declares"):
        model.with_control({"l": 5})
    assert model.with_control({"l": 6, "m": 6}).controls == ()


def test_every_fixture_control_gives_a_well_defined_model():
    fixed = 0
    for row in manifest()["benchmarks"]:
        bench = load_benchmark(row["name"])
        control = (bench.cert or {}).get("control")
        if control:
            model = bench.model.with_control(
                {k: F(v) for k, v in control.items()}
            )
            assert model.controls == () and model.side_constraints == ()
            # the control is gone from the updates, the disturbance stays
            noise = set(model.disturbance.component_names())
            for br in model.branches:
                for form in br.update.values():
                    assert form.params() <= noise
                assert all(a.form.is_param_free() for a in br.guard)
            fixed += 1
    assert fixed == 4  # FinMemoryControl's guards carry its control


def test_with_control_copies_every_field_it_does_not_substitute():
    bench = load_benchmark("FinMemoryControl")
    model = bench.model
    control = {k: F(v) for k, v in bench.cert["control"].items()}
    kept = ("state_vars", "modes", "init_state", "init_mode", "disturbance")
    fields = kept + ("branches", "controls", "side_constraints")
    before = {name: getattr(model, name) for name in fields}
    branches = [
        (br.mode_from, br.mode_to, br.line, br.guard, dict(br.update))
        for br in model.branches
    ]
    assert model.controls and model.guards_parameter_bearing
    fixed = model.with_control(control)
    for name in kept:
        assert getattr(fixed, name) is before[name]
    assert fixed.controls == () and fixed.side_constraints == ()
    assert len(fixed.branches) == len(branches)
    assert len({br.mode_to for br in fixed.branches}) > 1
    for new, (mode_from, mode_to, line, guard, update) in zip(
        fixed.branches, branches
    ):
        assert (new.mode_from, new.mode_to, new.line) == (mode_from, mode_to, line)
        assert new.guard == tuple(
            Atom(a.form.substitute_params(control), a.rel) for a in guard
        )
        assert new.update == {
            v: f.substitute_params(control) for v, f in update.items()
        }
    # the original model and its branches are unchanged
    for name in fields:
        assert getattr(model, name) is before[name]
    for old, (mode_from, mode_to, line, guard, update) in zip(
        model.branches, branches
    ):
        assert (old.mode_from, old.mode_to, old.line) == (mode_from, mode_to, line)
        assert old.guard is guard and old.update == update
