"""The bundled solver: disjunctions under an equality row, honest
`unknown` (a squared variable included), a corpus whose systems are all
bilinear with a bipartite product graph, and a descent that starts at
the linear screen's point and does not depend on parameter names."""

import os
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from streettsm import backends, farkas, lp, smtsolver
from streettsm.backends import simplex_solve
from streettsm.benchmarks import load_benchmark, manifest
from streettsm.expr import Param, ParamKind, Poly, Rel
from streettsm.farkas import ConstraintSystem, Disjunction, PolyConstraint
from streettsm.templates import CertTemplate, InvTemplate, post_table
from streettsm.vcgen import build_product_vcs

BENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"
)
sys.path[:0] = [BENCH]

import pipeline  # noqa: E402

P = Poly.param
F = Fraction


def le(poly) -> PolyConstraint:
    return PolyConstraint(poly, Rel.LE)


def const(q) -> Poly:
    return Poly.const(F(q))


# b - 1 = 0 fixes b to 1
PIN = PolyConstraint(P("b") - const(1), Rel.EQ)

# name: (plain rows besides the pin, left branch, right branch)
CASES = {
    # a <= b and a >= b + 1 both keep a free row
    "both live": (
        [le(P("a") - const(3))],
        (le(P("a") - P("b")),),
        (le(P("b") - P("a") + const(1)),),
    ),
    # b = 2 fails at b = 1, and a + b <= 5 meets a >= 5
    "one refuted": (
        [le(const(5) - P("a"))],
        (PolyConstraint(P("b") - const(2), Rel.EQ),),
        (le(P("a") + P("b") - const(5)),),
    ),
    # the same, with the right branch satisfiable
    "one refuted, sat": (
        [le(const(2) - P("a"))],
        (PolyConstraint(P("b") - const(2), Rel.EQ),),
        (le(P("a") + P("b") - const(5)),),
    ),
    # b < 1 and b >= 2 both fail at b = 1
    "both refuted": (
        [],
        (PolyConstraint(P("b") - const(1), Rel.LT),),
        (le(const(2) - P("b")),),
    ),
    # b <= 1 holds at b = 1, so the unsatisfiable right branch is not needed
    "one holds outright": (
        [le(Poly() - P("a"))],
        (le(P("b") - const(1)),),
        (le(P("a") + const(1)),),
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_disjunction_pruning_agrees_with_the_simplex(name):
    plain, left, right = CASES[name]
    params = (Param("a", ParamKind.CERT), Param("b", ParamKind.CERT))
    system = ConstraintSystem(params, (PIN, *plain, Disjunction(left, right)))
    # sat iff one branch system is sat by LP; else unknown, since the
    # descent proves unsat from the rows outside disjunctions alone
    by_branch = [
        simplex_solve(ConstraintSystem(params, (PIN, *plain, *branch))).status
        for branch in (left, right)
    ]
    expected = "sat" if "sat" in by_branch else "unknown"
    status, model = smtsolver.decide(system)
    assert status == expected
    if status == "sat":
        assert set(model) == {"a", "b"}
        assert system.holds(model)


# small values, so that rows often sit exactly on their boundary
small = st.integers(-2, 2).map(F)
rows = st.builds(
    PolyConstraint,
    st.builds(
        lambda a, b, c: Poly({("a",): a, ("b",): b, (): c}), small, small, small
    ),
    st.sampled_from([Rel.LE, Rel.LT, Rel.EQ]),
)
branches = st.lists(rows, max_size=3).map(tuple)
items = st.one_of(rows, st.builds(Disjunction, branches, branches))
points = st.fixed_dictionaries({"a": small, "b": small})


@given(st.lists(items, max_size=4), points)
@example(  # an empty branch holds; a < 0 sits on its boundary at a = 0
    [
        Disjunction((), (PolyConstraint(P("a"), Rel.LT),)),
        Disjunction((PolyConstraint(P("a"), Rel.LT),), ()),
        PolyConstraint(P("a"), Rel.LT),
    ],
    {"a": F(0), "b": F(0)},
)
def test_zero_violation_is_exactly_holding(constraints, point):
    # the measure's single component is enough: no item sits at violation
    # zero without holding (a strict row on its boundary reports STRICT_GAP)
    for con in constraints:
        assert (smtsolver._violation(con, point) == 0) == con.holds(point)
    worst = smtsolver._measure(constraints, point)
    assert (worst == smtsolver.MEASURE_ZERO) == all(
        con.holds(point) for con in constraints
    )


def test_non_bipartite_products_are_unknown():
    # a*b, b*c and a*c close an odd cycle, so no two blocks make every row
    # affine; the linear part (a <= 2) is feasible, so nothing is refuted
    names = ("a", "b", "c")
    rows = (
        le(P("a") * P("b") - const(1)),
        le(P("b") * P("c") - const(1)),
        le(const(1) - P("a") * P("c")),
        le(P("a") - const(2)),
    )
    system = ConstraintSystem(
        tuple(Param(n, ParamKind.CERT) for n in names), rows
    )
    assert smtsolver._product_blocks(list(rows), list(names)) is None
    assert smtsolver._linear_verdict(rows, names).status == "optimal"
    assert smtsolver.decide(system) == ("unknown", None)


def test_contradictory_bilinear_rows_are_an_honest_unknown():
    # a*b >= 1 and a*b <= -1 pass the linear screen (there is no linear
    # row) and have no model: the descent gives up and says so
    rows = (
        le(const(1) - P("a") * P("b")),
        le(const(1) + P("a") * P("b")),
    )
    system = ConstraintSystem(
        tuple(Param(n, ParamKind.CERT) for n in ("a", "b")), rows
    )
    assert smtsolver._linear_verdict(rows, ["a", "b"]).status == "optimal"
    assert smtsolver.decide(system) == ("unknown", None)
    assert backends.decide(backends.SolverJob(system)).status == "unknown"


def _assembled(name, inv_source="inv"):
    # as the benchmark's synthesis operation assembles it: a fresh V over
    # the .inv file's invariant, the fixture's or a two-row template
    b = load_benchmark(name)
    if inv_source == "inv":
        inv = b.invariant
    elif inv_source == "fixture":
        inv = pipeline.fixture_invariant(b.cert, b.model, b.dsa)
    else:
        inv = InvTemplate.fresh(b.model, b.dsa, nrows=2)
    V = CertTemplate.fresh(b.model, b.dsa, 0)
    vcs = build_product_vcs(
        b.model, b.dsa, [V], inv, [post_table(V, b.model, b.dsa)]
    )
    return farkas.assemble(vcs, farkas.transform(vcs))


def _corpus_systems():
    # every corpus entry over each invariant it has: its .inv file, its
    # fixture's and a fresh two-row template
    for row in manifest()["benchmarks"] + manifest()["extras"]:
        name = row["name"]
        b = load_benchmark(name)
        sources = ["inv"] if b.invariant is not None else []
        sources += ["fixture"] if b.cert is not None else []
        for source in sources + ["fresh"]:
            yield f"{name}/{source}", _assembled(name, source)


def _rows(constraints):
    for con in constraints:
        if isinstance(con, Disjunction):
            yield from con.left + con.right
        else:
            yield con


def test_corpus_systems_are_bilinear_with_no_squared_variable():
    # the descent has no move for a squared variable (a self-loop makes the
    # product graph non-bipartite, so `decide` says unknown); no corpus
    # system needs one
    seen = []
    for label, system in _corpus_systems():
        seen.append(label)
        rows = list(_rows(system.constraints))
        assert max(c.poly.degree() for c in rows) <= 2, label
        for c in rows:
            for mono in c.poly.terms:
                assert len(set(mono)) == len(mono), (label, mono)
        names = [p.name for p in system.params]
        blocks = smtsolver._product_blocks(system.constraints, names)
        assert blocks is not None, label
    assert len(seen) == 27


@pytest.mark.parametrize(
    "name, inv_source",
    [
        pytest.param("example2", "inv", id="example2"),
        pytest.param("Temperature4", "inv", id="Temperature4"),
        # disjunctive, sat at restart 1 after a greedy choice of branches
        pytest.param("FinMemoryControl", "fixture", id="FinMemoryControl"),
    ],
)
def test_descent_does_not_depend_on_parameter_names(name, inv_source):
    # the same system with its parameters renamed so that their name order
    # reverses: the descent walks the same points and returns the same model
    system = _assembled(name, inv_source)
    assert system.has_disjunction() == (name == "FinMemoryControl")
    ranked = sorted(p.name for p in system.params)
    new = {n: f"v{len(ranked) - i:04d}" for i, n in enumerate(ranked)}

    def rename_row(c):
        terms = c.poly.terms.items()
        poly = Poly({tuple(new[n] for n in mono): k for mono, k in terms})
        return PolyConstraint(poly, c.rel)

    def rename(con):
        if isinstance(con, Disjunction):
            return Disjunction(
                tuple(map(rename_row, con.left)),
                tuple(map(rename_row, con.right)),
            )
        return rename_row(con)

    renamed = ConstraintSystem(
        tuple(Param(new[p.name], p.kind) for p in system.params),
        tuple(map(rename, system.constraints)),
    )
    status, model = smtsolver.decide(system)
    assert status == "sat"
    assert smtsolver.decide(renamed) == (
        "sat",
        {new[n]: v for n, v in model.items()},
    )


@pytest.mark.parametrize(
    "name, inv_source, block_lps",
    [
        ("SafeRWalk1", "fixture", 0),
        ("SafeRWalk2", "fixture", 0),
        ("Temperature4", "inv", 1),
    ],
)
def test_restart_zero_starts_at_the_linear_screen_point(
    monkeypatch, name, inv_source, block_lps
):
    # every linear row already holds at the screen's exact point, so the
    # random walks are models there and Temperature4 needs one block LP;
    # restart 0 reads no harvested constants, so none are harvested
    calls = {"_block_lp": 0, "_harvest_pool": 0}
    for fn in calls:
        original = getattr(smtsolver, fn)

        def counted(*args, _fn=fn, _original=original):
            calls[_fn] += 1
            return _original(*args)

        monkeypatch.setattr(smtsolver, fn, counted)
    system = _assembled(name, inv_source)
    status, model = smtsolver.decide(system)
    assert status == "sat" and system.holds(model)
    assert calls["_block_lp"] <= block_lps
    assert calls["_harvest_pool"] == 0


def test_squared_variables_are_unknown():
    # a*a is a self-loop of the product graph, so no two blocks make every
    # row affine; a = -2, b = 0, c = -1 is a model, but the descent has no
    # move for `a`, and the linear part (b <= 1) refutes nothing
    rows = (
        PolyConstraint(P("a") * P("a") - const(4), Rel.EQ),
        le(P("a") * P("b") + P("c") + const(1)),
        le(P("b") - const(1)),
    )
    system = ConstraintSystem(
        tuple(Param(n, ParamKind.CERT) for n in ("a", "b", "c")), rows
    )
    assert system.holds({"a": F(-2), "b": F(0), "c": F(-1)})
    assert smtsolver._product_blocks(list(rows), ["a", "b", "c"]) is None
    assert smtsolver.decide(system) == ("unknown", None)


@pytest.fixture
def lp_calls(monkeypatch):
    """The systems passed to `lp.solve`, with whether each had an
    objective, in call order."""
    calls = []
    solve = lp.solve

    def counting(system, objective=None):
        calls.append((system, objective is not None))
        return solve(system, objective)

    monkeypatch.setattr(lp, "solve", counting)
    return calls


def test_block_round_solves_only_the_violated_component(lp_calls):
    # group (a, b) splits into {a} and {b}; c is fixed by the other block.
    # a = 3/2 holds inside 0 <= a <= c = 4 and is no vertex, so a solve of
    # its component would move it; b = 0 breaks b >= 2
    rows = [
        le(Poly() - P("a")),
        le(P("a") - P("c")),
        le(const(2) - P("b")),
    ]
    point = {"a": F(3, 2), "b": F(0), "c": F(4)}
    moved = smtsolver._block_lp(rows, ["a", "b"], point)
    assert set(moved) == {"b"} and moved["b"] >= 2
    # one plain feasibility LP, over b alone
    assert [(s.variables, obj) for s, obj in lp_calls] == [(["b"], False)]
    # with b repaired, no row of the group is violated: no LP at all
    lp_calls.clear()
    assert smtsolver._block_lp(rows, ["a", "b"], {**point, **moved}) is None
    assert lp_calls == []


@pytest.mark.parametrize("name", ["example2", "Temperature4"])
def test_descent_makes_one_component_lp(lp_calls, name):
    # the linear screen, then one block round in which a single component
    # has a violated row and its plain feasibility LP is feasible
    system = _assembled(name)
    lp_calls.clear()  # the Farkas screens
    status, model = smtsolver.decide(system)
    assert status == "sat" and system.holds(model)
    assert [obj for _, obj in lp_calls] == [False, False]


A = P("a")


@pytest.mark.parametrize(
    "rows, a, worst",
    [
        # a - 1 <= 0 against 2 - a <= 0, both coupling rows, so both soft:
        # the least worst violation is 1/2, at a = 3/2
        pytest.param(
            [(A - const(1), Rel.LE, False), (const(2) - A, Rel.LE, False)],
            F(3, 2),
            F(1, 2),
            id="soft",
        ),
        # the same rows, both local: they clash, so the hard-local LP is
        # infeasible too and `a` keeps its old value
        pytest.param(
            [(A - const(1), Rel.LE, True), (const(2) - A, Rel.LE, True)],
            F(0),
            None,
            id="local-clash",
        ),
        # an `=` coupling row is violated both ways (a - 2 <= worst and
        # 2 - a <= worst): max(|a - 2|, a) is least, 1, at a = 1
        pytest.param(
            [(A - const(2), Rel.EQ, False), (A, Rel.LE, False)],
            F(1),
            F(1),
            id="equality",
        ),
        # a strict local row is held as its closure a <= 1 against the soft
        # a >= 2: a = 1, where the strict row sits on its boundary
        pytest.param(
            [(A - const(1), Rel.LT, True), (const(2) - A, Rel.LE, False)],
            F(1),
            F(1),
            id="strict-local",
        ),
    ],
)
def test_component_lp_falls_back_to_the_worst_violation(
    lp_calls, rows, a, worst
):
    # every case is infeasible as written
    moved = smtsolver._component_lp(["a"], rows, {"a": F(0)})
    assert moved == {"a": a}
    if worst is not None:
        cons = [PolyConstraint(p, r) for p, r, _ in rows]
        assert smtsolver._measure(cons, moved) == worst
    # the plain LP, then one worst-violation LP
    assert [obj for _, obj in lp_calls] == [False, True]
    assert lp_calls[0][0].variables == ["a"]  # the plain LP has no #worst


def test_component_lp_keeps_a_parameter_named_like_its_worst_column(lp_calls):
    # the "soft" case over a parameter named `__worst`: its own column, apart
    # from the worst violation's, which no identifier can name
    W = P("__worst")
    rows = [(W - const(1), Rel.LE, False), (const(2) - W, Rel.LE, False)]
    moved = smtsolver._component_lp(["__worst"], rows, {"__worst": F(0)})
    assert moved == {"__worst": F(3, 2)}
    assert [len(s.variables) for s, _ in lp_calls] == [1, 2]
