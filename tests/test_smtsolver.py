"""The bundled solver: honest `unknown` (a squared variable included), a
corpus whose systems are all bilinear with a bipartite product graph, and
one pass of block solves that starts at the linear screen's point and does
not depend on parameter names."""

import os
import sys
from fractions import Fraction

import pytest

from streettsm import backends, farkas, lp, smtsolver
from streettsm.benchmarks import load_benchmark, manifest
from streettsm.expr import Poly, Rel
from streettsm.farkas import ConstraintSystem, PolyConstraint
from streettsm.templates import CertTemplate, post_table
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
    system = ConstraintSystem(names, rows)
    assert smtsolver._product_blocks(list(rows), list(names)) is None
    assert smtsolver._linear_verdict(rows, names).status == "optimal"
    assert smtsolver.decide(system) == ("unknown", None)


def test_contradictory_bilinear_rows_are_an_honest_unknown(lp_calls):
    # a*b >= 1 and a*b <= -1 pass the linear screen (there is no linear
    # row) and have no model: the pass leaves them violated and says so
    rows = (
        le(const(1) - P("a") * P("b")),
        le(const(1) + P("a") * P("b")),
    )
    system = ConstraintSystem(("a", "b"), rows)
    assert smtsolver._linear_verdict(rows, ["a", "b"]).status == "optimal"
    lp_calls.clear()
    assert smtsolver.decide(system) == ("unknown", None)
    # the screen, then one plain feasibility LP per block, each infeasible
    # (the fixed side is 0, so both rows read 1 <= 0)
    assert [obj for _, obj in lp_calls] == [False, False, False]
    assert backends.decide(backends.SolverJob(system)).status == "unknown"


def _assembled(name, inv_source="inv"):
    # as the benchmark's synthesis operation assembles it: a fresh V over
    # the .inv file's invariant or the fixture's, at the fixture's control
    # where the guards carry it
    b = load_benchmark(name)
    model = b.model
    if model.guards_parameter_bearing:
        _, _, control = pipeline.fixture_scalars(b.cert, len(b.dsa.pairs))
        model = model.with_control(control)
    if inv_source == "inv":
        inv = b.invariant
    else:
        inv = pipeline.fixture_invariant(b.cert, model, b.dsa)
    V = CertTemplate.fresh(model, b.dsa, 0)
    vcs = build_product_vcs(
        model, b.dsa, [V], inv, [post_table(V, model, b.dsa)]
    )
    return farkas.assemble(vcs, farkas.transform(vcs))


def _corpus_systems():
    # every corpus entry over each invariant it has, its .inv file and its
    # fixture's, but FinMemoryControl, whose guards carry the control
    for row in manifest()["benchmarks"] + manifest()["extras"]:
        name = row["name"]
        b = load_benchmark(name)
        if b.model.guards_parameter_bearing:
            continue
        sources = ["inv"] if b.invariant is not None else []
        sources += ["fixture"] if b.cert is not None else []
        for source in sources:
            yield f"{name}/{source}", _assembled(name, source)


def test_corpus_systems_are_bilinear_with_no_squared_variable():
    # a block solve has no move for a squared variable (a self-loop makes the
    # product graph non-bipartite, so `decide` says unknown); no corpus
    # system needs one
    seen = []
    for label, system in _corpus_systems():
        seen.append(label)
        rows = system.constraints
        assert max(c.poly.degree() for c in rows) <= 2, label
        for c in rows:
            for mono in c.poly.terms:
                assert len(set(mono)) == len(mono), (label, mono)
        blocks = smtsolver._product_blocks(
            system.constraints, list(system.params)
        )
        assert blocks is not None, label
    assert len(seen) == 13


@pytest.mark.parametrize(
    "name, inv_source",
    [
        pytest.param("example2", "inv", id="example2"),
        pytest.param("Temperature4", "inv", id="Temperature4"),
        # linear at its fixture control, so decided at the screen's point
        pytest.param("FinMemoryControl", "fixture", id="FinMemoryControl"),
    ],
)
def test_descent_does_not_depend_on_parameter_names(name, inv_source):
    # the same system with its parameters renamed so that their name order
    # reverses: the pass walks the same points and returns the same model
    system = _assembled(name, inv_source)
    ranked = sorted(system.params)
    new = {n: f"v{len(ranked) - i:04d}" for i, n in enumerate(ranked)}

    def rename(c):
        terms = c.poly.terms.items()
        poly = Poly({tuple(new[n] for n in mono): k for mono, k in terms})
        return PolyConstraint(poly, c.rel)

    renamed = ConstraintSystem(
        tuple(new[n] for n in system.params),
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
def test_pass_starts_at_the_linear_screen_point(
    monkeypatch, name, inv_source, block_lps
):
    # every linear row already holds at the screen's exact point, so the
    # random walks are models there and Temperature4 needs one block LP
    calls = []
    block_lp = smtsolver._block_lp

    def counted(*args):
        calls.append(args)
        return block_lp(*args)

    monkeypatch.setattr(smtsolver, "_block_lp", counted)
    system = _assembled(name, inv_source)
    status, model = smtsolver.decide(system)
    assert status == "sat" and system.holds(model)
    assert len(calls) <= block_lps


def test_squared_variables_are_unknown():
    # a*a is a self-loop of the product graph, so no two blocks make every
    # row affine; a = -2, b = 0, c = -1 is a model, but a block solve has no
    # move for `a`, and the linear part (b <= 1) refutes nothing
    rows = (
        PolyConstraint(P("a") * P("a") - const(4), Rel.EQ),
        le(P("a") * P("b") + P("c") + const(1)),
        le(P("b") - const(1)),
    )
    system = ConstraintSystem(("a", "b", "c"), rows)
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
    # the linear screen, then one block solve in which a single component
    # has a violated row and its plain feasibility LP is feasible
    system = _assembled(name)
    lp_calls.clear()  # the Farkas screens
    status, model = smtsolver.decide(system)
    assert status == "sat" and system.holds(model)
    assert [obj for _, obj in lp_calls] == [False, False]



def test_infeasible_component_keeps_its_values(lp_calls):
    # a - 1 <= 0 against 2 - a <= 0 clash: the component's one plain LP is
    # infeasible, so nothing moves and `a` keeps its value
    rows = [le(P("a") - const(1)), le(const(2) - P("a"))]
    assert smtsolver._block_lp(rows, ["a"], {"a": F(0)}) == {}
    assert [(s.variables, obj) for s, obj in lp_calls] == [(["a"], False)]
