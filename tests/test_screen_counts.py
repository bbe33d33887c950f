"""Every feasibility screen of the pipeline is a box of atoms, decided from
the atoms' cached bounds with no LP built, and VC generation is the only
stage that screens a premise or a step.

Over every manifest entry, with a concrete invariant and at the fixture's
control where the guards carry it, loading, Post V, VC generation and the
Farkas routing make no `lp.solve` and no `lp.system_from_atoms` call; every
parameter-free premise VC generation emits is already screened, and the
Farkas routing makes no `lp._atom_box` call.  Loading proves its guard
partitions by counting cells (`model.partition_fault`), with no
`lp.defining_atoms` call.  The fixture check makes exactly one
`lp.solve` per implication whose consequent has a variable: its own LP
maximisation, over a box, which `lp._box_solve` decides; an implication
whose consequent is a constant takes none.  Loading parses each distinct
automaton label once (`automata.parse_dsa`).  The counts are
deterministic.
"""

import os
import sys
from collections import Counter

import pytest

from streettsm import automata, benchmarks, farkas, lp, templates, vcgen
from streettsm.templates import CertTemplate, InvTemplate

BENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"
)
sys.path[:0] = [BENCH]

import pipeline  # noqa: E402

ROWS = benchmarks.manifest()["benchmarks"] + benchmarks.manifest()["extras"]


@pytest.fixture
def calls(monkeypatch):
    """Counts of calls to `lp.solve` and `lp.system_from_atoms`, by name."""
    counts = Counter()
    for name in ("solve", "system_from_atoms"):
        fn = getattr(lp, name)

        def counting(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(lp, name, counting)
    return counts


def _vc_sets(name):
    """The parameter-free VC sets of one entry: over its `.inv` invariant
    and its fixture's, where it has them, or else the invariant true at
    every location; at its fixture's control where its guards carry the
    control."""
    bench = benchmarks.load_benchmark(name)
    model, dsa = bench.model, bench.dsa
    if model.guards_parameter_bearing:
        _, _, control = pipeline.fixture_scalars(bench.cert, len(dsa.pairs))
        model = model.with_control(control)
    invariants = []
    if bench.invariant is None and bench.cert is None:
        locations = templates.locations(model, dsa)
        invariants.append(InvTemplate.concrete({loc: () for loc in locations}))
    if bench.invariant is not None:
        invariants.append(bench.invariant)
    if bench.cert is not None:
        invariants.append(pipeline.fixture_invariant(bench.cert, model, dsa))
    Vs = [CertTemplate.fresh(model, dsa, k) for k in range(len(dsa.pairs))]
    tables = [templates.post_table(V, model, dsa) for V in Vs]
    return [
        vcgen.build_product_vcs(model, dsa, Vs, inv, tables)
        for inv in invariants
    ]


@pytest.mark.parametrize("name", [row["name"] for row in ROWS])
def test_the_stages_build_and_solve_no_lp(name, calls):
    for vcs in _vc_sets(name):
        farkas.transform(vcs)
    assert calls == {}


@pytest.mark.parametrize("name", [row["name"] for row in ROWS])
def test_only_vc_generation_screens_premises(name, monkeypatch):
    boxes = []
    atom_box = lp._atom_box

    def counting(*args):
        boxes.append(args)
        return atom_box(*args)

    for vcs in _vc_sets(name):
        for impl in vcs.implications:
            if all(a.form.is_param_free() for a in impl.premise):
                again = lp.defining_atoms(impl.premise, impl.variables)
                assert again == impl.premise, impl.tag
        with monkeypatch.context() as patch:
            patch.setattr(lp, "_atom_box", counting)
            farkas.transform(vcs)
    assert boxes == []


@pytest.mark.parametrize("name", [row["name"] for row in ROWS])
def test_post_v_screens_no_step(name, monkeypatch):
    bench = benchmarks.load_benchmark(name)
    screened = []
    monkeypatch.setattr(lp, "defining_atoms", lambda *a: screened.append(a))
    V = CertTemplate.fresh(bench.model, bench.dsa, 0)
    templates.post_table(V, bench.model, bench.dsa)
    assert screened == []


def test_loading_proves_every_partition_with_no_screen(monkeypatch):
    screens = []
    monkeypatch.setattr(lp, "defining_atoms", lambda *a: screens.append(a))
    for row in ROWS:
        benchmarks.load_benchmark(row["name"])
    assert len(ROWS) == 13 and screens == []


def _has_variable(impl):
    return bool(impl.consequent.form.coeffs)


@pytest.mark.parametrize(
    "name", [row["name"] for row in ROWS if row["cert"]]
)
def test_the_check_route_solves_one_lp_per_implication(
    name, calls, monkeypatch
):
    # one per implication whose consequent has a variable
    checked = []
    check = farkas.implication_valid_bruteforce

    def counting(impl):
        checked.append(_has_variable(impl))
        return check(impl)

    monkeypatch.setattr(farkas, "implication_valid_bruteforce", counting)
    out = pipeline.check_fixture(pipeline.Entry(name, "fixture", "valid"))
    assert out.verdict == "valid", out.detail
    assert checked and calls["solve"] == sum(checked)


def test_the_check_route_keeps_the_box_path(monkeypatch):
    # every LP maximisation of the fixture check is a box, decided by
    # `lp._box_solve` with no tableau, and no feasibility query takes a
    # box scan on its way to the tableau: one `lp.solve` and one
    # `lp._box_solve` per implication whose consequent has a variable,
    # none for one whose consequent is a constant
    objectives = []  # per `lp.solve` call in progress, was it given one
    box_scans = []  # per `lp._box` call, was its `lp.solve` call given one
    # per checked implication: does its consequent have a variable, and
    # its `lp.solve` and `lp._box_solve` calls
    checked = []
    solve, box, box_solve = lp.solve, lp._box, lp._box_solve
    check = farkas.implication_valid_bruteforce

    def solving(system, objective=None):
        checked[-1][1] += 1
        objectives.append(objective is not None)
        try:
            return solve(system, objective)
        finally:
            objectives.pop()

    def scanning(*args):
        box_scans.append(objectives[-1])
        return box(*args)

    def box_solving(*args):
        assert args[-1] is not None  # its objective
        checked[-1][2] += 1
        return box_solve(*args)

    def checking(impl):
        checked.append([_has_variable(impl), 0, 0])
        return check(impl)

    monkeypatch.setattr(lp, "solve", solving)
    monkeypatch.setattr(lp, "_box", scanning)
    monkeypatch.setattr(lp, "_box_solve", box_solving)
    monkeypatch.setattr(farkas, "implication_valid_bruteforce", checking)
    for entry in pipeline.WORKLOADS["check"][1]:
        out = pipeline.check_fixture(entry)
        assert out.verdict == "valid", out.detail
    assert Counter(map(tuple, checked)) == {
        (True, 1, 1): 142,
        (False, 0, 0): 141,
    }
    assert box_scans and all(box_scans)


def test_loading_parses_each_distinct_label_once(monkeypatch):
    # the automata of the check workload's entries have 73 transitions
    # over 37 distinct label texts, and each text is parsed once
    parsed = []
    parse = automata.parse_conjunction

    def counting(ts, *args):
        parsed.append(ts)
        return parse(ts, *args)

    monkeypatch.setattr(automata, "parse_conjunction", counting)
    transitions = 0
    for entry in pipeline.WORKLOADS["check"][1]:
        transitions += len(benchmarks.load_benchmark(entry.name).dsa.transitions)
    assert (len(parsed), transitions) == (37, 73)
