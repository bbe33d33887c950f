"""Every synthesis operation of the benchmark's workloads is sat and
passes the independent output checks.

The ten operations of `verify-lp` and `control-descent` run through the
benchmark's own composition (`perfbench/pipeline.py`), and each sat
certificate goes through `perfbench/checks.py`: control bounds and side
constraints, pointwise sampling and the per-VC LP re-check.  The same
route also runs on an automaton with two Streett pairs.  `FinMemoryControl`
over its fixture invariant, the one corpus row whose guards carry the
control, goes through the package's route (`pipeline.synthesize`), which
fixes the control before it decides, and its certificate through the same
checks.
"""

import os
import sys

import pytest

from streettsm import benchmarks, lp, templates
from streettsm import pipeline as package
from streettsm.automata import parse_dsa
from streettsm.templates import parse_invariant

BENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"
)
sys.path[:0] = [BENCH]

import checks  # noqa: E402
import pipeline  # noqa: E402

SYNTH = [
    pytest.param(entry, id=f"{workload}-{entry.name}")
    for workload in ("verify-lp", "control-descent")
    for entry in pipeline.WORKLOADS[workload][1]
]


def test_the_synthesis_workloads_have_ten_operations():
    assert len(SYNTH) == 10
    for workload in ("verify-lp", "control-descent"):
        assert pipeline.WORKLOADS[workload][0] == "synth"


@pytest.mark.parametrize("entry", SYNTH)
def test_synthesis_is_sat_and_checks(entry):
    out = pipeline.synthesize(entry)
    assert out.verdict == "sat"
    assert checks.output_faults(out, 1) == []


def test_fin_memory_control_is_sat_at_the_first_candidate(monkeypatch):
    # its guards carry the control, so the control is fixed first: the
    # first candidate, the midpoint of every [-100, 100], makes every VC
    # parameter-free and the system one LP
    b = benchmarks.load_benchmark("FinMemoryControl")
    inv = pipeline.fixture_invariant(b.cert, b.model, b.dsa)
    solves = []
    solve = lp.solve

    def counting(*args, **kwargs):
        solves.append(args)
        return solve(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(lp, "solve", counting)
        found = package.synthesize(b.model, b.dsa, inv)
    assert found.verdict == "sat" and len(solves) == 1
    assert set(found.control.values()) == {0}
    out = pipeline.Outcome(
        found.verdict, b, inv, found.Vs, found.eps, found.M, found.control
    )
    assert checks.output_faults(out, 1) == []
    failed = package.failing_vcs(
        b.model, b.dsa, inv, found.Vs, found.eps, found.M, found.control
    )
    assert failed == []


def test_two_streett_pairs_synthesize_and_share_their_steps(monkeypatch):
    # Temperature4 with a second pair: q3 (the unsafe latch) finitely often
    b = benchmarks.load_benchmark("Temperature4")
    text = benchmarks.read_corpus_text("Temperature4.dsa")
    dsa = parse_dsa(
        text + "pair: A { q3 } B { }\n",
        variables=b.model.state_vars,
        modes=b.model.modes,
    )
    assert len(dsa.pairs) == 2
    inv = parse_invariant(
        benchmarks.read_corpus_text("Temperature4.inv"), b.model, dsa
    )
    two = benchmarks.Benchmark(b.name, b.mode, b.model, dsa, inv, b.cert, b.files)
    monkeypatch.setattr(benchmarks, "load_benchmark", lambda name: two)
    out = pipeline.synthesize(pipeline.Entry("Temperature4", "inv", "sat"))
    assert out.verdict == "sat"
    assert len(out.Vs) == len(out.M) == 2
    assert pipeline.failing_vcs(out) == []
    tables = [templates.post_table(V, b.model, dsa) for V in out.Vs]
    steps = [
        [(p.location, p.edge, p.branch) for p in table.pieces]
        for table in tables
    ]
    assert steps[0] and steps[0] == steps[1]
