"""The benchmark's own tests: fixture conversion, self-time arithmetic,
per-pass scaling to reference speed and the pointwise checker.  Run with ``python -m pytest perfbench/tests``."""

from fractions import Fraction

import pytest

import checks
import pipeline
import tracing
import worker
from streettsm import benchmarks, lp
from streettsm.templates import CertTemplate


@pytest.mark.parametrize("name", ["example2", "Temperature4", "evenOrNegative"])
def test_fixture_invariant_matches_the_inv_file(name):
    bench = benchmarks.load_benchmark(name)
    converted = pipeline.fixture_invariant(bench.cert, bench.model, bench.dsa)
    assert converted.rows == bench.invariant.rows


def test_self_time_subtracts_the_children_covered_part():
    S = tracing.Span
    spans = [
        S("root", 0.0, 10.0, -1, "e"),  # children cover [1, 4] and [5, 7]
        S("a", 1.0, 4.0, 0, "e"),  # child covers [2, 3]
        S("b", 2.0, 3.0, 1, "e"),
        S("c", 5.0, 7.0, 0, "e"),
        S("d", 3.5, 4.5, 0, "e"),  # overlaps a: adds only [4, 4.5]
        S("other", 20.0, 21.0, -1, "e"),
    ]
    assert tracing.self_times(spans) == pytest.approx([4.5, 2.0, 1.0, 2.0, 1.0, 1.0])


def test_layer_metrics_attribute_nested_lp_solves():
    S = tracing.Span
    spans = [
        S("benchmarks.load_benchmark", 0.0, 1.0, -1, "e"),
        S("lp.solve", 0.1, 0.3, 0, "e", {"rows": 4}),
        S("farkas.transform", 1.0, 2.0, -1, "e", {"vacuous": 1, "premise-sat": 2}),
        S("lp.solve", 1.2, 1.5, 2, "e", {"rows": 3}),
    ]
    m = tracing.layer_metrics(spans, repeats=1)
    assert m["benchmarks.lp_solves"] == 1 and m["farkas.lp_solves"] == 1
    assert m["lp.solves"] == 2 and m["lp.rows"] == 7 and m["lp.repeat_solves"] == 1
    assert m["farkas.vacuous"] == 1 and m["farkas.premise_sat"] == 2
    assert m["benchmarks.load_s"] == pytest.approx(0.8)
    assert m["lp.solve_s"] == pytest.approx(0.5)


def test_tracer_records_the_entry_and_restores_the_wrapped_functions():
    before = lp.solve
    tracer = tracing.Tracer()
    tracer.begin_pass()
    tracer.entry = "SafeRWalk1"
    tracer.install()
    try:
        assert lp.solve is not before
        pipeline.check_fixture(pipeline.Entry("SafeRWalk1", "fixture", "valid"))
    finally:
        tracer.uninstall()
    assert lp.solve is before
    names = {s.name for s in tracer.passes[0]}
    assert {"benchmarks.load_benchmark", "lp.solve"} <= names
    assert {s.entry for s in tracer.passes[0]} == {"SafeRWalk1"}


def test_pointwise_checker_rejects_a_bad_certificate():
    entry = pipeline.Entry("RecurRW", "fixture", "valid")
    good = pipeline.check_fixture(entry)
    states = {("q1", "_"): [(Fraction(90),)], ("q0", "_"): [(Fraction(100),)]}
    assert checks.pointwise_violations(good, states) == []
    # V = 0 in q1 as well: nothing decreases on the way back to q0
    flat = CertTemplate.concrete(0, {loc: form.scale(0) for loc, form in good.Vs[0].pieces.items()})
    good.Vs = [flat]
    bad = checks.pointwise_violations(good, states)
    assert any(line.startswith("dec pair 0 at ('q1', '_')") for line in bad)


def test_a_pass_is_scaled_by_the_mean_of_its_speed_samples():
    p = worker.Pass()
    p.raw = {"a": 1.0, "b": 3.0}
    p.samples = [worker.REFERENCE_S, 3 * worker.REFERENCE_S]  # twice as slow
    assert p.wall == 4.0
    assert p.wall * p.scale == pytest.approx(2.0)
    assert p.scaled("b") == pytest.approx(1.5)
    assert worker.speed_sample() > 0
