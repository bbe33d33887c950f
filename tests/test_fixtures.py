"""Every bundled certificate fixture checks exactly, and every mutant fails.

Each VC of a `*.cert.json` fixture (V, invariant, control, epsilon and M
all taken from the file) must pass `farkas.implication_valid_bruteforce`.
The fixture reader and the mutants are the benchmark's own
(`perfbench/pipeline.py`, `perfbench/checks.py`).
"""

import copy
import os
import sys
from importlib import resources

import pytest

from streettsm import benchmarks

BENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"
)
sys.path[:0] = [BENCH]

import checks  # noqa: E402
import pipeline  # noqa: E402

ROWS = benchmarks.manifest()["benchmarks"] + benchmarks.manifest()["extras"]
FIXTURES = [row["name"] for row in ROWS if row["cert"]]


def test_every_bundled_fixture_is_checked():
    bundled = {
        f.name
        for f in resources.files(benchmarks).iterdir()
        if f.name.endswith(".cert.json")
    }
    assert {row["cert"] for row in ROWS if row["cert"]} == bundled
    assert len(FIXTURES) == len(bundled) == 10


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_vcs_are_valid(name):
    out = pipeline.check_fixture(pipeline.Entry(name, "fixture", "valid"))
    assert out.verdict == "valid", out.detail


@pytest.mark.parametrize(
    "mutant", checks.MUTANTS, ids=[m.entry for m in checks.MUTANTS]
)
def test_mutated_fixture_is_rejected(mutant):
    faults, out = checks.run_mutant(mutant)
    assert out.verdict == "invalid"
    assert faults  # the pointwise check sees it at the mutant's state too


def test_an_unknown_benchmark_names_the_corpus(monkeypatch):
    reads = []
    read = benchmarks.read_corpus_text

    def counting(filename):
        reads.append(filename)
        return read(filename)

    monkeypatch.setattr(benchmarks, "read_corpus_text", counting)
    with pytest.raises(KeyError) as e:
        benchmarks.load_benchmark("NoSuchEntry")
    head, known = e.value.args[0].split("; corpus has: ")
    assert head == "unknown benchmark 'NoSuchEntry'"
    assert known.split(", ") == sorted(row["name"] for row in ROWS)
    # the manifest is read once
    assert reads == ["manifest.json"]


def test_a_certificate_missing_a_location_is_named():
    # V of pair 0 has no piece at q0: a ValueError that names both
    cert = copy.deepcopy(benchmarks.load_benchmark("example2").cert)
    del cert["pairs"][0]["V"]["q0"]
    entry = pipeline.Entry("example2", "fixture", "valid")
    with pytest.raises(ValueError, match=r"pair 0 .*\('q0', '_'\)"):
        pipeline.check_fixture(entry, cert)
