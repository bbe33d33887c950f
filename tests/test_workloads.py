"""Every synthesis operation of the benchmark's workloads is sat and
passes the independent output checks.

The ten operations of `verify-lp` and `control-descent` run through the
benchmark's own composition (`perfbench/pipeline.py`), and each sat
certificate goes through `perfbench/checks.py`: control bounds and side
constraints, pointwise sampling and the per-VC LP re-check.
"""

import os
import sys

import pytest

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
