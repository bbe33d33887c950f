"""The package's own route (`pipeline.synthesize`, `pipeline.failing_vcs`)
and its command line.

Every manifest row over each concrete invariant it has is sat, and its
certificate passes the exact re-check; so does every fixture.  A model
whose guards carry the control is decided one concrete control at a time,
so a control whose guards leave a gap is never sat: the Farkas route over
the guards' parameters (`farkas.transform`) refuses the model, and the
re-check names the gap.  A non-box invariant takes the multiplier route
(`farkas.farkas_premise_sat`), and the verdict values the multipliers
too.  The grid tries each distinct control once.
`python -m streettsm` prints a sat verdict, and the certificate, only
once it is re-checked.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import itertools

from streettsm import backends, benchmarks, farkas, pipeline, templates, vcgen
from streettsm.__main__ import _main
from streettsm.automata import parse_dsa
from streettsm.expr import LinForm
from streettsm.model import ControlParam, parse_model
from streettsm.templates import CertTemplate, parse_invariant

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench")]

import pipeline as bench  # noqa: E402

ROWS = benchmarks.manifest()["benchmarks"] + benchmarks.manifest()["extras"]
F = Fraction


def _invariant(b, source):
    if source == "inv":
        return b.invariant
    return bench.fixture_invariant(b.cert, b.model, b.dsa)


PAIRS = [
    pytest.param(row["name"], source, id=f"{row['name']}-{source}")
    for row in ROWS
    for source, has in (("inv", row["invariant"]), ("fixture", row["cert"]))
    if has
]


def test_fourteen_rows_and_invariants():
    assert len(PAIRS) == 14


@pytest.mark.parametrize("name, source", PAIRS)
def test_every_row_with_an_invariant_is_sat_and_rechecks(name, source):
    b = benchmarks.load_benchmark(name)
    inv = _invariant(b, source)
    out = pipeline.synthesize(b.model, b.dsa, inv)
    assert out.verdict == "sat"
    assert len(out.Vs) == len(out.M) == len(b.dsa.pairs)
    assert set(out.control) == {c.name for c in b.model.controls}
    failed = pipeline.failing_vcs(
        b.model, b.dsa, inv, out.Vs, out.eps, out.M, out.control
    )
    assert failed == []


@pytest.mark.parametrize("name", [row["name"] for row in ROWS if row["cert"]])
def test_every_fixture_passes_the_recheck(name):
    b = benchmarks.load_benchmark(name)
    eps, ms, control = bench.fixture_scalars(b.cert, len(b.dsa.pairs))
    Vs = bench.fixture_certificates(b.cert, b.model, b.dsa)
    inv = bench.fixture_invariant(b.cert, b.model, b.dsa)
    assert pipeline.failing_vcs(b.model, b.dsa, inv, Vs, eps, ms, control) == []


# -- a control whose guards leave a gap ------------------------------------------

# x <= l and x > m partition the line only when l = m; x never decreases
# there, so q1 is visited forever and the pair fails under every control
GAP_MODEL = """
vars: x
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

GAP_DSA = """
states: q0 q1
init: q1
trans q0 -> q1: x >= 0
trans q0 -> q0: x < 0
trans q1 -> q1: x >= 0
trans q1 -> q0: x < 0
pair: A { q1 } B { }
"""

GAP_INV = """
at q0: x >= 5 and x <= 5
at q1: x >= 5 and x <= 5
"""


def test_a_control_whose_guards_leave_a_gap_is_never_sat():
    model = parse_model(GAP_MODEL)
    dsa = parse_dsa(GAP_DSA, variables=model.state_vars, modes=model.modes)
    inv = parse_invariant(GAP_INV, model, dsa)
    # every candidate with l = m is unsat, every other one is rejected,
    # and an exhausted grid is no proof of unsat
    assert pipeline.synthesize(model, dsa, inv).verdict == "unknown"
    # at l = 0, m = 10 no branch fires on 0 < x <= 10, so every VC there
    # would hold vacuously: the re-check reports the gap instead
    zero = CertTemplate.concrete(
        0, {loc: LinForm() for loc in templates.locations(model, dsa)}
    )
    failed = pipeline.failing_vcs(
        model, dsa, inv, [zero], F(1), [F(0)], {"l": F(0), "m": F(10)}
    )
    assert len(failed) == 1 and "leave a gap" in failed[0]
    # the Farkas route over the guards' parameters, whose disjunctive
    # form was once decided sat at l = 0, m = 10, refuses their premises
    Vs = [CertTemplate.fresh(model, dsa, 0)]
    tables = [templates.post_table(V, model, dsa) for V in Vs]
    vcs = vcgen.build_product_vcs(model, dsa, Vs, inv, tables)
    with pytest.raises(ValueError, match="depends on a parameter"):
        farkas.transform(vcs)


# -- the multiplier route -----------------------------------------------------------

# x = y is a line, not a box, so every VC over it takes the premise-sat
# form with one multiplier per row; no corpus entry has such a premise
LINE_MODEL = """
vars: x y
init: x = 0, y = 0
disturbance: w finite { (0): 1/2, (1): 1/2 }
branch _ -> _:
  guard: true
  update: x' = x + w, y' = y + w
"""

LINE_DSA = "states: q0\ninit: q0\ntrans q0 -> q0: true\npair: A { } B { q0 }"


def test_a_non_box_invariant_takes_multipliers_and_rechecks():
    model = parse_model(LINE_MODEL)
    dsa = parse_dsa(LINE_DSA, variables=model.state_vars, modes=model.modes)
    inv = parse_invariant("at q0: x = y\n", model, dsa)
    Vs = [CertTemplate.fresh(model, dsa, 0)]
    tables = [templates.post_table(V, model, dsa) for V in Vs]
    vcs = vcgen.build_product_vcs(model, dsa, Vs, inv, tables)
    system = farkas.assemble(vcs, farkas.transform(vcs))
    zs = [p for p in system.params if p not in vcs.params]
    assert len(zs) == 12 and all(z.startswith("z") for z in zs)
    # the verdict values every parameter, the multipliers too
    verdict = backends.decide(backends.SolverJob(system))
    assert verdict.status == "sat"
    assert list(verdict.valuation) == list(system.params)
    out = pipeline.synthesize(model, dsa, inv)
    assert out.verdict == "sat" and out.M == [F(0)]
    failed = pipeline.failing_vcs(
        model, dsa, inv, out.Vs, out.eps, out.M, out.control
    )
    assert failed == []


# -- the candidate grid -----------------------------------------------------------


def _tried(*bounds):
    controls = [
        ControlParam(f"c{i}", F(lo), F(hi))
        for i, (lo, hi) in enumerate(bounds)
    ]
    candidates = pipeline._candidates(controls)
    return [
        tuple(c.values())
        for c in itertools.islice(candidates, pipeline.CANDIDATES)
    ]


def test_the_grid_tries_midpoints_first_then_ends():
    tried = _tried((0, 8), (0, 8))
    assert tried[:4] == [(4, 4), (4, 0), (0, 4), (0, 0)]
    assert len(tried) == len(set(tried)) == pipeline.CANDIDATES


def test_a_point_interval_repeats_no_candidate():
    # p in [0, 0] has one grid value, so q's whole axis fits the budget
    tried = _tried((0, 0), (-100, 100))
    assert len(tried) == len(set(tried)) == 9
    assert [q for _, q in tried] == [0, -100, 100, -50, 50, -75, -25, 25, 75]
    assert _tried((3, 3)) == [(3,)]


# -- the command line -------------------------------------------------------------

CORPUS = ROOT / "src" / "streettsm" / "benchmarks"


def _run(*args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True
    )


def test_the_command_line_prints_a_rechecked_certificate():
    files = [CORPUS / f"example2.{ext}" for ext in ("model", "dsa", "inv")]
    done = _run("-m", "streettsm", *map(str, files))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "sat"
    assert "M0 = 0" in lines and "kappa = 0" in lines


def test_the_command_line_reports_a_source_error(tmp_path):
    model = tmp_path / "overlap.model"
    model.write_text(
        "state_dim: 1\ninit: x = 0\ndisturbance: w finite { (0): 1 }\n"
        "branch _ -> _:\n  guard: x <= 1\n  update: x' = x\n"
        "branch _ -> _:\n  guard: x >= 0\n  update: x' = x\n"
    )
    files = [model, CORPUS / "example2.dsa", CORPUS / "example2.inv"]
    done = _run("-m", "streettsm", *map(str, files))
    assert done.returncode != 0 and done.stdout == ""
    assert done.stderr.startswith(f"{model}: line 7, col 1: branch guards")


ONE_STATE = "states: q0\ninit: q0\ntrans q0 -> q0: true\npair: A { q0 } B { }"


@pytest.mark.parametrize(
    "model, inv, message",
    [
        pytest.param(
            "disturbance: w finite { (1): 1/2, (0): 1/2 }\n"
            "branch _ -> _:\n  guard: true\n  update: x' = x + 2*w - 1\n",
            "at q0: x < 5\n",
            "strict consequent -5 < 0 is unsupported",
            id="strict-invariant-row",
        ),
        pytest.param(
            "disturbance: w box { lo = -1/10, hi = 1/10, mean = 0 }\n"
            "branch _ -> _:\n  guard: true\n  update: x' = w*x\n",
            "at q0: x >= -100\n",
            "state-times-disturbance product on 'x'",
            id="state-times-box-disturbance",
        ),
    ],
)
def test_the_command_line_reports_a_rejected_input(
    tmp_path, model, inv, message
):
    # both parse; VC generation rejects them, in one line and status 1
    files = {"m.model": "vars: x\ninit: x = 0\n" + model}
    files.update({"a.dsa": ONE_STATE, "a.inv": inv})
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    done = _run("-m", "streettsm", *(str(tmp_path / n) for n in files))
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith(message)
    assert len(done.stderr.splitlines()) == 1


def test_importing_the_command_line_runs_nothing():
    done = _run("-c", "import streettsm.__main__")
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")


def test_a_certificate_that_fails_its_recheck_prints_unknown(
    monkeypatch, capsys
):
    # the verdict is printed only after the re-check
    monkeypatch.setattr(pipeline, "failing_vcs", lambda *args: ["init", "dec"])
    files = [CORPUS / f"example2.{ext}" for ext in ("model", "dsa", "inv")]
    with pytest.raises(SystemExit) as done:
        _main(list(map(str, files)))
    assert done.value.code == 1
    out, err = capsys.readouterr()
    assert out == "unknown\n"
    assert err.splitlines()[1:] == ["  init", "  dec"]
