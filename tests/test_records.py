"""The package's record classes: plain classes with `__slots__` and their
own `__init__`, so that importing `streettsm` generates no code.  The one
dataclass left is `vcgen.Implication`, which the benchmark copies with
`dataclasses.replace`.  The records that are compared or hashed keep value
equality."""

import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import streettsm
from streettsm.automata import GuardedDSA, StreettPair, Transition
from streettsm.backends import SolverJob, Verdict
from streettsm.benchmarks import Benchmark
from streettsm.expr import Atom, LinForm, Param, ParamKind, Poly, Rel
from streettsm.farkas import ConstraintSystem, DualConstraint, PolyConstraint
from streettsm.lp import LinearSystem, LPResult
from streettsm.model import Branch, ControlParam, Disturbance, StochModel
from streettsm.pipeline import Synthesis
from streettsm.syntax import ModeTest, Token
from streettsm.templates import CertTemplate, InvTemplate, PostPiece, PostTable
from streettsm.vcgen import VCSet

SRC = Path(next(iter(streettsm.__path__))).parent

COUNT_DATACLASSES = """
import dataclasses, json

made, plain = [], dataclasses.dataclass

def counting(cls=None, /, **kw):
    def wrap(c):
        made.append(c.__qualname__)
        return plain(c, **kw)
    return wrap if cls is None else wrap(cls)

dataclasses.dataclass = counting
import streettsm.backends, streettsm.benchmarks
print(json.dumps(made))
"""


def test_importing_the_package_builds_one_dataclass():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", COUNT_DATACLASSES],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(out.stdout) == ["Implication"]


def _x() -> LinForm:
    return LinForm.var("x")


def _row() -> PolyConstraint:
    return PolyConstraint(Poly.param("a"), Rel.LE)


# one instance of each record class but `Implication`
RECORDS = [
    Param("a", ParamKind.CERT),
    Atom(_x(), Rel.LE),
    Token("ident", "x", 1, 1),
    ModeTest("m", True),
    LinearSystem(["x"]),
    LPResult("infeasible"),
    Disturbance("w", 1, support=(((F(0),), F(1)),)),
    Branch("_", "_", (), {"x": _x()}),
    ControlParam("k", F(0), F(1)),
    StochModel(("x",), ("_",), (F(0),), "_", Disturbance("w", 1), ()),
    StreettPair(frozenset({"q0"}), frozenset()),
    Transition("q0", "q0", ()),
    GuardedDSA(("q0",), "q0", (), ()),
    CertTemplate(0, {("q0", "_"): _x()}),
    InvTemplate({("q0", "_"): ()}),
    PostPiece(("q0", "_"), Transition("q0", "q0", ()), None, (), _x()),
    PostTable(0, ()),
    VCSet((), (), ()),
    _row(),
    DualConstraint("init", "premise-sat", (), ()),
    ConstraintSystem((), ()),
    SolverJob(ConstraintSystem((), ())),
    Verdict("unknown"),
    Benchmark("b", "V", None, None, None, None, {}),
    Synthesis("unknown"),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_slotted(record):
    assert "__slots__" in vars(type(record))
    assert not hasattr(record, "__dict__")


def test_linear_system_rows_are_per_instance():
    a, b = LinearSystem(["x"]), LinearSystem(["x"])
    a.rows.append(((), Rel.LE, F(0)))
    assert b.rows == []


# class -> (fields, other fields): every field differs between the two
VALUES = {
    Param: lambda: (("a", ParamKind.CERT), ("b", ParamKind.CONTROL)),
    Atom: lambda: ((_x(), Rel.LE), (LinForm.var("y"), Rel.LT)),
    ModeTest: lambda: (("m", True), ("n", False)),
    StreettPair: lambda: (
        (frozenset({"q0"}), frozenset()),
        (frozenset(), frozenset({"q0"})),
    ),
    Transition: lambda: (
        ("q0", "q1", (Atom(_x(), Rel.LE),), (ModeTest("m", True),), 3),
        ("q1", "q0", (), (), 4),
    ),
    GuardedDSA: lambda: (
        (
            ("q0", "q1"),
            "q0",
            (Transition("q0", "q1", ()),),
            (StreettPair(frozenset(), frozenset()),),
        ),
        (("q0",), "q1", (), ()),
    ),
    PolyConstraint: lambda: (
        (Poly.param("a"), Rel.LE),
        (Poly.const(1), Rel.EQ),
    ),
    DualConstraint: lambda: (
        ("init", "premise-sat", (Param("z_0", ParamKind.MULTIPLIER),), ()),
        ("consec", "closed", (), (_row(),)),
    ),
    LPResult: lambda: (
        ("optimal", {"x": F(1)}, F(2), None, None),
        ("unbounded", None, None, {"x": F(1)}, [F(1)]),
    ),
}


@pytest.mark.parametrize("cls", VALUES, ids=lambda c: c.__name__)
def test_value_equality(cls):
    fields, other = VALUES[cls]()
    again, _ = VALUES[cls]()
    a, b = cls(*fields), cls(*again)
    assert a == b and not a != b
    if cls is LPResult:  # mutable, so unhashable, as a plain dataclass is
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    for i, value in enumerate(other):
        changed = cls(*fields[:i], value, *fields[i + 1:])
        assert a != changed, i
    assert a != fields
    for record in RECORDS:
        if type(record) is not cls:
            assert a != record and record != a


def test_an_atom_is_never_an_equation():
    with pytest.raises(ValueError, match="atom is <= or <"):
        Atom(_x(), Rel.EQ)


def test_a_concrete_template_reads_back_as_its_value():
    # the benchmark keys its output checks on this text
    pieces = lambda c: {("q0", "_"): _x() + LinForm.constant(c)}  # noqa: E731
    assert repr(CertTemplate(0, pieces(1))) == repr(CertTemplate(0, pieces(1)))
    assert repr(CertTemplate(0, pieces(1))) != repr(CertTemplate(0, pieces(2)))
    assert repr(CertTemplate(0, pieces(1))) != repr(CertTemplate(1, pieces(1)))
