"""Backends: SMT-LIB emission, model parsing, exact simplex, agreement."""

import contextlib
import io
import os
import stat
import subprocess
import tempfile
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streettsm import backends, lp, smtsolver
from streettsm.backends import (
    BackendError,
    SolverJob,
    Verdict,
    decide,
    emit_smtlib,
    extend_and_check,
    parse_solver_output,
    run_solver,
    sexp_rational,
    simplex_solve,
    smt_rational,
)
from streettsm.expr import Param, ParamKind, Poly, Rel
from streettsm.farkas import (
    ConstraintSystem,
    Disjunction,
    PolyConstraint,
    farkas_general,
)
from tests.test_farkas import const_atom, toy_implication

P = Poly.param
F = Fraction
CERT = ParamKind.CERT
MULT = ParamKind.MULTIPLIER


def system_of(params, constraints) -> ConstraintSystem:
    return ConstraintSystem(tuple(params), tuple(constraints))


def le(poly) -> PolyConstraint:
    return PolyConstraint(poly, Rel.LE)


# -- emission -------------------------------------------------------------------


def test_rational_literals_are_quotients_never_decimals():
    assert smt_rational(F(0)) == "0"
    assert smt_rational(F(5)) == "5"
    assert smt_rational(F(-5)) == "(- 5)"
    assert smt_rational(F(3, 2)) == "(/ 3 2)"
    assert smt_rational(F(-3, 2)) == "(- (/ 3 2))"
    assert "." not in smt_rational(F(1, 8))


@given(st.fractions(max_denominator=10**6))
def test_rational_round_trip_is_exact(q):
    text = smt_rational(q)
    tokens = backends._tokenize_sexp(text)
    node, _ = backends._parse_sexp(tokens, 0)
    assert sexp_rational(node) == q


def test_emitted_script_shape():
    th = Param("th", CERT)
    z = Param("z0_0", MULT)
    system = system_of(
        [th, z],
        [
            le(P("th") - Poly.const(F(1))),
            Disjunction(
                (PolyConstraint(P("z0_0") - P("th"), Rel.EQ),),
                (PolyConstraint(P("z0_0"), Rel.LT),),
            ),
        ],
    )
    text = emit_smtlib(system)
    lines = text.splitlines()
    assert lines[0] == "(set-logic QF_NRA)"
    assert "(declare-const th Real)" in lines
    assert "(declare-const z0_0 Real)" in lines
    assert "(assert (<= (+ (- 1) th) 0))" in lines
    assert (
        "(assert (or (and (= (+ (* (- 1) th) z0_0) 0)) (and (< z0_0 0))))"
        in lines
    )
    assert lines[-3] == "(check-sat)"
    # the model query covers certificate parameters, not Farkas multipliers
    assert lines[-2] == "(get-value (th))"
    assert lines[-1] == "(exit)"


def test_emission_respects_logic_override_and_degree():
    a = Param("a", CERT)
    system = system_of([a], [le(P("a") * P("a") - Poly.const(F(4)))])
    text = emit_smtlib(system, logic="QF_NRA")
    assert "(set-logic QF_NRA)" in text
    assert "(* a a)" in text


# -- solver output parsing ------------------------------------------------------


def test_parse_solver_output_verdicts_and_models():
    assert parse_solver_output("unsat\n") == ("unsat", {})
    assert parse_solver_output("unknown\n") == ("unknown", {})
    status, values = parse_solver_output(
        "sat\n((a 1) (b (/ 1 2)) (c (- (/ 7 3))) (d 0.125))\n"
    )
    assert status == "sat"
    assert values == {"a": F(1), "b": F(1, 2), "c": F(-7, 3), "d": F(1, 8)}


def test_parse_solver_output_rejects_garbage():
    with pytest.raises(BackendError, match="no sat/unsat/unknown"):
        parse_solver_output("flurble\n")


# -- exact simplex route --------------------------------------------------------


def test_simplex_pins_alpha_to_zero():
    a = Param("alpha", CERT)
    system = system_of([a], [le(P("alpha")), le(Poly() - P("alpha"))])
    verdict = simplex_solve(system)
    assert verdict.status == "sat"
    assert verdict.valuation == {"alpha": F(0)}


def _assert_farkas_ray(system: ConstraintSystem, ray) -> None:
    """y >= 0 on <= rows, y^T A = 0 and y^T b < 0 over the rows
    `coeffs . params <= -const` (or `=`) that simplex_solve builds."""
    names = [p.name for p in system.params]
    assert ray is not None and len(ray) == len(system.constraints)
    combo = {n: F(0) for n in names}
    rhs = F(0)
    for y, c in zip(ray, system.constraints):
        if c.rel == Rel.LE:
            assert y >= 0
        for n in names:
            combo[n] += y * c.poly.terms.get((n,), F(0))
        rhs -= y * c.poly.terms.get((), F(0))
    assert all(v == 0 for v in combo.values())
    assert rhs < 0


def test_simplex_unsat_carries_a_certificate():
    x = Param("x", CERT)
    system = system_of(
        [x], [le(P("x") - Poly.const(F(1))), le(Poly.const(F(2)) - P("x"))]
    )
    verdict = simplex_solve(system)
    assert verdict.status == "unsat"
    _assert_farkas_ray(system, verdict.ray)
    # y >= 0 is a sign bound, not a tableau row, and still needs a
    # positive multiplier: x >= 2 and y >= 0 contradict x + y <= 1
    y = Param("y", MULT)
    system = system_of(
        [x, y],
        [
            le(Poly() - P("y")),
            le(P("x") + P("y") - Poly.const(F(1))),
            le(Poly.const(F(2)) - P("x")),
        ],
    )
    verdict = simplex_solve(system)
    assert verdict.status == "unsat"
    _assert_farkas_ray(system, verdict.ray)
    assert verdict.ray[0] > 0


def test_simplex_rejects_nonlinear_and_disjunctive_input():
    a = Param("a", CERT)
    with pytest.raises(ValueError, match="all-linear"):
        simplex_solve(system_of([a], [le(P("a") * P("a"))]))
    disj = Disjunction((le(P("a")),), (le(Poly() - P("a")),))
    with pytest.raises(ValueError, match="all-linear"):
        simplex_solve(system_of([a], [disj]))


def test_simplex_solves_a_verification_mode_dual():
    # z1 - z2 = a0/2 - a1, 9/10 z1 + 1/5 z2 - z3 <= b1 - b0, z >= 0
    zs = [Param(f"z{i}", MULT) for i in (1, 2, 3)]
    ps = [Param(n, CERT) for n in ("a0", "a1", "b0", "b1")]
    system = system_of(
        zs + ps,
        [
            PolyConstraint(
                P("z1") - P("z2") - P("a0").scale(F(1, 2)) + P("a1"), Rel.EQ
            ),
            le(
                P("z1").scale(F(9, 10))
                + P("z2").scale(F(1, 5))
                - P("z3")
                - P("b1")
                + P("b0")
            ),
            le(Poly() - P("z1")),
            le(Poly() - P("z2")),
            le(Poly() - P("z3")),
        ],
    )
    verdict = simplex_solve(system)
    assert verdict.status == "sat"
    assert system.holds(verdict.witness)
    assert set(verdict.valuation) == {"a0", "a1", "b0", "b1"}


def test_strict_rows_get_interior_points():
    x = Param("x", CERT)
    system = system_of(
        [x],
        [
            PolyConstraint(Poly() - P("x"), Rel.LT),  # x > 0
            le(P("x") - Poly.const(F(1))),
        ],
    )
    verdict = simplex_solve(system)
    assert verdict.status == "sat"
    assert 0 < verdict.valuation["x"] <= 1


def test_empty_system_is_trivially_sat():
    assert simplex_solve(system_of([], [])).status == "sat"
    assert decide(SolverJob(system_of([], []))).status == "sat"


# -- completing partial models --------------------------------------------------


def test_extension_recovers_multipliers_through_equalities():
    th = Param("th", CERT)
    z = Param("z", MULT)
    system = system_of(
        [th, z],
        [
            PolyConstraint(P("th") - P("z"), Rel.EQ),
            le(Poly() - P("z")),
            le(P("th") - Poly.const(F(5))),
        ],
    )
    full = extend_and_check(system, {"th": F(3)})
    assert full == {"th": F(3), "z": F(3)}
    assert extend_and_check(system, {"th": F(-1)}) is None  # z >= 0 fails


def test_extension_solves_disjunctive_blocks_by_lp():
    impl = toy_implication()
    dual = farkas_general(impl, "z0")
    system = system_of(list(dual.zs), dual.items())
    full = extend_and_check(system, {})
    assert full is not None
    assert system.holds(full)


def test_extension_fails_on_unsatisfiable_reports():
    a = Param("a", CERT)
    system = system_of([a], [le(Poly.const(F(1)) - P("a"))])  # a >= 1
    assert extend_and_check(system, {"a": F(0)}) is None


# -- subprocess driver ----------------------------------------------------------


def fake_solver(tmp_path, name: str, body: str) -> str:
    path = tmp_path / name
    path.write_text(f"#!/bin/sh\n{body}\n")
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return str(path)


def test_run_solver_times_out_to_unknown(tmp_path):
    slow = fake_solver(tmp_path, "slow", "sleep 5\necho sat")
    status, values = run_solver("(check-sat)", solver=slow, timeout=0.2)
    assert status == "unknown"
    assert values == {}


def test_run_solver_surfaces_nonzero_exit(tmp_path):
    broken = fake_solver(tmp_path, "broken", "echo boom >&2\nexit 3")
    with pytest.raises(BackendError, match="exited 3.*boom"):
        run_solver("(check-sat)", solver=broken)


def test_run_solver_surfaces_malformed_output(tmp_path):
    weird = fake_solver(tmp_path, "weird", "echo flurble")
    with pytest.raises(BackendError, match="no sat/unsat/unknown"):
        run_solver("(check-sat)", solver=weird)


def test_run_solver_honors_environment_variable(tmp_path, monkeypatch):
    envsolver = fake_solver(tmp_path, "envsolver", "echo unsat")
    monkeypatch.setenv(backends.SOLVER_ENV_VAR, envsolver)
    assert run_solver("(check-sat)") == ("unsat", {})


def test_run_solver_without_a_configured_solver_names_the_variable(
    monkeypatch,
):
    monkeypatch.delenv(backends.SOLVER_ENV_VAR, raising=False)
    with pytest.raises(BackendError, match=backends.SOLVER_ENV_VAR):
        run_solver("(check-sat)")


def test_decide_rejects_lying_solvers(tmp_path):
    liar = fake_solver(tmp_path, "liar", "echo sat\necho '((a 0))'")
    a = Param("a", CERT)
    system = system_of(
        [a], [le(Poly.const(F(1)) - P("a") * P("a"))]  # a*a >= 1
    )
    with pytest.raises(BackendError, match="exact re-check"):
        decide(SolverJob(system, backend="smt", solver=liar))


def test_decide_routes_lp_only_for_all_linear():
    a = Param("a", CERT)
    quad = system_of([a], [le(P("a") * P("a"))])
    with pytest.raises(ValueError, match="all-linear"):
        decide(SolverJob(quad, backend="lp"))
    with pytest.raises(ValueError, match="unknown backend"):
        decide(SolverJob(quad, backend="qcp"))


# -- against the bundled solver --------------------------------------------------


def test_bundled_solver_answers_quadratic_sat_and_unsat(monkeypatch):
    monkeypatch.delenv(backends.SOLVER_ENV_VAR, raising=False)
    a = Param("a", CERT)
    sat_sys = system_of(
        [a],
        [
            le(Poly.const(F(4)) - P("a") * P("a")),  # a*a >= 4
            le(P("a") - Poly.const(F(10))),
            le(Poly.const(F(-10)) - P("a")),
        ],
    )
    verdict = decide(SolverJob(sat_sys, backend="smt", timeout=60))
    assert verdict.status == "sat"
    assert sat_sys.holds(verdict.witness)
    unsat_sys = system_of([a], [le(P("a")), le(Poly.const(F(1)) - P("a"))])
    assert decide(SolverJob(unsat_sys, backend="smt")).status == "unsat"


def test_bundled_solver_checks_a_second_pin_on_one_name(monkeypatch):
    # 1 + b = 0 and b = 0 pin b twice in one sweep; the second pin is a
    # contradiction, not a new value
    monkeypatch.delenv(backends.SOLVER_ENV_VAR, raising=False)
    a, b = Param("a", CERT), Param("b", CERT)
    system = system_of(
        [a, b],
        [
            PolyConstraint(Poly.const(F(1)) + P("b"), Rel.EQ),
            PolyConstraint(P("b"), Rel.EQ),
        ],
    )
    assert simplex_solve(system).status == "unsat"
    assert decide(SolverJob(system, backend="smt")).status == "unsat"


linear_polys = st.builds(
    lambda ca, cb, cc, k: P("a").scale(ca)
    + P("b").scale(cb)
    + P("c").scale(cc)
    + Poly.const(k),
    *(
        st.fractions(min_value=-3, max_value=3, max_denominator=4)
        for _ in range(4)
    ),
)


@st.composite
def linear_systems(draw):
    n = draw(st.integers(1, 6))
    params = [Param(name, CERT) for name in "abc"]
    rels = st.sampled_from([Rel.LE, Rel.EQ])
    constraints = [
        PolyConstraint(draw(linear_polys), draw(rels)) for _ in range(n)
    ]
    return system_of(params, constraints)


@given(linear_systems())
@settings(deadline=None, max_examples=40)
def test_lp_and_smt_backends_agree(system):
    by_lp = simplex_solve(system)
    with mock.patch.dict(os.environ):
        os.environ.pop(backends.SOLVER_ENV_VAR, None)
        by_smt = decide(SolverJob(system, backend="smt", timeout=60))
    assert by_lp.status == by_smt.status
    if by_lp.status == "sat":
        assert system.holds(by_lp.witness)
        assert system.holds(by_smt.witness)


def test_default_smt_route_runs_in_process(monkeypatch):
    # no solver on PATH, none configured, and no subprocess allowed: the
    # bundled solver must answer as a function call, multipliers included
    monkeypatch.setenv("PATH", "")
    monkeypatch.delenv(backends.SOLVER_ENV_VAR, raising=False)

    def no_subprocess(*args, **kwargs):
        raise AssertionError("the default smt route started a subprocess")

    monkeypatch.setattr(subprocess, "run", no_subprocess)
    dual = farkas_general(toy_implication(), "z0")
    system = system_of(list(dual.zs), dual.items())
    assert system.has_disjunction()
    verdict = decide(SolverJob(system, backend="smt"))
    assert verdict.status == "sat"
    assert set(verdict.witness) == {p.name for p in system.params}
    assert system.holds(verdict.witness)


@given(linear_systems())
@settings(max_examples=40)
def test_bundled_smtlib_front_end_agrees_with_simplex(system):
    # the SMT-LIB reader stays covered without the console script
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "system.smt2")
        with open(path, "w") as handle:
            handle.write(emit_smtlib(system))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert smtsolver.main([path]) == 0
    status, values = parse_solver_output(out.getvalue())
    assert status == simplex_solve(system).status
    if status == "sat":
        assert system.holds(values)
