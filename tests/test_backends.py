"""Backends: exact simplex, routing, the bundled solver."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streettsm import backends, smtsolver
from streettsm.backends import (
    BackendError,
    SolverJob,
    bundled_solve,
    decide,
    simplex_solve,
)
from streettsm.expr import Param, ParamKind, Poly, Rel
from streettsm.farkas import (
    ConstraintSystem,
    Disjunction,
    PolyConstraint,
    farkas_general,
)
from tests.test_farkas import toy_implication

P = Poly.param
F = Fraction
CERT = ParamKind.CERT
MULT = ParamKind.MULTIPLIER


def system_of(params, constraints) -> ConstraintSystem:
    return ConstraintSystem(tuple(params), tuple(constraints))


def le(poly) -> PolyConstraint:
    return PolyConstraint(poly, Rel.LE)


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
    # with no parameter, a false constant row is unsat with its Farkas ray
    false = system_of([], [le(Poly.const(F(1))), le(Poly.const(F(-1)))])
    for verdict in (simplex_solve(false), decide(SolverJob(false))):
        assert verdict.status == "unsat"
        _assert_farkas_ray(false, verdict.ray)


# -- routing and the bundled solver ---------------------------------------------


def test_decide_routes_lp_only_for_all_linear(monkeypatch):
    # the route is read from the system: linear and disjunction-free goes
    # to the simplex, a product or a disjunction to the bundled solver
    routes = []
    for name in ("simplex_solve", "bundled_solve"):
        original = getattr(backends, name)

        def spy(system, original=original, name=name):
            routes.append(name)
            return original(system)

        monkeypatch.setattr(backends, name, spy)
    a, b = Param("a", CERT), Param("b", CERT)
    linear = system_of([a], [le(P("a") - Poly.const(F(1)))])
    bilinear = system_of([a, b], [le(P("a") * P("b") - Poly.const(F(1)))])
    disj = system_of([a], [Disjunction((le(P("a")),), (le(Poly() - P("a")),))])
    for system, route in [
        (linear, "simplex_solve"),
        (bilinear, "bundled_solve"),
        (disj, "bundled_solve"),
    ]:
        routes.clear()
        assert decide(SolverJob(system)).status == "sat"
        assert routes == [route]


def test_decide_reads_each_row_degree_once(monkeypatch):
    # `decide` and `simplex_solve` both ask whether the system is all
    # linear; the rows are scanned for it once
    scanned = []
    degree = Poly.degree

    def counted(poly):
        scanned.append(poly)
        return degree(poly)

    monkeypatch.setattr(Poly, "degree", counted)
    a, b = Param("a", CERT), Param("b", CERT)
    rows = [le(P("a") - P("b")), le(Poly() - P("a")), le(P("b") - Poly.const(F(2)))]
    assert decide(SolverJob(system_of([a, b], rows))).status == "sat"
    assert len(scanned) == len(rows)


def test_decide_rejects_lying_solvers(monkeypatch):
    a = Param("a", CERT)
    system = system_of(
        [a], [le(Poly.const(F(1)) - P("a") * P("a"))]  # a*a >= 1
    )
    monkeypatch.setattr(
        smtsolver, "decide", lambda system: ("sat", {"a": F(0)})
    )
    with pytest.raises(BackendError, match="exact re-check"):
        decide(SolverJob(system))


def test_default_smt_route_runs_in_process():
    # a linear unsat system comes back from the simplex with its Farkas ray
    x = Param("x", CERT)
    unsat = system_of(
        [x], [le(P("x") - Poly.const(F(1))), le(Poly.const(F(2)) - P("x"))]
    )
    verdict = decide(SolverJob(unsat))
    assert verdict.status == "unsat"
    _assert_farkas_ray(unsat, verdict.ray)
    # a disjunctive dual is decided by the bundled solver as a function
    # call, with a model over every parameter, multipliers included
    dual = farkas_general(toy_implication(), "z0")
    system = system_of(list(dual.zs), dual.items())
    assert system.has_disjunction()
    verdict = decide(SolverJob(system))
    assert verdict.status == "sat"
    assert set(verdict.witness) == {p.name for p in system.params}
    assert system.holds(verdict.witness)


def test_bundled_solver_answers_quadratic_unknown_and_unsat():
    # a squared variable has no descent move: a = 2 is a model, but the
    # answer is an honest unknown
    a = Param("a", CERT)
    squared = system_of(
        [a],
        [
            le(Poly.const(F(4)) - P("a") * P("a")),  # a*a >= 4
            le(P("a") - Poly.const(F(10))),
            le(Poly.const(F(-10)) - P("a")),
        ],
    )
    assert squared.holds({"a": F(2)})
    assert bundled_solve(squared).status == "unknown"
    unsat_sys = system_of([a], [le(P("a")), le(Poly.const(F(1)) - P("a"))])
    assert bundled_solve(unsat_sys).status == "unsat"


def test_bundled_solver_checks_a_second_pin_on_one_name():
    # 1 + b = 0 and b = 0 fix b twice; the second is a contradiction,
    # not a new value, and the descent's linear screen finds it
    a, b = Param("a", CERT), Param("b", CERT)
    system = system_of(
        [a, b],
        [
            PolyConstraint(Poly.const(F(1)) + P("b"), Rel.EQ),
            PolyConstraint(P("b"), Rel.EQ),
        ],
    )
    assert simplex_solve(system).status == "unsat"
    assert bundled_solve(system).status == "unsat"


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
    by_smt = bundled_solve(system)
    assert by_lp.status == by_smt.status
    if by_lp.status == "sat":
        assert system.holds(by_lp.witness)
        assert system.holds(by_smt.witness)

