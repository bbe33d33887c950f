"""Tests for the exact-rational simplex and its certificates."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streettsm.lp import (
    LinearSystem,
    check_implication,
    feasible,
    solve,
    solve_strict,
)


def _sys(variables, rows):
    s = LinearSystem(list(variables))
    for coeffs, rel, rhs in rows:
        s.add([F(c) for c in coeffs], rel, F(rhs))
    return s


def _satisfies(system, point, strict_ok=True):
    for coeffs, rel, rhs in system.rows:
        lhs = sum(
            F(c) * point[v] for c, v in zip(coeffs, system.variables)
        )
        if rel == "<=" and not lhs <= rhs:
            return False
        if rel == "<" and not (lhs < rhs if strict_ok else lhs <= rhs):
            return False
        if rel == "=" and lhs != rhs:
            return False
    return True


def _assert_farkas(system, y):
    """One multiplier per input row, >= 0 on <= rows, y^T A = 0 and
    y^T b < 0."""
    assert y is not None and len(y) == len(system.rows)
    assert all(v >= 0 for v, row in zip(y, system.rows) if row[1] == "<=")
    combo = [F(0)] * len(system.variables)
    rhs = F(0)
    for yi, (coeffs, _, b) in zip(y, system.rows):
        for j, c in enumerate(coeffs):
            combo[j] += yi * c
        rhs += yi * b
    assert all(c == 0 for c in combo) and rhs < 0


def test_infeasible_has_farkas_certificate():
    s = _sys(["x"], [([1], "<=", 1), ([-1], "<=", -2)])
    r = feasible(s)
    assert r.status == "infeasible"
    y = r.farkas
    assert y is not None and len(y) == 2
    assert all(v >= 0 for v in y)
    assert y[0] * 1 + y[1] * (-1) == 0  # y^T A = 0
    assert y[0] * 1 + y[1] * (-2) < 0  # y^T b < 0


def test_sign_bound_rows_get_farkas_multipliers():
    # x >= 0 twice (the second bound stays a tableau row), y >= 0, and
    # x + y <= -1: only the bounds contradict the last row
    s = _sys(
        ["x", "y"],
        [
            ([-2, 0], "<=", 0),
            ([0, -1], "<=", 0),
            ([-1, 0], "<=", 0),
            ([1, 1], "<=", -1),
        ],
    )
    r = feasible(s)
    assert r.status == "infeasible"
    _assert_farkas(s, r.farkas)
    assert r.farkas[1] > 0 and r.farkas[3] > 0


def test_feasible_point_satisfies_rows():
    s = _sys(
        ["x", "y"],
        [([1, 1], "<=", 4), ([1, 0], "<=", 2), ([-1, -1], "<=", 10)],
    )
    r = feasible(s)
    assert r.status == "optimal"
    assert _satisfies(s, r.assignment)


def test_optimum_frozen_values():
    s = _sys(
        ["x", "y"],
        [([1, 0], "<=", 2), ([0, 1], "<=", 3), ([1, 1], "<=", 4)],
    )
    r = solve(s, objective=[F(1), F(1)], maximize=True)
    assert r.status == "optimal" and r.value == 4

    s2 = _sys(
        ["a", "b"],
        [([1, 1], "<=", 4), ([1, 0], "<=", 2), ([0, 1], "<=", 3)],
    )
    r2 = solve(s2, objective=[F(1), F(2)], maximize=True)
    assert r2.status == "optimal"
    assert r2.value == 7 and r2.assignment == {"a": F(1), "b": F(3)}

    r3 = solve(s2, objective=[F(1), F(2)], maximize=False)
    assert r3.status == "unbounded"


def test_degenerate_pivoting_terminates():
    # a classically cycling instance; Bland's rule must terminate
    s = _sys(
        ["x1", "x2", "x3"],
        [
            ([F(1, 4), -8, -1], "<=", 0),
            ([F(1, 2), -12, F(-1, 2)], "<=", 0),
            ([0, 0, 1], "<=", 1),
            ([-1, 0, 0], "<=", 0),
            ([0, -1, 0], "<=", 0),
            ([0, 0, -1], "<=", 0),
        ],
    )
    r = solve(s, objective=[F(3, 4), -20, F(1, 2)], maximize=True)
    assert r.status == "optimal" and r.value == F(5, 4)


def test_equalities_and_negative_rhs():
    s = _sys(["x", "y"], [([1, 1], "=", -1), ([1, -1], "=", 3)])
    r = feasible(s)
    assert r.status == "optimal"
    assert r.assignment == {"x": F(1), "y": F(-2)}


def test_redundant_rows_are_dropped():
    s = _sys(["x"], [([1], "=", 1), ([1], "=", 1), ([2], "=", 2)])
    r = solve(s, objective=[F(1)], maximize=True)
    assert r.status == "optimal" and r.value == 1


def test_unbounded_ray_certificate():
    s = _sys(["x", "y"], [([-1, 0], "<=", 0), ([0, 1], "<=", 5)])
    r = solve(s, objective=[F(1), F(0)], maximize=True)
    assert r.status == "unbounded"
    base, ray = r.assignment, r.ray
    assert ray["x"] > 0
    # base + t*ray stays feasible for t = 1, 2 and improves the objective
    for t in (1, 2):
        pt = {v: base[v] + t * ray[v] for v in s.variables}
        assert _satisfies(s, pt)


def test_strict_feasibility():
    s = _sys(["x"], [([1], "<", 1), ([-1], "<", 0)])
    r = solve_strict(s)
    assert r.status == "optimal"
    assert 0 < r.assignment["x"] < 1

    s2 = _sys(["x"], [([1], "<", 0), ([-1], "<", 0)])
    assert solve_strict(s2).status == "infeasible"

    # non-strict boundary point exists but no strict one
    s3 = _sys(["x"], [([1], "<", 1), ([-1], "<=", -1)])
    assert solve_strict(s3).status == "infeasible"
    s3ns = _sys(["x"], [([1], "<=", 1), ([-1], "<=", -1)])
    assert feasible(s3ns).status == "optimal"


def test_strict_sign_row_is_not_a_bound():
    # -x < 0 has the shape of a sign bound but excludes x = 0; next to
    # the non-strict bound -x <= 0 it must still exclude it
    s = _sys(["x"], [([-1], "<", 0), ([-1], "<=", 0), ([1], "<=", 0)])
    assert solve_strict(s).status == "infeasible"
    s2 = _sys(["x"], [([-1], "<", 0), ([1], "<=", F(1, 2))])
    r = solve_strict(s2)
    assert r.status == "optimal"
    assert 0 < r.assignment["x"] <= F(1, 2)


def test_strict_rows_rejected_by_solve():
    s = _sys(["x"], [([1], "<", 1)])
    with pytest.raises(ValueError):
        solve(s)


def test_implication_checks():
    prem = _sys(["x"], [([1], "<=", 1)])
    ok, w = check_implication(prem, [F(2)], F(2))
    assert ok and w is None

    ok, w = check_implication(prem, [F(1)], F(0))
    assert not ok and _satisfies(prem, w) and w["x"] > 0

    # vacuous premise validates anything
    empty = _sys(["x"], [([1], "<=", 0), ([-1], "<=", -1)])
    ok, w = check_implication(empty, [F(1)], F(-100))
    assert ok

    # unbounded objective direction still yields a finite witness
    nonneg = _sys(["x"], [([-1], "<=", 0)])
    ok, w = check_implication(nonneg, [F(1)], F(5))
    assert not ok and _satisfies(nonneg, w) and w["x"] > 5


coef = st.integers(-3, 3).map(F)


@st.composite
def systems(draw):
    nv = draw(st.integers(1, 3))
    variables = [f"x{i}" for i in range(nv)]
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        coeffs = [draw(coef) for _ in range(nv)]
        rel = draw(st.sampled_from(["<=", "="]))
        rows.append((coeffs, rel, draw(coef)))
    # sign bounds -a x_j <= 0 anywhere among the rows; with up to nv + 1
    # of them, some variable can be bounded twice
    for j in draw(st.lists(st.integers(0, nv - 1), max_size=nv + 1)):
        coeffs = [F(0)] * nv
        coeffs[j] = -draw(st.sampled_from([F(1), F(2), F(1, 3)]))
        rows.insert(draw(st.integers(0, len(rows))), (coeffs, "<=", F(0)))
    return _sys(variables, rows)


@settings(max_examples=150, deadline=None)
@given(systems())
def test_solve_certificates_are_sound(s):
    r = feasible(s)
    if r.status == "optimal":
        assert _satisfies(s, r.assignment)
    else:
        assert r.status == "infeasible"
        _assert_farkas(s, r.farkas)


@settings(max_examples=150, deadline=None)
@given(systems(), st.lists(coef, min_size=3, max_size=3), st.booleans())
def test_optima_cannot_be_beaten(s, obj, maximize):
    c = obj[: len(s.variables)]
    r = solve(s, objective=c, maximize=maximize)
    if r.status == "infeasible":
        _assert_farkas(s, r.farkas)
        return
    assert _satisfies(s, r.assignment)
    sense = F(1) if maximize else F(-1)
    if r.status == "unbounded":
        gain = sum(ci * r.ray[v] for ci, v in zip(c, s.variables))
        assert sense * gain > 0
        far = {v: r.assignment[v] + 5 * r.ray[v] for v in s.variables}
        assert _satisfies(s, far)
        return
    assert r.status == "optimal"
    assert r.value == sum(ci * r.assignment[v] for ci, v in zip(c, s.variables))
    # sense * c.x >= sense * value + 1e-6, written as a <= row
    better = _sys(s.variables, s.rows)
    better.add([-sense * ci for ci in c], "<=", -sense * r.value - F(1, 10**6))
    beaten = feasible(better)
    assert beaten.status == "infeasible"
    _assert_farkas(better, beaten.farkas)


@settings(max_examples=100, deadline=None)
@given(systems(), st.lists(coef, min_size=3, max_size=3), coef)
def test_implication_witnesses_are_genuine(s, obj, d):
    c = obj[: len(s.variables)]
    ok, w = check_implication(s, c, d)
    if not ok:
        assert _satisfies(s, w)
        assert sum(ci * w[v] for ci, v in zip(c, s.variables)) > d
