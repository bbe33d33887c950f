"""Tests for the exact-rational simplex and its certificates."""

import os
import sys
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streettsm.expr import Atom, LinForm, Poly, Rel
from streettsm import lp
from streettsm.farkas import implication_valid_bruteforce
from streettsm.lp import LinearSystem, solve, system_from_atoms
from streettsm.vcgen import Implication

sys.path[:0] = [
    os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "perfbench",
    )
]

import tracing  # noqa: E402


def _row(coeffs, rel, rhs):
    """A dense row (coeffs, rel, rhs) in the sparse layout, as Fractions."""
    return tuple((j, F(c)) for j, c in enumerate(coeffs) if c), rel, F(rhs)


def _sys(variables, rows):
    return LinearSystem(list(variables), [_row(*row) for row in rows])


def _satisfies(system, point, strict_ok=True):
    for coeffs, rel, rhs in system.rows:
        lhs = sum(c * point[system.variables[j]] for j, c in coeffs)
        if rel == Rel.LE and not lhs <= rhs:
            return False
        if rel == Rel.LT and not (lhs < rhs if strict_ok else lhs <= rhs):
            return False
        if rel == Rel.EQ and lhs != rhs:
            return False
    return True


def _assert_farkas(system, y):
    """One multiplier per input row, >= 0 on <= rows, y^T A = 0 and
    y^T b < 0."""
    assert y is not None and len(y) == len(system.rows)
    assert all(v >= 0 for v, row in zip(y, system.rows) if row[1] == Rel.LE)
    combo = [F(0)] * len(system.variables)
    rhs = F(0)
    for yi, (coeffs, _, b) in zip(y, system.rows):
        for j, c in coeffs:
            combo[j] += yi * c
        rhs += yi * b
    assert all(c == 0 for c in combo) and rhs < 0


def test_infeasible_has_farkas_certificate():
    s = _sys(["x"], [([1], Rel.LE, 1), ([-1], Rel.LE, -2)])
    r = solve(s)
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
            ([-2, 0], Rel.LE, 0),
            ([0, -1], Rel.LE, 0),
            ([-1, 0], Rel.LE, 0),
            ([1, 1], Rel.LE, -1),
        ],
    )
    r = solve(s)
    assert r.status == "infeasible"
    _assert_farkas(s, r.farkas)
    assert r.farkas[1] > 0 and r.farkas[3] > 0


def test_feasible_point_satisfies_rows():
    s = _sys(
        ["x", "y"],
        [([1, 1], Rel.LE, 4), ([1, 0], Rel.LE, 2), ([-1, -1], Rel.LE, 10)],
    )
    r = solve(s)
    assert r.status == "optimal"
    assert _satisfies(s, r.assignment)


def test_optimum_frozen_values():
    s = _sys(
        ["x", "y"],
        [([1, 0], Rel.LE, 2), ([0, 1], Rel.LE, 3), ([1, 1], Rel.LE, 4)],
    )
    r = solve(s, objective=[F(1), F(1)])
    assert r.status == "optimal" and r.value == 4

    s2 = _sys(
        ["a", "b"],
        [([1, 1], Rel.LE, 4), ([1, 0], Rel.LE, 2), ([0, 1], Rel.LE, 3)],
    )
    r2 = solve(s2, objective=[F(1), F(2)])
    assert r2.status == "optimal"
    assert r2.value == 7 and r2.assignment == {"a": F(1), "b": F(3)}

    # min a + 2b, as max -a - 2b
    r3 = solve(s2, objective=[F(-1), F(-2)])
    assert r3.status == "unbounded"


def test_degenerate_pivoting_terminates():
    # a classically cycling instance; Bland's rule must terminate
    s = _sys(
        ["x1", "x2", "x3"],
        [
            ([F(1, 4), -8, -1], Rel.LE, 0),
            ([F(1, 2), -12, F(-1, 2)], Rel.LE, 0),
            ([0, 0, 1], Rel.LE, 1),
            ([-1, 0, 0], Rel.LE, 0),
            ([0, -1, 0], Rel.LE, 0),
            ([0, 0, -1], Rel.LE, 0),
        ],
    )
    r = solve(s, objective=[F(3, 4), -20, F(1, 2)])
    assert r.status == "optimal" and r.value == F(5, 4)


def test_beale_cycling_example_terminates_at_its_optimum():
    # Beale (1955): the textbook pivot rule cycles here; Bland's must not
    s = _sys(
        ["x4", "x5", "x6", "x7"],
        [
            ([F(1, 4), -60, F(-1, 25), 9], Rel.LE, 0),
            ([F(1, 2), -90, F(-1, 50), 3], Rel.LE, 0),
            ([0, 0, 1, 0], Rel.LE, 1),
            ([-1, 0, 0, 0], Rel.LE, 0),
            ([0, -1, 0, 0], Rel.LE, 0),
            ([0, 0, -1, 0], Rel.LE, 0),
            ([0, 0, 0, -1], Rel.LE, 0),
        ],
    )
    # min c.x, as max -c.x
    c = [F(-3, 4), F(150), F(-1, 50), F(6)]
    r = solve(s, objective=[-ci for ci in c])
    assert r.status == "optimal" and r.value == F(1, 20)
    assert _satisfies(s, r.assignment)
    value = sum(ci * r.assignment[v] for ci, v in zip(c, s.variables))
    assert value == -r.value


def test_system_from_atoms_builds_fraction_rows():
    x, y = LinForm.var("x"), LinForm.var("y")
    half = LinForm.constant(F(1, 2))
    atoms = [
        Atom(x.scale(2) - LinForm.constant(3), Rel.LE),
        Atom(x - y, Rel.LT),  # strictness kept
        Atom(y + half, Rel.LE),  # y = -1/2 as two rows
        Atom(-(y + half), Rel.LE),
    ]
    s = system_from_atoms(atoms, ["x", "y", "w"])
    assert s.variables == ["x", "y", "w"]
    assert s.rows == [
        (((0, 2),), Rel.LE, 3),
        (((0, 1), (1, -1)), Rel.LT, 0),
        (((1, 1),), Rel.LE, F(-1, 2)),
        (((1, -1),), Rel.LE, F(1, 2)),
    ]
    assert all(
        type(v) is F for coeffs, _, rhs in s.rows
        for v in [c for _, c in coeffs] + [rhs]
    )


def test_system_from_atoms_rejects_parameters_and_undeclared_variables():
    x, a = LinForm.var("x"), Poly.param("a")
    coeff = Atom(x.mul_poly(a + Poly.const(1)), Rel.LE)
    with pytest.raises(
        ValueError, match=r"^parameter-bearing coefficient on x$"
    ):
        system_from_atoms([coeff], ["x"])
    const = Atom(x + LinForm.from_poly(a.scale(2)), Rel.LE)
    with pytest.raises(ValueError, match=r"^parameter-bearing constant term$"):
        system_from_atoms([const], ["x"])
    undeclared = Atom(x + LinForm.var("y"), Rel.LE)
    with pytest.raises(
        ValueError, match=r"^atom mentions undeclared variables \{'y'\}$"
    ):
        system_from_atoms([undeclared], ["x"])


def test_linear_system_rejects_nonlinear_and_unknown_monomials():
    a, b = Poly.param("a"), Poly.param("b")
    message = r"^monomial \('a', 'b'\) is not linear over \['a', 'b'\]$"
    with pytest.raises(ValueError, match=message):
        lp.linear_system([(a + a * b, Rel.LE)], ["a", "b"])
    with pytest.raises(ValueError, match=r"^monomial \('b',\) is not linear"):
        lp.linear_system([(a, Rel.EQ), (b, Rel.LT)], ["a"])


def test_equalities_and_negative_rhs():
    s = _sys(["x", "y"], [([1, 1], Rel.EQ, -1), ([1, -1], Rel.EQ, 3)])
    r = solve(s)
    assert r.status == "optimal"
    assert r.assignment == {"x": F(1), "y": F(-2)}


def test_redundant_rows_are_dropped():
    s = _sys(["x"], [([1], Rel.EQ, 1), ([1], Rel.EQ, 1), ([2], Rel.EQ, 2)])
    r = solve(s, objective=[F(1)])
    assert r.status == "optimal" and r.value == 1


def test_unbounded_ray_certificate():
    s = _sys(["x", "y"], [([-1, 0], Rel.LE, 0), ([0, 1], Rel.LE, 5)])
    r = solve(s, objective=[F(1), F(0)])
    assert r.status == "unbounded"
    base, ray = r.assignment, r.ray
    assert ray["x"] > 0
    # base + t*ray stays feasible for t = 1, 2 and improves the objective
    for t in (1, 2):
        pt = {v: base[v] + t * ray[v] for v in s.variables}
        assert _satisfies(s, pt)


def test_strict_feasibility():
    s = _sys(["x"], [([1], Rel.LT, 1), ([-1], Rel.LT, 0)])
    r = solve(s)
    assert r.status == "optimal"
    assert 0 < r.assignment["x"] < 1

    s2 = _sys(["x"], [([1], Rel.LT, 0), ([-1], Rel.LT, 0)])
    assert solve(s2).status == "infeasible"

    # non-strict boundary point exists but no strict one
    s3 = _sys(["x"], [([1], Rel.LT, 1), ([-1], Rel.LE, -1)])
    assert solve(s3).status == "infeasible"
    s3ns = _sys(["x"], [([1], Rel.LE, 1), ([-1], Rel.LE, -1)])
    assert solve(s3ns).status == "optimal"


def test_strict_sign_row_is_not_a_bound():
    # -x < 0 has the shape of a sign bound but excludes x = 0; next to
    # the non-strict bound -x <= 0 it must still exclude it
    s = _sys(["x"], [([-1], Rel.LT, 0), ([-1], Rel.LE, 0), ([1], Rel.LE, 0)])
    assert solve(s).status == "infeasible"
    s2 = _sys(["x"], [([-1], Rel.LT, 0), ([1], Rel.LE, F(1, 2))])
    r = solve(s2)
    assert r.status == "optimal"
    assert 0 < r.assignment["x"] <= F(1, 2)


def test_strict_rows_rejected_by_solve():
    # the supremum over an open set need not be attained: x < 1 has none
    box = _sys(["x"], [([1], Rel.LT, 1)])
    general = _sys(["x", "y"], [([1, 1], Rel.LT, 1)])
    for s in (box, general):
        assert solve(s).status == "optimal"
        for sign in (1, -1):
            with pytest.raises(ValueError, match="strict rows"):
                solve(s, objective=[F(sign)] * len(s.variables))


def test_implication_checks():
    # LP maximisation of the consequent over the premise decides validity
    def le(a, b):  # a x <= b
        return Atom(LinForm.var("x").scale(a) - LinForm.constant(b), Rel.LE)

    def valid(premise, a, b):
        return implication_valid_bruteforce(
            Implication("consec", None, ("x",), premise, le(a, b))
        )

    # x <= 1 implies 2x <= 2 but not x <= 0
    assert valid((le(1, 1),), 2, 2)
    assert not valid((le(1, 1),), 1, 0)
    # vacuous premise validates anything
    assert valid((le(1, 0), le(-1, -1)), 1, -100)
    # x >= 0 leaves x unbounded above: x <= d fails for every d, however
    # far the bound is (a gap of 10^9 here)
    for d in (F(5), F(10**9), F(10**9, 7), F(-3)):
        assert not valid((le(-1, 0),), 1, d)


coef = st.integers(-3, 3).map(F)
small_bound = st.sampled_from([F(1), F(2), F(1, 3)])
# numerators up to 10^12 and denominators up to 10^9
big_bound = st.builds(F, st.integers(1, 10**12), st.integers(1, 10**9))
big_coef = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-10**12, 10**12), st.integers(1, 10**9)),
)


@st.composite
def systems(draw, coef=coef, bound=small_bound):
    nv = draw(st.integers(1, 3))
    variables = [f"x{i}" for i in range(nv)]
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        coeffs = [draw(coef) for _ in range(nv)]
        rel = draw(st.sampled_from([Rel.LE, Rel.EQ]))
        rows.append((coeffs, rel, draw(coef)))
    # sign bounds -a x_j <= 0 anywhere among the rows; with up to nv + 1
    # of them, some variable can be bounded twice
    for j in draw(st.lists(st.integers(0, nv - 1), max_size=nv + 1)):
        coeffs = [F(0)] * nv
        coeffs[j] = -draw(bound)
        rows.insert(draw(st.integers(0, len(rows))), (coeffs, Rel.LE, F(0)))
    return _sys(variables, rows)


def _check_feasibility(s):
    r = solve(s)
    if r.status == "optimal":
        assert _satisfies(s, r.assignment)
    else:
        assert r.status == "infeasible"
        _assert_farkas(s, r.farkas)


def _objective(obj, s, negate):
    """The drawn objective cut to the system's variables; negated, to
    minimize it by maximizing."""
    return [-ci if negate else ci for ci in obj[: len(s.variables)]]


def _check_optimum(s, c):
    r = solve(s, objective=c)
    if r.status == "infeasible":
        _assert_farkas(s, r.farkas)
        return
    assert _satisfies(s, r.assignment)
    if r.status == "unbounded":
        gain = sum(ci * r.ray[v] for ci, v in zip(c, s.variables))
        assert gain > 0
        far = {v: r.assignment[v] + 5 * r.ray[v] for v in s.variables}
        assert _satisfies(s, far)
        return
    assert r.status == "optimal"
    assert r.value == sum(ci * r.assignment[v] for ci, v in zip(c, s.variables))
    # c.x >= value + 1e-6, written as a <= row
    beyond = _row([-ci for ci in c], Rel.LE, -r.value - F(1, 10**6))
    better = LinearSystem(list(s.variables), s.rows + [beyond])
    beaten = solve(better)
    assert beaten.status == "infeasible"
    _assert_farkas(better, beaten.farkas)


@settings(max_examples=150, deadline=None)
@given(systems())
def test_solve_certificates_are_sound(s):
    _check_feasibility(s)


@settings(max_examples=150, deadline=None)
@given(systems(), st.lists(coef, min_size=3, max_size=3), st.booleans())
def test_optima_cannot_be_beaten(s, obj, negate):
    _check_optimum(s, _objective(obj, s, negate))


@settings(max_examples=100, deadline=None)
@given(systems(big_coef, big_bound))
def test_large_coefficient_certificates_are_sound(s):
    _check_feasibility(s)


@settings(max_examples=100, deadline=None)
@given(
    systems(big_coef, big_bound),
    st.lists(big_coef, min_size=3, max_size=3),
    st.booleans(),
)
def test_large_coefficient_optima_cannot_be_beaten(s, obj, negate):
    _check_optimum(s, _objective(obj, s, negate))


# -- box systems ------------------------------------------------------------


@st.composite
def box_systems(draw, strict):
    """Rows that each mention at most one variable: bounds, sign bounds
    -a x <= 0, empty rows, and a pair of equal bounds with drawn relations
    on one variable.  `<` rows only when `strict`."""
    nv = draw(st.integers(1, 3))
    rels = [Rel.LE, Rel.EQ, Rel.LT] if strict else [Rel.LE, Rel.EQ]
    rhs = st.sampled_from([F(-2), F(-1), F(0), F(1, 2), F(1), F(3)])
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        coeffs = [F(0)] * nv
        kind = draw(st.sampled_from(["bound", "bound", "sign", "empty"]))
        if kind == "sign":
            coeffs[draw(st.integers(0, nv - 1))] = -draw(small_bound)
            rows.append((coeffs, Rel.LE, F(0)))
            continue
        if kind == "bound":
            coeffs[draw(st.integers(0, nv - 1))] = draw(coef.filter(bool))
        rows.append((coeffs, draw(st.sampled_from(rels)), draw(rhs)))
    if draw(st.booleans()):
        # b <= x <= b, each side strict or not
        j, b = draw(st.integers(0, nv - 1)), draw(rhs)
        up, down = [F(0)] * nv, [F(0)] * nv
        up[j], down[j] = F(1), F(-1)
        rows.insert(
            draw(st.integers(0, len(rows))),
            (up, draw(st.sampled_from(rels)), b),
        )
        rows.insert(
            draw(st.integers(0, len(rows))),
            (down, draw(st.sampled_from(rels)), -b),
        )
    return _sys([f"x{i}" for i in range(nv)], rows)


@settings(max_examples=400, deadline=None)
@given(
    box_systems(strict=False),
    st.lists(coef, min_size=3, max_size=3),
    st.booleans(),
)
def test_box_path_matches_the_tableau(s, obj, negate):
    # always with an objective: `solve` sends a feasibility query to the
    # tableau itself (`test_a_feasibility_query_never_scans_for_a_box`)
    assert lp._box(s.rows, len(s.variables)) is not None
    c = _objective(obj, s, negate)
    got = solve(s, objective=c)
    want = lp._tableau(s, c)
    assert got.status == want.status
    if got.status == "infeasible":
        _assert_farkas(s, got.farkas)
        return
    assert _satisfies(s, got.assignment)
    if got.status == "optimal":
        assert got.assignment == want.assignment
        assert got.value == want.value
        assert all(type(x) is F for x in got.assignment.values())
        assert type(got.value) is F
        return
    # unbounded: Bland's rule may leave along another variable
    gain = sum(ci * got.ray[v] for ci, v in zip(c, s.variables))
    assert gain > 0
    far = {v: got.assignment[v] + 5 * got.ray[v] for v in s.variables}
    assert _satisfies(s, far)


def _augmented_status(s):
    """The verdict of a strict system by the tableau on the slack transform."""
    nv = len(s.variables)
    t = ((nv, F(1)),)
    aug = LinearSystem(
        s.variables + ["t"],
        [
            (c + t, Rel.LE, b) if rel == Rel.LT else (c, rel, b)
            for c, rel, b in s.rows
        ]
        + [(t, Rel.LE, F(1))],
    )
    res = lp._tableau(aug, [F(0)] * nv + [F(1)])
    return "optimal" if res.status == "optimal" and res.value > 0 else "infeasible"


@settings(max_examples=400, deadline=None)
@given(box_systems(strict=True))
def test_strict_box_agrees_with_the_slack_transform(s):
    # a strict box takes the slack transform too; its verdict is the
    # intervals' (`_box` finds no clash iff the box is nonempty)
    got = solve(s)
    assert got.status == _augmented_status(s)
    clash = lp._box(s.rows, len(s.variables))[2]
    assert got.status == ("optimal" if clash is None else "infeasible")
    if got.status == "optimal":
        assert _satisfies(s, got.assignment)
        assert got.value == 0


@st.composite
def strict_systems(draw):
    """`systems()` with some of its `<=` rows made strict."""
    s = draw(systems())
    rows = [
        (c, Rel.LT if rel == Rel.LE and draw(st.booleans()) else rel, b)
        for c, rel, b in s.rows
    ]
    return LinearSystem(s.variables, rows)


@settings(max_examples=200, deadline=None)
@given(strict_systems())
def test_strict_systems_agree_with_the_slack_transform(s):
    got = solve(s)
    assert got.status == _augmented_status(s)
    if got.status == "optimal":
        assert _satisfies(s, got.assignment)
        assert got.value == 0
    elif any(rel == Rel.LT for _, rel, _ in s.rows):
        assert got.farkas is None
    else:
        _assert_farkas(s, got.farkas)


def test_empty_rows_decide_a_box_on_their_own():
    s = _sys(["x"], [([1], Rel.LE, 2), ([0], Rel.EQ, 1)])
    r = solve(s)
    assert r.status == "infeasible" and r.farkas == [0, -1]
    _assert_farkas(s, r.farkas)
    s2 = _sys(["x"], [([0], Rel.LE, -1)])
    r2 = solve(s2, objective=[F(1)])
    assert r2.status == "infeasible"
    _assert_farkas(s2, r2.farkas)
    assert solve(_sys(["x"], [([0], Rel.LT, 0)])).status == "infeasible"
    assert solve(_sys(["x"], [([0], Rel.LT, 1)])).status == "optimal"


def test_equality_against_its_sense_gets_a_negative_multiplier():
    # 2x = 4 read as x >= 2 against x <= 1; a box optimization's clash
    s = _sys(["x"], [([1], Rel.LE, 1), ([2], Rel.EQ, 4)])
    r = solve(s, objective=[F(1)])
    assert r.status == "infeasible"
    _assert_farkas(s, r.farkas)
    assert r.farkas == [1, F(-1, 2)]


def test_box_clash_with_non_unit_coefficients_gets_reciprocal_multipliers():
    # 2x <= 1 and -3x <= -2, i.e. x <= 1/2 and x >= 2/3; a box
    # optimization's clash
    s = _sys(["x"], [([2], Rel.LE, 1), ([-3], Rel.LE, -2)])
    r = solve(s, objective=[F(1)])
    assert r.status == "infeasible"
    _assert_farkas(s, r.farkas)
    assert r.farkas == [F(1, 2), F(1, 3)]
    assert all(type(y) is F for y in r.farkas)


# -- integer box ends against the Fraction oracle --------------------------------

Fraction, _ONE = F, F(1)
Row, _Clash = lp.Row, lp._Clash
# an end as a Fraction: (bound, strict, row, a)
_End = tuple[Fraction, bool, int, Fraction]


def _box(
    rows: list[tuple[Row, Rel, Fraction]], nvars: int
) -> tuple[list[_End | None], list[_End | None], _Clash | None] | None:
    """The per-variable lower and upper ends of a box system, and a clash:
    None, or the (row, multiplier) pairs of a Farkas ray, from the first
    empty row that fails on its own or else the first empty interval.
    None if some row mentions two or more variables."""
    lo: list[_End | None] = [None] * nvars
    hi: list[_End | None] = [None] * nvars
    empty = None
    for i, (coeffs, rel, rhs) in enumerate(rows):
        if not coeffs:
            # 0 rel rhs; an `=` row with rhs > 0 is used against its sense
            if empty is None and (
                rhs < 0
                or (rhs == 0 and rel == Rel.LT)
                or (rhs > 0 and rel == Rel.EQ)
            ):
                empty = ((i, -_ONE if rhs > 0 else _ONE),)
            continue
        if len(coeffs) > 1:
            return None
        ((j, a),) = coeffs
        bound = rhs if a == 1 else -rhs if a == -1 else rhs / a
        strict = rel == Rel.LT
        # the tighter end wins; at one bound, a strict end is tighter
        if rel == Rel.EQ or a > 0:  # x <= bound: (1/a) row
            cur = hi[j]
            if (
                cur is None
                or bound < cur[0]
                or (bound == cur[0] and strict and not cur[1])
            ):
                hi[j] = (bound, strict, i, a)
        if rel == Rel.EQ or a < 0:  # x >= bound: (-1/a) row
            cur = lo[j]
            if (
                cur is None
                or bound > cur[0]
                or (bound == cur[0] and strict and not cur[1])
            ):
                lo[j] = (bound, strict, i, a)
    if empty is not None:
        return lo, hi, empty
    for low, high in zip(lo, hi):
        if (
            low is not None
            and high is not None
            and (
                low[0] > high[0]
                or (low[0] == high[0] and (low[1] or high[1]))
            )
        ):
            # x <= high and -x <= -low add up to 0 <= high - low, false here
            return lo, hi, ((low[2], -1 / low[3]), (high[2], 1 / high[3]))
    return lo, hi, None


# few bounds, reached through coefficients of either sign and any size, so
# that rows often tie on a bound with mixed strictness
tie_bound = st.sampled_from([F(-3, 2), F(-1), F(0), F(1, 3), F(2)])
row_coef = st.sampled_from(
    [F(1), F(-1), F(2), F(-3), F(1, 3), F(-2, 5), F(7, 4)]
)


@st.composite
def tie_boxes(draw):
    """Bounds a x rel a b, empty rows, and now and then a row over two
    variables (no box); rel in `<=`, `<` and `=`."""
    nv = draw(st.integers(1, 2))
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        coeffs = [F(0)] * nv
        rel = draw(st.sampled_from([Rel.LE, Rel.LT, Rel.EQ]))
        kind = draw(st.sampled_from(["bound"] * 5 + ["empty", "two"]))
        if kind == "empty":
            rows.append((coeffs, rel, draw(tie_bound)))
            continue
        j = draw(st.integers(0, nv - 1))
        a = draw(row_coef)
        coeffs[j] = a
        if kind == "two" and nv > 1:
            coeffs[1 - j] = draw(row_coef)
        rows.append((coeffs, rel, a * draw(tie_bound)))
    return _sys([f"x{i}" for i in range(nv)], rows)


def _fraction_ends(ends, keys):
    """`lp._box`'s integer ends (n, d, strict, row, a) over `keys` as the
    oracle's lists of Fraction ends."""

    def fractions(side):
        return [
            None if e is None else (F(e[0], e[1]), *e[2:])
            for e in map(side.get, keys)
        ]

    lo, hi, clash = ends
    return fractions(lo), fractions(hi), clash


def _integer_box(rows, nvars):
    """The oracle's box with its ends as `lp._box` keys them, bounds n/d
    in lowest terms."""
    ends = _box(rows, nvars)
    if ends is None:
        return None
    lo, hi, clash = ends

    def keyed(side):
        return {
            j: (e[0].numerator, e[0].denominator, *e[1:])
            for j, e in enumerate(side)
            if e is not None
        }

    return keyed(lo), keyed(hi), clash


@settings(max_examples=600, deadline=None)
@given(
    tie_boxes(),
    st.lists(coef, min_size=2, max_size=2),
    st.booleans(),
)
def test_integer_box_ends_match_the_fraction_oracle(s, obj, negate):
    # the same ends (bound, strictness, row, coefficient), the same clash
    # multipliers and so the same `solve` results; only a maximization
    # reaches `lp._box`, and `solve` takes none over a `<` row, so the
    # results are compared on the closure, every `<` read as `<=`
    got = lp._box(s.rows, len(s.variables))
    want = _box(s.rows, len(s.variables))
    if got is None:
        assert want is None
    else:
        assert _fraction_ends(got, range(len(s.variables))) == want
        lo, hi, _ = got
        ends = list(lo.values()) + list(hi.values())
        assert all(type(e[0]) is type(e[1]) is int and e[1] > 0 for e in ends)
    closure = LinearSystem(
        s.variables,
        [(cf, Rel.LE if rel is Rel.LT else rel, b) for cf, rel, b in s.rows],
    )
    c = _objective(obj, s, negate)
    results = []
    for box in (lp._box, _integer_box):
        with mock.patch.object(lp, "_box", box):
            results.append(solve(closure, objective=c))
    assert results[0] == results[1]


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        box_systems(strict=False), box_systems(strict=True), tie_boxes()
    )
)
def test_a_feasibility_query_never_scans_for_a_box(s):
    # `solve` takes its box path only to maximise: a query with no
    # objective goes to the tableau or the slack transform, box or not,
    # and one with an objective and no strict row scans once
    scans = []
    box = lp._box

    def scanning(*args):
        scans.append(args)
        return box(*args)

    with mock.patch.object(lp, "_box", scanning):
        solve(s)
        assert scans == []
        if all(rel is not Rel.LT for _, rel, _ in s.rows):
            solve(s, objective=[F(1)] * len(s.variables))
            assert len(scans) == 1


# -- a box of atoms from the bounds their forms cache ---------------------------


@st.composite
def atom_conjunctions(draw):
    """(atoms, variables): bounds a (v - b) rel 0 over declared variables,
    constant atoms, and now and then an atom over two variables, with a
    parameter, or over an undeclared variable; rel `<=` or `<`, with few
    bounds so that ends often tie."""
    variables = draw(st.sampled_from([("x",), ("x", "y"), ("y", "x")]))
    atoms = []
    for _ in range(draw(st.integers(0, 6))):
        rel = draw(st.sampled_from([Rel.LE, Rel.LT]))
        kind = draw(
            st.sampled_from(
                ["bound"] * 6 + ["constant", "two", "param", "undeclared"]
            )
        )
        a, b = draw(row_coef), draw(tie_bound)
        if kind == "constant":
            form = LinForm.constant(b)
        elif kind == "two":
            form = LinForm.var("x") + LinForm.var("y").scale(a)
        elif kind == "param":
            form = LinForm.var("x").mul_poly(Poly.param("p")) - LinForm.constant(b)
        else:
            v = "z" if kind == "undeclared" else draw(st.sampled_from(variables))
            form = (LinForm.var(v) - LinForm.constant(b)).scale(a)
        atoms.append(Atom(form, rel))
    return tuple(atoms), variables


def _verdict_by_tableau(s):
    """The verdict of a system by the tableau alone, no box path."""
    if any(rel == Rel.LT for _, rel, _ in s.rows):
        return _augmented_status(s)
    return lp._tableau(s, None).status


def _raises(fn, *args):
    try:
        fn(*args)
    except ValueError as e:
        return str(e)
    return None


@settings(max_examples=600, deadline=None)
@given(atom_conjunctions())
def test_atom_box_matches_the_row_box_and_solve(drawn):
    atoms, variables = drawn
    error = _raises(system_from_atoms, atoms, variables)
    if error is not None:
        # a parameter or an undeclared variable: no box; a conjunction with
        # a parameter is kept whole, and any other gives the same error
        assert lp._atom_box(atoms, variables) is None
        if all(atom.form.is_param_free() for atom in atoms):
            assert _raises(lp.defining_atoms, atoms, variables) == error
        else:
            assert lp.defining_atoms(atoms, variables) is atoms
        return
    s = system_from_atoms(atoms, variables)
    rows = lp._box(s.rows, len(variables))
    got = lp._atom_box(atoms, variables)
    want = solve(s)
    feasible = want.status == "optimal"
    assert want.status == _verdict_by_tableau(s)
    if feasible:
        assert all(atom.holds({}, want.assignment) for atom in atoms)
    defining = lp.defining_atoms(atoms, variables)
    assert (defining is None) == (not feasible)
    if rows is None:
        assert got is None
        assert defining is None or defining == atoms
        return
    assert _fraction_ends(rows, range(len(variables))) == _box(
        s.rows, len(variables)
    )
    # the same ends, keyed by name instead of by column
    lo, hi, clash = got
    assert lo == {variables[j]: e for j, e in rows[0].items()}
    assert hi == {variables[j]: e for j, e in rows[1].items()}
    assert clash == rows[2]
    if feasible:
        # the binding atoms give the same intervals
        assert set(defining) <= set(atoms)

        def intervals(ends):
            return [
                {v: (F(e[0], e[1]), e[2]) for v, e in side.items()}
                for side in ends[:2]
            ]

        assert intervals(lp._atom_box(defining, variables)) == intervals(got)


@settings(max_examples=200, deadline=None)
@given(atom_conjunctions())
def test_a_form_keeps_its_bound_and_its_negation_gets_its_own(drawn):
    for atom in drawn[0]:
        form = atom.form
        bound = form.bound()
        assert form.bound() is bound
        # unchanged by a substitution that binds none of its parameters
        same = form.substitute_params({"q": F(1)})
        assert same is form and same.bound() is bound
        fresh = LinForm(dict(form.coeffs), form.const)
        assert fresh.bound() == bound
        neg = -form
        assert neg.bound() == LinForm(dict(neg.coeffs), neg.const).bound()
        if bound is not None:
            v, upper, n, d, a, rhs = bound
            flipped = (v, v is not None and not upper, n, d, -a, -rhs)
            assert neg.bound() == flipped
        assert form.bound() is bound


# -- the sparse row layout -------------------------------------------------------


def _assert_sparse(row, dense):
    """Ascending, zero-free (column, Fraction) pairs that spell `dense`."""
    assert type(row) is tuple
    assert all(type(j) is int and type(c) is F and c for j, c in row)
    assert all(a[0] < b[0] for a, b in zip(row, row[1:]))
    spelled = [F(0)] * len(dense)
    for j, c in row:
        spelled[j] = c
    assert spelled == dense


@st.composite
def dense_rows(draw):
    nv = draw(st.integers(1, 5))
    coeffs = draw(
        st.lists(st.one_of(st.just(F(0)), big_coef), min_size=nv, max_size=nv)
    )
    # columns in a drawn order, so term order and column order differ
    order = draw(st.permutations(range(nv)))
    return coeffs, order, draw(big_coef)


@settings(max_examples=100, deadline=None)
@given(dense_rows())
def test_producers_emit_canonical_sparse_rows(drawn):
    coeffs, order, rhs = drawn
    names = [f"v{i}" for i in range(len(coeffs))]
    # the same row from an atom and from a Poly, terms in drawn order
    form = LinForm.constant(-rhs)
    for j in order:
        form = form + LinForm.var(names[j]).scale(coeffs[j])
    (row,) = system_from_atoms([Atom(form, Rel.LE)], names).rows
    _assert_sparse(row[0], coeffs)
    assert row[1:] == (Rel.LE, rhs)

    poly = Poly({(names[j],): coeffs[j] for j in order})
    poly = poly - Poly.const(rhs)
    (row,) = lp.linear_system([(poly, Rel.EQ)], names).rows
    _assert_sparse(row[0], coeffs)
    assert row[1:] == (Rel.EQ, rhs)


@settings(max_examples=100, deadline=None)
@given(dense_rows(), st.data())
def test_repeat_key_follows_the_rows(drawn, data):
    coeffs, _, rhs = drawn
    names = [f"v{i}" for i in range(len(coeffs))]

    def key(cs):
        s = _sys(names, [(cs, Rel.LE, rhs), ([F(1)] * len(cs), Rel.EQ, F(0))])
        return tracing._lp_key((s, [F(1)] * len(cs)), {})

    assert key(coeffs) == key(list(coeffs))
    j = data.draw(st.integers(0, len(coeffs) - 1))
    changed = list(coeffs)
    changed[j] += data.draw(big_coef.filter(bool))
    assert key(changed) != key(coeffs)


# -- sympy's exact simplex as the oracle ----------------------------------------


def _sympy_max(s, c):
    """sympy's `lpmax` of c.x over the rows of `s`, which shares no code
    with `lp`: ("optimal", the maximum), ("infeasible", None) or
    ("unbounded", None).  None when sympy's answer certifies nothing: its
    phase 1 can stop at a point that breaks a row (sympy 1.14 gives
    x + y = 1 under x + y <= 0, x + y <= 1 and -x - y <= -1) or give up on
    what it calls an oscillating system."""
    from sympy import Eq, Rational, Symbol
    from sympy.solvers.simplex import InfeasibleLPError, UnboundedLPError, lpmax

    xs = [Symbol(v) for v in s.variables]

    def rational(q):
        return Rational(q.numerator, q.denominator)

    cons = []
    for coeffs, rel, rhs in s.rows:
        lhs = sum((rational(cf) * xs[j] for j, cf in coeffs), Rational(0))
        b = rational(rhs)
        cons.append(lhs <= b if rel == Rel.LE else Eq(lhs, b))
    f = sum((rational(cf) * x for cf, x in zip(c, xs)), Rational(0))
    try:
        opt, point = lpmax(f, cons)
    except InfeasibleLPError as e:
        return None if "Oscillating" in str(e) else ("infeasible", None)
    except UnboundedLPError:
        return "unbounded", None
    point = {v: F(str(point.get(x, 0))) for v, x in zip(s.variables, xs)}
    if not _satisfies(s, point):
        return None
    return "optimal", F(str(opt))


def _check_against_sympy(s, obj, negate):
    # feasibility is the objective 0
    if obj is None:
        c = [F(0)] * len(s.variables)
    else:
        c = _objective(obj, s, negate)
    want = _sympy_max(s, c)
    if want is None:
        # no verdict to compare: `lp`'s own certificates still hold
        if obj is None:
            _check_feasibility(s)
        else:
            _check_optimum(s, c)
        return
    got = solve(s, objective=None if obj is None else c)
    assert got.status == want[0]
    if got.status == "infeasible":
        _assert_farkas(s, got.farkas)
    elif got.status == "optimal":
        assert got.value == want[1]
        assert _satisfies(s, got.assignment)
        assert got.value == sum(
            ci * got.assignment[v] for ci, v in zip(c, s.variables)
        )


# derandomized: one lpmax call takes tens of milliseconds, and sympy's
# phase 1 does not stop on every system (it cycles on some of `systems()`),
# so the examples are fixed ones that it decides
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(systems(), box_systems(strict=False)),
    st.one_of(st.none(), st.lists(coef, min_size=3, max_size=3)),
    st.booleans(),
)
def test_solve_agrees_with_sympys_simplex(s, obj, negate):
    _check_against_sympy(s, obj, negate)


@st.composite
def two_sided_boxes(draw):
    """Nonempty boxes whose variables mostly have both ends: per variable a
    lower end l and an upper end u >= l, each a row a x <= a b with a of
    the end's sign, and dropped one time in five; rows in a drawn order."""
    nv = draw(st.integers(1, 3))
    rows = []
    for j in range(nv):
        low = draw(tie_bound)
        high = low + draw(st.sampled_from([F(0), F(1, 2), F(1), F(3)]))
        for b, sign in ((high, 1), (low, -1)):
            if draw(st.integers(0, 4)):
                coeffs = [F(0)] * nv
                coeffs[j] = a = sign * abs(draw(row_coef))
                rows.append((coeffs, Rel.LE, a * b))
    order = draw(st.permutations(range(len(rows))))
    return _sys([f"x{i}" for i in range(nv)], [rows[i] for i in order])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    two_sided_boxes(),
    st.lists(coef, min_size=3, max_size=3),
    st.booleans(),
)
def test_box_optima_agree_with_sympys_simplex(s, obj, negate):
    # the box path, `_box_solve`, with both ends of most intervals to pick from
    _check_against_sympy(s, obj, negate)
