"""The bundled solver: disjunction pruning under equality pins."""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from streettsm import smtsolver
from streettsm.backends import simplex_solve
from streettsm.expr import Param, ParamKind, Poly, Rel
from streettsm.farkas import ConstraintSystem, Disjunction, PolyConstraint

P = Poly.param
F = Fraction


def le(poly) -> PolyConstraint:
    return PolyConstraint(poly, Rel.LE)


def const(q) -> Poly:
    return Poly.const(F(q))


# b - 1 = 0 pins b to 1 before any disjunction is looked at
PIN = PolyConstraint(P("b") - const(1), Rel.EQ)

# name: (plain rows besides the pin, left branch, right branch, the shape
# that pruning leaves: "live", "inlined", "refuted" or "discharged")
CASES = {
    # a <= b and a >= b + 1 both keep a free row
    "both live": (
        [le(P("a") - const(3))],
        (le(P("a") - P("b")),),
        (le(P("b") - P("a") + const(1)),),
        "live",
    ),
    # b = 2 is refuted by the pin; a + b <= 5 is inlined and meets a >= 5
    "one refuted": (
        [le(const(5) - P("a"))],
        (PolyConstraint(P("b") - const(2), Rel.EQ),),
        (le(P("a") + P("b") - const(5)),),
        "inlined",
    ),
    # the same, with the inlined row satisfiable
    "one refuted, sat": (
        [le(const(2) - P("a"))],
        (PolyConstraint(P("b") - const(2), Rel.EQ),),
        (le(P("a") + P("b") - const(5)),),
        "inlined",
    ),
    # b < 1 and b >= 2 both fail at b = 1
    "both refuted": (
        [],
        (PolyConstraint(P("b") - const(1), Rel.LT),),
        (le(const(2) - P("b")),),
        "refuted",
    ),
    # b <= 1 holds at b = 1, so the unsatisfiable right branch is dropped
    "one holds outright": (
        [le(Poly() - P("a"))],
        (le(P("b") - const(1)),),
        (le(P("a") + const(1)),),
        "discharged",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_disjunction_pruning_agrees_with_the_simplex(name):
    plain, left, right, shape = CASES[name]
    params = (Param("a", ParamKind.CERT), Param("b", ParamKind.CERT))
    disj = Disjunction(left, right)
    system = ConstraintSystem(params, (PIN, *plain, disj))

    pins: dict = {}
    work = smtsolver._propagate_pins(system.constraints, pins)
    if shape == "refuted":
        assert work is None
    else:
        assert pins == {"b": F(1)}
        kept = [c for c in work if isinstance(c, Disjunction)]
        assert len(kept) == (1 if shape == "live" else 0)
        inlined = smtsolver._substitute(right[0], pins)
        assert (inlined in work) == (shape == "inlined")

    # the expected verdict: sat iff one branch system is sat by LP
    by_branch = [
        simplex_solve(ConstraintSystem(params, (PIN, *plain, *branch))).status
        for branch in (left, right)
    ]
    expected = "sat" if "sat" in by_branch else "unsat"
    status, model = smtsolver.decide(system)
    assert status == expected
    if status == "sat":
        assert set(model) == {"a", "b"}
        assert system.holds(model)


# small values, so that rows often sit exactly on their boundary
small = st.integers(-2, 2).map(F)
rows = st.builds(
    PolyConstraint,
    st.builds(
        lambda a, b, c: Poly({("a",): a, ("b",): b, (): c}), small, small, small
    ),
    st.sampled_from([Rel.LE, Rel.LT, Rel.EQ]),
)
branches = st.lists(rows, max_size=3).map(tuple)
items = st.one_of(rows, st.builds(Disjunction, branches, branches))
points = st.fixed_dictionaries({"a": small, "b": small})


@given(st.lists(items, max_size=4), points)
@example(  # an empty branch holds; a < 0 sits on its boundary at a = 0
    [
        Disjunction((), (PolyConstraint(P("a"), Rel.LT),)),
        Disjunction((PolyConstraint(P("a"), Rel.LT),), ()),
        PolyConstraint(P("a"), Rel.LT),
    ],
    {"a": F(0), "b": F(0)},
)
def test_zero_violation_is_exactly_holding(constraints, point):
    # the measure's single component is enough: no item sits at violation
    # zero without holding (a strict row on its boundary reports STRICT_GAP)
    for con in constraints:
        assert (smtsolver._violation(con, point) == 0) == con.holds(point)
    worst = smtsolver._measure(constraints, point)
    assert (worst == smtsolver.MEASURE_ZERO) == all(
        con.holds(point) for con in constraints
    )


def test_non_bipartite_products_are_unknown():
    # a*b, b*c and a*c close an odd cycle, so no two blocks make every row
    # affine; the linear part (a <= 2) is feasible, so nothing is refuted
    names = ("a", "b", "c")
    rows = (
        le(P("a") * P("b") - const(1)),
        le(P("b") * P("c") - const(1)),
        le(const(1) - P("a") * P("c")),
        le(P("a") - const(2)),
    )
    system = ConstraintSystem(
        tuple(Param(n, ParamKind.CERT) for n in names), rows
    )
    assert smtsolver._product_blocks(list(rows), list(names)) is None
    assert smtsolver._linear_verdict(rows, names).status == "optimal"
    assert smtsolver.decide(system) == ("unknown", None)
