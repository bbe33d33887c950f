"""The bundled decision procedure for polynomial constraint systems.

``backends`` sends every system that is not all-linear here, as a
function call: ``decide`` takes the assembled ``farkas.ConstraintSystem``
as it is, a conjunction of ``PolyConstraint`` rows over its parameter
names, and values every one of them, multipliers included.

Decision strategy, at most two exact LPs:
  * if the linear rows alone are infeasible, the whole problem is unsat;
  * if every row holds at their exact point, that point is a model (a
    linear system always is one: strict rows hold there with margin);
  * otherwise the smaller side of the bipartite product graph is fixed
    at that point, which makes every row affine in the free side, and
    the rows naming a free parameter are decided as one plain
    feasibility LP: one block step of Konno's alternating method for
    bilinear programs.  The other rows are linear, so they hold already.
A model is reported only after exact re-substitution, so "sat" answers
are sound.  A product graph that is not bipartite (a squared variable
included), an infeasible block LP or a row still violated is "unknown",
never "unsat": the fixed values came from the screen alone.

All arithmetic is over fractions.Fraction; no floating point anywhere.
"""

from __future__ import annotations

import itertools

from . import lp
from .farkas import ConstraintSystem


# -- decision ------------------------------------------------------------------


def _linear_verdict(constraints, names):
    """Exact simplex on the linear rows (rows of degree above one are left
    out)."""
    rows = (
        (con.poly, con.rel) for con in constraints if con.poly.degree() <= 1
    )
    return lp.solve(lp.linear_system(rows, names))


def _product_blocks(constraints, names) -> list[str] | None:
    """The free side of the variable product graph's two-coloring, in
    name order, or None if the graph is not bipartite.

    Farkas duals of certificate synthesis problems are bilinear: every
    premise is parameter-free, so every product pairs a certificate
    coefficient with a control parameter.  The product graph is then
    bipartite, and fixing one side makes every row affine in the other.
    The free side is the larger color class, the first one on a tie.  A
    repeated factor is a self-loop, so a squared variable makes the graph
    non-bipartite.  Variables in no product join the free side (they stay
    affine either way)."""
    adjacent: dict[str, set[str]] = {n: set() for n in names}
    for con in constraints:
        for mono in con.poly.terms:
            for a, b in itertools.combinations(mono, 2):
                adjacent[a].add(b)
                adjacent[b].add(a)

    side: dict[str, int] = {}
    for start in names:
        if start in side or not adjacent[start]:
            continue
        side[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            for v in adjacent[u]:
                if v not in side:
                    side[v] = 1 - side[u]
                    queue.append(v)
                elif side[v] == side[u]:
                    return None
    b0 = [n for n in names if side.get(n, 0) == 0]
    b1 = [n for n in names if side.get(n, 1) == 1]
    return b1 if len(b1) > len(b0) else b0


def decide(system: ConstraintSystem):
    """-> (status, model or None); a model values every parameter.

    The block LP's columns follow the names' order, so renaming the
    parameters does not move the vertex it lands on."""
    names = list(system.params)
    constraints = system.constraints

    res = _linear_verdict(constraints, names)
    if res.status == "infeasible":
        return "unsat", None
    point = dict(res.assignment)
    if system.holds(point):
        return "sat", point

    free = _product_blocks(constraints, names)
    if free is None:
        return "unknown", None
    moving = set(free)
    fixed = {n: v for n, v in point.items() if n not in moving}
    rows = (
        (con.poly.substitute(fixed), con.rel)
        for con in constraints
        if not moving.isdisjoint(con.poly.params())
    )
    res = lp.solve(lp.linear_system(rows, free))
    if res.status != "optimal":
        return "unknown", None
    point.update(res.assignment)
    if system.holds(point):
        return "sat", point
    return "unknown", None
