"""The bundled decision procedure for polynomial constraint systems.

``backends`` sends every system that is not all-linear here, as a
function call: ``decide`` takes the assembled ``farkas.ConstraintSystem``
as it is, a conjunction of ``PolyConstraint`` rows.

Decision strategy:
  * if the linear subset is infeasible, the whole problem is unsat;
  * otherwise: one pass of block solves from the linear screen's exact
    point, where every linear row holds (so a linear system is decided
    there).  The variable product graph of a bilinear system is
    bipartite, so its two sides are the blocks: fixing one side makes
    every constraint affine in the other, which is then solved exactly,
    one connected component at a time.  A component whose rows all hold
    already is skipped; a violated one is solved as a plain feasibility
    LP, and keeps its values when that LP is infeasible.  A model is
    reported only after exact re-substitution, so "sat" answers are
    sound; a pass that leaves a row violated, or a product graph that is
    not bipartite (a squared variable included), is "unknown".

All arithmetic is over fractions.Fraction; no floating point anywhere.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import lp
from .farkas import ConstraintSystem

F0 = Fraction(0)


# -- decision ------------------------------------------------------------------


def _linear_verdict(constraints, names):
    """Exact simplex on the linear rows (rows of degree above one are left
    out)."""
    rows = (
        (con.poly, con.rel) for con in constraints if con.poly.degree() <= 1
    )
    return lp.solve(lp.linear_system(rows, names))


def _product_blocks(constraints, names) -> list[list[str]] | None:
    """Two-color the variable product graph into the pass's blocks, or
    None if it is not bipartite.

    Farkas duals of certificate synthesis problems are bilinear: every
    premise is parameter-free, so every product pairs a certificate
    coefficient with a control parameter.  The product graph is then
    bipartite and its two sides are the blocks, each exactly solvable
    with the other fixed.  A repeated factor is a self-loop, so a squared
    variable makes the graph non-bipartite.  Variables in no product join
    both blocks (they stay affine either way, so both block solves may
    move them)."""
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
    if set(b0) == set(b1):
        return [b0] if b0 else []
    return sorted((b for b in (b0, b1) if b), key=len, reverse=True)


def _block_lp(constraints, group, point):
    """Re-solve `group` with everything else fixed, splitting the affine
    rows into connected components solved independently.

    Rows not mentioning the group are left out.  A component whose rows
    all hold at `point` is skipped before its rows are substituted; a
    violated one is solved as a plain feasibility LP, strict rows held
    with margin, and keeps its values when that LP is infeasible.
    Returns the moved values, or None when no row involving the group is
    violated.  Columns and components follow the order of `group`, never
    the names, so renaming the parameters does not move the vertex an LP
    lands on.

    The block construction makes every residual affine over a component's
    variables; `lp.linear_system` raises on anything else."""
    rank = {n: i for i, n in enumerate(group)}
    touched = []
    for con in constraints:
        vs = sorted(
            (n for n in con.poly.params() if n in rank), key=rank.__getitem__
        )
        if vs:
            touched.append((vs, con))

    parent: dict[str, str] = {}

    def find(x: str) -> str:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for vs, _ in touched:
        for other in vs[1:]:
            parent[find(vs[0])] = find(other)
    comp_vars: dict[str, set[str]] = {}
    comp_rows: dict[str, list] = {}
    violated: set[str] = set()
    for vs, con in touched:
        root = find(vs[0])
        comp_vars.setdefault(root, set()).update(vs)
        comp_rows.setdefault(root, []).append(con)
        if root not in violated and not con.holds(point):
            violated.add(root)
    if not violated:
        return None

    fixed = {n: v for n, v in point.items() if n not in rank}
    subs = {r: sorted(comp_vars[r], key=rank.__getitem__) for r in violated}
    moved: dict[str, Fraction] = {}
    for root in sorted(subs, key=lambda r: rank[subs[r][0]]):
        rows = (
            (con.poly.substitute(fixed), con.rel) for con in comp_rows[root]
        )
        res = lp.solve(lp.linear_system(rows, subs[root]))
        if res.status == "optimal":
            moved.update({n: res.assignment.get(n, F0) for n in subs[root]})
    return moved


def decide(system: ConstraintSystem):
    """-> (status, model or None); a model values every parameter."""
    names = [p.name for p in system.params]
    constraints = system.constraints

    # sound unsat screen: the linear subset alone.  Its exact point is
    # also where the pass starts: every linear row holds there, strict
    # rows with margin, so the block solves only have the rest to repair
    # (and a linear system is a model there already)
    res = _linear_verdict(constraints, names)
    if res.status == "infeasible":
        return "unsat", None

    blocks = _product_blocks(constraints, names)
    if blocks is None:
        return "unknown", None

    point = dict(res.assignment)
    for group in blocks:
        if system.holds(point):
            return "sat", point
        point.update(_block_lp(constraints, group, point) or {})
    if system.holds(point):
        return "sat", point
    return "unknown", None
