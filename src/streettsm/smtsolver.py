"""The bundled decision procedure for polynomial constraint systems.

``backends`` sends every system that is not all-linear here, as a
function call: ``decide`` takes the assembled ``farkas.ConstraintSystem``
as it is, a conjunction of ``PolyConstraint`` rows.

Decision strategy:
  * if the linear subset is infeasible, the whole problem is unsat;
  * otherwise: alternating block descent from the linear screen's exact
    point, where every linear row holds (so a linear system is decided
    there).  The variable product graph of a bilinear system is
    bipartite, so its two sides alternate: fixing one side makes every
    constraint affine in the other, which is then solved exactly, one
    connected component at a time.  A component whose rows all hold
    already is skipped; a violated one is solved as a plain feasibility
    LP first, then by minimizing its worst violation with the rows local
    to the block held hard.  A model is reported only after exact
    re-substitution, so "sat" answers are sound; descent that fails to
    converge, or a product graph that is not bipartite (a squared
    variable included), is "unknown".

All arithmetic is over fractions.Fraction; no floating point anywhere.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import lp
from .expr import Poly, Rel
from .farkas import ConstraintSystem

ROUNDS = 40

F0 = Fraction(0)
F1 = Fraction(1)

# A strict row sitting exactly on its boundary reports STRICT_GAP, not
# zero: otherwise a strict side row, such as Temperature4's
# `305*alpha + beta < 5.24`, looks converged on its boundary and the
# descent has no reason to leave it.
STRICT_GAP = Fraction(1, 2)


def _violation(con, point) -> Fraction:
    """How far `point` is from satisfying a row."""
    v = con.poly.eval(point)
    if con.rel is Rel.EQ:
        return abs(v)
    if con.rel is Rel.LT and v == 0:
        return STRICT_GAP
    return max(F0, v)


# -- decision ------------------------------------------------------------------


def _linear_verdict(constraints, names):
    """Exact simplex on the linear rows (rows of degree above one are left
    out)."""
    rows = (
        (con.poly, con.rel) for con in constraints if con.poly.degree() <= 1
    )
    return lp.solve(lp.linear_system(rows, names))


def _product_blocks(constraints, names) -> list[list[str]] | None:
    """Two-color the variable product graph into descent blocks, or None
    if it is not bipartite.

    Farkas duals of certificate synthesis problems are bilinear: every
    product pairs a multiplier with an invariant coefficient or a
    certificate coefficient with a control parameter.  The product graph
    is then bipartite and the two sides alternate as descent blocks, each
    exactly solvable with the other fixed.  A repeated factor is a
    self-loop, so a squared variable makes the graph non-bipartite.
    Variables in no product join both blocks (they stay affine either
    way, so every round may move them)."""
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


def _measure(constraints, point) -> Fraction:
    """The worst violation over the rows, each evaluated once.

    Zero means the point is a model: with `STRICT_GAP` a row is at
    violation zero exactly when it holds, so a strict row on its boundary
    is never taken for converged."""
    return max((_violation(con, point) for con in constraints), default=F0)


MEASURE_ZERO = F0


def _component_lp(sub, rows, point):
    """Solve one violated connected component of a block round exactly.

    The rows are tried first as they are: a plain feasibility LP, strict
    rows held with margin, whose point is returned when there is one.
    Only when they are infeasible as written is the worst violation
    minimized.  There, rows local to the block (no other free variables
    anywhere in them) are hard constraints: they are satisfiable
    regardless of the rest, so trading them against coupling rows only
    smears violation onto constraints the other block can never repair.
    Keeps the old values when that LP has no optimum either (the local
    rows clash among themselves).

    The block construction makes every residual affine over `sub`;
    `lp.linear_system` raises on anything else."""
    plain = lp.linear_system(((r, rel) for r, rel, _ in rows), sub)
    res = lp.solve(plain)
    if res.status == "optimal":
        return {n: res.assignment.get(n, F0) for n in sub}

    # worst, the last column, bounds the violation of every soft row; -worst
    # is maximized, and worst >= 0 is the last row.  Its name `#worst` is no
    # identifier (`syntax`), so no parameter shares its column
    worst = Poly({("#worst",): F1})
    relaxed = []
    for residual, rel, local in rows:
        if local:
            relaxed.append((residual, Rel.LE if rel is Rel.LT else rel))
            continue
        relaxed.append((residual - worst, Rel.LE))  # residual <= worst
        if rel is Rel.EQ:
            relaxed.append((-residual - worst, Rel.LE))
    relaxed.append((-worst, Rel.LE))
    system = lp.linear_system(relaxed, [*sub, "#worst"])
    res = lp.solve(system, objective=[F0] * len(sub) + [-F1])
    if res.status != "optimal":
        return {n: point[n] for n in sub}
    return {n: res.assignment.get(n, F0) for n in sub}


def _block_lp(constraints, group, point):
    """Re-optimize `group` with everything else fixed, splitting the
    affine rows into connected components solved independently.

    Rows not mentioning the group keep their violation either way and
    are left out.  A component whose rows all hold at `point` (violation
    zero, so strict rows with margin) is skipped before its rows are
    substituted: its values already reach its worst-violation optimum,
    zero, so they stay.  Returns the moved values of the violated
    components, or None when no row involving the group is violated.
    Columns and components follow the order of `group`, never the names,
    so renaming the parameters does not move the vertex an LP lands on."""
    rank = {n: i for i, n in enumerate(group)}
    touched = []
    for con in constraints:
        names = con.poly.params()
        vs = sorted((n for n in names if n in rank), key=rank.__getitem__)
        if vs:
            touched.append((vs, con, len(vs) == len(names)))

    parent: dict[str, str] = {}

    def find(x: str) -> str:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for vs, _, _ in touched:
        for other in vs[1:]:
            parent[find(vs[0])] = find(other)
    comp_vars: dict[str, set[str]] = {}
    comp_rows: dict[str, list] = {}
    violated: set[str] = set()
    for vs, con, local in touched:
        root = find(vs[0])
        comp_vars.setdefault(root, set()).update(vs)
        comp_rows.setdefault(root, []).append((con, local))
        if root not in violated and _violation(con, point) > 0:
            violated.add(root)
    if not violated:
        return None

    fixed = {n: v for n, v in point.items() if n not in rank}
    subs = {r: sorted(comp_vars[r], key=rank.__getitem__) for r in violated}
    moved: dict[str, Fraction] = {}
    for root in sorted(subs, key=lambda r: rank[subs[r][0]]):
        rows = [
            (con.poly.substitute(fixed), con.rel, local)
            for con, local in comp_rows[root]
        ]
        moved.update(_component_lp(subs[root], rows, point))
    return moved


def decide(system: ConstraintSystem):
    """-> (status, model or None); a model values every parameter."""
    names = [p.name for p in system.params]
    constraints = system.constraints

    # sound unsat screen: the linear subset alone.  Its exact point is
    # also the descent's start: every linear row holds there, strict rows
    # with margin, so the descent only has the rest to repair (and a
    # linear system is a model there already)
    res = _linear_verdict(constraints, names)
    if res.status == "infeasible":
        return "unsat", None

    blocks = _product_blocks(constraints, names)
    if blocks is None:
        return "unknown", None

    point = dict(res.assignment)
    best = _measure(constraints, point)
    for _ in range(ROUNDS):
        if best == MEASURE_ZERO:
            break
        improved = False
        for group in blocks:
            moved = _block_lp(constraints, group, point)
            if moved is None:
                continue
            candidate = dict(point)
            candidate.update(moved)
            value = _measure(constraints, candidate)
            if value <= best:
                improved = improved or value < best
                point, best = candidate, value
            if best == MEASURE_ZERO:
                break
        if not improved:
            break
    if best == MEASURE_ZERO and system.holds(point):
        return "sat", point
    return "unknown", None
