"""A small exact-rational SMT-LIB2 solver for QF_LRA/QF_NRA subsets.

The default decision backend for non-linear systems: ``backends`` calls
``decide`` in process on constraints built straight from a
``ConstraintSystem``.  The SMT-LIB2 front end (``main``, also installed as
the ``streettsm-solver`` console script) reads the same problems as text.
The input language covers what polynomial constraint systems need: real
constants, (in)equalities over polynomial terms, conjunction, and flat
disjunction.

Decision strategy:
  * single-variable equalities pin their variable; pins propagate, and
    disjunction branches refuted by constants are pruned;
  * purely linear, disjunction-free problems go to the exact simplex
    (complete: answers sat or unsat);
  * if the linear disjunction-free subset is already infeasible, the
    whole problem is unsat;
  * otherwise: alternating block descent.  The variable product graph of
    a bilinear system is bipartite, so its two sides alternate: fixing
    one side makes every constraint affine in the other, which is then
    solved exactly, one connected component at a time, feasibility
    first and worst-violation minimization as fallback.  Disjunction
    branches are re-chosen greedily per round; squared variables are
    varied by sampling.  Non-bipartite products fall back to greedy
    conflict-graph coloring with the same round mechanics.  Deterministic
    restarts draw fresh starting points from constants harvested off the
    problem.  A model is reported only after exact re-substitution, so
    "sat" answers are sound; descent that fails to converge is "unknown".

All arithmetic is over fractions.Fraction; no floating point anywhere.
"""

from __future__ import annotations

import itertools
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import lp
from .expr import Poly

ROUNDS = 40
RESTARTS = 24

F0 = Fraction(0)
F1 = Fraction(1)


class SolverInputError(Exception):
    """Malformed or unsupported input script."""


# -- s-expression reader -------------------------------------------------------


def tokenize(text: str) -> list[str]:
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == ";":
            while i < len(text) and text[i] != "\n":
                i += 1
        elif ch in "()":
            out.append(ch)
            i += 1
        elif ch.isspace():
            i += 1
        elif ch == "|":
            j = text.index("|", i + 1)
            out.append(text[i : j + 1])
            i = j + 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in "();":
                j += 1
            out.append(text[i:j])
            i = j
    return out


def read_forms(text: str) -> list:
    tokens = tokenize(text)
    forms = []
    pos = 0

    def parse(at: int):
        if at >= len(tokens):
            raise SolverInputError("unexpected end of input")
        if tokens[at] == "(":
            node = []
            at += 1
            while at < len(tokens) and tokens[at] != ")":
                child, at = parse(at)
                node.append(child)
            if at >= len(tokens):
                raise SolverInputError("unbalanced parenthesis")
            return node, at + 1
        if tokens[at] == ")":
            raise SolverInputError("stray ')'")
        return tokens[at], at + 1

    while pos < len(tokens):
        form, pos = parse(pos)
        forms.append(form)
    return forms


# -- constraints ---------------------------------------------------------------


STRICT_GAP = Fraction(1, 2)


@dataclass(frozen=True)
class Lin:
    """poly REL 0 with rel in {<=, <, =}.

    A strict row sitting exactly on its boundary reports STRICT_GAP, not
    zero: otherwise a homogeneous strict branch looks converged at the
    all-zero point and the descent has no reason to leave it."""

    poly: Poly
    rel: str

    def violation(self, point) -> Fraction:
        v = self.poly.eval(point)
        if self.rel == "=":
            return abs(v)
        if self.rel == "<" and v == 0:
            return STRICT_GAP
        return max(F0, v)

    def holds(self, point) -> bool:
        v = self.poly.eval(point)
        if self.rel == "=":
            return v == 0
        if self.rel == "<":
            return v < 0
        return v <= 0


@dataclass(frozen=True)
class Or:
    branches: tuple[tuple[Lin, ...], ...]

    def violation(self, point) -> Fraction:
        return min(
            max((c.violation(point) for c in branch), default=F0)
            for branch in self.branches
        )

    def holds(self, point) -> bool:
        return any(all(c.holds(point) for c in branch) for branch in self.branches)


def _is_numeral(tok: str) -> bool:
    body = tok[1:] if tok[:1] in "+-" else tok
    return bool(body) and all(c.isdigit() or c == "." for c in body)


class Script:
    def __init__(self):
        self.variables: list[str] = []
        self.constraints: list[Lin | Or] = []
        self.wanted: list[str] = []
        self.check_sat = False

    # term -> Poly
    def poly(self, node) -> Poly:
        if isinstance(node, str):
            if _is_numeral(node):
                return Poly.const(Fraction(node))
            if node in self._declared:
                return Poly.param(node)
            raise SolverInputError(f"undeclared symbol {node!r}")
        if not node:
            raise SolverInputError("empty term")
        head, args = node[0], node[1:]
        if head == "+":
            acc = Poly()
            for a in args:
                acc = acc + self.poly(a)
            return acc
        if head == "-":
            if len(args) == 1:
                return -self.poly(args[0])
            acc = self.poly(args[0])
            for a in args[1:]:
                acc = acc - self.poly(a)
            return acc
        if head == "*":
            acc = Poly.const(F1)
            for a in args:
                acc = acc * self.poly(a)
            return acc
        if head == "/":
            if len(args) != 2:
                raise SolverInputError("/ takes two arguments")
            num, den = self.poly(args[0]), self.poly(args[1])
            if not den.is_constant() or den.constant_value() == 0:
                raise SolverInputError("division by a non-constant")
            return num.scale(1 / den.constant_value())
        raise SolverInputError(f"unsupported term {node!r}")

    def atoms(self, node) -> list[Lin]:
        """A formula as a conjunction of atoms (no disjunction below)."""
        out: list[Lin | Or] = self.formula(node)
        flat: list[Lin] = []
        for item in out:
            if isinstance(item, Or):
                raise SolverInputError("nested disjunction is unsupported")
            flat.append(item)
        return flat

    def formula(self, node) -> list:
        if node == "true":
            return []
        if node == "false":
            return [Lin(Poly.const(F1), "<=")]
        if isinstance(node, str):
            raise SolverInputError(f"unsupported formula {node!r}")
        head, args = node[0], node[1:]
        if head == "and":
            out = []
            for a in args:
                out.extend(self.formula(a))
            return out
        if head == "or":
            if not args:
                raise SolverInputError("empty disjunction")
            branches = tuple(tuple(self.atoms(a)) for a in args)
            return [Or(branches)]
        if head in ("<=", "<", ">=", ">", "="):
            if len(args) != 2:
                raise SolverInputError(f"{head} takes two arguments")
            a, b = self.poly(args[0]), self.poly(args[1])
            if head == "<=":
                return [Lin(a - b, "<=")]
            if head == "<":
                return [Lin(a - b, "<")]
            if head == ">=":
                return [Lin(b - a, "<=")]
            if head == ">":
                return [Lin(b - a, "<")]
            return [Lin(a - b, "=")]
        raise SolverInputError(f"unsupported formula head {head!r}")

    @property
    def _declared(self) -> set[str]:
        return set(self.variables)

    def run_command(self, form) -> None:
        if not isinstance(form, list) or not form:
            raise SolverInputError(f"bad command {form!r}")
        head = form[0]
        if head in ("set-logic", "set-info", "set-option", "exit"):
            return
        if head == "declare-const":
            name, sort = form[1], form[2]
            if sort != "Real":
                raise SolverInputError(f"unsupported sort {sort!r}")
            self.variables.append(name)
            return
        if head == "declare-fun":
            name, params, sort = form[1], form[2], form[3]
            if params != [] or sort != "Real":
                raise SolverInputError("only nullary Real functions")
            self.variables.append(name)
            return
        if head == "assert":
            self.constraints.extend(self.formula(form[1]))
            return
        if head == "check-sat":
            self.check_sat = True
            return
        if head == "get-value":
            for name in form[1]:
                if name not in self._declared:
                    raise SolverInputError(f"get-value of undeclared {name!r}")
                self.wanted.append(name)
            return
        raise SolverInputError(f"unsupported command {head!r}")


def parse_script(text: str) -> Script:
    script = Script()
    for form in read_forms(text):
        script.run_command(form)
    return script


# -- decision ------------------------------------------------------------------


def _substitute(con, point):
    if isinstance(con, Or):
        return Or(
            tuple(
                tuple(Lin(c.poly.substitute(point), c.rel) for c in branch)
                for branch in con.branches
            )
        )
    return Lin(con.poly.substitute(point), con.rel)


def _propagate_pins(constraints, pins: dict[str, Fraction]):
    """Single-variable linear equalities force values; returns None on a
    constant contradiction (sound unsat).

    Disjunctions are pruned along the way: a branch holding a constant
    falsehood is dropped, a branch reduced to constants that all hold
    discharges the whole disjunction, and a sole surviving branch is
    inlined as plain conjuncts (joining the pin fixpoint)."""
    work = [_substitute(c, pins) for c in constraints]
    changed = True
    while changed:
        changed = False
        rest = []
        for con in work:
            if isinstance(con, Or):
                branches = []
                for branch in con.branches:
                    rows = []
                    dead = False
                    for c in branch:
                        if not c.poly.params():
                            if not c.holds({}):
                                dead = True
                                break
                            continue
                        rows.append(c)
                    if not dead:
                        branches.append(tuple(rows))
                if not branches:
                    return None
                if any(not br for br in branches):
                    continue  # some branch holds outright
                if len(branches) == 1:
                    rest.extend(branches[0])
                    changed = True
                    continue
                rest.append(Or(tuple(branches)))
                continue
            names = con.poly.params()
            if not names:
                if not con.holds({}):
                    return None
                continue
            if con.rel == "=" and len(names) == 1:
                (name,) = names
                slope = con.poly.terms.get((name,), F0)
                linear = all(len(m) <= 1 for m in con.poly.terms)
                # a second pin on the same name in this sweep stays a row,
                # so the next sweep checks it against the first
                if linear and slope and name not in pins:
                    pins[name] = -con.poly.terms.get((), F0) / slope
                    changed = True
                    continue
            rest.append(con)
        if changed:
            rest = [_substitute(c, pins) for c in rest]
        work = rest
    return work


def _linear_verdict(constraints, names):
    """Exact simplex on Lin rows (ignores Or items entirely)."""
    system = lp.LinearSystem(list(names))
    for con in constraints:
        if isinstance(con, Or):
            continue
        if con.poly.degree() > 1:
            continue
        coeffs = {n: F0 for n in names}
        const = F0
        for mono, c in con.poly.terms.items():
            if len(mono) == 0:
                const += c
            else:
                coeffs[mono[0]] += c
        system.add([coeffs[n] for n in names], con.rel, -const)
    return lp.solve_strict(system)


def _conflict_classes(constraints, names) -> tuple[list[list[str]], list[str]]:
    """Group variables so fixing all groups but one linearizes everything.

    Returns (classes, sampled): a variable squared anywhere is never
    affine while free, so it is excluded from the LP rounds and varied by
    sampling instead.
    """
    adjacent: dict[str, set[str]] = {n: set() for n in names}

    def see(poly: Poly):
        for mono in poly.terms:
            distinct = sorted(set(mono))
            for a, b in itertools.combinations(distinct, 2):
                adjacent[a].add(b)
                adjacent[b].add(a)
            for n in set(mono):
                if mono.count(n) > 1:
                    adjacent[n].add(n)  # squared: can never be the free one

    for con in constraints:
        if isinstance(con, Or):
            for branch in con.branches:
                for c in branch:
                    see(c.poly)
        else:
            see(con.poly)

    classes: list[list[str]] = []
    color: dict[str, int] = {}
    for n in names:
        if n in adjacent[n]:
            color[n] = -1  # sampled, never LP-solved
            continue
        used = {color.get(m) for m in adjacent[n] if m in color}
        k = 0
        while k in used:
            k += 1
        color[n] = k
        while len(classes) <= k:
            classes.append([])
        classes[k].append(n)
    sampled = [n for n, k in color.items() if k == -1]
    return classes, sampled


def _product_blocks(constraints, names) -> tuple[list[list[str]], list[str]] | None:
    """Two-color the variable product graph, or None if not bipartite.

    Farkas duals of certificate synthesis problems are bilinear: every
    product pairs a multiplier with an invariant coefficient or a
    certificate coefficient with a control parameter.  The product graph
    is then bipartite and the two sides alternate as descent blocks, each
    exactly solvable with the other fixed.  Squared variables go to the
    sampled set; variables in no product join both blocks (they stay
    affine either way, so every round may move them)."""
    adjacent: dict[str, set[str]] = {n: set() for n in names}
    sampled: set[str] = set()

    def see(poly: Poly):
        for mono in poly.terms:
            if len(mono) < 2:
                continue
            distinct = sorted(set(mono))
            for n in distinct:
                if mono.count(n) > 1:
                    sampled.add(n)
            for a, b in itertools.combinations(distinct, 2):
                adjacent[a].add(b)
                adjacent[b].add(a)

    for con in constraints:
        if isinstance(con, Or):
            for branch in con.branches:
                for c in branch:
                    see(c.poly)
        else:
            see(con.poly)

    side: dict[str, int] = {}
    for start in names:
        if start in sampled or start in side or not (adjacent[start] - sampled):
            continue
        side[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            for v in adjacent[u]:
                if v in sampled:
                    continue
                if v not in side:
                    side[v] = 1 - side[u]
                    queue.append(v)
                elif side[v] == side[u]:
                    return None
    b0 = [n for n in names if n not in sampled and side.get(n, 0) == 0]
    b1 = [n for n in names if n not in sampled and side.get(n, 1) == 1]
    if set(b0) == set(b1):
        blocks = [b0] if b0 else []
    else:
        blocks = sorted((b for b in (b0, b1) if b), key=len, reverse=True)
    return blocks, sorted(sampled)


def _harvest_pool(constraints) -> list[Fraction]:
    seen: set[Fraction] = set()

    def see(poly: Poly):
        for coeff in poly.terms.values():
            seen.add(abs(coeff))

    for con in constraints:
        if isinstance(con, Or):
            for branch in con.branches:
                for c in branch:
                    see(c.poly)
        else:
            see(con.poly)
    base = [F0, F1, -F1, Fraction(1, 2), -Fraction(1, 2), Fraction(2), -Fraction(2)]
    extra = sorted(c for c in seen if c not in (F0, F1) and c <= 10**6)
    for c in extra[:12]:
        base.extend([c, -c])
    return base


def _variable_bounds(constraints, names):
    """Cheap per-variable bounds from single-variable non-strict rows."""
    lo = {n: None for n in names}
    hi = {n: None for n in names}
    for con in constraints:
        if isinstance(con, Or) or con.rel == "=":
            continue
        terms = con.poly.terms
        vs = {n for m in terms for n in m}
        if len(vs) != 1:
            continue
        (name,) = vs
        slope = terms.get((name,), F0)
        if not slope or any(len(m) > 1 for m in terms):
            continue
        bound = -terms.get((), F0) / slope
        if slope > 0:
            hi[name] = bound if hi[name] is None else min(hi[name], bound)
        else:
            lo[name] = bound if lo[name] is None else max(lo[name], bound)
    return lo, hi


def _clamp(value, lo, hi):
    if lo is not None and value < lo:
        value = lo
    if hi is not None and value > hi:
        value = hi
    return value


SNAP_DENOMINATOR = 1 << 12


def _snap(work, point, best):
    """Bounded-denominator rounding of a descent point.

    Exact LP vertices accumulate huge rationals round over round, which
    makes later pivots crawl.  Intermediate points carry no certificate
    meaning, so round them whenever that does not regress the measure."""
    if all(v.denominator <= SNAP_DENOMINATOR for v in point.values()):
        return point, best
    snapped = {
        n: v.limit_denominator(SNAP_DENOMINATOR) if v.denominator > SNAP_DENOMINATOR else v
        for n, v in point.items()
    }
    value = _measure(work, snapped)
    if value <= best:
        return snapped, value
    return point, best


def _branch_key(branch, point):
    return (
        max((c.violation(point) for c in branch), default=F0),
        0 if all(c.holds(point) for c in branch) else 1,
    )


def _or_norms(work) -> dict[int, list[frozenset[str] | None]]:
    """Per disjunction branch: variables to pin to scale one, or None.

    A branch homogeneous in variables private to its disjunction (all
    their other appearances are single-variable rows) keeps violation
    zero at the origin, so LP rounds leave it degenerate and the other
    block never sees a gradient through the products.  Any solution of
    such a branch scales, so adding "sum of private variables = 1" to
    the branch LP is sound and forces an informative point."""
    occurrences: dict[str, set[int]] = {}
    for i, con in enumerate(work):
        if isinstance(con, Or):
            vs: set[str] = set()
            for branch in con.branches:
                for c in branch:
                    vs |= c.poly.params()
        else:
            vs = con.poly.params()
            if len(vs) <= 1:
                continue  # sign and bound rows do not claim ownership
        for v in vs:
            occurrences.setdefault(v, set()).add(i)
    norms: dict[int, list[frozenset[str] | None]] = {}
    for i, con in enumerate(work):
        if not isinstance(con, Or):
            continue
        per_branch: list[frozenset[str] | None] = []
        for branch in con.branches:
            vs = set()
            for c in branch:
                vs |= c.poly.params()
            private = frozenset(v for v in vs if occurrences.get(v, {i}) == {i})
            homogeneous = bool(private) and bool(branch) and all(
                c.poly.terms.get((), F0) == 0
                and all(
                    any(n in private for n in mono)
                    for mono in c.poly.terms
                    if mono
                )
                for c in branch
            )
            per_branch.append(private if homogeneous else None)
        norms[i] = per_branch
    return norms


def _choose_branches(constraints, point, forced=None, norms=None):
    """Freeze each disjunction to its currently least-violated branch.

    Ties prefer a branch that fully holds (strict rows included), so a
    zero-violation point settles on branches the final check accepts.
    `forced` (work index -> branch index) overrides the greedy choice:
    a stuck branch can hide the satisfiable one from the LP forever.
    With `norms` (from _or_norms), also returns the normalization sets
    of the chosen branches."""
    active: list[Lin] = []
    chosen_norms: list[frozenset[str]] = []
    for i, con in enumerate(constraints):
        if isinstance(con, Or):
            if forced is not None and i in forced:
                k = forced[i]
            else:
                k = min(
                    range(len(con.branches)),
                    key=lambda j: _branch_key(con.branches[j], point),
                )
            active.extend(con.branches[k])
            if norms is not None:
                ns = norms[i][k]
                if ns is not None:
                    chosen_norms.append(ns)
        else:
            active.append(con)
    if norms is None:
        return active
    return active, chosen_norms


def _measure(constraints, point) -> tuple[Fraction, int]:
    """(worst violation, items at violation zero that still do not hold).

    The second part makes strict rows visible: a homogeneous strict row
    sits at violation zero without holding, so the plain worst-violation
    objective alone would call a useless point converged.  The measure is
    compared lexicographically and (0, 0) means the point is a model."""
    worst = F0
    unheld = 0
    for con in constraints:
        v = con.violation(point)
        if v > worst:
            worst = v
        elif v == 0 and not con.holds(point):
            unheld += 1
    return worst, unheld


MEASURE_ZERO = (F0, 0)


def _linear_rows(rows, sub):
    """Each residual as (coefficient row over sub, rel, rhs, local); the
    block construction guarantees affineness, anything else is a usage
    error."""
    out = []
    for residual, rel, local in rows:
        coeffs = {n: F0 for n in sub}
        const = F0
        for mono, c in residual.terms.items():
            if len(mono) == 0:
                const += c
            elif len(mono) == 1 and mono[0] in coeffs:
                coeffs[mono[0]] += c
            else:
                raise SolverInputError(
                    f"monomial {mono} is nonlinear within one block"
                )
        out.append(([coeffs[n] for n in sub], rel, -const, local))
    return out


def _component_lp(sub, rows, point, norms=()):
    """Solve one connected component of a block round exactly.

    Rows local to the block (no other free variables anywhere in them)
    are hard constraints: they are satisfiable regardless of the rest,
    so trading them against coupling rows only smears violation onto
    constraints the other block can never repair.  Coupling rows get
    their worst violation minimized.  `norms` are scale-one pins for
    active homogeneous branches, added as hard rows.  If the optimum
    reaches zero and strict rows are present, re-solve for an interior
    point so they hold with margin.  Keeps the old values when nothing
    improves."""
    linear = _linear_rows(rows, sub)
    norm_rows = []
    for ns in norms:
        row = [F1 if n in ns else F0 for n in sub]
        norm_rows.append((row, "=", F1))

    def build(hard_local: bool):
        system = lp.LinearSystem(list(sub) + ["__worst"])
        for row, rel, rhs, local in linear:
            if hard_local and local:
                system.add(row + [F0], rel if rel != "<" else "<=", rhs)
                continue
            system.add(row + [-F1], "<=", rhs)  # expr <= worst
            if rel == "=":
                system.add([-c for c in row] + [-F1], "<=", -rhs)
        for row, rel, rhs in norm_rows:
            system.add(row + [F0], rel, rhs)
        system.add([F0] * len(sub) + [-F1], "<=", F0)  # worst >= 0
        return lp.solve(
            system,
            objective=[F0] * len(sub) + [-F1],
            maximize=True,
        )

    res = build(hard_local=True)
    if res.status != "optimal":
        res = build(hard_local=False)  # local rows clash with a norm pin
        if res.status != "optimal":
            return {n: point[n] for n in sub}
    moved = {n: res.assignment.get(n, F0) for n in sub}
    if res.value == 0 and any(rel == "<" for _, rel, _, _ in linear):
        system = lp.LinearSystem(list(sub))
        for row, rel, rhs, _ in linear:
            system.add(row, rel, rhs)
        for row, rel, rhs in norm_rows:
            system.add(row, rel, rhs)
        strict = lp.solve_strict(system)
        if strict.status == "optimal":
            moved = {n: strict.assignment.get(n, F0) for n in sub}
    return moved


def _block_lp(active, group, point, norms=()):
    """Re-optimize `group` with everything else fixed, splitting the
    affine rows into connected components solved independently.

    Rows not mentioning the group keep their violation either way and
    are left out.  Returns the moved values, or None when no row
    involves the group."""
    group_set = set(group)
    fixed = {n: v for n, v in point.items() if n not in group_set}
    touched = []
    for con in active:
        names = con.poly.params()
        vs = names & group_set
        if vs:
            local = names <= group_set
            touched.append((sorted(vs), con.poly.substitute(fixed), con.rel, local))
    if not touched:
        return None

    parent: dict[str, str] = {}

    def find(x: str) -> str:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for vs, _, _, _ in touched:
        for other in vs[1:]:
            parent[find(vs[0])] = find(other)
    live_norms = [ns for ns in norms if ns <= group_set]
    for ns in live_norms:
        vs = sorted(ns)
        for other in vs[1:]:
            parent[find(vs[0])] = find(other)
    comp_vars: dict[str, set[str]] = {}
    comp_rows: dict[str, list] = {}
    for vs, residual, rel, local in touched:
        root = find(vs[0])
        comp_vars.setdefault(root, set()).update(vs)
        comp_rows.setdefault(root, []).append((residual, rel, local))
    comp_norms: dict[str, list[frozenset[str]]] = {}
    for ns in live_norms:
        root = find(sorted(ns)[0])
        if root in comp_vars:
            comp_vars[root].update(ns)
            comp_norms.setdefault(root, []).append(ns)
    moved: dict[str, Fraction] = {}
    for root in sorted(comp_rows):
        sub = sorted(comp_vars[root])
        moved.update(
            _component_lp(sub, comp_rows[root], point, comp_norms.get(root, ()))
        )
    return moved


def decide(
    variables: list[str],
    constraints: list[Lin | Or],
    restarts: int = RESTARTS,
    rounds: int = ROUNDS,
):
    """-> (status, model or None); a model values every variable."""
    pins: dict[str, Fraction] = {}
    work = _propagate_pins(constraints, pins)
    if work is None:
        return "unsat", None
    names = [n for n in variables if n not in pins]

    def finish(point):
        model = dict(pins)
        model.update(point)
        for n in variables:
            model.setdefault(n, F0)
        assert all(c.holds(model) for c in constraints)
        return "sat", model

    nonlinear = any(
        (c.poly.degree() > 1) if isinstance(c, Lin) else True for c in work
    ) or any(isinstance(c, Or) for c in work)
    if not nonlinear:
        res = _linear_verdict(work, names)
        if res.status == "infeasible":
            return "unsat", None
        return finish({n: res.assignment.get(n, F0) for n in names})

    # sound unsat screen: the linear disjunction-free subset alone
    res = _linear_verdict(work, names)
    if res.status == "infeasible":
        return "unsat", None

    split = _product_blocks(work, names)
    if split is None:
        classes, sampled = _conflict_classes(work, names)
        blocks = [c for c in classes if c]
    else:
        blocks, sampled = split
    pool = _harvest_pool(work)
    lo, hi = _variable_bounds(work, names)
    norms = _or_norms(work)

    for restart in range(restarts):
        rng = random.Random(restart)
        point: dict[str, Fraction] = {}
        for i, n in enumerate(names):
            if restart == 0:
                value = F0
            else:
                value = pool[(i * 7 + restart * 13) % len(pool)]
                if restart % 3 == 2:
                    value += Fraction(rng.randrange(-8, 9), 4)
            point[n] = _clamp(value, lo[n], hi[n])
        best = _measure(work, point)
        forced: dict[int, int] = {}
        flips: dict[int, int] = {}
        for _ in range(rounds):
            if best == MEASURE_ZERO:
                break
            improved = False
            for group in blocks:
                active = _choose_branches(work, point, forced)
                moved = _block_lp(active, group, point)
                if moved is None:
                    continue
                candidate = dict(point)
                candidate.update(moved)
                value = _measure(work, candidate)
                if value <= best:
                    improved = improved or value < best
                    point, best = _snap(work, candidate, value)
                if best == MEASURE_ZERO:
                    break
            if sampled and best > MEASURE_ZERO:
                for n in sampled:
                    candidate = dict(point)
                    candidate[n] = pool[rng.randrange(len(pool))]
                    value = _measure(work, candidate)
                    if value < best:
                        point, best = candidate, value
                        improved = True
            if not improved:
                # flip the branch of disjunctions stuck at violation zero
                # without holding; their satisfiable branch never enters
                # the LP greedily because it shows positive violation
                flipped = False
                for i, con in enumerate(work):
                    if not isinstance(con, Or):
                        continue
                    if con.violation(point) != 0 or con.holds(point):
                        continue
                    if flips.get(i, 0) >= len(con.branches):
                        continue
                    current = forced.get(
                        i,
                        min(
                            range(len(con.branches)),
                            key=lambda k: _branch_key(con.branches[k], point),
                        ),
                    )
                    forced[i] = (current + 1) % len(con.branches)
                    flips[i] = flips.get(i, 0) + 1
                    flipped = True
                if not flipped:
                    break
        if best == MEASURE_ZERO:
            full = dict(pins)
            full.update(point)
            for n in variables:
                full.setdefault(n, F0)
            if all(c.holds(full) for c in constraints):
                return "sat", full
    return "unknown", None


# -- entry point ---------------------------------------------------------------


def format_rational(q: Fraction) -> str:
    if q < 0:
        return f"(- {format_rational(-q)})"
    if q.denominator == 1:
        return str(q.numerator)
    return f"(/ {q.numerator} {q.denominator})"


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) > 1:
        print("usage: streettsm-solver [script.smt2]", file=sys.stderr)
        return 2
    try:
        text = open(args[0]).read() if args else sys.stdin.read()
        script = parse_script(text)
        if not script.check_sat:
            return 0
        status, model = decide(script.variables, script.constraints)
    except (SolverInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(status)
    if status == "sat" and script.wanted:
        pairs = " ".join(
            f"({name} {format_rational(model[name])})" for name in script.wanted
        )
        print(f"({pairs})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
