"""Checks of an operation's output, made apart from the route that produced it.

* ``pipeline.failing_vcs``: the certificate's VCs rebuilt with V, M and the control
  substituted, each decided by primal LP maximisation
  (``farkas.implication_valid_bruteforce``), not through duals or a solver.
* ``pointwise_violations``: the supermartingale conditions evaluated exactly
  at rational states inside the invariant, stepping the model and the
  automaton themselves (``StochModel.step``, ``GuardedDSA.step``) over the
  finite support, or at the box mean (drift) and its corners (closure).
  ``templates.post_expectation`` is not used.
* ``control_violations``: the control lies in its declared box and meets
  the model's side constraints.
* ``MUTANTS``: broken fixtures, each with a state at which the pointwise
  evaluator shows the fault; the LP checker must reject every one.
"""

from __future__ import annotations

import copy
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import pipeline
from streettsm import benchmarks
from streettsm.templates import FALSE_ATOM

STATES_PER_LOCATION = 6
_DENOMINATORS = (1, 2, 3, 4, 5, 8, 10, 100)


# -- pointwise -------------------------------------------------------------------


def _inside(rows, env) -> bool:
    return all(a.holds({}, env) for a in rows)


def sample_states(rng: random.Random, model, rows, count: int) -> list[tuple]:
    """Up to ``count`` rational states satisfying ``rows``.

    Candidates mix the interesting numbers of each coordinate (the initial
    value and the bounds of one-variable rows, where strict guards and
    relaxed rows meet) with random rationals in a box around them."""
    if FALSE_ATOM in rows:
        return []
    marks = {v: {model.init_state[i]} for i, v in enumerate(model.state_vars)}
    for a in rows:
        coeffs = {v: a.form.coeff(v).constant_value() for v in a.form.variables()}
        if len(coeffs) == 1:
            ((v, c),) = coeffs.items()
            marks[v].add(-a.form.const.constant_value() / c)
    boxes = {}
    for v, pts in marks.items():
        lo, hi = min(pts), max(pts)
        pad = max(Fraction(10), hi - lo)
        boxes[v] = (lo - pad, hi + pad)
    found: list[tuple] = []
    for _ in range(40 * count):
        if len(found) == count:
            break
        point = []
        for v in model.state_vars:
            if rng.random() < 0.3:
                point.append(rng.choice(sorted(marks[v])))
            else:
                lo, hi = boxes[v]
                den = rng.choice(_DENOMINATORS)
                point.append(lo + (hi - lo) * Fraction(rng.randrange(den + 1), den))
        state = tuple(point)
        if state not in found and _inside(rows, model.state_env(state)):
            found.append(state)
    return found


def _samples(model):
    """(disturbance value, probability) pairs for the expectation, and the
    values under which every successor must stay in the invariant."""
    dist = model.disturbance
    if dist.kind == "finite":
        return list(dist.support), [value for value, _ in dist.support]
    corners = list(itertools.product(*zip(dist.lo, dist.hi)))
    return [(dist.mean_vector(), Fraction(1))], corners + [dist.mean_vector()]


def pointwise_violations(
    out: pipeline.Outcome, states: dict[tuple[str, str], list[tuple]]
) -> list[str]:
    """Supermartingale conditions that fail at the given states."""
    model, dsa, inv = out.bench.model, out.bench.dsa, out.inv
    control = out.control or {}
    expect, support = _samples(model)
    bad: list[str] = []
    init_loc = (dsa.init, model.init_mode)
    if not _inside(inv.rows[init_loc], model.state_env(model.init_state)):
        bad.append(f"init state outside the invariant at {init_loc}")
    for (q, m), xs in states.items():
        for x in xs:
            env = model.state_env(x)
            where = f"at {(q, m)} x={tuple(str(c) for c in x)}"
            q2 = dsa.step(q, env, m)
            for w in support:
                x2, m2 = model.step(x, m, w, control)
                if not _inside(inv.rows[(q2, m2)], model.state_env(x2)):
                    bad.append(f"closure {where} w={w}: leaves the invariant")
            for k, V in enumerate(out.Vs):
                here = V.pieces[(q, m)].eval({}, env)
                if here < 0:
                    bad.append(f"nonneg pair {k} {where}: V={here}")
                mean = Fraction(0)
                for w, p in expect:
                    x2, m2 = model.step(x, m, w, control)
                    mean += p * V.pieces[(q2, m2)].eval({}, model.state_env(x2))
                family = dsa.pairs[k].classify(q)
                limit = {
                    "dec": here - out.eps,
                    "inc": here + out.M[k],
                    "noninc": here,
                }[family]
                if mean > limit:
                    bad.append(f"{family} pair {k} {where}: E[V']={mean} > {limit}")
    return bad


def seeded_states(out: pipeline.Outcome, seed: int) -> dict:
    """Sample states per location, from a generator keyed by seed, entry and
    location only (string seeding does not depend on hash randomisation)."""
    states = {}
    for loc, rows in out.inv.rows.items():
        rng = random.Random(f"{seed}:{out.bench.name}:{loc[0]}:{loc[1]}")
        states[loc] = sample_states(rng, out.bench.model, rows, STATES_PER_LOCATION)
    return states


def control_violations(out: pipeline.Outcome) -> list[str]:
    bad = []
    for c in out.bench.model.controls:
        value = out.control[c.name]
        if not c.lo <= value <= c.hi:
            bad.append(f"control {c.name}={value} outside [{c.lo}, {c.hi}]")
    for atom in out.bench.model.side_constraints:
        if not atom.holds(out.control, {}):
            bad.append(f"side constraint {atom} fails")
    return bad


def output_faults(out: pipeline.Outcome, seed: int) -> list[str]:
    """Every independent check that applies to a sat synthesis or a fixture."""
    faults = control_violations(out)
    faults += pointwise_violations(out, seeded_states(out, seed))
    if out.verdict == "sat":
        faults += [f"LP re-check: {tag}" for tag in pipeline.failing_vcs(out)]
    return faults


# -- mutants ---------------------------------------------------------------------


@dataclass(frozen=True)
class Mutant:
    entry: str
    what: str
    mutate: Callable[[dict], None]
    location: tuple[str, str]
    state: tuple[Fraction, ...]


def _set(path, value):
    def apply(cert):
        node = cert
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return apply


MUTANTS = (
    Mutant(
        "example2",
        "V slope at q0 negated: V < 0 at the initial state",
        _set(["pairs", 0, "V", "q0", "coeffs", "x"], "-1"),
        ("q0", "_"),
        (Fraction(100),),
    ),
    Mutant(
        "SafeRWalk1",
        "control kappa0 = 1: the walk climbs out of x <= 50",
        _set(["control", "kappa0"], "1"),
        ("q0", "_"),
        (Fraction(50),),
    ),
    Mutant(
        "RecurRW",
        "M = 1: the inc step from q0 into q1 needs M >= 21",
        _set(["M"], "1"),
        ("q0", "_"),
        (Fraction(100),),
    ),
    Mutant(
        "Temperature2",
        "epsilon = 6: V drops by only 5 per step in q1 on 25 <= x <= 40",
        _set(["epsilon"], "6"),
        ("q1", "_"),
        (Fraction(35),),
    ),
    Mutant(
        "GuaranteeRW",
        "invariant y <= 10 at q0: y = 3 steps to 14",
        _set(["invariant", "q0", 1, "rhs"], "10"),
        ("q0", "_"),
        (Fraction(3), Fraction(1)),
    ),
)


def run_mutant(mutant: Mutant) -> tuple[list[str], pipeline.Outcome]:
    """(pointwise faults at the mutant's state, the LP checker's outcome)."""
    entry = pipeline.Entry(mutant.entry, "fixture", "invalid")
    cert = copy.deepcopy(benchmarks.load_benchmark(mutant.entry).cert)
    mutant.mutate(cert)
    out = pipeline.check_fixture(entry, cert)
    faults = pointwise_violations(out, {mutant.location: [mutant.state]})
    return faults, out
