"""Synthesis and its exact re-check, composed from the public stages.

    post_table -> build_product_vcs -> farkas.transform -> farkas.assemble
        -> backends.decide                                     (synthesize)
    with_control -> post_table -> build_product_vcs
        -> farkas.implication_valid_bruteforce per VC          (failing_vcs)

Every stage is reached through its module attribute, so that a tracer
that wraps one (`lp.solve`, `farkas.transform`, ...) sees every call.

Farkas' lemma is taken in its conjunctive form, which needs every premise
parameter-free.  A control that only updates carry leaves them so, and
stays a parameter of the one system decided; its value is then re-checked
by `model.StochModel.with_control`.  A control that guards carry does
not: such a model is made concrete at one candidate control at a time,
by `model.StochModel.with_control`, which rejects guards that overlap or
leave a gap, and decided with V and M as the only unknowns.  Each control
of a candidate is its interval's midpoint, an end, a quarter point or an
eighth, tried in that order per axis; a candidate whose deepest value
comes earlier in that order is tried first, and at most `CANDIDATES` are
tried.  The grid is not complete, so a search that finds nothing is
`unknown`, never `unsat`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import backends, farkas, templates, vcgen

CANDIDATES = 64
# where an axis value lies in its interval, midpoint first: then the ends,
# the quarter points and the eighths
_GRID = tuple(Fraction(i, 8) for i in (4, 0, 8, 2, 6, 1, 3, 5, 7))


class Synthesis:
    """A verdict and, when sat, the concrete certificate: V and M per
    Streett pair, eps and the control."""

    __slots__ = ("verdict", "Vs", "eps", "M", "control")

    def __init__(self, verdict: str, Vs=None, M=None, control=None):
        self.verdict = verdict  # sat | unsat | unknown
        self.Vs = Vs
        self.eps = Fraction(1)  # `vcgen.build_product_vcs`'s default
        self.M = M
        self.control = control


def _decide(model, dsa, inv) -> Synthesis:
    """Fresh V and M (and the model's controls) over `inv`, decided."""
    Vs = [
        templates.CertTemplate.fresh(model, dsa, k)
        for k in range(len(dsa.pairs))
    ]
    tables = [templates.post_table(V, model, dsa) for V in Vs]
    vcset = vcgen.build_product_vcs(model, dsa, Vs, inv, tables)
    system = farkas.assemble(vcset, farkas.transform(vcset))
    verdict = backends.decide(backends.SolverJob(system))
    if verdict.status != "sat":
        return Synthesis(verdict.status)
    val = verdict.valuation
    return Synthesis(
        "sat",
        [
            templates.CertTemplate.concrete(
                V.pair_index,
                {loc: f.substitute_params(val) for loc, f in V.pieces.items()},
            )
            for V in Vs
        ],
        [val[f"M{k}"] for k in range(len(dsa.pairs))],
        {c.name: val[c.name] for c in model.controls},
    )


def _candidates(controls):
    """The grid's controls in search order (see the module docstring),
    each once: a point interval has one grid value."""
    axes = [
        list(dict.fromkeys(c.lo + (c.hi - c.lo) * t for t in _GRID))
        for c in controls
    ]
    for depth in range(len(_GRID)):
        ranges = [range(min(depth + 1, len(axis))) for axis in axes]
        for picks in itertools.product(*ranges):
            if max(picks) == depth:
                yield {
                    c.name: axis[i]
                    for c, axis, i in zip(controls, axes, picks)
                }


def synthesize(model, dsa, inv) -> Synthesis:
    """V, M and the control over the concrete invariant `inv`."""
    if not model.guards_parameter_bearing:
        out = _decide(model, dsa, inv)
        if out.verdict == "sat":
            try:
                model.with_control(out.control)
            except ValueError:
                return Synthesis("unknown")
        return out
    for control in itertools.islice(_candidates(model.controls), CANDIDATES):
        try:
            concrete = model.with_control(control)
        except ValueError:
            continue
        out = _decide(concrete, dsa, inv)
        if out.verdict == "sat":
            out.control = control
            return out
    return Synthesis("unknown")


def failing_vcs(model, dsa, inv, Vs, eps, M, control) -> list[str]:
    """The tags of the VCs that a concrete certificate fails, each decided
    exactly (`farkas.implication_valid_bruteforce`: a constant consequent
    directly, any other by LP maximisation over its premise), with the
    control substituted first; or the fault
    `model.StochModel.with_control` finds in the control, alone."""
    try:
        model = model.with_control(control)
    except ValueError as fault:
        return [str(fault)]
    tables = [templates.post_table(V, model, dsa) for V in Vs]
    vcset = vcgen.build_product_vcs(model, dsa, Vs, inv, tables, eps=eps, M=M)
    return [
        impl.tag
        for impl in vcset.implications
        if not farkas.implication_valid_bruteforce(impl)
    ]
