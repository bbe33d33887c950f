"""Decision backends for assembled constraint systems.

The route is read from the system itself: an all-linear system (degree at
most 1) is decided by the exact-rational simplex, which answers sat with a
point or unsat with a Farkas ray; a system with a product goes to the
bundled solver, ``smtsolver.decide``, called in process on the same
``ConstraintSystem``.  Either way a sat verdict is re-checked by exact
substitution before it is reported.
"""

from __future__ import annotations

from fractions import Fraction

from . import lp, smtsolver
from .expr import ParamKind
from .farkas import ConstraintSystem


class BackendError(Exception):
    """A model that fails the exact re-check."""


class SolverJob:
    __slots__ = ("system",)

    def __init__(self, system: ConstraintSystem):
        self.system = system


class Verdict:
    __slots__ = ("status", "valuation", "witness", "ray")

    def __init__(
        self,
        status: str,
        valuation: dict[str, Fraction] | None = None,
        witness: dict[str, Fraction] | None = None,
        ray: list[Fraction] | None = None,
    ):
        self.status = status  # sat | unsat | unknown
        self.valuation = valuation  # non-multiplier params
        self.witness = witness  # total, exactly re-checked
        self.ray = ray  # infeasibility certificate (LP route)


# -- the two routes --------------------------------------------------------------


def _reported(system: ConstraintSystem, witness) -> dict[str, Fraction]:
    return {
        p.name: witness[p.name]
        for p in system.params
        if p.kind != ParamKind.MULTIPLIER
    }


def _checked(system: ConstraintSystem, witness, route: str) -> Verdict:
    if not system.holds(witness):
        raise BackendError(f"{route} model fails the exact re-check")
    return Verdict(
        status="sat", valuation=_reported(system, witness), witness=witness
    )


def simplex_solve(system: ConstraintSystem) -> Verdict:
    """Exact LP decision of an all-linear system; ValueError on any other.
    The system reads its rows for that once (`ConstraintSystem.all_linear`),
    so the check repeats no work after `decide`'s."""
    if not system.all_linear():
        raise ValueError("lp backend needs an all-linear system (degree <= 1)")
    names = [p.name for p in system.params]
    res = lp.solve(
        lp.linear_system(((c.poly, c.rel) for c in system.constraints), names)
    )
    if res.status == "infeasible":
        return Verdict(status="unsat", ray=res.farkas)
    witness = {n: res.assignment.get(n, Fraction(0)) for n in names}
    return _checked(system, witness, "simplex")


def bundled_solve(system: ConstraintSystem) -> Verdict:
    """Decide the system with ``smtsolver.decide`` as a function call.

    The bundled solver values every parameter, multipliers included, so
    only the exact re-check stands between its model and a sat verdict.
    """
    status, model = smtsolver.decide(system)
    if status != "sat":
        return Verdict(status=status)
    witness = {p.name: model[p.name] for p in system.params}
    return _checked(system, witness, "bundled solver")


def decide(job: SolverJob) -> Verdict:
    """The simplex for an all-linear system, the bundled solver otherwise."""
    if job.system.all_linear():
        return simplex_solve(job.system)
    return bundled_solve(job.system)
