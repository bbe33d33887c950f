"""Decision backends for assembled constraint systems.

The route is read from the system itself: an all-linear system (degree at
most 1) is decided by the exact-rational simplex, which answers sat with a
point or unsat with a Farkas ray; a system with a product goes to the
bundled solver, ``smtsolver.decide``, called in process on the same
``ConstraintSystem``.  Either way a sat verdict values every parameter,
multipliers included, and is re-checked by exact substitution before it
is reported.
"""

from __future__ import annotations

from fractions import Fraction

from . import lp, smtsolver
from .farkas import ConstraintSystem


class BackendError(Exception):
    """A model that fails the exact re-check."""


class SolverJob:
    __slots__ = ("system",)

    def __init__(self, system: ConstraintSystem):
        self.system = system


class Verdict:
    __slots__ = ("status", "valuation", "ray")

    def __init__(
        self,
        status: str,
        valuation: dict[str, Fraction] | None = None,
        ray: list[Fraction] | None = None,
    ):
        self.status = status  # sat | unsat | unknown
        self.valuation = valuation  # every parameter, exactly re-checked
        self.ray = ray  # infeasibility certificate (LP route)


# -- the two routes --------------------------------------------------------------


def _checked(system: ConstraintSystem, valuation, route: str) -> Verdict:
    if not system.holds(valuation):
        raise BackendError(f"{route} model fails the exact re-check")
    return Verdict(status="sat", valuation=valuation)


def simplex_solve(system: ConstraintSystem) -> Verdict:
    """Exact LP decision of a system of degree at most 1; `lp.linear_system`
    raises ValueError on a nonlinear monomial."""
    names = list(system.params)
    res = lp.solve(
        lp.linear_system(((c.poly, c.rel) for c in system.constraints), names)
    )
    if res.status == "infeasible":
        return Verdict(status="unsat", ray=res.farkas)
    valuation = {n: res.assignment.get(n, Fraction(0)) for n in names}
    return _checked(system, valuation, "simplex")


def bundled_solve(system: ConstraintSystem) -> Verdict:
    """Decide the system with ``smtsolver.decide`` as a function call.

    The bundled solver values every parameter, so only the exact
    re-check stands between its model and a sat verdict.
    """
    status, model = smtsolver.decide(system)
    if status != "sat":
        return Verdict(status=status)
    valuation = {n: model[n] for n in system.params}
    return _checked(system, valuation, "bundled solver")


def decide(job: SolverJob) -> Verdict:
    """The simplex for an all-linear system, the bundled solver otherwise."""
    if job.system.all_linear():
        return simplex_solve(job.system)
    return bundled_solve(job.system)
