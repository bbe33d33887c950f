"""Farkas' Lemma: universally quantified implications to existential duals.

An implication  forall y: Ay <= b  =>  c^T y <= d  (entries polynomial
in the existential parameters; each premise row is one `<=` or `<` atom,
as parsed) is valid iff

    exists z >= 0: (A^T z = c and b^T z <= d)
                or (A^T z = 0 and b^T z < 0)          (general form)

where the second disjunct certifies an infeasible premise.  When A and b
are parameter-free, premise feasibility is decided up front by exact LP,
strict atoms honored: infeasible premises make the implication vacuous,
feasible ones admit the conjunction-only specialization

    exists z >= 0: A^T z = c and b^T z <= d           (premise-sat form)

which keeps the assembled system disjunction-free (and all-linear when c,
d are affine in the parameters).  Parameter-dependent premises always take
the general form.  The dual reads each premise atom's form only, so a
strict atom  a.y + a0 < 0  is dualized as its relaxation; on a nonempty
strict premise that is exact, the relaxed premise being its closure.
`vcgen.build_product_vcs` builds no implication whose parameter-free
premise is empty, so its VC sets never take the vacuous route; the route
stays for VC sets built otherwise.

Binding atoms.  A feasible premise whose atoms each bound at most one
variable is a box, and the premise-sat dual is taken over only the atoms
that define it: per variable the tightest upper and the tightest lower
atom, by the rule of `lp.box`.  One `lp.atom_box` call on the atoms'
cached bounds (`LinForm.bound`) gives both the verdict and these atoms,
with no LP row built.  The other atoms, constant ones among them, get no
multiplier.  This is exact: the kept atoms define the same
nonempty set as the whole premise, so the implication holds under
exactly the same parameter values, and Farkas' lemma is exact on either
premise.  The assembled system's projection on the non-multiplier
parameters does not change.  A premise with a multi-variable atom is
dualized whole.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from . import lp
from .expr import Atom, Param, ParamKind, Poly, Rel, _accumulate
from .lp import check_implication
from .vcgen import Implication, VCSet


@dataclass(frozen=True)
class PolyConstraint:
    """poly REL 0 over existential parameters only."""

    poly: Poly
    rel: Rel  # LE, LT or EQ

    def __str__(self) -> str:
        return f"{self.poly} {self.rel.value} 0"

    def holds(self, valuation) -> bool:
        v = self.poly.eval(valuation)
        if self.rel == Rel.LE:
            return v <= 0
        if self.rel == Rel.LT:
            return v < 0
        return v == 0


@dataclass(frozen=True)
class Disjunction:
    """Either branch must hold (Farkas' general form)."""

    left: tuple[PolyConstraint, ...]
    right: tuple[PolyConstraint, ...]

    def holds(self, valuation) -> bool:
        return all(c.holds(valuation) for c in self.left) or all(
            c.holds(valuation) for c in self.right
        )


@dataclass(frozen=True)
class DualConstraint:
    tag: str
    mode: str  # general | premise-sat | vacuous
    zs: tuple[Param, ...]
    shared: tuple[PolyConstraint, ...]  # z >= 0 (and the whole premise-sat body)
    left: tuple[PolyConstraint, ...] = ()
    right: tuple[PolyConstraint, ...] = ()

    def items(self) -> list[PolyConstraint | Disjunction]:
        out: list[PolyConstraint | Disjunction] = list(self.shared)
        if self.mode == "general":
            out.append(Disjunction(self.left, self.right))
        return out


@dataclass(frozen=True)
class ConstraintSystem:
    params: tuple[Param, ...]
    constraints: tuple[PolyConstraint | Disjunction, ...]

    def degree(self) -> int:
        out = 0
        for item in self.constraints:
            group = (
                item.left + item.right
                if isinstance(item, Disjunction)
                else (item,)
            )
            for c in group:
                out = max(out, c.poly.degree())
        return out

    def has_disjunction(self) -> bool:
        return any(isinstance(i, Disjunction) for i in self.constraints)

    def all_linear(self) -> bool:
        return self.degree() <= 1 and not self.has_disjunction()

    def holds(self, valuation) -> bool:
        return all(c.holds(valuation) for c in self.constraints)

    def dump(self) -> str:
        lines = [f"params: {', '.join(p.name for p in self.params)}"]
        lines.append(f"max degree: {self.degree()}")
        lines.extend(_item_lines(self.constraints, ""))
        return "\n".join(lines) + "\n"


def _item_lines(items, or_indent: str):
    """One line per constraint, indented two spaces; a disjunction is an
    `or:` line at `or_indent` over its `|` left and `/` right rows."""
    for item in items:
        if isinstance(item, Disjunction):
            yield f"{or_indent}or:"
            yield from (f"{or_indent}  | {c}" for c in item.left)
            yield from (f"{or_indent}  / {c}" for c in item.right)
        else:
            yield f"  {item}"


def premise_feasible(impl: Implication) -> str:
    """'feasible' / 'infeasible' by exact LP, or 'parameter-dependent':
    the verdict of `_screen`."""
    return _screen(impl)[0]


def _fresh_zs(impl: Implication, prefix: str) -> tuple[Param, ...]:
    return tuple(
        Param(f"{prefix}_{i}", ParamKind.MULTIPLIER)
        for i in range(len(impl.premise))
    )


def _dual_parts(impl, zs, homogeneous: bool):
    """A^T z = c (or = 0) per column, and b^T z - d (or b^T z).

    Premise atoms are  a.y + a0 <= 0, so A's rows are the coefficients a
    and b = -a0; the consequent  c.y + c0 <= 0  gives d = -c0.  Each column
    and the rhs are accumulated into one canonical map."""
    eqs = []
    for v in impl.variables:
        acc: dict = {}
        if not homogeneous:
            _accumulate(acc, impl.consequent.form.coeff(v), -1)
        for z, atom in zip(zs, impl.premise):
            _accumulate(acc, atom.form.coeff(v), 1, z.name)
        eqs.append(PolyConstraint(Poly._wrap(acc), Rel.EQ))
    rhs: dict = {}
    if not homogeneous:
        _accumulate(rhs, impl.consequent.form.const)
    for z, atom in zip(zs, impl.premise):
        _accumulate(rhs, atom.form.const, -1, z.name)
    return eqs, Poly._wrap(rhs)


def farkas_general(impl: Implication, prefix: str = "z") -> DualConstraint:
    """Full disjunctive dual; sound and complete for any premise."""
    zs = _fresh_zs(impl, prefix)
    nonneg = tuple(
        PolyConstraint(Poly() - Poly.param(z.name), Rel.LE) for z in zs
    )
    eqs, rhs = _dual_parts(impl, zs, homogeneous=False)
    alt_eqs, alt_rhs = _dual_parts(impl, zs, homogeneous=True)
    return DualConstraint(
        impl.tag,
        "general",
        zs,
        nonneg,
        tuple(eqs) + (PolyConstraint(rhs, Rel.LE),),
        tuple(alt_eqs) + (PolyConstraint(alt_rhs, Rel.LT),),
    )


def farkas_premise_sat(impl: Implication, prefix: str = "z") -> DualConstraint:
    """Conjunction-only dual over the binding atoms; requires a feasible
    parameter-free premise."""
    status, premise = _screen(impl)
    if status != "feasible":
        raise ValueError(
            f"premise-sat Farkas on a {status} premise ({impl.tag})"
        )
    return _premise_sat_dual(impl, premise, prefix)


def _screen(impl: Implication) -> tuple[str, tuple[Atom, ...]]:
    """The premise's verdict and the premise a premise-sat dual is taken
    over: the binding atoms of a feasible box premise, else the whole
    premise (see the module docstring).

    The verdict is 'parameter-dependent', or 'feasible' / 'infeasible' by
    exact LP on the premise, strict atoms honored: their relaxation can be
    feasible (x < -1/2 and -1/2 < x admits x = -1/2 once relaxed).  A box
    premise takes its verdict and its binding atoms from one `lp.atom_box`
    call on its atoms' cached bounds, any other premise its verdict from
    `lp.solve`."""
    if any(not a.form.is_param_free() for a in impl.premise):
        return "parameter-dependent", impl.premise
    ends = lp.atom_box(impl.premise, impl.variables)
    if ends is None:
        system = lp.system_from_atoms(impl.premise, impl.variables)
        if lp.solve(system).status != "optimal":
            return "infeasible", impl.premise
        return "feasible", impl.premise
    lo, hi, clash = ends
    if clash is not None:
        return "infeasible", impl.premise
    rows = sorted({end[3] for side in (lo, hi) for end in side.values()})
    return "feasible", tuple(impl.premise[i] for i in rows)


def _premise_sat_dual(
    impl: Implication, premise: tuple[Atom, ...], prefix: str
) -> DualConstraint:
    """The premise-sat dual of `impl` over `premise`, the binding atoms of
    its premise, already screened feasible."""
    if premise != impl.premise:
        impl = replace(impl, premise=premise)
    zs = _fresh_zs(impl, prefix)
    nonneg = tuple(
        PolyConstraint(Poly() - Poly.param(z.name), Rel.LE) for z in zs
    )
    eqs, rhs = _dual_parts(impl, zs, homogeneous=False)
    return DualConstraint(
        impl.tag,
        "premise-sat",
        zs,
        nonneg + tuple(eqs) + (PolyConstraint(rhs, Rel.LE),),
    )


def transform(vcset: VCSet) -> list[DualConstraint]:
    """Route every implication: vacuous / premise-sat / general."""
    duals = []
    # implications at one location share their premise: screen each once
    screens: dict[tuple, tuple[str, tuple[Atom, ...]]] = {}
    for idx, impl in enumerate(vcset.implications):
        prefix = f"z{idx}"
        key = (impl.variables, impl.premise)
        screen = screens.get(key)
        if screen is None:
            screen = screens[key] = _screen(impl)
        status, premise = screen
        if status == "infeasible":
            duals.append(DualConstraint(impl.tag, "vacuous", (), ()))
        elif status == "feasible":
            duals.append(_premise_sat_dual(impl, premise, prefix))
        else:
            duals.append(farkas_general(impl, prefix))
    return duals


def assemble(
    vcset: VCSet, duals: Sequence[DualConstraint]
) -> ConstraintSystem:
    """One quantifier-free conjunction over every existential parameter."""
    params = list(vcset.params)
    constraints: list[PolyConstraint | Disjunction] = []
    for atom in vcset.side_atoms:
        if atom.form.variables():
            raise ValueError(f"side constraint {atom} mentions variables")
        constraints.append(PolyConstraint(atom.form.const, atom.rel))
    for dual in duals:
        params.extend(dual.zs)
        constraints.extend(dual.items())
    return ConstraintSystem(tuple(params), tuple(constraints))


# -- brute-force validity oracle (for differential testing) -------------------


def implication_valid_bruteforce(impl: Implication) -> bool:
    """Exact validity of a parameter-free implication, independently of
    Farkas: LP maximization of the consequent over the premise's closure,
    its `<` rows read as `<=`.

    A non-empty strict premise has that closure, so the maximum decides
    validity unless the strict premise is empty."""
    if impl.params():
        raise ValueError("brute-force oracle needs a parameter-free implication")
    sysm = lp.system_from_atoms(list(impl.premise), list(impl.variables))
    strict = any(rel == "<" for _, rel, _ in sysm.rows)
    closure = sysm
    if strict:
        closure = lp.LinearSystem(
            sysm.variables,
            [(coeffs, "<=", rhs) for coeffs, _, rhs in sysm.rows],
        )
    coeffs = [
        impl.consequent.form.coeff(v).constant_value()
        for v in impl.variables
    ]
    rhs = -impl.consequent.form.const.constant_value()
    ok, _ = check_implication(closure, coeffs, rhs)
    if ok or not strict:
        return ok
    return lp.solve(sysm).status == "infeasible"


def dump_duals(duals: Sequence[DualConstraint]) -> str:
    """Per-implication dual blocks, for --emit-dual."""
    lines = []
    for dual in duals:
        lines.append(f"[{dual.tag}] {dual.mode}")
        lines.extend(_item_lines(dual.items(), "  "))
    return "\n".join(lines) + "\n"
