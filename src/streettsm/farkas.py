"""Farkas' Lemma: universally quantified implications to existential duals.

An implication  forall y: Ay <= b  =>  c^T y <= d  (entries polynomial
in the existential parameters; each premise row is one `<=` or `<` atom,
as parsed) is valid iff

    exists z >= 0: (A^T z = c and b^T z <= d)
                or (A^T z = 0 and b^T z < 0)          (general form)

where the second disjunct certifies an infeasible premise.  On a
nonempty premise it cannot hold, which leaves the conjunction-only

    exists z >= 0: A^T z = c and b^T z <= d           (premise-sat form)

that keeps the assembled system disjunction-free (and all-linear when c,
d are affine in the parameters).  `transform` routes on the premise
alone: a parameter-free premise takes the premise-sat form over its
atoms as they are, a parameter-dependent one the general form.

Precondition: a parameter-free premise is nonempty.  The VC sets of
`vcgen.build_product_vcs` meet it, because `vcgen` screens every premise
and builds no VC whose parameter-free premise is empty.  On any premise
the premise-sat form stays sound: a solution is a Farkas certificate of
the implication.  The dual reads each premise atom's form only, so a
strict atom  a.y + a0 < 0  is dualized as its relaxation; on a nonempty
strict premise that is exact, the relaxed premise being its closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import lp
from .expr import Atom, Param, ParamKind, Poly, Rel, _accumulate
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
    mode: str  # general | premise-sat
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
    """Conjunction-only dual over the whole premise; exact when the premise
    is nonempty (see the module docstring)."""
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
    """Route every implication: premise-sat when its premise is
    parameter-free, else general."""
    duals = []
    for idx, impl in enumerate(vcset.implications):
        if all(a.form.is_param_free() for a in impl.premise):
            duals.append(farkas_premise_sat(impl, f"z{idx}"))
        else:
            duals.append(farkas_general(impl, f"z{idx}"))
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
    its `<` atoms read as `<=`.

    A non-empty strict premise has that closure, so the maximum decides
    validity unless the strict premise is empty, which
    `lp.atoms_satisfiable` decides."""
    if impl.params():
        raise ValueError("brute-force oracle needs a parameter-free implication")
    premise, variables = impl.premise, impl.variables
    strict = any(a.rel is Rel.LT for a in premise)
    closure = [Atom(a.form, Rel.LE) for a in premise] if strict else premise
    coeffs = [
        impl.consequent.form.coeff(v).constant_value() for v in variables
    ]
    rhs = -impl.consequent.form.const.constant_value()
    res = lp.solve(
        lp.system_from_atoms(closure, variables), objective=coeffs, maximize=True
    )
    ok = res.status == "infeasible" or (
        res.status == "optimal" and res.value <= rhs
    )
    if ok or not strict:
        return ok
    return not lp.atoms_satisfiable(premise, variables)


def dump_duals(duals: Sequence[DualConstraint]) -> str:
    """Per-implication dual blocks, for --emit-dual."""
    lines = []
    for dual in duals:
        lines.append(f"[{dual.tag}] {dual.mode}")
        lines.extend(_item_lines(dual.items(), "  "))
    return "\n".join(lines) + "\n"
