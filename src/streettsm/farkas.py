"""Farkas' Lemma: universally quantified implications to existential duals.

A normalized implication  forall y: Ay <= b  =>  c^T y <= d  (entries
polynomial in the existential parameters) is valid iff

    exists z >= 0: (A^T z = c and b^T z <= d)
                or (A^T z = 0 and b^T z < 0)          (general form)

where the second disjunct certifies an infeasible premise.  When A and b
are parameter-free, premise feasibility is decided up front by exact LP,
with the premise atoms that were strict before relaxation strict again:
infeasible premises make the implication vacuous, feasible ones admit the
conjunction-only specialization

    exists z >= 0: A^T z = c and b^T z <= d           (premise-sat form)

which keeps the assembled system disjunction-free (and all-linear when c,
d are affine in the parameters).  Parameter-dependent premises always take
the general form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .expr import Atom, Param, ParamKind, Poly, Rel
from .lp import atoms_feasible, check_implication, system_from_atoms
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
        for item in self.constraints:
            if isinstance(item, Disjunction):
                lines.append("or:")
                for c in item.left:
                    lines.append(f"  | {c}")
                for c in item.right:
                    lines.append(f"  / {c}")
            else:
                lines.append(f"  {item}")
        return "\n".join(lines) + "\n"


def premise_feasible(impl: Implication) -> str:
    """'feasible' / 'infeasible' by exact LP, or 'parameter-dependent'.

    The premise is decided with its strict atoms: their relaxation can be
    feasible (x < -1/2 and -1/2 < x admits x = -1/2 once relaxed)."""
    if any(not a.form.is_param_free() for a in impl.premise):
        return "parameter-dependent"
    res = atoms_feasible(list(impl.strict_premise()), list(impl.variables))
    return "feasible" if res.status == "optimal" else "infeasible"


def _matrix(impl: Implication):
    """(A rows, b, c, d) with Poly entries, columns = impl.variables."""
    A = []
    b = []
    for atom in impl.premise:
        A.append({v: atom.form.coeff(v) for v in impl.variables})
        b.append(Poly() - atom.form.const)
    c = {v: impl.consequent.form.coeff(v) for v in impl.variables}
    d = Poly() - impl.consequent.form.const
    return A, b, c, d


def _fresh_zs(impl: Implication, prefix: str) -> tuple[Param, ...]:
    return tuple(
        Param(f"{prefix}_{i}", ParamKind.MULTIPLIER)
        for i in range(len(impl.premise))
    )


def _dual_parts(impl, zs, homogeneous: bool):
    """A^T z = c (or = 0) per column, and b^T z - d (or b^T z)."""
    A, b, c, d = _matrix(impl)
    eqs = []
    for v in impl.variables:
        acc = Poly() if homogeneous else Poly() - c[v]
        for z, row in zip(zs, A):
            acc = acc + Poly.param(z.name) * row[v]
        eqs.append(PolyConstraint(acc, Rel.EQ))
    rhs = Poly() if homogeneous else Poly() - d
    for z, bi in zip(zs, b):
        rhs = rhs + Poly.param(z.name) * bi
    return eqs, rhs


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
    """Conjunction-only dual; requires a feasible parameter-free premise."""
    status = premise_feasible(impl)
    if status != "feasible":
        raise ValueError(
            f"premise-sat Farkas on a {status} premise ({impl.tag})"
        )
    return _premise_sat_dual(impl, prefix)


def _premise_sat_dual(impl: Implication, prefix: str) -> DualConstraint:
    """The premise-sat dual of a premise already screened feasible."""
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
    for idx, impl in enumerate(vcset.implications):
        prefix = f"z{idx}"
        status = premise_feasible(impl)
        if status == "infeasible":
            duals.append(DualConstraint(impl.tag, "vacuous", (), ()))
        elif status == "feasible":
            duals.append(_premise_sat_dual(impl, prefix))
        else:
            duals.append(farkas_general(impl, prefix))
    return duals


def _atom_constraints(atom: Atom) -> list[PolyConstraint]:
    out = []
    for le in atom.normalized_le():
        if le.form.variables():
            raise ValueError(f"side constraint {atom} mentions variables")
        out.append(PolyConstraint(le.form.const, le.rel))
    return out


def assemble(
    vcset: VCSet, duals: Sequence[DualConstraint]
) -> ConstraintSystem:
    """One quantifier-free conjunction over every existential parameter."""
    params = list(vcset.params)
    constraints: list[PolyConstraint | Disjunction] = []
    for atom in vcset.side_atoms:
        constraints.extend(_atom_constraints(atom))
    for dual in duals:
        params.extend(dual.zs)
        constraints.extend(dual.items())
    return ConstraintSystem(tuple(params), tuple(constraints))


def rewrite_qcp(system: ConstraintSystem) -> ConstraintSystem:
    """Lower every monomial to degree <= 2 via fresh product variables.

    Each distinct factor pair gets one fresh variable with its defining
    quadratic equality; a no-op on systems already at degree <= 2.
    """
    if system.degree() <= 2:
        return system
    taken = {p.name for p in system.params}
    products: dict[tuple[str, str], str] = {}
    fresh_constraints: list[PolyConstraint] = []

    def product_var(a: str, b: str) -> str:
        key = (a, b) if a <= b else (b, a)
        if key not in products:
            name = f"qv{len(products)}"
            if name in taken:
                raise ValueError(f"product variable name {name!r} is taken")
            products[key] = name
            fresh_constraints.append(
                PolyConstraint(
                    Poly.param(name) - Poly.param(key[0]) * Poly.param(key[1]),
                    Rel.EQ,
                )
            )
        return products[key]

    def lower_mono(mono: tuple[str, ...]) -> tuple[str, ...]:
        while len(mono) > 2:
            pv = product_var(mono[0], mono[1])
            mono = tuple(sorted((pv,) + mono[2:]))
        return mono

    def lower_poly(p: Poly) -> Poly:
        acc = Poly()
        for mono, coeff in p.terms.items():
            acc = acc + Poly({lower_mono(mono): coeff})
        return acc

    def lower_constraint(c: PolyConstraint) -> PolyConstraint:
        return PolyConstraint(lower_poly(c.poly), c.rel)

    items: list[PolyConstraint | Disjunction] = []
    for item in system.constraints:
        if isinstance(item, Disjunction):
            items.append(
                Disjunction(
                    tuple(lower_constraint(c) for c in item.left),
                    tuple(lower_constraint(c) for c in item.right),
                )
            )
        else:
            items.append(lower_constraint(item))
    items.extend(fresh_constraints)
    params = tuple(system.params) + tuple(
        Param(name, ParamKind.MULTIPLIER) for name in products.values()
    )
    return ConstraintSystem(params, tuple(items))


# -- brute-force validity oracle (for differential testing) -------------------


def implication_valid_bruteforce(impl: Implication) -> bool:
    """Exact validity of a parameter-free implication, independently of
    Farkas: LP maximization of the consequent over the relaxed premise.

    A non-empty strict premise has the relaxed one as its closure, so the
    maximum decides validity unless the strict premise is empty."""
    if impl.params():
        raise ValueError("brute-force oracle needs a parameter-free implication")
    sysm = system_from_atoms(list(impl.premise), list(impl.variables))
    coeffs = [
        impl.consequent.form.coeff(v).constant_value()
        for v in impl.variables
    ]
    rhs = -impl.consequent.form.const.constant_value()
    ok, _ = check_implication(sysm, coeffs, rhs)
    if ok or not any(impl.strict):
        return ok
    strict = atoms_feasible(list(impl.strict_premise()), list(impl.variables))
    return strict.status == "infeasible"


def dump_duals(duals: Sequence[DualConstraint]) -> str:
    """Per-implication dual blocks, for --emit-dual."""
    lines = []
    for dual in duals:
        lines.append(f"[{dual.tag}] {dual.mode}")
        for item in dual.items():
            if isinstance(item, Disjunction):
                lines.append("  or:")
                for c in item.left:
                    lines.append(f"    | {c}")
                for c in item.right:
                    lines.append(f"    / {c}")
            else:
                lines.append(f"  {item}")
    return "\n".join(lines) + "\n"
