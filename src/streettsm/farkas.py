"""Farkas' Lemma: universally quantified implications to existential duals.

An implication  forall y: Ay <= b  =>  c^T y <= d  (each premise row one
`<=` or `<` atom, as parsed, with constant entries; c and d polynomial in
the existential parameters) over a nonempty premise is valid iff

    exists z >= 0: A^T z = c and b^T z <= d           (premise-sat form)

a conjunction, all-linear when c and d are affine in the parameters.

Box premises in closed form.  A box premise has only atoms that bound
one variable each, at most one from each side: y_v <= u_v and
y_v >= l_v, either end possibly missing.  Its premise-sat form has one
multiplier per end and, with each atom scaled to a unit coefficient,
one column z_hi - z_lo = c_v per variable; Fourier-Motzkin elimination
of the multipliers leaves, for the consequent  sum_v c_v y_v + c0 <= 0,

    c_v <= 0                     for each c_v != 0 with no upper end
    -c_v <= 0                    for each c_v != 0 with no lower end
    sum_v c_v e_v + c0 <= 0      for each choice of a finite end e_v
                                 (l_v or u_v) of each v with c_v != 0

over the consequent's parameters alone, with no multiplier (a constant
when the consequent has none, which `assemble` keeps only if false).  It
is exact on a nonempty box: the consequent's supremum over the box is
sum_v max(c_v l_v, c_v u_v) + c0, finite iff each c_v has the sign that
its missing ends allow, and the largest of the end choices is that sum.
A strict end is read as its closure, as the premise-sat form reads it,
which on a nonempty box leaves the supremum where it is.  The ends are
the integer pairs of the atoms' cached bounds (`LinForm.bound`), so no
call into `lp` is made.

Routing (`transform`).  Every premise must be parameter-free: a box
premise takes the closed form and any other the premise-sat form over its
atoms as they are.  A premise that depends on a parameter is an error.
Every invariant is concrete, so such a premise comes only from a guard
that carries the control; a model whose guards do is made concrete at
one control first (`model.StochModel.with_control`).

Assembly (`assemble`).  The system is the side atoms' rows and then
each dual's items, less the rows that constrain nothing the others do
not: a parameter-free row that holds, and a `<=` or `<` row that another
row implies, one with the same non-constant part q and, as q + c REL 0,
a larger constant, or an equal one and `<` against `<=`.  This is the
parallel-row step of LP presolve (Andersen & Andersen, 1995) for rows
equal, not proportional, in q, and it is exact for a bilinear q as well.
The closed form emits one row per end choice, and many differ from
another only in their constant: `Temperature4`'s system has 39 rows
instead of 64.  `=` rows are kept as they are.

Precondition: a parameter-free premise is nonempty.  The VC sets of
`vcgen.build_product_vcs` meet it, because `vcgen` screens every premise
and builds no VC whose parameter-free premise is empty.  On any premise
both forms stay sound: a solution of the premise-sat form is a Farkas
certificate of the implication, and the closed form's rows bound the
consequent on a nonempty box, an empty one implying anything.  Both
read each premise atom's form only, so a strict atom  a.y + a0 < 0  is
dualized as its relaxation; on a nonempty strict premise that is exact,
the relaxed premise being its closure.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from . import lp
from .expr import _F0, Atom, Param, ParamKind, Poly, Rel, _accumulate
from .vcgen import Implication, VCSet


class PolyConstraint:
    """poly REL 0 over existential parameters only."""

    __slots__ = ("poly", "rel")

    def __init__(self, poly: Poly, rel: Rel):
        self.poly = poly
        self.rel = rel  # LE, LT or EQ

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is PolyConstraint
            and self.rel is other.rel
            and self.poly == other.poly
        )

    def __hash__(self) -> int:
        return hash((self.poly, self.rel))

    def __str__(self) -> str:
        return f"{self.poly} {self.rel.value} 0"

    def holds(self, valuation) -> bool:
        v = self.poly.eval(valuation)
        if self.rel == Rel.LE:
            return v <= 0
        if self.rel == Rel.LT:
            return v < 0
        return v == 0


class Disjunction:
    """Nothing builds one: every assembled system is a conjunction.  The
    benchmark's tracer still counts its instances in a system."""


class DualConstraint:
    """The dual of one implication: the multipliers it declares and its
    constraints.  `zs` is empty for a premise with no atom and for a box
    premise in closed form, whose rows are over the implication's own
    parameters."""

    __slots__ = ("tag", "mode", "zs", "shared")

    def __init__(
        self,
        tag: str,
        mode: str,
        zs: tuple[Param, ...],
        shared: tuple[PolyConstraint, ...],
    ):
        self.tag = tag
        self.mode = mode  # premise-sat, counted by the benchmark's tracer
        self.zs = zs
        self.shared = shared  # z >= 0 and the whole premise-sat body

    def __eq__(self, other: object) -> bool:
        return type(other) is DualConstraint and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def _key(self) -> tuple:
        return (self.tag, self.mode, self.zs, self.shared)

    def items(self) -> list[PolyConstraint]:
        return list(self.shared)


class ConstraintSystem:
    __slots__ = ("params", "constraints", "_linear")

    def __init__(
        self,
        params: tuple[Param, ...],
        constraints: tuple[PolyConstraint, ...],
    ):
        self.params = params
        self.constraints = constraints
        self._linear: bool | None = None  # all_linear(), once asked

    def degree(self) -> int:
        return max((c.poly.degree() for c in self.constraints), default=0)

    def all_linear(self) -> bool:
        """Degree at most 1, read off the rows on the first call only,
        since nothing changes a system after assembly."""
        if self._linear is None:
            self._linear = self.degree() <= 1
        return self._linear

    def holds(self, valuation) -> bool:
        return all(c.holds(valuation) for c in self.constraints)

    def dump(self) -> str:
        lines = [f"params: {', '.join(p.name for p in self.params)}"]
        lines.append(f"max degree: {self.degree()}")
        lines.extend(f"  {c}" for c in self.constraints)
        return "\n".join(lines) + "\n"


def _fresh_zs(impl: Implication, prefix: str) -> tuple[Param, ...]:
    return tuple(
        Param(f"{prefix}_{i}", ParamKind.MULTIPLIER)
        for i in range(len(impl.premise))
    )


def _dual_parts(impl, zs):
    """A^T z = c per column, and b^T z - d.

    Premise atoms are  a.y + a0 <= 0, so A's rows are the coefficients a
    and b = -a0; the consequent  c.y + c0 <= 0  gives d = -c0.  Each column
    and the rhs are accumulated into one canonical map."""
    eqs = []
    for v in impl.variables:
        acc: dict = {}
        _accumulate(acc, impl.consequent.form.coeff(v), -1)
        for z, atom in zip(zs, impl.premise):
            _accumulate(acc, atom.form.coeff(v), 1, z.name)
        eqs.append(PolyConstraint(Poly._wrap(acc), Rel.EQ))
    rhs: dict = {}
    _accumulate(rhs, impl.consequent.form.const)
    for z, atom in zip(zs, impl.premise):
        _accumulate(rhs, atom.form.const, -1, z.name)
    return eqs, Poly._wrap(rhs)


def farkas_premise_sat(impl: Implication, prefix: str) -> DualConstraint:
    """Conjunction-only dual over the whole premise; exact when the premise
    is nonempty (see the module docstring)."""
    zs = _fresh_zs(impl, prefix)
    nonneg = tuple(
        PolyConstraint(Poly() - Poly.param(z.name), Rel.LE) for z in zs
    )
    eqs, rhs = _dual_parts(impl, zs)
    return DualConstraint(
        impl.tag,
        "premise-sat",
        zs,
        nonneg + tuple(eqs) + (PolyConstraint(rhs, Rel.LE),),
    )


def _box_ends(
    impl: Implication,
) -> tuple[dict[str, Fraction], dict[str, Fraction]] | None:
    """The lower and the upper ends of a box premise by variable, read off
    its atoms' cached bounds, a strict end as its closure; None unless
    every atom bounds one variable of the implication and no two bound one
    variable from one side."""
    lo: dict[str, Fraction] = {}
    hi: dict[str, Fraction] = {}
    for atom in impl.premise:
        b = atom.form.bound()
        # a constant atom's variable is None, which is in no `variables`
        if b is None or b[0] not in impl.variables:
            return None
        v, upper, n, d = b[:4]
        side = hi if upper else lo
        if v in side:
            return None
        side[v] = Fraction(n, d)
    return lo, hi


def farkas_box(impl: Implication) -> DualConstraint | None:
    """The premise-sat dual of a box premise with its multipliers
    eliminated in closed form (see the module docstring); None when the
    premise is not a box."""
    ends = _box_ends(impl)
    if ends is None:
        return None
    lo, hi = ends
    form = impl.consequent.form
    rows: list[PolyConstraint] = []
    choices: list[list[Poly]] = []
    for v in impl.variables:
        c = form.coeff(v)
        if c.is_zero():
            continue
        low, high = lo.get(v), hi.get(v)
        if high is None:
            rows.append(PolyConstraint(c, Rel.LE))
        if low is None:
            rows.append(PolyConstraint(-c, Rel.LE))
        terms = [c.scale(e) for e in (low, high) if e is not None]
        if terms:  # with no end, c_v = 0 and v adds nothing
            choices.append(terms)
    for terms in itertools.product(*choices):
        rows.append(PolyConstraint(sum(terms, form.const), Rel.LE))
    return DualConstraint(impl.tag, "premise-sat", (), tuple(rows))


def transform(vcset: VCSet) -> list[DualConstraint]:
    """Route every implication (see the module docstring): the closed form
    for a box premise, premise-sat for any other.  Raises ValueError,
    naming the implication, on a premise that depends on a parameter."""
    duals = []
    for idx, impl in enumerate(vcset.implications):
        if not all(a.form.is_param_free() for a in impl.premise):
            raise ValueError(
                f"the premise of {impl.tag} depends on a parameter"
            )
        dual = farkas_box(impl)
        if dual is None:
            dual = farkas_premise_sat(impl, f"z{idx}")
        duals.append(dual)
    return duals


def _constrains(item: PolyConstraint) -> bool:
    """False for a row with no parameter that holds: it constrains nothing.
    A false one is kept, and the LP or the descent's linear screen answers
    unsat on it."""
    return not item.poly.is_constant() or not item.holds({})


def _drop_implied(
    items: list[PolyConstraint],
) -> tuple[PolyConstraint, ...]:
    """The items, in order, less each `<=` or `<` row that another row
    implies.  Rows  q + c REL 0  with the same non-constant part q are
    ranked by (c, strict): the highest implies every other, since
    q + c <= 0 gives q + c' <= 0 for c >= c', and q + c' < 0 too if
    c > c' or the row is strict.  Of equal ranks the first stays; an `=`
    row stays as it is.

    q is keyed by its terms, each coefficient as the integer pair of its
    normalised `Fraction`, since two ints hash faster than a `Fraction`."""
    best: dict[frozenset, tuple[tuple[Fraction, bool], int]] = {}
    dropped: set[int] = set()
    for i, item in enumerate(items):
        if item.rel is Rel.EQ:
            continue
        terms = item.poly.terms
        q = frozenset(
            (m, c.numerator, c.denominator) for m, c in terms.items() if m
        )
        rank = (terms.get((), _F0), item.rel is Rel.LT)
        prev = best.get(q)
        if prev is not None and prev[0] >= rank:
            dropped.add(i)
            continue
        if prev is not None:
            dropped.add(prev[1])
        best[q] = rank, i
    return tuple(item for i, item in enumerate(items) if i not in dropped)


def assemble(
    vcset: VCSet, duals: Sequence[DualConstraint]
) -> ConstraintSystem:
    """One quantifier-free conjunction over every existential parameter,
    its rows in the order of the side atoms and then the duals, less the
    parameter-free rows that hold (`_constrains`) and the rows that a
    kept row implies (`_drop_implied`)."""
    params = list(vcset.params)
    constraints: list[PolyConstraint] = []
    for atom in vcset.side_atoms:
        if atom.form.variables():
            raise ValueError(f"side constraint {atom} mentions variables")
        constraints.append(PolyConstraint(atom.form.const, atom.rel))
    for dual in duals:
        params.extend(dual.zs)
        constraints.extend(dual.items())
    kept = _drop_implied(list(filter(_constrains, constraints)))
    return ConstraintSystem(tuple(params), kept)


# -- brute-force validity oracle (for differential testing) -------------------


def implication_valid_bruteforce(impl: Implication) -> bool:
    """Exact validity of a parameter-free implication, independently of
    Farkas: LP maximization of the consequent over the premise's closure,
    its `<` atoms read as `<=`.

    A non-empty strict premise has that closure, so the maximum decides
    validity unless the strict premise is empty, which
    `lp.defining_atoms` decides."""
    if impl.params():
        raise ValueError("brute-force oracle needs a parameter-free implication")
    premise, variables = impl.premise, impl.variables
    strict = any(a.rel is Rel.LT for a in premise)
    closure = [Atom(a.form, Rel.LE) for a in premise] if strict else premise
    coeffs = [
        impl.consequent.form.coeff(v).constant_value() for v in variables
    ]
    rhs = -impl.consequent.form.const.constant_value()
    res = lp.solve(lp.system_from_atoms(closure, variables), objective=coeffs)
    ok = res.status == "infeasible" or (
        res.status == "optimal" and res.value <= rhs
    )
    if ok or not strict:
        return ok
    return lp.defining_atoms(premise, variables) is None
