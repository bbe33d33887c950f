"""Verification-condition generation over the product process.

The product of the model and the automaton is stepped in lockstep: the
automaton reads the current model state, then the model branch fires.
Six families of universally quantified implications over the state
variables (plus box disturbance components) express that the certificate
templates witness almost-sure satisfaction of every Streett pair:

    init       each invariant row holds at the initial product location
    consec     the invariant is closed under every product transition
               that can fire from it
    dec        Post V <= V - eps     at locations with q in A \\ B
    inc        Post V <= V + M       at locations with q in B
    noninc     Post V <= V           elsewhere
    nonneg     V >= 0                on the invariant

Every implication has `<=` and `<` premise atoms, the normal form the
parser gives every atom, kept as they are, and a single non-strict
consequent; a strict consequent is an error.  Farkas' Lemma dualizes a
strict atom as its relaxation, which is exact whenever the strict premise
is nonempty: its closure is then the relaxed premise.

The product transitions are enumerated once, by the Post V table: its
pieces, one per (location, automaton edge, model branch), carry both the
drift conditions and the closure of the invariant.  Each piece has one
premise, the invariant rows at its location and then its joint guard,
shared by its consecution VCs (with the box atoms of a box disturbance)
and its drift VCs.  A VC whose premise is empty holds for every
certificate, so a piece whose premise is parameter-free and empty, strict
atoms honored, gets no VC, and neither does `nonneg` at a location whose
invariant is.  The invariant is parameter-free, so this is the only step
screen: a transition whose parameter-free joint guard is empty never
fires, and its premise is empty too.

Each piece's premise and each location's invariant is screened once
(`lp.defining_atoms`), and its VCs are built over what the screen keeps:
of a parameter-free box, only the binding atoms, per variable the
tightest upper and the tightest lower one; of any other premise, every
atom.  This is exact: the binding atoms define the same nonempty set as
the whole premise, so an implication holds under exactly the same
parameter values, and Farkas' lemma is exact on either premise.  So
every parameter-free premise of a VC set built here is nonempty, which
the premise-sat form of `farkas.transform` and its closed form for a box
premise require; the box atoms a consecution VC appends for a box
disturbance keep it so.  A screened box bounds each variable at most
once from each side, the shape the closed form takes; a premise with a
second atom on one side would keep its multipliers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Sequence

from . import lp
from .automata import GuardedDSA
from .expr import Atom, LinForm, Poly, Rel
from .model import StochModel
from .templates import (
    CertTemplate,
    InvTemplate,
    Location,
    PostPiece,
    PostTable,
    locations,
)


class StrictConsequentError(ValueError):
    """A consequent atom is strict; Farkas' Lemma does not apply."""


@dataclass(frozen=True)
class Implication:
    """forall variables: premise atoms (<= or <) imply consequent (<=)."""

    family: str  # init | consec | dec | inc | noninc | nonneg
    location: Location | None
    variables: tuple[str, ...]
    premise: tuple[Atom, ...]
    consequent: Atom
    note: str = ""

    @property
    def tag(self) -> str:
        where = f" at {self.location}" if self.location else ""
        extra = f" [{self.note}]" if self.note else ""
        return f"{self.family}{where}{extra}"

    def params(self) -> set[str]:
        out: set[str] = set()
        for a in self.premise:
            out |= a.form.params()
        out |= self.consequent.form.params()
        return out


class VCSet:
    __slots__ = ("implications", "params", "side_atoms")

    def __init__(
        self,
        implications: tuple[Implication, ...],
        params: tuple[str, ...],
        side_atoms: tuple[Atom, ...],
    ):
        self.implications = implications
        self.params = params
        self.side_atoms = side_atoms  # over params only (kappa boxes, M >= 0, ...)

    def dump(self) -> str:
        lines = []
        names = ", ".join(self.params)
        lines.append(f"params: {names or '(none)'}")
        for a in self.side_atoms:
            lines.append(f"  side: {a}")
        for i, impl in enumerate(self.implications):
            lines.append(f"[{i}] {impl.tag}")
            lines.append(f"    forall {', '.join(impl.variables)}:")
            for a in impl.premise:
                lines.append(f"      {a}")
            lines.append(f"      ==> {impl.consequent}")
        return "\n".join(lines) + "\n"


def normalize_consequent(atom: Atom) -> Atom:
    """The consequent as given when non-strict; strictness is an error,
    not a relaxation (weakening a consequent would be unsound)."""
    if atom.rel is Rel.LT:
        raise StrictConsequentError(
            f"strict consequent {atom} is unsupported"
        )
    return atom


def promote_disturbance(form: LinForm, wnames: tuple[str, ...]) -> LinForm:
    """Rewrite disturbance parameters into universal variables.

    Branch updates carry disturbance components as parameters inside the
    coefficient polynomials; universal quantification over a box demands
    they become LP columns.  Only constant-term monomials that are linear
    in a single component can move; anything else is genuinely bilinear
    in the universals and has no affine Farkas form.
    """
    wset = set(wnames)
    for v in form.coeffs:
        if form.coeff(v).params() & wset:
            raise ValueError(
                f"state-times-disturbance product on {v!r}: not affine in "
                "the universally quantified variables"
            )
    out = LinForm({v: p for v, p in form.coeffs.items()}, Poly())
    for mono, c in form.const.terms.items():
        hits = [n for n in mono if n in wset]
        if not hits:
            out = out + LinForm.from_poly(Poly({mono: c}))
        elif len(hits) == 1:
            rest = tuple(n for n in mono if n not in wset)
            out = out + LinForm.var(hits[0]).mul_poly(Poly({rest: c}))
        else:
            raise ValueError(
                f"disturbance monomial {mono} of degree >= 2: expectation "
                "and support reasoning are affine-only"
            )
    return out


def _step(piece: PostPiece) -> str:
    """A Post V piece's transition as VC notes name it; parallel automaton
    edges differ in their line."""
    e, line = piece.edge, piece.branch.line
    return f"edge {e.source}->{e.target} line {e.line}, branch line {line}"


def _mk(
    family: str,
    location: Location | None,
    variables: Sequence[str],
    premise: Sequence[Atom],
    consequent: Atom,
    note: str = "",
) -> Implication:
    return Implication(
        family,
        location,
        tuple(variables),
        tuple(premise),
        normalize_consequent(consequent),
        note,
    )


def build_product_vcs(
    model: StochModel,
    dsa: GuardedDSA,
    Vs: Sequence[CertTemplate],
    inv: InvTemplate,
    tables: Sequence[PostTable],
    eps: Fraction = Fraction(1),
    M: Sequence[Fraction] | None = None,
) -> VCSet:
    """All six VC families for the given templates.

    `tables` holds one PostTable per Streett pair, aligned with `Vs`.
    `M` gives concrete increase bounds per pair; when omitted, fresh
    parameters M0, M1, ... are declared with M >= 0 side constraints.
    """
    if len(Vs) != len(dsa.pairs) or len(tables) != len(dsa.pairs):
        raise ValueError("one V template and one PostTable per Streett pair")
    if eps <= 0:
        raise ValueError("eps must be positive")
    xs = model.state_vars
    for loc in locations(model, dsa):
        if loc not in inv.rows:
            raise ValueError(f"invariant has no rows at location {loc}")
    dist = model.disturbance
    wnames = dist.component_names()
    implications: list[Implication] = []
    # each piece's premise, shared by its consecution and drift VCs, and
    # each location's invariant, the `nonneg` premise of every pair, as
    # screened: None when parameter-free and empty, which gets no VC
    premises = [
        lp.defining_atoms(inv.rows[piece.location] + piece.guard, xs)
        for piece in tables[0].pieces
    ]
    invariants = {
        loc: lp.defining_atoms(rows, xs) for loc, rows in inv.rows.items()
    }

    # initiation: every invariant row at the initial product location
    init_loc = (dsa.init, model.init_mode)
    x0 = {v: LinForm.constant(c) for v, c in zip(xs, model.init_state)}
    for i, row in enumerate(inv.rows[init_loc]):
        implications.append(
            _mk(
                "init",
                init_loc,
                xs,
                [],
                Atom(row.form.substitute_state(x0), row.rel),
                note=f"row {i}",
            )
        )

    # consecution: closure under every product transition of the Post V
    # table.  A finite disturbance gives one case per support value; a box
    # gives one case, promoted to universal columns bounded by the box.
    if dist.kind == "finite":
        cases = [
            (
                xs,
                (),
                "".join(f", {n}={c}" for n, c in w.items()),
                partial(LinForm.substitute_params, valuation=w),
            )
            for w in (dict(zip(wnames, v)) for v, _prob in dist.support)
        ]
    else:
        lift = partial(promote_disturbance, wnames=wnames)
        cases = [(xs + wnames, tuple(dist.box_atoms()), "", lift)]
    # the successor rows depend only on the branch and the edge's target,
    # so each (branch, target) is substituted once per call, for every case
    successors: dict[tuple[int, str], list[list[Atom]]] = {}
    for piece, premise in zip(tables[0].pieces, premises):
        if premise is None:
            continue
        edge, br = piece.edge, piece.branch
        key = (id(br), edge.target)
        if key not in successors:
            rows = inv.rows[(edge.target, br.mode_to)]
            images = [
                {v: lift(f) for v, f in br.update.items()}
                for *_, lift in cases
            ]
            successors[key] = [
                [Atom(row.form.substitute_state(im), row.rel) for row in rows]
                for im in images
            ]
        for case, atoms in zip(cases, successors[key]):
            variables, extra, sample, _ = case
            full = premise + extra
            for i, atom in enumerate(atoms):
                implications.append(
                    _mk(
                        "consec",
                        piece.location,
                        variables,
                        full,
                        atom,
                        note=f"{_step(piece)}{sample}, row {i}",
                    )
                )

    # drift: one implication per PostTable piece, dispatched on the pair
    params: list[str] = []
    side: list[Atom] = []
    m_polys: list[Poly] = []
    for k in range(len(dsa.pairs)):
        if M is not None:
            m_polys.append(Poly.const(M[k]))
        else:
            params.append(f"M{k}")
            m_polys.append(Poly.param(params[-1]))
            side.append(Atom(-LinForm.from_poly(m_polys[-1]), Rel.LE))

    for k, (V, table) in enumerate(zip(Vs, tables)):
        if table.pair_index != V.pair_index:
            raise ValueError("PostTable/CertTemplate pair mismatch")
        pair = dsa.pairs[k]
        for piece, premise in zip(table.pieces, premises, strict=True):
            if premise is None:
                continue
            family = pair.classify(piece.location[0])
            gap = {
                "dec": LinForm.constant(eps),
                "inc": -LinForm.from_poly(m_polys[k]),
                "noninc": LinForm(),
            }[family]
            implications.append(
                _mk(
                    family,
                    piece.location,
                    xs,
                    premise,
                    Atom(piece.form - V.pieces[piece.location] + gap, Rel.LE),
                    note=f"pair {k}, {_step(piece)}",
                )
            )

        # nonnegativity on the invariant, where it is not empty
        for loc, rows in invariants.items():
            if rows is None:
                continue
            implications.append(
                _mk(
                    "nonneg",
                    loc,
                    xs,
                    rows,
                    Atom(LinForm() - V.pieces[loc], Rel.LE),
                    note=f"pair {k}",
                )
            )

    # declared existentials: template and control parameters
    for V in Vs:
        params.extend(V.params)
    for c in model.controls:
        params.append(c.name)
        form = LinForm.from_poly(Poly.param(c.name))
        side.append(Atom(LinForm.constant(c.lo) - form, Rel.LE))
        side.append(Atom(form - LinForm.constant(c.hi), Rel.LE))
    side.extend(model.side_constraints)

    declared = set(params)
    for impl in implications:
        stray = impl.params() - declared
        if stray:
            raise ValueError(
                f"undeclared parameters {sorted(stray)} in {impl.tag}"
            )
    return VCSet(tuple(implications), tuple(params), tuple(side))
