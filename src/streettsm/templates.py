"""Affine certificate templates, concrete invariants, and symbolic
post-expectations over the product process.

A certificate template assigns each product location (automaton state,
model mode) one affine form theta . x + theta_0 with fresh parameters; an
invariant assigns each location a conjunction of parameter-free rows.  A
"false" location is one infeasible row, 1 <= 0 (`FALSE_ATOM`).

The post-expectation of V at location (q, m) is computed piecewise, one
piece per product transition: an automaton edge from q times a model
branch from m, on their joint guard (branch guard and edge guard).  On
that guard

    Post V(x) = sum_w p(w) . V(f(x, w), (edge target, branch target mode))

The automaton target depends only on the current observation, never on w.
V is affine and the probabilities sum to 1, so the sum is V at the
expected successor, V(E_w f(x, w), ...).  Each branch's expected update
is taken once per table (`Disturbance.expectation`): each update monomial
keeps its state and control factors, and its disturbance factors become
their moment, sum_w p(w) . prod w over a finite support (exact for w*w
and for dependent components) or the mean of a box, whose monomials carry
at most one disturbance factor (model parsing rejects any that carries
two).  Each (target, branch) is then one composition of V with it.
"""

from __future__ import annotations

from fractions import Fraction

from .automata import GuardedDSA, Transition
from .expr import Atom, LinForm, Monomial, Param, ParamKind, Poly, Rel
from .model import Branch, StochModel
from .syntax import (
    SourceError,
    TokenStream,
    logical_lines,
    parse_conjunction,
    tokenize,
)

# A product location: (automaton state, model mode).
Location = tuple[str, str]

# Canonical unsatisfiable row used for provided "false" invariants.
FALSE_ATOM = Atom(LinForm.constant(1), Rel.LE)


def locations(model: StochModel, dsa: GuardedDSA) -> list[Location]:
    return [(q, m) for q in dsa.states for m in model.modes]


class CertTemplate:
    """One affine piece of V per product location, for one Streett pair."""

    __slots__ = ("pair_index", "pieces", "params")

    def __init__(
        self,
        pair_index: int,
        pieces: dict[Location, LinForm],
        params: tuple[Param, ...] = (),
    ):
        self.pair_index = pair_index
        self.pieces = pieces
        self.params = params

    def __repr__(self) -> str:
        # a function of a concrete template's value: perfbench keys its
        # output checks on it
        return (
            f"CertTemplate(pair_index={self.pair_index!r}, "
            f"pieces={self.pieces!r}, params={self.params!r})"
        )

    @staticmethod
    def fresh(
        model: StochModel, dsa: GuardedDSA, pair_index: int
    ) -> "CertTemplate":
        pieces: dict[Location, LinForm] = {}
        params: list[Param] = []
        for q, m in locations(model, dsa):
            form = LinForm()
            for v in model.state_vars:
                name = f"th{pair_index}_{q}_{m}_{v}"
                params.append(Param(name, ParamKind.CERT))
                form = form + LinForm.var(v).mul_poly(Poly.param(name))
            cname = f"th{pair_index}_{q}_{m}_c"
            params.append(Param(cname, ParamKind.CERT))
            form = form + LinForm.from_poly(Poly.param(cname))
            pieces[(q, m)] = form
        return CertTemplate(pair_index, pieces, tuple(params))

    @staticmethod
    def concrete(
        pair_index: int, pieces: dict[Location, LinForm]
    ) -> "CertTemplate":
        for loc, form in pieces.items():
            if not form.is_param_free():
                raise ValueError(f"parameter in concrete V at {loc}")
        return CertTemplate(pair_index, dict(pieces), ())


class InvTemplate:
    """A conjunction of parameter-free rows per location."""

    __slots__ = ("rows",)

    def __init__(self, rows: dict[Location, tuple[Atom, ...]]):
        self.rows = rows

    @staticmethod
    def concrete(rows: dict[Location, tuple[Atom, ...]]) -> "InvTemplate":
        for loc, atoms in rows.items():
            for a in atoms:
                if not a.form.is_param_free():
                    raise ValueError(f"parameter in concrete invariant at {loc}")
        return InvTemplate(dict(rows))


class PostPiece:
    """Post V on one product transition: from `location`, along `edge`
    and `branch`."""

    __slots__ = ("location", "edge", "branch", "guard", "form")

    def __init__(
        self,
        location: Location,
        edge: Transition,
        branch: Branch,
        guard: tuple[Atom, ...],
        form: LinForm,
    ):
        self.location = location
        self.edge = edge
        self.branch = branch
        self.guard = guard  # branch guard && edge guard
        self.form = form  # symbolic Post V piece over x


class PostTable:
    """Post V of one pair's V.  Which transitions get a piece depends only
    on the model and the automaton, so every table of one product has the
    same (location, edge, branch) steps, in the same order."""

    __slots__ = ("pair_index", "pieces")

    def __init__(self, pair_index: int, pieces: tuple[PostPiece, ...]):
        self.pair_index = pair_index
        self.pieces = pieces


def post_table(
    V: CertTemplate, model: StochModel, dsa: GuardedDSA
) -> PostTable:
    """Symbolic Post V, one piece per product transition.  No step is
    screened here: `vcgen.build_product_vcs` gives no VC to a piece whose
    premise, the invariant at its source and its joint guard, is empty."""
    dist = model.disturbance
    moments: dict[Monomial, Fraction] = {}
    pieces: list[PostPiece] = []
    # a piece's form depends only on its target location and its branch,
    # so each branch's expected update is taken once per call, and each
    # (target, branch) composed once
    expected: dict[int, dict[str, LinForm]] = {}
    forms: dict[tuple[Location, int], LinForm] = {}
    for q, m in locations(model, dsa):
        if (q, m) not in V.pieces:
            raise ValueError(
                f"V of pair {V.pair_index} has no piece at location {(q, m)}"
            )
        for edge in dsa.outgoing(q):
            if not edge.applies_in_mode(m):
                continue
            for br in model.branches_for_mode(m):
                guard = br.guard + edge.atoms
                target = (edge.target, br.mode_to)
                key = (target, id(br))
                if key not in forms:
                    image = expected.get(id(br))
                    if image is None:
                        image = expected[id(br)] = {
                            v: dist.expectation(f, moments)
                            for v, f in br.update.items()
                        }
                    forms[key] = V.pieces[target].substitute_state(image)
                pieces.append(PostPiece((q, m), edge, br, guard, forms[key]))
    return PostTable(V.pair_index, tuple(pieces))


# -- invariant files ----------------------------------------------------------


def parse_invariant(
    text: str, model: StochModel, dsa: GuardedDSA
) -> InvTemplate:
    """Concrete invariant document.

    One line per location: ``at <state> [<mode>]: conjunction|true|false``;
    locations not listed default to true.  All atoms parameter-free.
    """
    rows: dict[Location, tuple[Atom, ...]] = {
        loc: () for loc in locations(model, dsa)
    }
    seen: set[Location] = set()
    forms = {v: LinForm.var(v) for v in model.state_vars}
    for lineno, line in logical_lines(text):
        ts = TokenStream(tokenize(line, line=lineno))
        key = ts.expect_ident("'at'")
        if key.text != "at":
            raise SourceError.at(key, "expected 'at <state> [<mode>]:'")
        state = ts.expect_ident("automaton state")
        q = state.text
        if q not in dsa.states:
            raise SourceError.at(state, f"unknown automaton state {q!r}")
        if ts.peek().kind == "ident":
            word = ts.advance()
            mode = word.text
            if mode not in model.modes:
                raise SourceError.at(word, f"unknown mode {mode!r}")
        else:
            if len(model.modes) > 1:
                raise ts.error("model has several modes; location needs one")
            mode = model.modes[0]
        ts.expect(":")
        loc = (q, mode)
        if loc in seen:
            raise SourceError.at(key, f"duplicate location {loc}")
        seen.add(loc)
        tok = ts.peek()
        if tok.kind == "ident" and tok.text == "false":
            ts.advance()
            rows[loc] = (FALSE_ATOM,)
        else:
            atoms, tests = parse_conjunction(ts, forms.get)
            assert not tests
            rows[loc] = tuple(atoms)
        if not ts.at_end():
            raise ts.error("trailing input")
    return InvTemplate.concrete(rows)
