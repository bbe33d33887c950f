"""Guarded deterministic Streett automata.

An automaton reads the current model state through transition guards:
conjunctions of linear inequalities over the state variables, optionally
constrained to a model mode (``mode == name``).  Determinism and totality
are proved exactly at parse time (`model.partition_fault`): for every
source state and mode, the outgoing guards must be pairwise
unsatisfiable together and their complements must have no common
solution.  Box guards, as every corpus automaton has, are decided from
the bounds their atoms cache (`lp.defining_atoms`), with no LP built.

Every state reads the same alphabet, so transition labels repeat.
`parse_dsa` tokenizes and parses each distinct label text once per
automaton, at its first transition, and every transition with that text
shares its atom tuple (the atoms are immutable), so later stages reuse
each atom's cached form data (`expr.LinForm.bound`, the hash).

Acceptance is state-based: a list of pairs (A, B) of state sets, read as
"visit A finitely often or visit B infinitely often".  For each pair the
states partition into the epsilon-decrease region A minus B, the
M-increase region B, and the non-increase remainder.

File format (# comments):

    states: q0 q1
    init: q0
    trans q0 -> q1: x >= 100
    trans q0 -> q0: x < 100
    trans q1 -> q1: true
    pair: A { q1 } B { }
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .expr import Atom, LinForm
from .model import DEFAULT_MODE, format_state, partition_fault
from .syntax import (
    ModeTest,
    SourceError,
    Token,
    TokenStream,
    logical_lines,
    parse_conjunction,
    parse_names,
    tokenize,
)


class StreettPair:
    __slots__ = ("a", "b")

    def __init__(self, a: frozenset[str], b: frozenset[str]):
        self.a = a
        self.b = b

    def __eq__(self, other: object) -> bool:
        return type(other) is StreettPair and self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def classify(self, q: str) -> str:
        """Drift obligation at q: 'dec' (A minus B), 'inc' (B), 'noninc'."""
        if q in self.b:
            return "inc"
        if q in self.a:
            return "dec"
        return "noninc"


class Transition:
    __slots__ = ("source", "target", "atoms", "mode_tests", "line")

    def __init__(
        self,
        source: str,
        target: str,
        atoms: tuple[Atom, ...],
        mode_tests: tuple[ModeTest, ...] = (),
        line: int = 0,
    ):
        self.source = source
        self.target = target
        self.atoms = atoms
        self.mode_tests = mode_tests
        self.line = line

    def __eq__(self, other: object) -> bool:
        return type(other) is Transition and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def _key(self) -> tuple:
        return (self.source, self.target, self.atoms, self.mode_tests, self.line)

    def applies_in_mode(self, mode: str) -> bool:
        return all(t.holds(mode) for t in self.mode_tests)


class GuardedDSA:
    __slots__ = ("states", "init", "transitions", "pairs")

    def __init__(
        self,
        states: tuple[str, ...],
        init: str,
        transitions: tuple[Transition, ...],
        pairs: tuple[StreettPair, ...],
    ):
        self.states = states
        self.init = init
        self.transitions = transitions
        self.pairs = pairs

    def __eq__(self, other: object) -> bool:
        return type(other) is GuardedDSA and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def _key(self) -> tuple:
        return (self.states, self.init, self.transitions, self.pairs)

    def outgoing(self, q: str) -> list[Transition]:
        return [t for t in self.transitions if t.source == q]

    def step(
        self,
        q: str,
        state_env: Mapping[str, Fraction],
        mode: str,
    ) -> str:
        """The unique successor state under the current observation."""
        hit: str | None = None
        for t in self.outgoing(q):
            if t.applies_in_mode(mode) and all(
                a.holds({}, state_env) for a in t.atoms
            ):
                if hit is not None:
                    raise ValueError(
                        f"nondeterministic step from {q!r} at {dict(state_env)}"
                    )
                hit = t.target
        if hit is None:
            raise ValueError(
                f"no transition from {q!r} at {dict(state_env)} mode {mode!r}"
            )
        return hit


def parse_dsa(
    text: str,
    variables: tuple[str, ...],
    modes: tuple[str, ...] | None = None,
) -> GuardedDSA:
    """Parse an automaton document and validate it over the model's
    state variables and modes (a single unnamed mode when omitted)."""
    states: tuple[str, ...] | None = None
    init: str | None = None
    # (source token, target token, label text) per transition, and the
    # tokens of each distinct label text, read at its first transition
    raw_trans: list[tuple[Token, Token, str]] = []
    label_tokens: dict[str, list[Token]] = {}
    pairs: list[StreettPair] = []
    # the line of the states: and init: declarations and of each pair:
    states_line = init_line = 1
    pair_lines: list[int] = []

    for lineno, line in logical_lines(text):
        # a transition line is tokenized as its header, through the first
        # ':', and its label; together they are the tokens of the line
        head, colon, label = line.partition(":")
        if colon and head.split(None, 1)[:1] == ["trans"]:
            ts = TokenStream(tokenize(head + colon, line=lineno))
            if label not in label_tokens:
                label_tokens[label] = tokenize(label, lineno, len(head) + 2)
        else:
            ts = TokenStream(tokenize(line, line=lineno))
        key = ts.expect_ident("statement keyword")
        if key.text == "states":
            ts.expect(":")
            if states is not None:
                raise ts.error("duplicate states declaration")
            states, states_line = parse_names(ts, "state"), lineno
        elif key.text == "init":
            ts.expect(":")
            if init is not None:
                raise ts.error("duplicate init")
            init, init_line = ts.expect_ident("state name").text, lineno
        elif key.text == "trans":
            src = ts.expect_ident("state name")
            ts.expect("->")
            dst = ts.expect_ident("state name")
            ts.expect(":")
            raw_trans.append((src, dst, label))
        elif key.text == "pair":
            ts.expect(":")
            def parse_set(label: str) -> frozenset[str]:
                tok = ts.expect_ident()
                if tok.text != label:
                    raise SourceError.at(tok, f"expected {label!r}")
                ts.expect("{")
                out = set()
                while ts.peek().text != "}":
                    out.add(ts.expect_ident("state name").text)
                ts.expect("}")
                return frozenset(out)
            a = parse_set("A")
            b = parse_set("B")
            pairs.append(StreettPair(a, b))
            pair_lines.append(lineno)
        else:
            raise SourceError.at(key, f"unknown statement {key.text!r}")
        if not ts.at_end():
            raise ts.error("trailing input")

    if states is None:
        raise SourceError("missing states declaration", 1, 1)
    if init is None:
        raise SourceError("missing init declaration", 1, 1)
    if init not in states:
        raise SourceError(f"init state {init!r} not declared", init_line, 1)
    if not pairs:
        raise SourceError("missing acceptance pairs", 1, 1)
    for p, line in zip(pairs, pair_lines):
        stray = (p.a | p.b) - set(states)
        if stray:
            raise SourceError(
                f"acceptance set mentions unknown states {sorted(stray)}",
                line,
                1,
            )

    forms = {v: LinForm.var(v) for v in variables}
    # each distinct label is parsed once, at its first transition (where a
    # malformed one is reported), and its transitions share its atoms
    guards: dict[str, tuple[tuple[Atom, ...], tuple[ModeTest, ...]]] = {}
    transitions: list[Transition] = []
    for src, dst, label in raw_trans:
        for end in (src, dst):
            if end.text not in states:
                raise SourceError.at(end, "transition names unknown state")
        guard = guards.get(label)
        if guard is None:
            ts = TokenStream(label_tokens[label])
            atoms, tests = parse_conjunction(ts, forms.get, modes or ())
            if not ts.at_end():
                raise ts.error("trailing input")
            guard = guards[label] = (tuple(atoms), tuple(tests))
        transitions.append(Transition(src.text, dst.text, *guard, src.line))

    dsa = GuardedDSA(states, init, tuple(transitions), tuple(pairs))
    validate_dsa(dsa, tuple(variables), modes or (DEFAULT_MODE,), states_line)
    return dsa


def validate_dsa(
    dsa: GuardedDSA,
    variables: tuple[str, ...],
    modes: tuple[str, ...],
    states_line: int = 1,
) -> None:
    """Exact proof of determinism and totality per source state and mode.

    An incomplete state is reported at its first outgoing transition, or
    at `states_line` when it has none."""
    # modes in which the same transitions are live share their guard set:
    # screen each distinct set once (a repeated one has already passed)
    screened: set[tuple[tuple[Atom, ...], ...]] = set()
    for q in dsa.states:
        outgoing = dsa.outgoing(q)
        for mode in modes:
            live = [t for t in outgoing if t.applies_in_mode(mode)]
            guards = tuple(t.atoms for t in live)
            if guards in screened:
                continue
            screened.add(guards)
            fault = partition_fault(list(guards), variables)
            if fault is None:
                continue
            kind, where, point = fault
            at = format_state(point, variables)
            if kind == "overlap":
                t1, t2 = live[where[0]], live[where[1]]
                raise SourceError(
                    f"nondeterminism from {q!r} in mode {mode!r}: "
                    f"transitions at lines {t1.line} and {t2.line} "
                    f"both fire at {at}",
                    t2.line,
                    1,
                )
            desc = " and ".join(str(a) for a in where) or "true"
            raise SourceError(
                f"automaton incomplete from {q!r} in mode {mode!r}: "
                f"no transition on {{{desc}}}, e.g. {at}",
                outgoing[0].line if outgoing else states_line,
                1,
            )
