"""Piecewise-affine stochastic systems with finite modes.

A model is a guarded system of affine updates

    x' = f(x, w; kappa)      on guard g(x) and mode m -> m',

driven by an i.i.d. disturbance w that is either finitely supported
(list of value/probability pairs) or box-supported (componentwise bounds
plus a mean vector).  Updates are affine in the state with coefficients
polynomial in the control parameters and the disturbance components, so
bilinear state-times-disturbance dynamics are representable.  Guards may
carry control parameters (synthesized switching logic,
`StochModel.guards_parameter_bearing`); their modes are exempted from
the static cover checks, which `StochModel.with_control` runs once the
control has a value.  Synthesis makes each candidate control concrete
with it (`pipeline.synthesize`), and the certificate check its control
(`pipeline.failing_vcs`), so that no VC is built at a control whose
guards overlap or leave a gap.

Branch guards within each mode must be pairwise disjoint and jointly
exhaustive over R^n; both properties are decided exactly at parse time
(`partition_fault`).  A conjunction of guard atoms that bounds one
variable per atom, as every corpus guard does, is decided from the
bounds the atoms cache (`lp.defining_atoms`), with no LP built.

The file format is line-oriented (# comments):

    state_dim: 1
    vars: x                      # optional; defaults to x or x0..x{n-1}
    modes: ev od                 # optional; default single mode "_"
    init: x = 0, mode = ev
    disturbance: w finite { (1): 1/2, (0): 1/2 }
    disturbance: w box { lo = -1/10, hi = 1/10, mean = 0 }
    control: kappa in [-4, 4]
    constraint: 305*alpha + beta < 5.24
    branch ev -> od:
      guard: -1/2 < x and x < 1/2
      update: x' = 2*w - 1
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Mapping

from . import lp
from .expr import Atom, LinForm, Monomial, Poly, Rel, _add_term
from .syntax import (
    SourceError,
    TokenStream,
    logical_lines,
    parse_conjunction,
    parse_expression,
    parse_names,
    parse_number,
    tokenize,
)

DEFAULT_MODE = "_"


class Disturbance:
    """I.i.d. disturbance: finite support or a box with known mean."""

    __slots__ = ("name", "dim", "support", "lo", "hi", "mean")

    def __init__(
        self,
        name: str,
        dim: int,
        support: tuple[tuple[tuple[Fraction, ...], Fraction], ...] | None = None,
        lo: tuple[Fraction, ...] | None = None,
        hi: tuple[Fraction, ...] | None = None,
        mean: tuple[Fraction, ...] | None = None,
    ):
        self.name = name
        self.dim = dim
        self.support = support  # finite: ((value vector, probability), ...)
        self.lo = lo
        self.hi = hi
        self.mean = mean

    @property
    def kind(self) -> str:
        return "finite" if self.support is not None else "box"

    def component_names(self) -> tuple[str, ...]:
        if self.dim == 1:
            return (self.name,)
        return tuple(f"{self.name}{i}" for i in range(self.dim))

    def mean_vector(self) -> tuple[Fraction, ...]:
        return tuple(self.moment((n,)) for n in self.component_names())

    def moment(self, factors: Monomial) -> Fraction:
        """E[w_a * w_b * ...] over the components named in `factors`, with
        multiplicity.  A finite support gives sum_j p_j * prod w_j, exact
        for any product, dependent components included; a box gives the
        mean of a single factor and raises ValueError on two or more."""
        index = {n: i for i, n in enumerate(self.component_names())}
        if self.support is None:
            assert self.mean is not None
            if len(factors) != 1:
                raise ValueError(
                    f"box disturbance: no moment of {'*'.join(factors)} "
                    "from its mean"
                )
            return self.mean[index[factors[0]]]
        total = Fraction(0)
        for value, prob in self.support:
            for n in factors:
                prob *= value[index[n]]
            total += prob
        return total

    def expectation(
        self, form: LinForm, moments: dict[Monomial, Fraction]
    ) -> LinForm:
        """E_w of an update form: in each monomial of each coefficient, the
        product of its disturbance factors replaced by its `moment`, which
        `moments` memoises by that product.  `form` itself when it reads
        no component."""
        names = frozenset(self.component_names())
        if form.params().isdisjoint(names):
            return form

        def expect(poly: Poly) -> Poly:
            out: dict[Monomial, Fraction] = {}
            for mono, coeff in poly.terms.items():
                factors = tuple(n for n in mono if n in names)
                if factors:
                    m = moments.get(factors)
                    if m is None:
                        m = moments[factors] = self.moment(factors)
                    if not m:
                        continue
                    mono = tuple(n for n in mono if n not in names)
                    coeff *= m
                _add_term(out, mono, coeff)  # still sorted
            return Poly._wrap(out)

        return LinForm(
            {v: expect(p) for v, p in form.coeffs.items()}, expect(form.const)
        )

    def box_atoms(self) -> list[Atom]:
        """lo <= w <= hi as atoms over the component names (box kind)."""
        assert self.lo is not None and self.hi is not None
        out = []
        for nm, lo, hi in zip(self.component_names(), self.lo, self.hi):
            w = LinForm.var(nm)
            out.append(Atom(LinForm.constant(lo) - w, Rel.LE))
            out.append(Atom(w - LinForm.constant(hi), Rel.LE))
        return out


class Branch:
    __slots__ = ("mode_from", "mode_to", "guard", "update", "line")

    def __init__(
        self,
        mode_from: str,
        mode_to: str,
        guard: tuple[Atom, ...],
        update: dict[str, LinForm],
        line: int = 0,
    ):
        self.mode_from = mode_from
        self.mode_to = mode_to
        self.guard = guard  # over state vars; coefficients may carry params
        self.update = update  # per state var, over state + disturbance names
        self.line = line


class ControlParam:
    __slots__ = ("name", "lo", "hi")

    def __init__(self, name: str, lo: Fraction, hi: Fraction):
        self.name = name
        self.lo = lo
        self.hi = hi


class StochModel:
    __slots__ = (
        "state_vars",
        "modes",
        "init_state",
        "init_mode",
        "disturbance",
        "branches",
        "controls",
        "side_constraints",
    )

    def __init__(
        self,
        state_vars: tuple[str, ...],
        modes: tuple[str, ...],
        init_state: tuple[Fraction, ...],
        init_mode: str,
        disturbance: Disturbance,
        branches: tuple[Branch, ...],
        controls: tuple[ControlParam, ...] = (),
        side_constraints: tuple[Atom, ...] = (),
    ):
        self.state_vars = state_vars
        self.modes = modes
        self.init_state = init_state
        self.init_mode = init_mode
        self.disturbance = disturbance
        self.branches = branches
        self.controls = controls
        self.side_constraints = side_constraints  # over control params only

    @property
    def guards_parameter_bearing(self) -> bool:
        """Does some guard carry a control parameter?"""
        return not all(
            a.form.is_param_free() for br in self.branches for a in br.guard
        )

    def branches_for_mode(self, mode: str) -> list[Branch]:
        return [b for b in self.branches if b.mode_from == mode]

    def state_env(self, state: Iterable[Fraction]) -> dict[str, Fraction]:
        return dict(zip(self.state_vars, state))

    def step(
        self,
        state: tuple[Fraction, ...],
        mode: str,
        sample: tuple[Fraction, ...],
        control: Mapping[str, Fraction] | None = None,
    ) -> tuple[tuple[Fraction, ...], str]:
        """Exact one-step successor; exactly one branch guard must hold."""
        control = dict(control or {})
        env = self.state_env(state)
        hits = [
            b
            for b in self.branches_for_mode(mode)
            if all(a.holds(control, env) for a in b.guard)
        ]
        if not hits:
            raise ValueError(
                f"no branch applicable at state {state} in mode {mode!r}"
            )
        if len(hits) > 1:
            lines = ", ".join(str(b.line) for b in hits)
            raise ValueError(
                f"guard cover violated: branches at lines {lines} all fire "
                f"at state {state} in mode {mode!r}"
            )
        branch = hits[0]
        wenv = dict(zip(self.disturbance.component_names(), sample))
        params = {**control, **wenv}
        nxt = tuple(
            branch.update[v].eval(params, env) for v in self.state_vars
        )
        return nxt, branch.mode_to

    def with_control(self, values: Mapping[str, Fraction]) -> "StochModel":
        """The model at one control: `values` substituted into every guard
        and update, with no controls and no side constraints.

        Raises ValueError unless `values` names exactly the controls, each
        within its declared interval and all side constraints holding, and
        unless the guards of every mode then partition the state space.
        Only modes whose guards carried a control are checked: the others
        passed the same check at parse time.  A fault is reported with a
        state where it occurs."""
        values = {n: Fraction(v) for n, v in values.items()}
        declared = {c.name for c in self.controls}
        if set(values) != declared:
            raise ValueError(
                f"control values for {sorted(values)}, but the model "
                f"declares {sorted(declared)}"
            )
        for c in self.controls:
            if not c.lo <= values[c.name] <= c.hi:
                raise ValueError(
                    f"control {c.name} = {values[c.name]} lies outside "
                    f"[{c.lo}, {c.hi}]"
                )
        for atom in self.side_constraints:
            if not atom.holds(values, {}):
                raise ValueError(f"control breaks side constraint {atom}")
        branches = tuple(
            Branch(
                br.mode_from,
                br.mode_to,
                tuple(
                    Atom(a.form.substitute_params(values), a.rel)
                    for a in br.guard
                ),
                {v: f.substitute_params(values) for v, f in br.update.items()},
                br.line,
            )
            for br in self.branches
        )
        for mode in self.modes:
            old = [br for br in self.branches if br.mode_from == mode]
            if all(a.form.is_param_free() for br in old for a in br.guard):
                continue
            group = [br.guard for br in branches if br.mode_from == mode]
            fault = partition_fault(group, self.state_vars)
            if fault is not None:
                kind, _, point = fault
                at = format_state(point, self.state_vars)
                what = "overlap" if kind == "overlap" else "leave a gap"
                raise ValueError(
                    f"at this control the branch guards {what} in mode "
                    f"{mode!r}, at state {at}"
                )
        return StochModel(
            self.state_vars,
            self.modes,
            self.init_state,
            self.init_mode,
            self.disturbance,
            branches,
        )


# -- parsing -----------------------------------------------------------------


class _ModelBuilder:
    def __init__(self) -> None:
        self.state_dim: int | None = None
        self.vars: tuple[str, ...] | None = None
        self.modes: tuple[str, ...] | None = None
        self.init_env: dict[str, Fraction] | None = None
        self.init_mode: str | None = None
        self.disturbance: Disturbance | None = None
        self.controls: list[ControlParam] = []
        self.control_lines: list[int] = []  # the line of each control
        self.side_constraints: list[TokenStream] = []  # parsed in _finish
        self.branches: list[dict] = []
        self.current: dict | None = None  # open branch block
        # the line of the first statement of each keyword, for the errors
        # _finish finds once every statement is read
        self.lines: dict[str, int] = {}


def _parse_vector(ts: TokenStream) -> tuple[Fraction, ...]:
    """(n1, n2, ...) or a bare number (1-dimensional)."""
    if ts.peek().text == "(":
        ts.advance()
        vals = [parse_number(ts)]
        while ts.match(","):
            vals.append(parse_number(ts))
        ts.expect(")")
    else:
        vals = [parse_number(ts)]
    return tuple(vals)


def parse_model(text: str) -> StochModel:
    """Parse and fully validate a model document."""
    b = _ModelBuilder()
    for lineno, line in logical_lines(text):
        ts = TokenStream(tokenize(line, line=lineno))
        head = ts.peek()
        if head.kind != "ident":
            raise SourceError.at(head, "expected a statement keyword")
        if head.text in ("guard", "update"):
            _parse_block_line(b, ts)
        else:
            b.current = None
            _parse_statement(b, ts)
    return _finish(b)


def _parse_statement(b: _ModelBuilder, ts: TokenStream) -> None:
    key = ts.advance()
    b.lines.setdefault(key.text, key.line)
    if key.text == "state_dim":
        ts.expect(":")
        if b.state_dim is not None:
            raise ts.error("duplicate state_dim declaration")
        start = ts.peek()
        n = parse_number(ts)
        if n.denominator != 1 or n <= 0:
            raise SourceError.at(start, "state_dim must be a positive integer")
        b.state_dim = int(n)
    elif key.text == "vars":
        ts.expect(":")
        if b.vars is not None:
            raise ts.error("duplicate vars declaration")
        b.vars = parse_names(ts, "variable")
    elif key.text == "modes":
        ts.expect(":")
        if b.modes is not None:
            raise ts.error("duplicate modes declaration")
        b.modes = parse_names(ts, "mode")
    elif key.text == "init":
        ts.expect(":")
        if b.init_env is not None:
            raise ts.error("duplicate init declaration")
        env: dict[str, Fraction] = {}
        while True:
            name = ts.expect_ident()
            ts.expect("=")
            if name.text in env or (
                name.text == "mode" and b.init_mode is not None
            ):
                raise SourceError.at(name, f"duplicate init for {name.text!r}")
            if name.text == "mode":
                b.init_mode = ts.expect_ident("mode name").text
            else:
                env[name.text] = parse_number(ts)
            if not ts.match(","):
                break
        b.init_env = env
    elif key.text == "disturbance":
        ts.expect(":")
        if b.disturbance is not None:
            raise ts.error("duplicate disturbance declaration")
        name = ts.expect_ident("disturbance name").text
        kind = ts.expect_ident("'finite' or 'box'")
        if kind.text not in ("finite", "box"):
            raise SourceError.at(kind, "disturbance kind must be 'finite' or 'box'")
        brace = ts.expect("{")
        # a vector whose dimension differs from the first one's is reported
        # at its first token
        if kind.text == "finite":
            support: list[tuple[tuple[Fraction, ...], Fraction]] = []
            while True:
                start = ts.peek()
                value = _parse_vector(ts)
                if support and len(value) != len(support[0][0]):
                    raise SourceError.at(start, "support points of mixed dimension")
                ts.expect(":")
                start = ts.peek()
                prob = parse_number(ts)
                if prob <= 0:
                    raise SourceError.at(start, "probabilities must be positive")
                support.append((value, prob))
                if not ts.match(","):
                    break
            ts.expect("}")
            if sum(p for _, p in support) != 1:
                raise SourceError.at(brace, "probabilities sum != 1")
            b.disturbance = Disturbance(
                name, len(support[0][0]), support=tuple(support)
            )
        else:
            fields: dict[str, tuple[Fraction, ...]] = {}
            while True:
                field = ts.expect_ident("'lo', 'hi' or 'mean'")
                if field.text not in ("lo", "hi", "mean") or field.text in fields:
                    raise SourceError.at(field, "box needs exactly lo, hi, mean")
                ts.expect("=")
                start = ts.peek()
                value = _parse_vector(ts)
                if fields and len(value) != len(next(iter(fields.values()))):
                    raise SourceError.at(start, "box fields of mixed dimension")
                fields[field.text] = value
                if field.text == "mean":
                    mean_at = start
                if not ts.match(","):
                    break
            close = ts.expect("}")
            if len(fields) != 3:
                raise SourceError.at(close, "box needs exactly lo, hi, mean")
            lo, hi, mean = fields["lo"], fields["hi"], fields["mean"]
            if not all(l <= m <= h for l, m, h in zip(lo, mean, hi)):
                raise SourceError.at(
                    mean_at, "box requires lo <= mean <= hi per dimension"
                )
            b.disturbance = Disturbance(name, len(lo), lo=lo, hi=hi, mean=mean)
    elif key.text == "control":
        ts.expect(":")
        name = ts.expect_ident("control name")
        word = ts.expect_ident()
        if word.text != "in":
            raise SourceError.at(word, "expected 'in [lo, hi]'")
        bracket = ts.expect("[")
        lo = parse_number(ts)
        ts.expect(",")
        hi = parse_number(ts)
        ts.expect("]")
        if lo > hi:
            raise SourceError.at(bracket, "empty control interval")
        if any(c.name == name.text for c in b.controls):
            raise SourceError.at(name, f"duplicate control {name.text!r}")
        b.controls.append(ControlParam(name.text, lo, hi))
        b.control_lines.append(key.line)
    elif key.text == "constraint":
        ts.expect(":")
        b.side_constraints.append(ts)
    elif key.text == "branch":
        mode_from = ts.expect_ident("mode name")
        ts.expect("->")
        mode_to = ts.expect_ident("mode name")
        ts.expect(":")
        # the mode tokens are checked in _finish, once the modes are known
        blk = {
            "key": key,
            "from": mode_from,
            "to": mode_to,
            "guard": None,
            "update": None,
        }
        b.branches.append(blk)
        b.current = blk
    else:
        raise SourceError.at(key, f"unknown statement {key.text!r}")
    if key.text not in ("constraint",) and not ts.at_end():
        raise ts.error("trailing input")


def _parse_block_line(b: _ModelBuilder, ts: TokenStream) -> None:
    key = ts.advance()
    blk = b.current
    if blk is None:
        raise SourceError.at(key, f"{key.text!r} outside a branch block")
    if key.text == "guard":
        ts.expect(":")
        if blk["guard"] is not None:
            raise ts.error("duplicate guard")
        blk["guard"] = ts  # parsed in _finish once names are known
    elif key.text == "update":
        ts.expect(":")
        if blk["update"] is not None:
            raise ts.error("duplicate update")
        blk["update"] = ts


def _parse_updates(
    ts: TokenStream, state_vars: tuple[str, ...], resolve
) -> dict[str, LinForm]:
    out: dict[str, LinForm] = {}
    start = ts.peek()
    while True:
        name = ts.expect_ident("state variable")
        if name.text not in state_vars:
            raise SourceError.at(name, f"unknown state variable {name.text!r}")
        ts.expect("'")
        ts.expect("=")
        if name.text in out:
            raise SourceError.at(name, f"duplicate update for {name.text!r}")
        out[name.text] = parse_expression(ts, resolve)
        if not ts.match(","):
            break
    if not ts.at_end():
        raise ts.error("trailing input")
    missing = set(state_vars) - set(out)
    if missing:
        raise SourceError.at(start, f"missing update for {sorted(missing)}")
    return out


def _finish(b: _ModelBuilder) -> StochModel:
    if b.state_dim is None and b.vars is None:
        raise SourceError("missing state_dim or vars", 1, 1)
    if b.vars is None:
        assert b.state_dim is not None
        b.vars = (
            ("x",)
            if b.state_dim == 1
            else tuple(f"x{i}" for i in range(b.state_dim))
        )
    if b.state_dim is not None and len(b.vars) != b.state_dim:
        raise SourceError(
            f"state_dim {b.state_dim} != {len(b.vars)} declared vars",
            max(b.lines["state_dim"], b.lines["vars"]),
            1,
        )
    state_vars = b.vars
    modes = b.modes or (DEFAULT_MODE,)
    if b.disturbance is None:
        raise SourceError("missing disturbance declaration", 1, 1)
    dist = b.disturbance
    if b.init_env is None:
        raise SourceError("missing init declaration", 1, 1)
    init_line = b.lines["init"]
    if set(b.init_env) != set(state_vars):
        raise SourceError(
            f"init must assign exactly the state variables {state_vars}",
            init_line,
            1,
        )
    init_state = tuple(b.init_env[v] for v in state_vars)
    if b.init_mode is None:
        if len(modes) > 1:
            raise SourceError(
                "init must name a mode (several declared)", init_line, 1
            )
        b.init_mode = modes[0]
    if b.init_mode not in modes:
        raise SourceError(f"unknown init mode {b.init_mode!r}", init_line, 1)

    # the disturbance and each control add names; the first of them that
    # reuses a state variable, or (a control) a disturbance name, is where
    # the clash is reported
    state = set(state_vars)
    dist_names = {dist.name, *dist.component_names()}
    clashes = [(b.lines["disturbance"], dist_names & state)]
    clashes += [
        (ln, {c.name} & (state | dist_names))
        for c, ln in zip(b.controls, b.control_lines)
    ]
    clash_lines = [line for line, names in clashes if names]
    if clash_lines:
        name_clash = set().union(*(names for _, names in clashes))
        raise SourceError(
            f"name used twice: {sorted(name_clash)}", min(clash_lines), 1
        )

    # each name's form, built once: guards range over the state variables
    # and may carry control parameters; updates also read the disturbance
    # components, which ride along as parameters that the post-expectation
    # later substitutes or re-linearizes; side constraints read controls
    state_forms = {v: LinForm.var(v) for v in state_vars}
    control_forms = {
        c.name: LinForm.from_poly(Poly.param(c.name)) for c in b.controls
    }
    wnames = set(dist.component_names())
    guard_forms = {**state_forms, **control_forms}
    update_forms = {
        **guard_forms,
        **{w: LinForm.from_poly(Poly.param(w)) for w in dist.component_names()},
    }

    branches: list[Branch] = []
    for blk in b.branches:
        for mode in (blk["from"], blk["to"]):
            if mode.text not in modes:
                raise SourceError.at(mode, "unknown mode in branch header")
        if blk["guard"] is None:
            raise SourceError.at(blk["key"], "branch missing guard")
        if blk["update"] is None:
            raise SourceError.at(blk["key"], "branch missing update")
        atoms, tests = parse_conjunction(blk["guard"], guard_forms.get)
        if not blk["guard"].at_end():
            raise blk["guard"].error("trailing input")
        assert not tests
        start = blk["update"].peek()
        update = _parse_updates(blk["update"], state_vars, update_forms.get)
        # Post V takes each update monomial's disturbance moment
        # (`Disturbance.expectation`); a box knows only its mean, the
        # moment of a single factor, so no monomial may carry two
        if dist.kind == "box" and any(
            sum(n in wnames for n in mono) > 1
            for form in update.values()
            for poly in (*form.coeffs.values(), form.const)
            for mono in poly.terms
        ):
            raise SourceError.at(
                start,
                "box disturbance with a quadratic disturbance monomial "
                "in an update",
            )
        ends = blk["from"].text, blk["to"].text
        branches.append(Branch(*ends, tuple(atoms), update, blk["key"].line))
    if not branches:
        raise SourceError("model declares no branches", 1, 1)

    side: list[Atom] = []
    for ts in b.side_constraints:
        atoms, tests = parse_conjunction(ts, control_forms.get)
        if not ts.at_end():
            raise ts.error("trailing input")
        assert not tests
        side.extend(atoms)

    _check_guard_cover(state_vars, modes, branches, b.lines.get("modes", 1))

    return StochModel(
        state_vars=state_vars,
        modes=modes,
        init_state=init_state,
        init_mode=b.init_mode,
        disturbance=dist,
        branches=tuple(branches),
        controls=tuple(b.controls),
        side_constraints=tuple(side),
    )


# -- guard cover -------------------------------------------------------------


def format_state(
    point: Mapping[str, Fraction], variables: Iterable[str]
) -> str:
    """A state as `x = 1/2, y = 3`, in the order of `variables`."""
    return ", ".join(f"{v} = {point[v]}" for v in variables)


def negate_atom(atom: Atom) -> Atom:
    """Logical complement of an atom."""
    return Atom(-atom.form, Rel.LT if atom.rel == Rel.LE else Rel.LE)


def guards_cover_space(
    guards: list[tuple[Atom, ...]], variables: tuple[str, ...]
) -> tuple[bool, list[Atom], dict | None]:
    """Do the guards jointly cover R^n?  If not, return an uncovered
    region (conjunction of negated atoms, one per guard) and a point of it.

    The search is depth-first over one negated atom per guard, in product
    order; an empty partial region prunes every completion of it.  Each
    partial region is screened by `lp.defining_atoms` (a box of atoms, as
    every corpus guard gives, is decided from the atoms' cached bounds
    with no LP built), and `lp.solve` gives a point of the region found."""
    negated = [[negate_atom(a) for a in g] for g in guards]

    def extend(region: list[Atom]) -> list[Atom] | None:
        if len(region) == len(negated):
            return region
        for atom in negated[len(region)]:
            narrowed = region + [atom]
            if lp.defining_atoms(narrowed, variables) is not None:
                found = extend(narrowed)
                if found is not None:
                    return found
        return None

    region = extend([])
    if region is None:
        return True, [], None
    return False, region, _point(region, variables)


def _point(atoms: list[Atom], variables: tuple[str, ...]) -> dict:
    """The point `lp.solve` gives a satisfiable conjunction."""
    res = lp.solve(lp.system_from_atoms(atoms, variables))
    return {v: res.assignment[v] for v in variables}


def partition_fault(
    guards: list[tuple[Atom, ...]], variables: tuple[str, ...]
) -> tuple[str, object, dict] | None:
    """None when the guards partition R^n.  Otherwise the first fault with
    a point of it: ('overlap', (i, j), point) for guards i < j that both
    hold there, or ('gap', region, point) for a region no guard covers.
    Each pair is screened by `lp.defining_atoms`; a point is built for
    the overlap found."""
    for i, j in itertools.combinations(range(len(guards)), 2):
        both = list(guards[i] + guards[j])
        if lp.defining_atoms(both, variables) is not None:
            return "overlap", (i, j), _point(both, variables)
    ok, region, point = guards_cover_space(guards, variables)
    return None if ok else ("gap", region, point)


def _check_guard_cover(
    state_vars: tuple[str, ...],
    modes: tuple[str, ...],
    branches: list[Branch],
    modes_line: int,
) -> None:
    """Disjointness and exhaustiveness per mode; modes whose guards carry
    a parameter are exempted from the check.  A mode with no branch is
    reported at `modes_line`, where the modes are declared."""
    for mode in modes:
        group = [br for br in branches if br.mode_from == mode]
        if not group:
            raise SourceError(
                f"mode {mode!r} has no branches", modes_line, 1
            )
        if not all(a.form.is_param_free() for br in group for a in br.guard):
            continue
        fault = partition_fault([br.guard for br in group], state_vars)
        if fault is None:
            continue
        kind, where, point = fault
        at = format_state(point, state_vars)
        if kind == "overlap":
            b1, b2 = group[where[0]], group[where[1]]
            raise SourceError(
                f"branch guards overlap in mode {mode!r} at state {at} "
                f"(lines {b1.line} and {b2.line})",
                b2.line,
                1,
            )
        desc = " and ".join(str(a) for a in where)
        raise SourceError(
            f"branch guards do not cover mode {mode!r}: "
            f"uncovered region {{{desc}}}, e.g. state {at}",
            group[0].line,
            1,
        )
