"""Decision backends for assembled constraint systems.

Two routes: all-linear systems are decided by the internal exact-rational
simplex; anything else goes to a QF_NRA decision procedure.  Either way a
sat verdict is re-checked by exact substitution before it is reported.

The QF_NRA solver is chosen in this order: the explicit ``solver``
argument, then the STREETTSM_SOLVER environment variable, each naming an
external executable that is fed SMT-LIB2 over a stdin/stdout subprocess
protocol; with neither set, the bundled ``smtsolver.decide`` runs in
process on the constraint system itself, with no SMT-LIB text in between.
"""

from __future__ import annotations

import itertools
import os
import subprocess
from dataclasses import dataclass
from fractions import Fraction

from . import lp, smtsolver
from .expr import ParamKind, Poly, Rel
from .farkas import ConstraintSystem, Disjunction, PolyConstraint

_ZERO = Fraction(0)

SOLVER_ENV_VAR = "STREETTSM_SOLVER"


class BackendError(Exception):
    """Solver misbehavior: bad exit, unparseable output, lying model."""


@dataclass(frozen=True)
class SolverJob:
    system: ConstraintSystem
    backend: str = "auto"  # smt | lp | auto
    # seconds, external solver subprocess only; the in-process bundled
    # solver is bounded by smtsolver.RESTARTS x smtsolver.ROUNDS instead
    timeout: float | None = None
    solver: str | None = None  # executable; None -> env var -> in process
    logic: str = "QF_NRA"


@dataclass(frozen=True)
class Verdict:
    status: str  # sat | unsat | unknown
    valuation: dict[str, Fraction] | None = None  # non-multiplier params
    witness: dict[str, Fraction] | None = None  # total, exactly re-checked
    ray: list[Fraction] | None = None  # infeasibility certificate (LP route)
    reason: str = ""


# -- SMT-LIB2 emission ---------------------------------------------------------


def smt_rational(q: Fraction) -> str:
    """Exact literal: integers plain, otherwise a quotient, never a decimal."""
    if q < 0:
        return f"(- {smt_rational(-q)})"
    if q.denominator == 1:
        return str(q.numerator)
    return f"(/ {q.numerator} {q.denominator})"


def smt_poly(p: Poly) -> str:
    if not p.terms:
        return "0"
    parts = []
    for mono, coeff in sorted(p.terms.items()):
        if not mono:
            parts.append(smt_rational(coeff))
        elif coeff == 1 and len(mono) == 1:
            parts.append(mono[0])
        elif coeff == 1:
            parts.append(f"(* {' '.join(mono)})")
        else:
            parts.append(f"(* {smt_rational(coeff)} {' '.join(mono)})")
    if len(parts) == 1:
        return parts[0]
    return f"(+ {' '.join(parts)})"


_REL_OP = {Rel.LE: "<=", Rel.LT: "<", Rel.EQ: "="}


def smt_constraint(c: PolyConstraint) -> str:
    return f"({_REL_OP[c.rel]} {smt_poly(c.poly)} 0)"


def _smt_branch(constraints: tuple[PolyConstraint, ...]) -> str:
    if not constraints:
        return "true"
    return f"(and {' '.join(smt_constraint(c) for c in constraints)})"


def emit_smtlib(system: ConstraintSystem, logic: str = "QF_NRA") -> str:
    """The whole decision problem as one SMT-LIB2 script.

    Every parameter is declared as a Real; the model query asks for the
    non-multiplier parameters only (certificate content, not Farkas z's).
    """
    lines = [f"(set-logic {logic})"]
    for p in system.params:
        lines.append(f"(declare-const {p.name} Real)")
    for item in system.constraints:
        if isinstance(item, Disjunction):
            body = f"(or {_smt_branch(item.left)} {_smt_branch(item.right)})"
        else:
            body = smt_constraint(item)
        lines.append(f"(assert {body})")
    lines.append("(check-sat)")
    reported = [
        p.name for p in system.params if p.kind != ParamKind.MULTIPLIER
    ]
    if reported:
        lines.append(f"(get-value ({' '.join(reported)}))")
    lines.append("(exit)")
    return "\n".join(lines) + "\n"


# -- solver output parsing -----------------------------------------------------


def _tokenize_sexp(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _parse_sexp(tokens: list[str], pos: int):
    if tokens[pos] == "(":
        out = []
        pos += 1
        while tokens[pos] != ")":
            node, pos = _parse_sexp(tokens, pos)
            out.append(node)
        return out, pos + 1
    return tokens[pos], pos + 1


def sexp_rational(node) -> Fraction:
    """Numeric model values: ints, decimals, (/ p q), (- v), nestings."""
    if isinstance(node, str):
        return Fraction(node)  # handles '3', '-3', '0.125'
    if isinstance(node, list) and node:
        if node[0] == "-" and len(node) == 2:
            return -sexp_rational(node[1])
        if node[0] == "/" and len(node) == 3:
            return sexp_rational(node[1]) / sexp_rational(node[2])
    raise BackendError(f"unparseable numeric value {node!r}")


def parse_solver_output(text: str) -> tuple[str, dict[str, Fraction]]:
    """(status, model values) from a solver's stdout."""
    status = None
    for line in text.splitlines():
        word = line.strip()
        if word in ("sat", "unsat", "unknown"):
            status = word
            break
    if status is None:
        raise BackendError(f"no sat/unsat/unknown in solver output: {text!r}")
    values: dict[str, Fraction] = {}
    if status == "sat":
        rest = text[text.index(status) + len(status):]
        stripped = rest.strip()
        if stripped.startswith("("):
            tokens = _tokenize_sexp(stripped)
            node, _ = _parse_sexp(tokens, 0)
            for pair in node:
                if not (isinstance(pair, list) and len(pair) == 2):
                    raise BackendError(f"malformed model entry {pair!r}")
                name, value = pair
                values[name] = sexp_rational(value)
    return status, values


def _external_solver(solver: str | None) -> str | None:
    """The external executable to run, or None for the in-process one."""
    return solver or os.environ.get(SOLVER_ENV_VAR) or None


def run_solver(
    smt_text: str,
    solver: str | None = None,
    timeout: float | None = None,
) -> tuple[str, dict[str, Fraction]]:
    """Feed the script to an external solver; timeout maps to 'unknown'."""
    cmd = _external_solver(solver)
    if cmd is None:
        raise BackendError(
            f"no external solver configured: pass one or set {SOLVER_ENV_VAR}"
        )
    try:
        proc = subprocess.run(
            [cmd],
            input=smt_text,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return "unknown", {}
    except OSError as exc:
        raise BackendError(f"cannot run solver {cmd!r}: {exc}")
    if proc.returncode != 0:
        raise BackendError(
            f"solver {cmd!r} exited {proc.returncode}: {proc.stderr.strip()}"
        )
    return parse_solver_output(proc.stdout)


# -- exact simplex route -------------------------------------------------------


def _linear_row(poly: Poly, names: list[str]):
    coeffs = dict.fromkeys(names, _ZERO)
    const = _ZERO
    for mono, coeff in poly.terms.items():
        if len(mono) == 0:
            const += coeff
        elif len(mono) == 1:
            coeffs[mono[0]] += coeff
        else:
            raise ValueError(f"nonlinear monomial {mono} in linear route")
    return [coeffs[n] for n in names], const


def simplex_solve(system: ConstraintSystem) -> Verdict:
    """Exact LP decision of an all-linear system."""
    if not system.all_linear():
        raise ValueError(
            "lp backend needs an all-linear system "
            "(degree <= 1, no disjunctions)"
        )
    names = [p.name for p in system.params]
    if not names:
        ok = system.holds({})
        return Verdict(status="sat" if ok else "unsat",
                       valuation={} if ok else None,
                       witness={} if ok else None)
    linear = lp.LinearSystem(list(names))
    for item in system.constraints:
        assert isinstance(item, PolyConstraint)
        row, const = _linear_row(item.poly, names)
        linear.add(row, _REL_OP[item.rel], -const)
    res = lp.solve_strict(linear)
    if res.status == "infeasible":
        return Verdict(status="unsat", ray=res.farkas)
    assert res.status == "optimal"
    witness = {n: res.assignment.get(n, _ZERO) for n in names}
    if not system.holds(witness):
        raise BackendError("simplex point fails exact re-check")
    return Verdict(
        status="sat", valuation=_reported(system, witness), witness=witness
    )


def _reported(system: ConstraintSystem, witness) -> dict[str, Fraction]:
    return {
        p.name: witness[p.name]
        for p in system.params
        if p.kind != ParamKind.MULTIPLIER
    }


# -- completing a partial model over the multipliers ---------------------------


def _propagate_equalities(system, known) -> None:
    """Pin parameters forced by single-unknown linear equalities (the
    product-variable definitions of the QCP rewrite, in particular)."""
    eqs = [
        c
        for c in system.constraints
        if isinstance(c, PolyConstraint) and c.rel == Rel.EQ
    ]
    changed = True
    while changed:
        changed = False
        for c in eqs:
            residual = c.poly.substitute(known)
            unknowns = residual.params()
            if len(unknowns) != 1:
                continue
            if any(len(m) > 1 for m in residual.terms):
                continue
            (name,) = unknowns
            slope = residual.terms.get((name,), _ZERO)
            if not slope:
                continue
            known[name] = -residual.terms.get((), _ZERO) / slope
            changed = True


def _components(items):
    """Group residual constraints by shared unknown parameters."""
    parent: dict[str, str] = {}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    tagged = []
    for item, unknowns in items:
        first = None
        for name in unknowns:
            parent.setdefault(name, name)
            if first is None:
                first = name
            else:
                union(first, name)
        tagged.append((item, unknowns))
    groups: dict[str, list] = {}
    for item, unknowns in tagged:
        root = find(next(iter(unknowns)))
        groups.setdefault(root, []).append((item, unknowns))
    return list(groups.values())


def _solve_component(group, known) -> dict[str, Fraction] | None:
    names = sorted({n for _, unknowns in group for n in unknowns})
    plain: list[PolyConstraint] = []
    branched: list[Disjunction] = []
    for item, _ in group:
        sub = _substitute_item(item, known)
        if isinstance(sub, Disjunction):
            branched.append(sub)
        else:
            plain.append(sub)
    if len(branched) > 6:
        raise BackendError("re-check: too many entangled disjunctions")
    for choice in itertools.product(*([d.left, d.right] for d in branched)):
        rows = list(plain)
        for branch in choice:
            rows.extend(branch)
        linear = lp.LinearSystem(list(names))
        try:
            for c in rows:
                row, const = _linear_row(c.poly, names)
                linear.add(row, _REL_OP[c.rel], -const)
        except ValueError:
            continue  # nonlinear under this substitution: not solvable here
        res = lp.solve_strict(linear)
        if res.status == "optimal":
            return {n: res.assignment.get(n, _ZERO) for n in names}
    return None


def _substitute_item(item, known):
    if isinstance(item, Disjunction):
        return Disjunction(
            tuple(
                PolyConstraint(c.poly.substitute(known), c.rel)
                for c in item.left
            ),
            tuple(
                PolyConstraint(c.poly.substitute(known), c.rel)
                for c in item.right
            ),
        )
    return PolyConstraint(item.poly.substitute(known), item.rel)


def extend_and_check(
    system: ConstraintSystem, values: dict[str, Fraction]
) -> dict[str, Fraction] | None:
    """Grow a reported model to a total one and verify it exactly.

    Solver models cover the certificate parameters only; the Farkas
    multipliers they omit are re-derived here (equality propagation, then
    exact LP per independent block).  Returns the total valuation, or None
    when the reported values admit no completion.
    """
    known = dict(values)
    _propagate_equalities(system, known)
    residual = []
    for item in system.constraints:
        if isinstance(item, Disjunction):
            unknowns = {
                n
                for c in item.left + item.right
                for n in c.poly.params()
                if n not in known
            }
        else:
            unknowns = {n for n in item.poly.params() if n not in known}
        if unknowns:
            residual.append((item, unknowns))
        elif not _substitute_item(item, known).holds({}):
            return None
    for group in _components(residual):
        extension = _solve_component(group, known)
        if extension is None:
            return None
        known.update(extension)
    for p in system.params:
        known.setdefault(p.name, _ZERO)
    return known if system.holds(known) else None


# -- the bundled solver, in process ---------------------------------------------


def _bundled_row(c: PolyConstraint) -> smtsolver.Lin:
    return smtsolver.Lin(c.poly, _REL_OP[c.rel])


def bundled_solve(system: ConstraintSystem) -> Verdict:
    """Decide the system with ``smtsolver.decide`` as a function call.

    The bundled solver values every parameter, multipliers included, so
    only the exact re-check stands between its model and a sat verdict.
    """
    constraints = [
        smtsolver.Or(
            (
                tuple(_bundled_row(c) for c in item.left),
                tuple(_bundled_row(c) for c in item.right),
            )
        )
        if isinstance(item, Disjunction)
        else _bundled_row(item)
        for item in system.constraints
    ]
    status, model = smtsolver.decide(
        [p.name for p in system.params], constraints
    )
    if status != "sat":
        return Verdict(status=status)
    witness = {p.name: model[p.name] for p in system.params}
    if not system.holds(witness):
        raise BackendError("bundled solver model fails the exact re-check")
    return Verdict(
        status="sat", valuation=_reported(system, witness), witness=witness
    )


# -- the one entry point -------------------------------------------------------


def decide(job: SolverJob) -> Verdict:
    system = job.system
    backend = job.backend
    if backend == "auto":
        backend = "lp" if system.all_linear() else "smt"
    if backend == "lp":
        return simplex_solve(system)
    if backend != "smt":
        raise ValueError(f"unknown backend {job.backend!r}")
    solver = _external_solver(job.solver)
    if solver is None:
        return bundled_solve(system)
    text = emit_smtlib(system, logic=job.logic)
    status, values = run_solver(text, solver=solver, timeout=job.timeout)
    if status != "sat":
        return Verdict(status=status)
    witness = extend_and_check(system, values)
    if witness is None:
        raise BackendError("solver model fails the exact re-check")
    return Verdict(
        status="sat", valuation=_reported(system, witness), witness=witness
    )
