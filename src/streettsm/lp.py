"""Exact-rational linear programming.

A small two-phase full-tableau simplex with Bland's rule, working directly
on fractions.Fraction.  It decides feasibility and optimization of systems

    sum_j a_ij x_j  (<= | =)  b_i

and produces certificates both ways: a feasible (optimal) point, an
improving ray for unbounded objectives, or a Farkas ray proving
infeasibility (multipliers y with y_i >= 0 on inequality rows,
y^T A = 0 and y^T b < 0), one entry per input row.

Tableau layout.  Variables are free unless a row bounds their sign: the
first row of the form  -a x_j <= 0  (a > 0) for a variable is taken as the
bound x_j >= 0, leaves the tableau, and gives x_j a single column.  Every
other variable is split as x = u - w over two columns.  Farkas
multipliers, which make up most of every synthesized system, thereby cost
one column instead of two columns, a row, a slack and an artificial.  A
`<=` row with rhs >= 0 starts with its slack in the basis; only `=` rows
and rows flipped to a non-negative rhs get an artificial, and phase 1 is
skipped when no row has one.  Points and rays are read back through the
per-variable column map.

Farkas rays.  On an infeasible phase 1 the duals pi of the final basis
give the ray: pi_i is minus the reduced cost of row i's slack for a
slack-started row, and 1 minus the reduced cost of its artificial
otherwise; y_i is -pi_i, with the sign of a flipped row undone.  Phase-1
optimality leaves sum_i y_i a_ij >= 0 on a sign-bounded column, so the
multiplier of its removed bound row  -a x_j <= 0  is
(sum_i y_i a_ij) / a >= 0, which restores y^T A = 0 over the input rows.

Strict inequalities are handled by a slack-maximization transform:
max t subject to strict rows tightened by t and t <= 1; the strict system
is feasible iff the optimum is positive.  This is how guard disjointness,
automaton totality and premise screening are decided exactly.

Everything is deterministic; Bland's rule guarantees termination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Literal, Sequence

from .expr import Atom

Row = list[Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass
class LinearSystem:
    """Constraint rows over named variables."""

    variables: list[str]
    # (coeffs aligned with `variables`, rel in {"<=", "<", "="}, rhs)
    rows: list[tuple[Row, str, Fraction]] = field(default_factory=list)

    def add(self, coeffs: Sequence[Fraction], rel: str, rhs) -> None:
        if len(coeffs) != len(self.variables):
            raise ValueError("coefficient/variable length mismatch")
        if rel not in ("<=", "<", "="):
            raise ValueError(f"unsupported relation {rel!r}")
        self.rows.append(
            ([Fraction(c) for c in coeffs], rel, Fraction(rhs))
        )


@dataclass
class LPResult:
    status: Literal["optimal", "unbounded", "infeasible"]
    assignment: dict[str, Fraction] | None = None
    value: Fraction | None = None
    ray: dict[str, Fraction] | None = None
    farkas: list[Fraction] | None = None


def _sign_bounds(rows: list[tuple[Row, str, Fraction]]) -> dict[int, int]:
    """Variable index -> the first input row  -a x_j <= 0  (a > 0)."""
    bound_row: dict[int, int] = {}
    for i, (coeffs, rel, rhs) in enumerate(rows):
        if rel != "<=" or rhs != 0:
            continue
        support = [j for j, cf in enumerate(coeffs) if cf]
        if (
            len(support) == 1
            and coeffs[support[0]] < 0
            and support[0] not in bound_row
        ):
            bound_row[support[0]] = i
    return bound_row


def solve(
    system: LinearSystem,
    objective: Sequence[Fraction] | None = None,
    maximize: bool = True,
) -> LPResult:
    """Feasibility / optimization of a system of `<=` and `=` rows.

    With no objective: any feasible point (status 'optimal', value 0) or
    'infeasible' with a Farkas ray aligned with the input rows.
    """
    if any(rel == "<" for _, rel, _ in system.rows):
        raise ValueError("strict rows: use solve_strict()")

    rows = system.rows
    nvars = len(system.variables)
    bound_row = _sign_bounds(rows)
    bound_rows = set(bound_row.values())
    kept = [i for i in range(len(rows)) if i not in bound_rows]
    m = len(kept)

    # one column per sign-bounded variable, u - w per free one
    col_of: list[int] = []
    ncols = 0
    for j in range(nvars):
        col_of.append(ncols)
        ncols += 1 if j in bound_row else 2
    slack_of_row: dict[int, int] = {}
    for r, i in enumerate(kept):
        if rows[i][1] == "<=":
            slack_of_row[r] = ncols
            ncols += 1
    n_real = ncols
    art_of_row: dict[int, int] = {}
    for r, i in enumerate(kept):
        _, rel, rhs = rows[i]
        if rel == "=" or rhs < 0:
            art_of_row[r] = ncols
            ncols += 1
    total = ncols

    a: list[Row] = []
    b: list[Fraction] = []
    basis: list[int] = []
    flipped: list[bool] = []
    for r, i in enumerate(kept):
        coeffs, rel, rhs = rows[i]
        row = [_ZERO] * total
        for j, cf in enumerate(coeffs):
            if cf:
                row[col_of[j]] = cf
                if j not in bound_row:
                    row[col_of[j] + 1] = -cf
        if rel == "<=":
            row[slack_of_row[r]] = _ONE
        flip = rhs < 0
        if flip:
            row = [-v for v in row]
            rhs = -rhs
        if r in art_of_row:
            row[art_of_row[r]] = _ONE
            basis.append(art_of_row[r])
        else:
            basis.append(slack_of_row[r])
        a.append(row)
        b.append(rhs)
        flipped.append(flip)

    def pivot(r: int, c: int) -> None:
        arow = a[r]
        piv = arow[c]
        if piv != 1:
            inv = _ONE / piv
            a[r] = arow = [v * inv for v in arow]
            b[r] *= inv
        # only the pivot row's nonzero columns change the other rows
        support = [(j, v) for j, v in enumerate(arow) if v]
        for i in range(m):
            if i != r:
                row = a[i]
                f = row[c]
                if f:
                    for j, v in support:
                        row[j] -= f * v
                    b[i] -= f * b[r]
        f = obj[c]
        if f:
            for j, v in support:
                obj[j] -= f * v
        basis[r] = c

    def run_simplex(allowed: int) -> int | None:
        """Min the current obj over columns [0, allowed) by Bland's rule:
        None at an optimum, else the entering column of an unbounded
        direction."""
        while True:
            entering = -1
            for j in range(allowed):
                if obj[j] < 0:
                    entering = j
                    break
            if entering < 0:
                return None
            leave = -1
            best: Fraction | None = None
            for i in range(m):
                coef = a[i][entering]
                if coef > 0:
                    ratio = b[i] / coef
                    if (
                        best is None
                        or ratio < best
                        or (ratio == best and basis[i] < basis[leave])
                    ):
                        best = ratio
                        leave = i
            if leave < 0:
                return entering
            pivot(leave, entering)

    # objective row held as reduced costs c_j - c_B^T B^{-1} A_j; phase 1
    # minimizes the sum of artificials, which start basic at cost 1
    obj = [_ZERO] * total
    if art_of_row:
        for r in art_of_row:
            for j, v in enumerate(a[r]):
                if v:
                    obj[j] -= v
        for c in art_of_row.values():
            obj[c] += _ONE
        unbounded = run_simplex(total)
        assert unbounded is None  # phase 1 is bounded below by 0
        if sum((b[r] for r in range(m) if basis[r] >= n_real), _ZERO) > 0:
            # Farkas ray from the phase-1 duals, see the module docstring
            farkas = [_ZERO] * len(rows)
            for r, i in enumerate(kept):
                if r in art_of_row:
                    pi = _ONE - obj[art_of_row[r]]
                else:
                    pi = -obj[slack_of_row[r]]
                farkas[i] = pi if flipped[r] else -pi
            for j, i in bound_row.items():
                residual = sum(
                    (farkas[k] * rows[k][0][j] for k in kept), _ZERO
                )
                farkas[i] = residual / -rows[i][0][j]
            return LPResult(status="infeasible", farkas=farkas)

        # drop redundant rows whose artificial cannot leave the basis
        drop: list[int] = []
        for r in range(m):
            if basis[r] >= n_real:
                piv_col = next(
                    (j for j in range(n_real) if a[r][j] != 0), None
                )
                if piv_col is not None:
                    pivot(r, piv_col)
                else:
                    drop.append(r)
        for r in sorted(drop, reverse=True):
            del a[r], b[r], basis[r]
        m = len(basis)
        for row in a:  # phase 2 never lets an artificial re-enter
            del row[n_real:]

    def to_variables(vals: dict[int, Fraction]) -> dict[str, Fraction]:
        out = {}
        for j, v in enumerate(system.variables):
            c = col_of[j]
            x = vals.get(c, _ZERO)
            if j not in bound_row:
                x -= vals.get(c + 1, _ZERO)
            out[v] = x
        return out

    def extract_point() -> dict[str, Fraction]:
        return to_variables({bi: b[i] for i, bi in enumerate(basis)})

    if objective is None:
        return LPResult(
            status="optimal", assignment=extract_point(), value=_ZERO
        )

    # phase 2
    sign = -_ONE if maximize else _ONE
    cost2 = [_ZERO] * n_real
    for j, cf in enumerate(objective):
        if cf:
            cost2[col_of[j]] = sign * Fraction(cf)
            if j not in bound_row:
                cost2[col_of[j] + 1] = -sign * Fraction(cf)
    obj = list(cost2)
    for i, bi in enumerate(basis):
        cb = cost2[bi]
        if cb:
            for j, v in enumerate(a[i]):
                if v:
                    obj[j] -= cb * v

    entering = run_simplex(n_real)
    if entering is not None:
        ray_vals: dict[int, Fraction] = {entering: _ONE}
        for i, bi in enumerate(basis):
            if a[i][entering]:
                ray_vals[bi] = -a[i][entering]
        return LPResult(
            status="unbounded",
            assignment=extract_point(),
            ray=to_variables(ray_vals),
        )
    objval = sum((cost2[bi] * b[i] for i, bi in enumerate(basis)), _ZERO)
    value = -objval if maximize else objval
    return LPResult(
        status="optimal", assignment=extract_point(), value=value
    )


def feasible(system: LinearSystem) -> LPResult:
    return solve(system, objective=None)


def solve_strict(system: LinearSystem) -> LPResult:
    """Decide a system containing strict rows, exactly.

    Maximize t with strict rows tightened by t and t <= 1: strictly
    feasible iff the optimum is positive.  The returned point satisfies
    every strict row with positive margin.
    """
    if not any(rel == "<" for _, rel, _ in system.rows):
        return feasible(system)
    aug = LinearSystem(system.variables + ["__t"])
    for coeffs, rel, rhs in system.rows:
        if rel == "<":
            aug.add(list(coeffs) + [_ONE], "<=", rhs)
        else:
            aug.add(list(coeffs) + [_ZERO], rel, rhs)
    nv = len(system.variables)
    aug.add([_ZERO] * nv + [_ONE], "<=", _ONE)
    res = solve(aug, objective=[_ZERO] * nv + [_ONE], maximize=True)
    if res.status == "infeasible" or (
        res.status == "optimal" and (res.value is None or res.value <= 0)
    ):
        return LPResult(status="infeasible")
    assignment = dict(res.assignment or {})
    assignment.pop("__t", None)
    return LPResult(status="optimal", assignment=assignment, value=_ZERO)


def system_from_atoms(
    atoms: Sequence[Atom], variables: Sequence[str]
) -> LinearSystem:
    """Parameter-free comparison atoms as LP rows (strictness preserved)."""
    out = LinearSystem(list(variables))
    for atom in atoms:
        for le in atom.normalized_le():
            coeffs = []
            for v in variables:
                p = le.form.coeff(v)
                if not p.is_constant():
                    raise ValueError(f"parameter-bearing coefficient on {v}")
                coeffs.append(p.constant_value())
            extra = le.form.variables() - set(variables)
            if extra:
                raise ValueError(f"atom mentions undeclared variables {extra}")
            if not le.form.const.is_constant():
                raise ValueError("parameter-bearing constant term")
            rhs = -le.form.const.constant_value()
            out.add(coeffs, "<" if le.strict() else "<=", rhs)
    return out


def atoms_feasible(
    atoms: Sequence[Atom], variables: Sequence[str]
) -> LPResult:
    """Exact satisfiability of a conjunction, strict atoms honored."""
    return solve_strict(system_from_atoms(atoms, variables))


def check_implication(
    premise: LinearSystem,
    conclusion_coeffs: Sequence[Fraction],
    conclusion_rhs: Fraction,
) -> tuple[bool, dict[str, Fraction] | None]:
    """Decide `forall y: premise(y) => c^T y <= d` over concrete rationals.

    Maximize c^T y over the premise polyhedron: valid iff the premise is
    infeasible or the maximum is <= d.  When invalid, the returned witness
    satisfies the premise and violates the conclusion.
    """
    res = solve(premise, objective=conclusion_coeffs, maximize=True)
    if res.status == "infeasible":
        return True, None
    if res.status == "optimal":
        assert res.value is not None
        if res.value <= conclusion_rhs:
            return True, None
        return False, res.assignment
    # unbounded: walk the improving ray until the conclusion breaks
    base = res.assignment or {}
    ray = res.ray or {}
    names = premise.variables
    cval = sum(
        (Fraction(conclusion_coeffs[j]) * base.get(v, _ZERO)
         for j, v in enumerate(names)),
        _ZERO,
    )
    cray = sum(
        (Fraction(conclusion_coeffs[j]) * ray.get(v, _ZERO)
         for j, v in enumerate(names)),
        _ZERO,
    )
    assert cray > 0
    k = 0
    while cval + k * cray <= conclusion_rhs:
        k += 1
    witness = {
        v: base.get(v, _ZERO) + k * ray.get(v, _ZERO) for v in names
    }
    return False, witness
