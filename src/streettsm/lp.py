"""Exact-rational linear programming.

A small two-phase full-tableau simplex with Bland's rule.  It decides
feasibility and optimization of systems

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

Integer rows.  The tableau holds no fractions.  Each row is a sparse
{column: int} map with an int rhs, a positive multiple of the true row:
scaled by the lcm of its denominators when built, and divided by the gcd
of its entries after every update.  The basic column's entry is that
multiple, so it stays positive; a pivot row whose pivot is negative is
negated first, which happens only when a redundant artificial row is
pivoted out at rhs 0.  A positive scale changes neither the sign of an
entry nor a ratio b_i / a_ic, so entering columns are chosen by sign and
the ratio test cross-multiplies; the pivot sequence is the one a
Fraction tableau would take.  The objective row is an int map over one
positive denominator.  Its reduced costs c_j - c_B^T B^{-1} A_j depend on
the basis only, not on how its rows are scaled, so the duals read from
them (and so the Farkas ray) are those of the Fraction tableau.
Fractions appear only at the edges: the point, the rays and the optimum.

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
from math import gcd, lcm
from typing import Literal, Sequence

from .expr import Atom

Row = list[Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _frac(x) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)


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
        self.rows.append(([_frac(c) for c in coeffs], rel, _frac(rhs)))


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


def _reduce(row: dict[int, int], rhs: int) -> tuple[dict[int, int], int]:
    """Divide a row and its rhs by the gcd of their entries."""
    g = gcd(*row.values(), rhs)
    if g > 1:
        return {j: v // g for j, v in row.items()}, rhs // g
    return row, rhs


def _eliminate(
    row: dict[int, int], rhs: int, prow: dict[int, int], prhs: int, c: int
) -> tuple[dict[int, int], int]:
    """Clear column c of `row` with the pivot row `prow`, whose entry at c
    is positive: a positive multiple of  row - (row_c / prow_c) prow,
    reduced.  May update `row` in place."""
    p, f = prow[c], row[c]
    g = gcd(p, f)
    mp, mf = p // g, f // g
    if mp != 1:
        row = {j: v * mp for j, v in row.items()}
    for j, v in prow.items():
        w = row.get(j, 0) - mf * v
        if w:
            row[j] = w
        else:
            del row[j]
    return _reduce(row, rhs * mp - mf * prhs)


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

    # integer rows, see the module docstring
    a: list[dict[int, int]] = []
    b: list[int] = []
    basis: list[int] = []
    flipped: list[bool] = []
    for r, i in enumerate(kept):
        coeffs, rel, rhs = rows[i]
        # a negative scale flips the row to a non-negative rhs
        flip = rhs < 0
        scale = lcm(rhs.denominator, *(cf.denominator for cf in coeffs if cf))
        if flip:
            scale = -scale
        row: dict[int, int] = {}
        for j, cf in enumerate(coeffs):
            if cf:
                v = cf.numerator * (scale // cf.denominator)
                row[col_of[j]] = v
                if j not in bound_row:
                    row[col_of[j] + 1] = -v
        if rel == "<=":
            row[slack_of_row[r]] = scale
        if r in art_of_row:
            row[art_of_row[r]] = abs(scale)
            basis.append(art_of_row[r])
        else:
            basis.append(slack_of_row[r])
        row, rhs_int = _reduce(row, rhs.numerator * (scale // rhs.denominator))
        a.append(row)
        b.append(rhs_int)
        flipped.append(flip)

    # objective row: reduced costs c_j - c_B^T B^{-1} A_j as obj[j] / den,
    # kept up to date by every pivot; no zero entry is ever stored
    obj: dict[int, int] = {}
    den = 1

    def pivot(r: int, c: int) -> None:
        nonlocal obj, den
        prow = a[r]
        if prow[c] < 0:  # a redundant artificial row, rhs 0
            a[r] = prow = {j: -v for j, v in prow.items()}
        for i in range(m):
            if i != r and c in a[i]:
                a[i], b[i] = _eliminate(a[i], b[i], prow, b[r], c)
        if c in obj:
            obj, den = _eliminate(obj, den, prow, 0, c)
        basis[r] = c

    def run_simplex() -> int | None:
        """Min the current obj by Bland's rule: None at an optimum, else
        the entering column of an unbounded direction."""
        while True:
            entering = min((j for j, v in obj.items() if v < 0), default=-1)
            if entering < 0:
                return None
            leave = -1
            for i in range(m):
                coef = a[i].get(entering, 0)
                if coef > 0:
                    # b_i / coef against the best b_l / a_l, cross-multiplied
                    if leave < 0:
                        leave, best_b, best_a = i, b[i], coef
                        continue
                    lhs, rhs = b[i] * best_a, best_b * coef
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                        leave, best_b, best_a = i, b[i], coef
            if leave < 0:
                return entering
            pivot(leave, entering)

    if art_of_row:
        # phase 1 minimizes the sum of the artificials, which start basic
        obj = dict.fromkeys(art_of_row.values(), 1)
        for r, c in art_of_row.items():
            obj, den = _eliminate(obj, den, a[r], 0, c)
        unbounded = run_simplex()
        assert unbounded is None  # phase 1 is bounded below by 0
        if any(b[r] > 0 for r in range(m) if basis[r] >= n_real):
            # Farkas ray from the phase-1 duals, see the module docstring
            farkas = [_ZERO] * len(rows)
            for r, i in enumerate(kept):
                if r in art_of_row:
                    pi = Fraction(den - obj.get(art_of_row[r], 0), den)
                else:
                    pi = Fraction(-obj.get(slack_of_row[r], 0), den)
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
                piv_col = min((j for j in a[r] if j < n_real), default=None)
                if piv_col is not None:
                    pivot(r, piv_col)
                else:
                    drop.append(r)
        for r in sorted(drop, reverse=True):
            del a[r], b[r], basis[r]
        m = len(basis)
        # phase 2 never lets an artificial re-enter
        for r in range(m):
            a[r], b[r] = _reduce(
                {j: v for j, v in a[r].items() if j < n_real}, b[r]
            )

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
        return to_variables(
            {bi: Fraction(b[i], a[i][bi]) for i, bi in enumerate(basis)}
        )

    if objective is None:
        return LPResult(
            status="optimal", assignment=extract_point(), value=_ZERO
        )

    # phase 2 minimizes -c^T x or c^T x, over one denominator
    objective = [_frac(cf) for cf in objective]
    sign = -1 if maximize else 1
    den = lcm(*(cf.denominator for cf in objective))
    obj = {}
    for j, cf in enumerate(objective):
        if cf:
            v = sign * cf.numerator * (den // cf.denominator)
            obj[col_of[j]] = v
            if j not in bound_row:
                obj[col_of[j] + 1] = -v
    for i, bi in enumerate(basis):
        if bi in obj:
            obj, den = _eliminate(obj, den, a[i], 0, bi)

    entering = run_simplex()
    point = extract_point()
    if entering is not None:
        ray_vals: dict[int, Fraction] = {entering: _ONE}
        for i, bi in enumerate(basis):
            coef = a[i].get(entering)
            if coef:
                ray_vals[bi] = Fraction(-coef, a[i][bi])
        return LPResult(
            status="unbounded", assignment=point, ray=to_variables(ray_vals)
        )
    value = sum(
        (cf * point[v] for cf, v in zip(objective, system.variables)), _ZERO
    )
    return LPResult(status="optimal", assignment=point, value=value)


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
    # unbounded: the least k >= 0 with c.(base + k ray) > d
    base = res.assignment or {}
    ray = res.ray or {}
    names = premise.variables
    cval = sum(
        (_frac(conclusion_coeffs[j]) * base.get(v, _ZERO)
         for j, v in enumerate(names)),
        _ZERO,
    )
    cray = sum(
        (_frac(conclusion_coeffs[j]) * ray.get(v, _ZERO)
         for j, v in enumerate(names)),
        _ZERO,
    )
    assert cray > 0
    k = max(0, (conclusion_rhs - cval) // cray + 1)
    witness = {
        v: base.get(v, _ZERO) + k * ray.get(v, _ZERO) for v in names
    }
    return False, witness
