"""Exact-rational linear programming.

A small two-phase full-tableau simplex with Bland's rule.  One entry
point, `solve`, decides feasibility and maximization of systems

    sum_j a_ij x_j  (<= | =)  b_i

and feasibility of systems that also have strict `<` rows.  It produces
certificates both ways: a feasible (optimal) point, an improving ray for
unbounded objectives, or a Farkas ray proving infeasibility (multipliers
y with y_i >= 0 on inequality rows, y^T A = 0 and y^T b < 0), one entry
per input row.

Tableau layout.  Variables are free unless a row bounds their sign: the
first row of the form  -a x_j <= 0  (a > 0) for a variable is taken as the
bound x_j >= 0, leaves the tableau, and gives x_j a single column.  Every
other variable is split as x = u - w over two columns.  Farkas
multipliers, most of a system whose premises carry a parameter (a set
of parameter-free premises dualizes its boxes with none, `farkas`),
thereby cost one column instead of two columns, a row, a slack and an
artificial.  A `<=` row with rhs >= 0 starts with its slack in the
basis; only `=` rows and rows flipped to a non-negative rhs get an
artificial, and phase 1 is skipped when no row has one.  Points and
rays are read back through the per-variable column map.

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

Boxes.  A system whose rows each mention at most one variable is a box:
per variable, an interval whose ends are the tightest bounds its rows
give.  A row a x (<= | < | =) b bounds x by b/a, held as the integer
pair (num b * den a, den b * num a), negated when the second entry is
negative (`expr.ratio`); two bounds n/d and n'/d' compare as n d'
against n' d.  An end has one format, the tuple (n, d, strict, row, a),
a being the row's coefficient, and `_fold` picks the ends of both
readers: `_box` keys them by column, over the bounds of LP rows, and
`_atom_box` by variable name, over the bounds that atoms' forms cache
(`LinForm.bound`).  One rule (`_wins`) picks each end: the tighter
bound wins, at one bound a strict end beats a non-strict one, else the
first row wins.  `solve` decides a maximization over a box by
intersecting the intervals, with no tableau, and builds a Fraction only
for an end it reads.  It returns what the tableau returns on 'optimal'
and 'infeasible': a coordinate with a cost sits at its optimizing end,
every other one at the point of its interval nearest 0, and the value is
c.x there.  The Farkas ray of an empty interval puts 1/|a| on its two
rows a x (<= | =) b, with the sign flipped on an `=` row read against its
sense; an empty row that fails on its own (0 <= b < 0, 0 = b != 0)
carries the ray alone.  The multipliers are computed only for the clash
that is returned.  An unbounded box returns a feasible point and an
improving unit ray.  A feasibility query takes the tableau even over a
box, for the pipeline screens no box through `solve`: every corpus
guard, automaton edge and premise atom bounds one variable, and a box of
atoms is decided from their cached bounds, with no `LinearSystem`, no
point and no per-atom Fraction work: `defining_atoms` gives the binding
atoms, the rows of its ends, or None on a clash.

Strict rows.  A system with a `<` row takes no objective (the supremum
over an open set need not be attained), and an infeasible one carries no
Farkas ray.  It goes through a slack-maximization transform: max t
subject to strict rows tightened by t and t <= 1, by the tableau; the
strict system is feasible iff the optimum is positive.

Row layout.  A row is (coeffs, rel, rhs): `coeffs` a sparse `Row`, a
tuple of (column, Fraction) pairs in ascending column order with no
zero coefficient, so equal rows are equal tuples; `rel` an `expr.Rel`
(LE, LT or EQ); `rhs` a Fraction.  Columns and row order are those of
the dense layout, so Bland's rule takes the same pivots.  Only this
module builds rows: `linear_system` lowers affine polynomials
`poly rel 0`, and `system_from_atoms` lowers atoms.  Objectives stay
dense lists aligned with the variables.

Everything is deterministic; Bland's rule guarantees termination.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Literal, Sequence

from .expr import Atom, Bound, Poly, Rel, ratio

# sparse coefficients: (column, coeff) pairs, ascending, no zero coeff
Row = tuple[tuple[int, Fraction], ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)
# the relations, bound once for the loops that test every row
_LE, _LT, _EQ = Rel.LE, Rel.LT, Rel.EQ


def _frac(x) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)


class LinearSystem:
    """Constraint rows over named variables.

    Each row is (coeffs, rel, rhs): `coeffs` a sparse `Row` of
    (column, Fraction) pairs, ascending and zero-free, over the indices of
    `variables`; `rel` a `Rel`; `rhs` a `Fraction`."""

    __slots__ = ("variables", "rows")

    def __init__(
        self,
        variables: list[str],
        rows: list[tuple[Row, Rel, Fraction]] | None = None,
    ):
        self.variables = variables
        self.rows = [] if rows is None else rows


class LPResult:
    __slots__ = ("status", "assignment", "value", "ray", "farkas")

    def __init__(
        self,
        status: Literal["optimal", "unbounded", "infeasible"],
        assignment: dict[str, Fraction] | None = None,
        value: Fraction | None = None,
        ray: dict[str, Fraction] | None = None,
        farkas: list[Fraction] | None = None,
    ):
        self.status = status
        self.assignment = assignment
        self.value = value
        self.ray = ray
        self.farkas = farkas

    def __eq__(self, other: object) -> bool:
        return type(other) is LPResult and self._key() == other._key()

    def _key(self) -> tuple:
        return (self.status, self.assignment, self.value, self.ray, self.farkas)


def _sign_bounds(rows: list[tuple[Row, Rel, Fraction]]) -> dict[int, int]:
    """Variable index -> the first input row  -a x_j <= 0  (a > 0)."""
    bound_row: dict[int, int] = {}
    for i, (coeffs, rel, rhs) in enumerate(rows):
        if len(coeffs) != 1 or rel is not _LE or rhs != 0:
            continue
        ((j, cf),) = coeffs
        if cf < 0 and j not in bound_row:
            bound_row[j] = i
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
    system: LinearSystem, objective: Sequence[Fraction] | None = None
) -> LPResult:
    """Feasibility / maximization of a system of `<=`, `<` and `=` rows.

    With an objective c: max c.x.  With no objective: any feasible point
    (status 'optimal', value 0), meeting every strict row with positive
    margin, or 'infeasible' with a Farkas ray aligned with the input rows
    when no row is strict.  A system with a strict row goes through the
    slack transform, any other feasibility query through the tableau; a
    maximization over a box is decided by interval intersection, any
    other by the tableau (see the module docstring).  Raises ValueError
    on strict rows with an objective: the supremum over an open set need
    not be attained.
    """
    if any(rel is _LT for _, rel, _ in system.rows):
        if objective is not None:
            raise ValueError("strict rows admit no objective")
        return _strict_tableau(system)
    if objective is not None:
        ends = _box(system.rows, len(system.variables))
        if ends is not None:
            return _box_solve(system, *ends, objective)
    return _tableau(system, objective)


def _box_solve(
    system: LinearSystem,
    lo: dict[int, _IntEnd],
    hi: dict[int, _IntEnd],
    clash: _Clash | None,
    objective: Sequence[Fraction],
) -> LPResult:
    """`solve` of a maximization over a box system from its ends by
    column and its clash (see the module docstring)."""
    names = system.variables
    if clash is not None:
        farkas = [_ZERO] * len(system.rows)
        for i, y in clash:
            farkas[i] = y
        return LPResult(status="infeasible", farkas=farkas)
    # each coordinate with a cost sits at its optimizing end, if it has one,
    # every other one at the point of its interval nearest 0
    costs = [_frac(cf) for cf in objective]
    point = {}
    ray = None
    for j, (cf, v) in enumerate(zip(costs, names)):
        end = hi.get(j) if cf > 0 else lo.get(j) if cf < 0 else None
        if end is not None:
            point[v] = _value(end)
            continue
        point[v] = _nearest_zero(lo.get(j), hi.get(j))
        if cf and ray is None:
            ray = dict.fromkeys(names, _ZERO)
            ray[v] = _ONE if cf > 0 else -_ONE
    if ray is not None:
        return LPResult(status="unbounded", assignment=point, ray=ray)
    value = sum((cf * point[v] for cf, v in zip(costs, names)), _ZERO)
    return LPResult(status="optimal", assignment=point, value=value)


# One end of a variable's interval in a box: (n, d, strict, row, a), the
# bound being n/d with d > 0 and a the row's coefficient; the row's Farkas
# multiplier when it is read as this end is 1/a at an upper end and -1/a at
# a lower end.
_IntEnd = tuple[int, int, bool, int, Fraction]
# the nonzero entries of a Farkas ray, as (row, multiplier) pairs
_Clash = tuple[tuple[int, Fraction], ...]


def _value(end: _IntEnd) -> Fraction:
    """The bound of an end."""
    return Fraction(end[0], end[1])


def _wins(
    cur: _IntEnd | None, n: int, d: int, strict: bool, upper: bool
) -> bool:
    """Does the bound n/d, strict or not, replace the end `cur` on its side?
    The tighter bound wins; at one bound a strict end beats a non-strict
    one, else `cur`, the earlier, stays."""
    if cur is None:
        return True
    # n/d < n'/d' iff n d' < n' d, the denominators being positive
    gap = cur[0] * d - n * cur[1] if upper else n * cur[1] - cur[0] * d
    return gap > 0 or (gap == 0 and strict and not cur[2])


def _empty(low: _IntEnd | None, high: _IntEnd | None) -> bool:
    """Is the interval between two ends empty?"""
    if low is None or high is None:
        return False
    gap = high[0] * low[1] - low[0] * high[1]
    return gap < 0 or (gap == 0 and (low[2] or high[2]))


def _fold(
    bounds: Sequence[Bound], rels: Sequence[Rel], keys: Iterable
) -> tuple[dict, dict, _Clash | None]:
    """The lower and upper ends of a box, per key, from the bounds of its
    rows in order (`LinForm.bound`'s layout, keyed by column or by name)
    and their relations; and the clash, from the first empty row that
    fails on its own or else the first empty interval in the order of
    `keys`."""
    lo: dict = {}
    hi: dict = {}
    empty = None
    for i, ((key, upper, n, d, a, rhs), rel) in enumerate(zip(bounds, rels)):
        if key is None:
            # 0 rel rhs; an `=` row with rhs > 0 is used against its sense
            if empty is None and (
                rhs < 0
                or (rhs == 0 and rel is _LT)
                or (rhs > 0 and rel is _EQ)
            ):
                empty = ((i, -_ONE if rhs > 0 else _ONE),)
            continue
        strict = rel is _LT
        eq = rel is _EQ
        if (eq or upper) and _wins(hi.get(key), n, d, strict, True):
            hi[key] = (n, d, strict, i, a)  # x <= n/d: (1/a) row
        if (eq or not upper) and _wins(lo.get(key), n, d, strict, False):
            lo[key] = (n, d, strict, i, a)  # x >= n/d: (-1/a) row
    if empty is not None:
        return lo, hi, empty
    for key in keys:
        low, high = lo.get(key), hi.get(key)
        if _empty(low, high):
            # x <= high and -x <= -low add up to 0 <= high - low, false
            return lo, hi, ((low[3], -1 / low[4]), (high[3], 1 / high[4]))
    return lo, hi, None


def _box(
    rows: list[tuple[Row, Rel, Fraction]], nvars: int
) -> tuple[dict[int, _IntEnd], dict[int, _IntEnd], _Clash | None] | None:
    """The lower and upper ends of a box system by column, and a clash:
    None, or the (row, multiplier) pairs of a Farkas ray, from the first
    empty row that fails on its own or else the first empty interval.
    None if some row mentions two or more variables.

    The ends are picked by `_wins` (see the module docstring).  On a
    nonempty box the rows of the ends define the same set as all the
    rows."""
    bounds = []
    for coeffs, _, rhs in rows:
        if not coeffs:
            bounds.append((None, False, 0, 1, _ZERO, rhs))
            continue
        if len(coeffs) > 1:
            return None
        ((j, a),) = coeffs
        bounds.append((j, a > 0, *ratio(rhs, a), a, rhs))
    return _fold(bounds, [rel for _, rel, _ in rows], range(nvars))


def _atom_box(
    atoms: Sequence[Atom], variables: Sequence[str]
) -> tuple[dict[str, _IntEnd], dict[str, _IntEnd], _Clash | None] | None:
    """`_box` of a conjunction of atoms, read off their cached bounds
    (`LinForm.bound`), with no row built: the ends by variable name, and
    the clash, as `_box(system_from_atoms(atoms, variables).rows,
    len(variables))` gives them by column.  None if some atom has two or
    more variables, a parameter, or a variable not in `variables`."""
    bounds = []
    for atom in atoms:
        b = atom.form.bound()
        if b is None or (b[0] is not None and b[0] not in variables):
            return None
        bounds.append(b)
    return _fold(bounds, [atom.rel for atom in atoms], variables)


def _nearest_zero(lo: _IntEnd | None, hi: _IntEnd | None) -> Fraction:
    """The point of a nonempty interval nearest 0."""
    if lo is not None and lo[0] > 0:
        return _value(lo)
    if hi is not None and hi[0] < 0:
        return _value(hi)
    return _ZERO


def _tableau(
    system: LinearSystem, objective: Sequence[Fraction] | None
) -> LPResult:
    """`solve` by the two-phase tableau (see the module docstring)."""
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
        if rows[i][1] is _LE:
            slack_of_row[r] = ncols
            ncols += 1
    n_real = ncols
    art_of_row: dict[int, int] = {}
    for r, i in enumerate(kept):
        _, rel, rhs = rows[i]
        if rel is _EQ or rhs < 0:
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
        scale = lcm(rhs.denominator, *(cf.denominator for _, cf in coeffs))
        if flip:
            scale = -scale
        row: dict[int, int] = {}
        for j, cf in coeffs:
            v = cf.numerator * (scale // cf.denominator)
            row[col_of[j]] = v
            if j not in bound_row:
                row[col_of[j] + 1] = -v
        if rel is _LE:
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
            # sum_k y_k a_kj over the kept rows, for every bounded j at once
            residual: dict[int, Fraction] = {}
            for k in kept:
                y = farkas[k]
                if y:
                    for j, cf in rows[k][0]:
                        if j in bound_row:
                            residual[j] = residual.get(j, _ZERO) + y * cf
            for j, i in bound_row.items():
                farkas[i] = residual.get(j, _ZERO) / -rows[i][0][0][1]
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

    # phase 2 minimizes -c^T x, over one denominator
    objective = [_frac(cf) for cf in objective]
    den = lcm(*(cf.denominator for cf in objective))
    obj = {}
    for j, cf in enumerate(objective):
        if cf:
            v = -cf.numerator * (den // cf.denominator)
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


def _strict_tableau(system: LinearSystem) -> LPResult:
    """`solve` of a system with strict rows: maximize t with the strict
    rows tightened by t and t <= 1, by the tableau; the system is strictly
    feasible iff the optimum is positive.  t's column is named `#t`, which
    no input name can be (`syntax`)."""
    nv = len(system.variables)
    t = ((nv, _ONE),)
    aug = LinearSystem(
        system.variables + ["#t"],
        [
            (coeffs + t, _LE, rhs) if rel is _LT else (coeffs, rel, rhs)
            for coeffs, rel, rhs in system.rows
        ],
    )
    aug.rows.append((t, _LE, _ONE))
    res = _tableau(aug, [_ZERO] * nv + [_ONE])
    if res.status != "optimal" or res.value <= 0:
        return LPResult(status="infeasible")
    assignment = dict(res.assignment)
    del assignment["#t"]
    return LPResult(status="optimal", assignment=assignment, value=_ZERO)


def system_from_atoms(
    atoms: Sequence[Atom], variables: Sequence[str]
) -> LinearSystem:
    """Parameter-free `<=`/`<` atoms as LP rows, one row per atom.

    An atom with at most one variable gives its row from its cached bound
    (`LinForm.bound`); any other has its constants read straight from the
    canonical `Poly` terms (a parameter-free `Poly` has at most the key
    `()`, and no zero value)."""
    out = LinearSystem(list(variables))
    column = {v: j for j, v in enumerate(variables)}
    for atom in atoms:
        form = atom.form
        b = form.bound()
        if b is not None and (b[0] is None or b[0] in column):
            row = () if b[0] is None else ((column[b[0]], b[4]),)
            out.rows.append((row, atom.rel, b[5]))
            continue
        coeffs = []
        for v, p in form.coeffs.items():
            j = column.get(v)
            if j is None:
                extra = set(form.coeffs) - set(variables)
                raise ValueError(f"atom mentions undeclared variables {extra}")
            terms = p.terms
            if len(terms) > 1 or (terms and () not in terms):
                raise ValueError(f"parameter-bearing coefficient on {v}")
            if terms:
                coeffs.append((j, terms[()]))
        const = form.const.terms
        if len(const) > 1 or (const and () not in const):
            raise ValueError("parameter-bearing constant term")
        rhs = -const[()] if const else _ZERO
        coeffs.sort()
        out.rows.append((tuple(coeffs), atom.rel, rhs))
    return out


def linear_system(
    rows: Iterable[tuple[Poly, Rel]], variables: Sequence[str]
) -> LinearSystem:
    """The affine rows `poly rel 0` as a system over `variables`, one LP
    row each, its coefficients and rhs read straight from the canonical
    terms.  Raises ValueError on a nonlinear monomial or one over a name
    not in `variables`."""
    out = LinearSystem(list(variables))
    column = {v: j for j, v in enumerate(variables)}
    for poly, rel in rows:
        coeffs = []
        rhs = _ZERO
        for mono, c in poly.terms.items():
            if not mono:
                rhs = -c
                continue
            j = column.get(mono[0]) if len(mono) == 1 else None
            if j is None:
                raise ValueError(
                    f"monomial {mono} is not linear over {out.variables}"
                )
            coeffs.append((j, c))
        coeffs.sort()
        out.rows.append((tuple(coeffs), rel, rhs))
    return out


def defining_atoms(
    atoms: Sequence[Atom], variables: Sequence[str]
) -> Sequence[Atom] | None:
    """The atoms that define a conjunction, or None when it is
    parameter-free and empty, strict atoms honored: the package's one
    exact emptiness test of a conjunction.

    A conjunction with a parameter is given whole.  A box of atoms gives
    its binding atoms in their order: per variable the atoms of its
    tightest upper and lower ends, as one `_atom_box` call on their cached
    bounds picks them.  Any other conjunction is decided by `solve` and,
    when nonempty, given whole."""
    ends = _atom_box(atoms, variables)
    if ends is None:
        if not all(a.form.is_param_free() for a in atoms):
            return atoms
        feasible = solve(system_from_atoms(atoms, variables))
        return atoms if feasible.status == "optimal" else None
    lo, hi, clash = ends
    if clash is not None:
        return None
    rows = sorted({end[3] for side in (lo, hi) for end in side.values()})
    return tuple(atoms[i] for i in rows)
