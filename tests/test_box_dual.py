"""The closed-form dual of a box premise (`farkas.farkas_box`).

Differential: over random nonempty boxes and consequents affine in one or
two parameters, at random parameter values, the dual `transform` routes
to holds (closed form) or is LP-feasible (multipliers) exactly when the
implication is valid, by `implication_valid_bruteforce` and by the
premise-sat dual.  Fixtures: with the control substituted and each
premise screened, every closed-form row of the ten fixtures holds, and
each benchmark mutant fails one.  Routing: a concrete invariant
assembles with no multiplier unless the guards carry the control, and a
set with a parameter-dependent premise keeps every multiplier.
Assembly: the parameter-free rows that hold are not kept, nor a row
that a kept row with the same non-constant part implies, and every other
row is, in order; the drop keeps the solution set, and each synthesis
operation of the benchmark assembles a pinned number of rows.
"""

import copy
import dataclasses
import hashlib
import os
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streettsm import backends, benchmarks, lp
from streettsm.expr import Atom, LinForm, Param, ParamKind, Poly, Rel
from streettsm.farkas import (
    ConstraintSystem,
    Disjunction,
    DualConstraint,
    PolyConstraint,
    assemble,
    farkas_box,
    farkas_premise_sat,
    implication_valid_bruteforce,
    transform,
)
from streettsm.templates import CertTemplate, InvTemplate, post_table
from streettsm.vcgen import Implication, VCSet, build_product_vcs
from tests.test_farkas import dual_sat_by_lp

BENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"
)
sys.path[:0] = [BENCH]

import checks  # noqa: E402
import pipeline  # noqa: E402

F = Fraction
ROWS = benchmarks.manifest()["benchmarks"] + benchmarks.manifest()["extras"]


# -- differential -------------------------------------------------------------

bounds = st.sampled_from([F(-2), F(-1, 2), F(0), F(1), F(3, 2)])
scales = st.sampled_from([F(1), F(2), F(1, 3)])
kinds = st.sampled_from(["closed", "strict", "missing"])
numbers = st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(-3), F(2)])
values = st.sampled_from([F(0), F(1), F(-1), F(2), F(-1, 2), F(5, 3)])


def _bound(v: str, b: Fraction, upper: bool, a: Fraction, rel: Rel) -> Atom:
    """v <= b (upper) or v >= b as a*(v - b) REL 0, a > 0 scaled."""
    a = a if upper else -a
    return Atom(LinForm({v: Poly.const(a)}, Poly.const(-a * b)), rel)


@st.composite
def box_vcs(draw):
    """(implication, valuation, whether some side has two atoms): a
    nonempty box of 1-3 variables, each end closed, strict or missing,
    sometimes with a looser second atom on a side, in any order; and a
    consequent affine in 1-2 parameters."""
    names = tuple(f"y{i}" for i in range(draw(st.integers(1, 3))))
    params = ("p0", "p1")[: draw(st.integers(1, 2))]
    atoms = []
    doubled = False
    for v in names:
        lo, hi = sorted((draw(bounds), draw(bounds)))
        ends = [(lo, False, draw(kinds)), (hi, True, draw(kinds))]
        if lo == hi and "missing" not in (ends[0][2], ends[1][2]):
            ends = [(lo, False, "closed"), (hi, True, "closed")]
        for b, upper, kind in ends:
            if kind == "missing":
                continue
            rel = Rel.LT if kind == "strict" else Rel.LE
            atoms.append(_bound(v, b, upper, draw(scales), rel))
            if draw(st.integers(0, 4)) == 0:
                loose = b + 1 if upper else b - 1
                atoms.append(_bound(v, loose, upper, draw(scales), Rel.LE))
                doubled = True

    def affine() -> Poly:
        out = Poly.const(draw(numbers))
        for p in params:
            out = out + Poly.param(p).scale(draw(numbers))
        return out

    form = LinForm({v: affine() for v in names}, affine())
    premise = tuple(draw(st.permutations(atoms)))
    impl = Implication("consec", None, names, premise, Atom(form, Rel.LE))
    return impl, {p: draw(values) for p in params}, doubled


def _at(dual: DualConstraint, valuation) -> DualConstraint:
    """The dual with the parameters bound, over its multipliers alone."""
    return DualConstraint(
        dual.tag,
        dual.mode,
        dual.zs,
        tuple(
            PolyConstraint(c.poly.substitute(valuation), c.rel)
            for c in dual.shared
        ),
        dual.left,
        dual.right,
    )


def _dual_holds(dual: DualConstraint, valuation) -> bool:
    """Does the premise-sat dual hold for some multipliers at `valuation`?"""
    if not dual.zs:
        return all(c.holds(valuation) for c in dual.shared)
    return dual_sat_by_lp(_at(dual, valuation))


@given(box_vcs())
@settings(deadline=None, max_examples=200)
def test_box_dual_holds_iff_the_implication_is_valid(case):
    impl, valuation, doubled = case
    params = tuple(Param(p, ParamKind.CERT) for p in valuation)
    (routed,) = transform(VCSet((impl,), params, ()))
    assert routed.mode == "premise-sat"
    # the closed form exactly when no side has two atoms
    assert (routed.zs == ()) == (not doubled)
    concrete = dataclasses.replace(
        impl,
        consequent=Atom(
            impl.consequent.form.substitute_params(valuation), Rel.LE
        ),
    )
    valid = implication_valid_bruteforce(concrete)
    assert _dual_holds(routed, valuation) == valid
    assert _dual_holds(farkas_premise_sat(impl, "z"), valuation) == valid


def test_closed_form_rows_of_a_half_open_box():
    # 0 <= y0 < 1, y1 <= 2: forall y, a*y0 + b*y1 + c <= 0 iff
    # b >= 0 (y1 unbounded below) and, with y1 at its end and y0 at
    # either of its ends, 2b + c <= 0 and a + 2b + c <= 0
    y0, y1 = LinForm.var("y0"), LinForm.var("y1")
    premise = (
        Atom(-y0, Rel.LE),
        Atom(y0 - LinForm.constant(1), Rel.LT),
        Atom(y1 - LinForm.constant(2), Rel.LE),
    )
    a, b, c = Poly.param("a"), Poly.param("b"), Poly.param("c")
    form = LinForm({"y0": a, "y1": b}, c)
    impl = Implication("consec", None, ("y0", "y1"), premise, Atom(form, Rel.LE))
    dual = farkas_box(impl)
    assert dual.zs == () and dual.mode == "premise-sat"
    two = Poly.const(2)
    assert [row.poly for row in dual.shared] == [
        -b, b * two + c, a + b * two + c,
    ]
    assert all(row.rel is Rel.LE for row in dual.shared)


def test_a_side_with_two_atoms_keeps_its_multipliers():
    y = LinForm.var("y")
    premise = (Atom(y - LinForm.constant(1), Rel.LE), Atom(y, Rel.LE))
    impl = Implication(
        "consec", None, ("y",), premise, Atom(y.mul_poly(Poly.param("a")), Rel.LE)
    )
    assert farkas_box(impl) is None
    (routed,) = transform(VCSet((impl,), (), ()))
    assert routed == farkas_premise_sat(impl, "z0")


# -- the fixtures, with no solver ---------------------------------------------


def _screened_vcs(name: str, cert: dict):
    """The fixture's VCs with its control substituted, each with its premise
    screened (None when empty)."""
    bench = benchmarks.load_benchmark(name)
    model, dsa = bench.model, bench.dsa
    eps, ms, control = pipeline.fixture_scalars(cert, len(dsa.pairs))
    Vs = pipeline.fixture_certificates(cert, model, dsa)
    tables = [post_table(V, model, dsa) for V in Vs]
    inv = pipeline.fixture_invariant(cert, model, dsa)
    vcs = build_product_vcs(model, dsa, Vs, inv, tables, eps=eps, M=ms)
    out = []
    for impl in pipeline.concrete_implications(vcs, control):
        premise = lp.defining_atoms(impl.premise, impl.variables)
        if premise is not None:
            premise = dataclasses.replace(impl, premise=tuple(premise))
        out.append((impl, premise))
    return out


def _rows_hold(impl: Implication) -> bool:
    dual = farkas_box(impl)
    assert dual is not None, impl.tag  # every corpus premise is a box
    return all(c.holds({}) for c in dual.shared)


FIXTURES = [entry.name for entry in pipeline.WORKLOADS["check"][1]]


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_closed_form_rows_hold(name):
    vcs = _screened_vcs(name, benchmarks.load_benchmark(name).cert)
    nonempty = [(impl, s) for impl, s in vcs if s is not None]
    assert nonempty
    for impl, screened in nonempty:
        assert _rows_hold(screened), impl.tag
        assert implication_valid_bruteforce(impl), impl.tag
    if name == "FinMemoryControl":
        # with the control substituted most of its guards are empty
        assert (len(nonempty), len(vcs)) == (15, 111)


@pytest.mark.parametrize(
    "mutant", checks.MUTANTS, ids=[m.entry for m in checks.MUTANTS]
)
def test_every_mutant_fails_a_closed_form_row(mutant):
    cert = copy.deepcopy(benchmarks.load_benchmark(mutant.entry).cert)
    mutant.mutate(cert)
    failed = []
    for impl, screened in _screened_vcs(mutant.entry, cert):
        if screened is None:
            continue
        holds = _rows_hold(screened)
        assert holds == implication_valid_bruteforce(impl), impl.tag
        if not holds:
            failed.append(impl.tag)
    assert failed


# -- routing --------------------------------------------------------------------


def _system(bench, inv):
    model, dsa = bench.model, bench.dsa
    Vs = [CertTemplate.fresh(model, dsa, k) for k in range(len(dsa.pairs))]
    tables = [post_table(V, model, dsa) for V in Vs]
    vcs = build_product_vcs(model, dsa, Vs, inv, tables)
    return assemble(vcs, transform(vcs))


@pytest.mark.parametrize(
    "name", [r["name"] for r in ROWS if r["invariant"] or r["cert"]]
)
def test_a_concrete_invariant_assembles_with_no_multiplier(name):
    bench = benchmarks.load_benchmark(name)
    invariants = []
    if bench.invariant is not None:
        invariants.append(bench.invariant)
    if bench.cert is not None:
        invariants.append(
            pipeline.fixture_invariant(bench.cert, bench.model, bench.dsa)
        )
    for inv in invariants:
        kinds = {p.kind for p in _system(bench, inv).params}
        # guards that carry the control put parameters into premises
        carried = bench.model.guards_parameter_bearing
        assert (ParamKind.MULTIPLIER in kinds) == carried


# sha256 of `ConstraintSystem.dump()`, as assembled with multipliers on
# every premise before the closed form existed, less its parameter-free
# rows that hold (`0 == 0` and `0 <= 0`), which `assemble` does not keep:
# 487 -> 485 rows for FinMemoryControl and 131 -> 129 for example2
DUMPS = {
    "FinMemoryControl":
        "885470e490316921c14a686c1c30a120af40a241d3ee20ac1ccb29e07cc9d7c4",
    "example2":
        "9dab08d6228d0f605cbad08bb117327196be29bb914819d0d3906df373208ce1",
}


@pytest.mark.parametrize("name", sorted(DUMPS))
def test_a_set_with_a_parametric_premise_keeps_its_dual(name):
    # FinMemoryControl over its fixture invariant, whose guards carry the
    # control, and example2 over a fresh two-row template invariant
    bench = benchmarks.load_benchmark(name)
    model, dsa = bench.model, bench.dsa
    inv = (
        pipeline.fixture_invariant(bench.cert, model, dsa)
        if name == "FinMemoryControl"
        else InvTemplate.fresh(model, dsa, nrows=2)
    )
    dump = _system(bench, inv).dump().encode()
    assert hashlib.sha256(dump).hexdigest() == DUMPS[name]


# -- assembly -------------------------------------------------------------------


def _invariants(bench) -> list:
    """Each invariant an entry has: its .inv file, its fixture's and a
    fresh two-row template."""
    model, dsa = bench.model, bench.dsa
    out = [] if bench.invariant is None else [bench.invariant]
    if bench.cert is not None:
        out.append(pipeline.fixture_invariant(bench.cert, model, dsa))
    return out + [InvTemplate.fresh(model, dsa, nrows=2)]


def _is_true_constant(item) -> bool:
    return (
        isinstance(item, PolyConstraint)
        and not item.poly.params()
        and item.holds({})
    )


def _implies(s: PolyConstraint, r: PolyConstraint) -> bool:
    """Does s imply r by the same non-constant part and a constant at
    least as large, strictly larger or with s strict when r is strict?"""
    d = s.poly - r.poly
    if not d.is_constant():
        return False
    d = d.constant_value()
    return d > 0 or (d == 0 and (s.rel is Rel.LT or r.rel is Rel.LE))


def _inequality(item) -> bool:
    return isinstance(item, PolyConstraint) and item.rel is not Rel.EQ


def _implied_reference(rows: list) -> list:
    """The rows less each inequality that another one implies, pairwise:
    of two rows that imply each other, the first stays."""
    def dropped(i, r):
        return _inequality(r) and any(
            j != i
            and _inequality(s)
            and _implies(s, r)
            and (not _implies(r, s) or j < i)
            for j, s in enumerate(rows)
        )

    return [r for i, r in enumerate(rows) if not dropped(i, r)]


@pytest.mark.parametrize("name", [r["name"] for r in ROWS])
def test_assemble_keeps_every_row_but_the_true_constants(name):
    # ... and the rows that another row implies
    bench = benchmarks.load_benchmark(name)
    model, dsa = bench.model, bench.dsa
    Vs = [CertTemplate.fresh(model, dsa, k) for k in range(len(dsa.pairs))]
    tables = [post_table(V, model, dsa) for V in Vs]
    for inv in _invariants(bench):
        vcs = build_product_vcs(model, dsa, Vs, inv, tables)
        duals = transform(vcs)
        system = assemble(vcs, duals)
        # the side atoms, then each dual's items, as they come
        rows = [PolyConstraint(a.form.const, a.rel) for a in vcs.side_atoms]
        rows += [item for dual in duals for item in dual.items()]
        assert not any(map(_is_true_constant, system.constraints))
        constraining = [r for r in rows if not _is_true_constant(r)]
        kept = _implied_reference(constraining)
        assert list(system.constraints) == kept
        for r in constraining:
            assert r in kept or any(
                _inequality(s) and _implies(s, r) for s in kept
            ), r
        assert system.params == vcs.params + tuple(
            z for dual in duals for z in dual.zs
        )


def test_assemble_keeps_a_false_constant_and_branches_as_they_are():
    a = Param("a", ParamKind.CERT)
    false_row = PolyConstraint(Poly.const(1), Rel.LE)
    true_row = PolyConstraint(Poly.const(-1), Rel.LT)
    branches = Disjunction((true_row,), (false_row,))
    row = PolyConstraint(Poly.param("a"), Rel.LE)
    dual = DualConstraint(
        "consec", "general", (), (true_row, false_row, row), (true_row,),
        (false_row,),
    )
    system = assemble(VCSet((), (a,), ()), [dual])
    assert system.constraints == (false_row, row, branches)


# the rows each synthesis operation of the benchmark assembles
ASSEMBLED_ROWS = {
    "verify-lp": {
        "example2-fixed": 10,
        "evenOrNegative": 26,
        "PersistRW": 9,
        "RecurRW": 11,
        "GuaranteeRW": 19,
        "Temperature2": 17,
    },
    "control-descent": {
        "example2": 16,
        "Temperature4": 39,
        "SafeRWalk1": 6,
        "SafeRWalk2": 6,
    },
}


@pytest.mark.parametrize(
    "workload, entry",
    [
        pytest.param(w, e, id=f"{w}-{e.name}")
        for w in ASSEMBLED_ROWS
        for e in pipeline.WORKLOADS[w][1]
    ],
)
def test_synthesis_assembles_a_pinned_number_of_rows(workload, entry):
    bench = benchmarks.load_benchmark(entry.name)
    inv = (
        bench.invariant
        if entry.inv_source == "inv"
        else pipeline.fixture_invariant(bench.cert, bench.model, bench.dsa)
    )
    rows = len(_system(bench, inv).constraints)
    assert rows == ASSEMBLED_ROWS[workload][entry.name]


# -- dropping implied rows keeps the solution set ------------------------------

coefficients = st.sampled_from([F(1), F(-1), F(2), F(1, 2)])
constants = st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(-2)])
points = st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(-2), F(3)])
relations = st.sampled_from([Rel.LE, Rel.LT, Rel.EQ])


@st.composite
def parts(draw, bilinear: bool) -> Poly:
    """A non-constant part over p0 and p1: affine, or with a p0*p1 term."""
    q = Poly()
    for name in ("p0", "p1"):
        if draw(st.booleans()):
            q = q + Poly.param(name).scale(draw(coefficients))
    if bilinear or q.is_zero():
        q = q + (Poly.param("p0") * Poly.param("p1")).scale(draw(coefficients))
    return q


@st.composite
def shared_part_systems(draw):
    """2-7 `<=`, `<` and `=` rows over 1-3 non-constant parts, so that
    rows share a part, each with its own constant."""
    bilinear = draw(st.booleans())
    pool = [
        draw(parts(bilinear and draw(st.booleans())))
        for _ in range(draw(st.integers(1, 3)))
    ]
    return [
        PolyConstraint(
            draw(st.sampled_from(pool)) + Poly.const(draw(constants)),
            draw(relations),
        )
        for _ in range(draw(st.integers(2, 7)))
    ]


@given(shared_part_systems(), st.lists(st.tuples(points, points), max_size=8))
@settings(deadline=None, max_examples=300)
def test_dropping_implied_rows_keeps_the_solution_set(rows, valuations):
    params = (Param("p0", ParamKind.CERT), Param("p1", ParamKind.CERT))
    before = ConstraintSystem(params, tuple(rows))
    dual = DualConstraint("consec", "premise-sat", (), tuple(rows))
    after = assemble(VCSet((), params, ()), [dual])
    for p0, p1 in valuations:
        point = {"p0": p0, "p1": p1}
        assert before.holds(point) == after.holds(point), point
    if before.all_linear():
        verdicts = [
            backends.decide(backends.SolverJob(s)).status
            for s in (before, after)
        ]
        assert verdicts[0] == verdicts[1] != "unknown"
    assert list(after.constraints) == _implied_reference(rows)
