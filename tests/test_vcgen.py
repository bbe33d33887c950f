"""Tests for verification-condition generation."""

import re
import sys
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from streettsm.benchmarks import load_benchmark, manifest
from streettsm.expr import Atom, LinForm, Poly, Rel
from streettsm.lp import defining_atoms
from streettsm.farkas import implication_valid_bruteforce
from streettsm.templates import (
    FALSE_ATOM,
    CertTemplate,
    InvTemplate,
    PostTable,
    locations,
    parse_invariant,
    post_table,
)
from streettsm.vcgen import (
    Implication,
    StrictConsequentError,
    VCSet,
    _mk,
    build_product_vcs,
    normalize_consequent,
    promote_disturbance,
)

sys.path[:0] = [str(Path(__file__).resolve().parents[1] / "perfbench")]

import pipeline as bench  # noqa: E402


def _vcs(name, eps=F(1), M=None):
    b = load_benchmark(name)
    V = CertTemplate.fresh(b.model, b.dsa, 0)
    table = post_table(V, b.model, b.dsa)
    return build_product_vcs(
        b.model, b.dsa, [V], b.invariant, [table], eps=eps, M=M
    )


def test_family_counts_match_displayed_system():
    # three locations, 3/3/1 edges, one branch, box disturbance: of the 7
    # transitions only q0->q0, q0->q1 and q1->q1 have a nonempty premise
    # (1+2 / 2 target rows = 5 row-level); q2's invariant is false, and
    # q1's (x <= 9/10) meets neither x >= 1 nor x < -1
    vcs = _vcs("example2", eps=F(1, 2))
    fams = {}
    for impl in vcs.implications:
        fams[impl.family] = fams.get(impl.family, 0) + 1
    assert fams == {"init": 1, "consec": 5, "dec": 2, "noninc": 1, "nonneg": 2}
    groups = {
        (i.location, i.note.split(", row")[0])
        for i in vcs.implications
        if i.family == "consec"
    }
    assert len(groups) == 3


def _corpus_vcs(name):
    """Every pair's VCs over the entry's `.inv` invariant, else its
    fixture's, else the invariant true at every location."""
    b = load_benchmark(name)
    if b.invariant is not None:
        inv = b.invariant
    elif b.cert is not None:
        inv = bench.fixture_invariant(b.cert, b.model, b.dsa)
    else:
        everywhere = locations(b.model, b.dsa)
        inv = InvTemplate.concrete({loc: () for loc in everywhere})
    Vs = [CertTemplate.fresh(b.model, b.dsa, k) for k in range(len(b.dsa.pairs))]
    tables = [post_table(V, b.model, b.dsa) for V in Vs]
    return b, inv, build_product_vcs(b.model, b.dsa, Vs, inv, tables)


ROWS = manifest()["benchmarks"] + manifest()["extras"]
CORPUS = [row["name"] for row in ROWS]


@pytest.mark.parametrize("name", CORPUS)
def test_one_consecution_vc_per_firing_transition_sample_and_row(name):
    # the product transitions written out: a transition whose premise
    # (the invariant at its source, then the joint guard) is parameter-free
    # and empty has no VC, and neither has `nonneg` where the invariant is;
    # every other transition has its consecution VCs and one drift VC per
    # pair, and every other location one `nonneg` VC per pair
    b, inv, vcs = _corpus_vcs(name)
    model, dsa = b.model, b.dsa
    xs = model.state_vars
    dist = model.disturbance
    samples = len(dist.support) if dist.kind == "finite" else 1
    pairs = len(dsa.pairs)

    def empty(premise):
        return defining_atoms(premise, xs) is None

    want, want_drift, never, excluded = Counter(), Counter(), set(), []
    for q, m in locations(model, dsa):
        for edge in dsa.outgoing(q):
            if not edge.applies_in_mode(m):
                continue
            for br in model.branches_for_mode(m):
                key = ((q, m), edge.line, br.line)
                premise = [*inv.rows[(q, m)], *br.guard, *edge.atoms]
                if empty(premise):
                    never.add(key)
                    excluded.append(premise)
                    continue
                target_rows = inv.rows[(edge.target, br.mode_to)]
                want[key] = samples * len(target_rows)
                want_drift[key] = pairs
    want_nonneg = Counter()
    for loc, rows in inv.rows.items():
        if empty(rows):
            excluded.append(list(rows))
        else:
            want_nonneg[loc] = pairs
    got, got_drift, got_nonneg = Counter(), Counter(), Counter()
    for impl in vcs.implications:
        if impl.family == "nonneg":
            got_nonneg[impl.location] += 1
        elif impl.family != "init":
            lines = re.search(r" line (\d+), branch line (\d+)", impl.note)
            key = (impl.location, int(lines[1]), int(lines[2]))
            (got if impl.family == "consec" else got_drift)[key] += 1
    assert got == +want
    assert got_drift == want_drift
    assert got_nonneg == want_nonneg
    assert not never & (set(got) | set(got_drift))
    # every premise left out is empty: it implies 1 <= 0
    for premise in excluded:
        assert implication_valid_bruteforce(
            _mk("consec", None, xs, premise, FALSE_ATOM)
        )


@pytest.mark.parametrize("name", CORPUS)
def test_every_vc_tag_is_unique_and_readable(name):
    # parallel automaton edges differ in their line; w prints as rationals
    _, _, vcs = _corpus_vcs(name)
    tags = [impl.tag for impl in vcs.implications]
    assert len(set(tags)) == len(tags)
    assert not any("Fraction" in tag for tag in tags)


def test_consecution_implication_exact_shape():
    # self-loop consecution: {x >= 1, -1/10 <= w <= 1/10} implies
    # x/2 + w >= -1/5, with w promoted to a universal column; the
    # invariant's x >= -1/5 is dropped, x >= 1 making it redundant
    b = load_benchmark("example2-fixed")
    V = CertTemplate.fresh(b.model, b.dsa, 0)
    inv = parse_invariant(
        "at q0: x >= -1/5\nat q1: x >= -1/5 and x <= 9/10\nat q2: false\n",
        b.model,
        b.dsa,
    )
    vcs = build_product_vcs(
        b.model, b.dsa, [V], inv, [post_table(V, b.model, b.dsa)], eps=F(1, 2)
    )
    impl = next(
        i
        for i in vcs.implications
        if i.family == "consec"
        and i.location == ("q0", "_")
        and "->q0" in i.note
    )
    assert impl.variables == ("x", "w")
    want_premise = {
        (F(-1), F(0), F(1)),  # x >= 1
        (F(0), F(-1), F(-1, 10)),  # w >= -1/10
        (F(0), F(1), F(-1, 10)),  # w <= 1/10
    }
    got = {
        (
            a.form.coeff("x").constant_value(),
            a.form.coeff("w").constant_value(),
            a.form.const.constant_value(),
        )
        for a in impl.premise
    }
    assert len(impl.premise) == len(want_premise)
    assert got == want_premise
    c = impl.consequent
    assert c.rel == Rel.LE
    assert c.form.coeff("x") == Poly.const(F(-1, 2))
    assert c.form.coeff("w") == Poly.const(-1)
    assert c.form.const == Poly.const(F(-1, 5))


def test_infeasible_concrete_premise_gets_no_vc():
    # q1's invariant x >= -1/5 and x <= 9/10 meets the guard x >= 1 of
    # q1 -> q0 nowhere: the screen finds the premise empty, so that
    # transition gets no VC, though its guard alone is satisfiable
    x = LinForm.var("x")
    premise = (
        Atom(x - LinForm.constant(F(9, 10)), Rel.LE),
        Atom(-x - LinForm.constant(F(1, 5)), Rel.LE),
        Atom(LinForm.constant(1) - x, Rel.LE),
    )
    assert defining_atoms(premise, ("x",)) is None
    b = load_benchmark("example2")
    V = CertTemplate.fresh(b.model, b.dsa, 0)
    table = post_table(V, b.model, b.dsa)
    assert any(
        p.location == ("q1", "_") and p.edge.target == "q0"
        for p in table.pieces
    )
    vcs = build_product_vcs(b.model, b.dsa, [V], b.invariant, [table])
    assert vcs.implications
    assert not [i for i in vcs.implications if "edge q1->q0" in i.note]


def test_contradictory_strict_atoms_get_no_vc():
    # x < -1/2 and -1/2 < x is empty, though its closure admits x = -1/2
    x = LinForm.var("x")
    half = LinForm.constant(F(1, 2))
    premise = (Atom(x + half, Rel.LT), Atom(-x - half, Rel.LT))
    closure = tuple(Atom(a.form, Rel.LE) for a in premise)
    assert defining_atoms(premise, ("x",)) is None
    assert defining_atoms(closure, ("x",)) == closure
    assert implication_valid_bruteforce(
        _mk("consec", None, ("x",), premise, FALSE_ATOM)
    )
    assert not implication_valid_bruteforce(
        _mk("consec", None, ("x",), closure, FALSE_ATOM)
    )
    # so are q1's x >= -1 with the guard x < -1 of q1 -> q2, and q2's
    # invariant, which gets no `nonneg` VC and no transition out; no other
    # transition leads into q2, so its strict rows are no consequent either
    b = load_benchmark("example2")
    inv = parse_invariant(
        "at q0: x >= -1/5\n"
        "at q1: x >= -1 and x <= 9/10\n"
        "at q2: x < -1/2 and x > -1/2\n",
        b.model,
        b.dsa,
    )
    V = CertTemplate.fresh(b.model, b.dsa, 0)
    table = post_table(V, b.model, b.dsa)
    vcs = build_product_vcs(b.model, b.dsa, [V], inv, [table])
    assert [i for i in vcs.implications if i.location == ("q1", "_")]
    assert not [
        i for i in vcs.implications
        if "edge q1->q2" in i.note or i.location == ("q2", "_")
    ]


def test_initiation_is_premise_free():
    vcs = _vcs("example2", eps=F(1, 2))
    (init,) = [i for i in vcs.implications if i.family == "init"]
    assert init.premise == ()
    # 100 >= -1/5 arrives as the constant -501/5 <= 0
    assert init.consequent.form.const == Poly.const(F(-501, 5))
    assert not init.consequent.form.variables()


def test_strict_atoms_stay_strict_in_premises():
    # the edge guard x >= -1 and x < 1 of q0 -> q1 keeps its `<` atom
    vcs = _vcs("example2", eps=F(1, 2))
    impl = next(
        i
        for i in vcs.implications
        if i.family == "consec" and "->q1" in i.note
    )
    x_below_1 = Atom(LinForm.var("x") - LinForm.constant(1), Rel.LT)
    assert x_below_1 in impl.premise
    assert all(
        a.rel in (Rel.LE, Rel.LT) for i in vcs.implications for a in i.premise
    )


def test_strict_consequent_is_an_error():
    b = load_benchmark("example2")
    V = CertTemplate.fresh(b.model, b.dsa, 0)
    inv = parse_invariant("at q0: x > 0\n", b.model, b.dsa)
    with pytest.raises(StrictConsequentError):
        build_product_vcs(
            b.model, b.dsa, [V], inv, [post_table(V, b.model, b.dsa)]
        )
    with pytest.raises(StrictConsequentError):
        normalize_consequent(Atom(LinForm.var("x"), Rel.LT))


def test_finite_support_expands_per_draw():
    vcs = _vcs("evenOrNegative")
    keyed = {}
    for i in vcs.implications:
        if i.family != "consec":
            continue
        assert i.variables == ("x",)  # support substituted, no w column
        key = (i.location, i.note.split(", w=")[0], i.note.split("row ")[1])
        keyed.setdefault(key, []).append(i.note)
    assert keyed and all(len(v) == 2 for v in keyed.values())


def test_increase_bound_parameter_and_concrete():
    vcs = _vcs("evenOrNegative")  # pair has B nonempty, so inc VCs exist
    assert any(i.family == "inc" for i in vcs.implications)
    assert any(p.name == "M0" for p in vcs.params)
    assert any("M0" in str(a) for a in vcs.side_atoms)  # M0 >= 0

    conc = _vcs("evenOrNegative", M=[F(5)])
    assert all(p.name != "M0" for p in conc.params)
    inc = next(i for i in conc.implications if i.family == "inc")
    assert "M0" not in inc.consequent.form.params()


def test_control_boxes_become_side_atoms():
    vcs = _vcs("example2", eps=F(1, 2))
    holds = [a.holds({"kappa": F(1, 2), "M0": F(0)}, {}) for a in vcs.side_atoms]
    assert all(holds)
    outside = [a.holds({"kappa": F(9), "M0": F(0)}, {}) for a in vcs.side_atoms]
    assert not all(outside)


def test_undeclared_parameters_rejected():
    b = load_benchmark("example2")
    V = CertTemplate.fresh(b.model, b.dsa, 0)
    ghost = Atom(LinForm.from_poly(Poly.param("ghost")), Rel.LE)
    rows = {loc: () for loc in locations(b.model, b.dsa)}
    rows[("q0", "_")] = (ghost,)
    inv = InvTemplate(rows)  # bypasses the concrete check on purpose
    with pytest.raises(ValueError, match="undeclared"):
        build_product_vcs(
            b.model, b.dsa, [V], inv, [post_table(V, b.model, b.dsa)]
        )


def test_an_invariant_missing_a_location_is_named():
    b = load_benchmark("example2")
    V = CertTemplate.fresh(b.model, b.dsa, 0)
    rows = dict(b.invariant.rows)
    del rows[("q1", "_")]
    with pytest.raises(ValueError, match=r"invariant .*\('q1', '_'\)"):
        build_product_vcs(
            b.model,
            b.dsa,
            [V],
            InvTemplate.concrete(rows),
            [post_table(V, b.model, b.dsa)],
        )


def test_one_template_and_one_table_per_pair():
    b = load_benchmark("example2")  # one Streett pair
    V = CertTemplate.fresh(b.model, b.dsa, 0)
    table = post_table(V, b.model, b.dsa)
    for Vs, tables in (([V, V], [table]), ([V], [table, table]), ([], [])):
        with pytest.raises(
            ValueError, match="^one V template and one PostTable per Streett pair$"
        ):
            build_product_vcs(b.model, b.dsa, Vs, b.invariant, tables)


def test_a_table_must_be_its_templates_pair():
    b = load_benchmark("example2")
    V = CertTemplate.fresh(b.model, b.dsa, 0)
    other = PostTable(1, post_table(V, b.model, b.dsa).pieces)
    with pytest.raises(ValueError, match="^PostTable/CertTemplate pair mismatch$"):
        build_product_vcs(b.model, b.dsa, [V], b.invariant, [other])


def test_eps_must_be_positive():
    with pytest.raises(ValueError, match="eps"):
        _vcs("example2", eps=F(0))


def test_promote_disturbance():
    # eta * w moves out of the constant into the w column
    form = LinForm(
        {"x": Poly.param("eta")},
        Poly.param("eta") * Poly.param("w") + Poly.const(3),
    )
    out = promote_disturbance(form, ("w",))
    assert out.coeff("w") == Poly.param("eta")
    assert out.coeff("x") == Poly.param("eta")
    assert out.const == Poly.const(3)

    with pytest.raises(ValueError, match="state-times-disturbance"):
        promote_disturbance(
            LinForm({"x": Poly.param("w")}, Poly()), ("w",)
        )
    with pytest.raises(ValueError, match="degree >= 2"):
        promote_disturbance(
            LinForm({}, Poly.param("w") * Poly.param("w")), ("w",)
        )


def test_dump_is_readable():
    vcs = _vcs("example2", eps=F(1, 2))
    text = vcs.dump()
    assert "consec at ('q0', '_')" in text
    assert "side: -M0 <= 0" in text
    # strict premise atoms print as written
    assert "      x - 1 < 0\n" in text


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@given(
    st.lists(
        st.tuples(rationals, rationals, st.sampled_from([Rel.LE, Rel.LT])),
        min_size=1,
        max_size=4,
    ),
    rationals,
)
def test_relaxation_only_weakens_premises(rows, x):
    # a premise keeps its meaning, strict atoms included; the relaxation
    # the Farkas dual reads (each atom's form, as `<=`) only weakens it
    atoms = [
        Atom(LinForm.var("x").scale(a) + LinForm.constant(b), rel)
        for a, b, rel in rows
    ]
    impl = _mk("consec", None, ("x",), atoms, Atom(LinForm.constant(0), Rel.LE))
    env = {"x": x}
    assert all(a.rel in (Rel.LE, Rel.LT) for a in impl.premise)
    holds = all(a.holds({}, env) for a in impl.premise)
    assert holds == all(a.holds({}, env) for a in atoms)
    if holds:
        assert all(Atom(a.form, Rel.LE).holds({}, env) for a in impl.premise)
    # one `<` atom per strict input atom: nothing is relaxed
    assert sum(a.rel == Rel.LT for a in impl.premise) == sum(
        a.rel == Rel.LT for a in atoms
    )
