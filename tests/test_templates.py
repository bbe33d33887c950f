"""Tests for certificate/invariant templates and post-expectation tables."""

import functools
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from streettsm.automata import parse_dsa
from streettsm.benchmarks import load_benchmark, manifest, read_corpus_text
from streettsm.expr import Atom, LinForm, Poly, Rel
from streettsm.farkas import farkas_premise_sat
from streettsm.lp import defining_atoms
from streettsm.model import Disturbance, parse_model
from streettsm.templates import (
    FALSE_ATOM,
    CertTemplate,
    InvTemplate,
    locations,
    parse_invariant,
    post_table,
)
from streettsm.vcgen import Implication


def _e2():
    b = load_benchmark("example2")
    return b.model, b.dsa


def test_locations_are_the_state_mode_product():
    model, dsa = _e2()
    assert locations(model, dsa) == [("q0", "_"), ("q1", "_"), ("q2", "_")]
    eon = load_benchmark("evenOrNegative")
    locs = locations(eon.model, eon.dsa)
    assert len(locs) == len(eon.dsa.states) * 2 and ("q_ae", "od") in locs


def test_fresh_cert_template_parameters():
    model, dsa = _e2()
    V = CertTemplate.fresh(model, dsa, 0)
    assert len(V.params) == 3 * 2  # one slope + one offset per location
    piece = V.pieces[("q0", "_")]
    assert piece.coeff("x") == Poly.param("th0_q0___x")
    assert piece.const == Poly.param("th0_q0___c")


def test_concrete_templates_reject_parameters():
    model, dsa = _e2()
    sym = {loc: LinForm.from_poly(Poly.param("a")) for loc in locations(model, dsa)}
    with pytest.raises(ValueError, match="parameter in concrete V"):
        CertTemplate.concrete(0, sym)
    with pytest.raises(ValueError, match="parameter in concrete invariant"):
        InvTemplate.concrete({("q0", "_"): (Atom(sym[("q0", "_")], Rel.LE),)})


def test_box_mean_substitution_is_symbolic_in_controls():
    model, dsa = _e2()
    V = CertTemplate.fresh(model, dsa, 0)
    table = post_table(V, model, dsa)
    # dynamics kappa*x + w with E[w] = 0: Post V at the self-loop piece is
    # th*kappa*x + th_c, bilinear in template and control parameters
    piece = next(
        p
        for p in table.pieces
        if p.location == ("q0", "_") and p.edge.target == "q0"
    )
    assert piece.form.coeff("x") == Poly.param("th0_q0___x") * Poly.param("kappa")
    assert piece.form.const == Poly.param("th0_q0___c")
    assert piece.form.degree() == 2


def test_one_piece_per_automaton_edge_and_branch():
    model, dsa = _e2()
    V = CertTemplate.fresh(model, dsa, 0)
    # 7 automaton edges, one branch
    assert len(post_table(V, model, dsa).pieces) == 7


def test_screen_keeps_the_binding_atoms_only():
    # y <= 2, 2y < 2, y <= 1, -y <= 0, 0 <= 1 and -y < 1: y < 1 beats the
    # non-strict y <= 1 at their tie, and -y <= 0 is the tightest lower end
    y = LinForm.var("y")
    one = LinForm.constant(1)
    premise = (
        Atom(y - one.scale(2), Rel.LE),
        Atom(y.scale(2) - one.scale(2), Rel.LT),
        Atom(y - one, Rel.LE),
        Atom(-y, Rel.LE),
        Atom(-one, Rel.LE),
        Atom(-y - one, Rel.LT),
    )
    kept = defining_atoms(premise, ("y",))
    assert kept == (premise[1], premise[3])
    # the premise-sat dual over them: 2 z0 - z1 = 1 and 2 z0 <= 2
    impl = Implication(
        "consec", None, ("y",), kept, Atom(y - one.scale(2), Rel.LE)
    )
    dual = farkas_premise_sat(impl, "z0")
    assert dual.zs == ("z0_0", "z0_1")
    z0, z1 = Poly.param("z0_0"), Poly.param("z0_1")
    assert dual.shared[2].poly == z0.scale(2) - z1 - Poly.const(1)
    assert dual.shared[3].poly == z0.scale(2) - Poly.const(2)


def test_finite_support_post_is_the_exact_mixture():
    # Post V at the parity-flip band: (V(q', 1) + V(q', -1)) / 2
    b = load_benchmark("evenOrNegative")
    vals = {loc: i + 1 for i, loc in enumerate(locations(b.model, b.dsa))}
    V = CertTemplate.concrete(
        0,
        {
            loc: LinForm.var("x").scale(F(vals[loc])) + LinForm.constant(1)
            for loc in locations(b.model, b.dsa)
        },
    )
    table = post_table(V, b.model, b.dsa)
    piece = next(
        p
        for p in table.pieces
        if p.location == ("q_ae", "ev")
        and all(a.holds({}, {"x": F(0)}) for a in p.guard)
    )
    c = F(vals[("q_ae", "od")])
    # E[c*x' + 1] over x' uniform on {1, -1} is exactly 1
    assert piece.form.coeff("x") == Poly.const(0)
    assert piece.form.const == Poly.const((c * 1 + 1 + c * (-1) + 1) / 2)


# hand-written models whose updates the corpus lacks: a squared and a
# state-times-disturbance monomial, and dependent components multiplied
SQUARES = """
vars: x
init: x = 0
disturbance: w finite { (2): 1/4, (-1): 1/4, (1): 1/2 }
control: kappa in [-1, 1]
branch _ -> _:
  guard: x <= 0
  update: x' = x + w*w
branch _ -> _:
  guard: x > 0
  update: x' = w*x + kappa*w
"""

DEPENDENT = """
vars: x y
init: x = 0, y = 0
disturbance: w finite { (1, 2): 1/3, (-1, -1): 2/3 }
branch _ -> _:
  guard: true
  update: x' = x + w0*w1, y' = w0*w1*y - w1*x + w0*w0*w1 + 1
"""

BOX = """
vars: x y
init: x = 0, y = 0
disturbance: w box { lo = (-1, 0), hi = (1, 2), mean = (1/2, 1/3) }
control: kappa in [-1, 1]
branch _ -> _:
  guard: true
  update: x' = kappa*x + w0*y + w1, y' = kappa*w1 - x
"""

LOOP = """
states: q0 q1
init: q0
trans q0 -> q0: x <= 0
trans q0 -> q1: x > 0
trans q1 -> q0: true
pair: A { q0 } B { q1 }
"""


def _per_sample_post(V, model, piece):
    """sum_w p(w) . V(f(x, w)) over a finite support, one composition per
    sample, or V at the mean of a box."""
    dist = model.disturbance
    cases = (
        dist.support
        if dist.kind == "finite"
        else ((dist.mean_vector(), F(1)),)
    )
    br = piece.branch
    vnext = V.pieces[(piece.edge.target, br.mode_to)]
    form = LinForm()
    for value, prob in cases:
        sample = dict(zip(dist.component_names(), value))
        image = {v: f.substitute_params(sample) for v, f in br.update.items()}
        form = form + vnext.substitute_state(image).scale(prob)
    return form


@pytest.mark.parametrize(
    "text", [SQUARES, DEPENDENT, BOX], ids=["squares", "dependent", "box"]
)
def test_post_is_the_per_sample_sum_beyond_the_corpus(text):
    model = parse_model(text)
    dsa = parse_dsa(LOOP, variables=model.state_vars)
    V = CertTemplate.fresh(model, dsa, 0)
    table = post_table(V, model, dsa)
    assert table.pieces
    for piece in table.pieces:
        assert piece.form == _per_sample_post(V, model, piece)


def test_moments_are_exact_where_the_mean_is_not():
    squares = parse_model(SQUARES).disturbance
    assert squares.mean_vector() == (F(3, 4),)
    assert squares.moment(("w", "w")) == F(7, 4)
    dependent = parse_model(DEPENDENT).disturbance
    assert dependent.mean_vector() == (F(-1, 3), F(0))
    assert dependent.moment(("w0", "w1")) == F(4, 3)
    assert dependent.moment(("w0", "w0", "w1")) == F(0)
    # E[x + w*w] = x + 7/4, the mean vector's x + 9/16 is not it
    form = LinForm.var("x") + LinForm.from_poly(Poly.param("w") * Poly.param("w"))
    moments = {}
    assert squares.expectation(form, moments) == (
        LinForm.var("x") + LinForm.constant(F(7, 4))
    )
    assert moments == {("w", "w"): F(7, 4)}
    # a form that reads no component is returned as it is
    plain = LinForm.var("x") + LinForm.from_poly(Poly.param("kappa"))
    assert squares.expectation(plain, {}) is plain


def test_box_moment_of_two_factors_raises():
    # model parsing rejects such an update; the operator raises on one
    # built directly
    box = Disturbance("w", 1, lo=(F(-1),), hi=(F(1),), mean=(F(0),))
    assert box.moment(("w",)) == F(0)
    square = LinForm.var("x").mul_poly(Poly.param("w") * Poly.param("w"))
    with pytest.raises(ValueError, match="no moment of w\\*w"):
        box.expectation(square, {})


@functools.lru_cache(maxsize=None)
def _oracle_inputs(name):
    """Post V table of a concrete V with a distinct affine piece per
    location, under the fixture's control (box midpoints without one)."""
    b = load_benchmark(name)
    V = CertTemplate.concrete(
        0,
        {
            loc: sum(
                (
                    LinForm.var(v).scale(F(i + 2, j + 1))
                    for j, v in enumerate(b.model.state_vars)
                ),
                LinForm.constant(F(3 * i - 5, 2)),
            )
            for i, loc in enumerate(locations(b.model, b.dsa))
        },
    )
    if b.cert is not None:
        control = {k: F(v) for k, v in b.cert["control"].items()}
    else:
        control = {c.name: (c.lo + c.hi) / 2 for c in b.model.controls}
    # guard and edge boundaries, so that draws land on every piece
    cuts = {F(0)}
    atoms = [a for br in b.model.branches for a in br.guard]
    atoms += [a for t in b.dsa.transitions for a in t.atoms]
    for atom in atoms:
        form = atom.form.substitute_params(control)
        if len(form.variables()) == 1:
            (v,) = form.variables()
            cuts.add(
                -form.const.constant_value() / form.coeff(v).constant_value()
            )
    return b, V, control, post_table(V, b.model, b.dsa), sorted(cuts)


def _expected_post(b, V, control, loc, x):
    """Sum over w of p(w) * V at the exact successor of (loc, x)."""
    q, m = loc
    env = b.model.state_env(x)
    q_next = b.dsa.step(q, env, m)
    dist = b.model.disturbance
    support = (
        dist.support
        if dist.kind == "finite"
        else ((dist.mean_vector(), F(1)),)
    )
    total = F(0)
    for w, prob in support:
        x_next, m_next = b.model.step(x, m, w, control)
        total += prob * V.pieces[(q_next, m_next)].eval(
            {}, b.model.state_env(x_next)
        )
    return total


ROWS = manifest()["benchmarks"] + manifest()["extras"]


@pytest.mark.parametrize("name", [row["name"] for row in ROWS])
@given(data=st.data())
def test_post_table_matches_the_exact_one_step_expectation(name, data):
    b, V, control, table, cuts = _oracle_inputs(name)
    near_cut = st.builds(
        lambda c, d: c + d,
        st.sampled_from(cuts),
        st.fractions(min_value=-1, max_value=1, max_denominator=4),
    )
    anywhere = st.fractions(min_value=-500, max_value=500, max_denominator=8)
    x = tuple(
        data.draw(st.one_of(near_cut, anywhere), label=v)
        for v in b.model.state_vars
    )
    env = b.model.state_env(x)
    for loc in locations(b.model, b.dsa):
        hits = [
            p
            for p in table.pieces
            if p.location == loc
            and all(a.holds(control, env) for a in p.guard)
        ]
        assert len(hits) == 1, (loc, x, [p.branch.line for p in hits])
        assert hits[0].form.eval(control, env) == _expected_post(
            b, V, control, loc, x
        )


def test_parse_invariant_normal_form():
    model, dsa = _e2()
    inv = parse_invariant(read_corpus_text("example2.inv"), model, dsa)
    (row,) = inv.rows[("q0", "_")]
    # x >= -1/5 arrives in <= normal form
    assert row.rel == Rel.LE
    assert row.form.coeff("x") == Poly.const(-1)
    assert row.form.const == Poly.const(F(-1, 5))
    assert inv.rows[("q2", "_")] == (FALSE_ATOM,)
    assert len(inv.rows[("q1", "_")]) == 2


def test_parse_invariant_rejects_bad_locations():
    model, dsa = _e2()
    from streettsm.syntax import SourceError

    with pytest.raises(SourceError, match="unknown automaton state"):
        parse_invariant("at q9: true\n", model, dsa)
    with pytest.raises(SourceError, match="duplicate location"):
        parse_invariant("at q0: true\nat q0: x >= 0\n", model, dsa)
    eon = load_benchmark("evenOrNegative")
    with pytest.raises(SourceError, match="needs one"):
        parse_invariant("at q_ae: x >= 0\n", eon.model, eon.dsa)


def test_unlisted_invariant_locations_default_to_true():
    model, dsa = _e2()
    inv = parse_invariant("at q2: false\n", model, dsa)
    assert inv.rows[("q0", "_")] == ()
    assert inv.rows[("q1", "_")] == ()
