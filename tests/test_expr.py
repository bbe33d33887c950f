"""Tests for the polynomial / affine-form layer."""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from streettsm.expr import Atom, LinForm, Poly, Rel, _accumulate, rat


def test_rat_coercions():
    assert rat(3) == F(3)
    assert rat(F(2, 7)) == F(2, 7)
    assert rat("3/7") == F(3, 7)
    assert rat("0.1") == F(1, 10)  # decimal strings parse exactly
    assert rat("-2.5e-1") == F(-1, 4)
    with pytest.raises(TypeError):
        rat(True)
    with pytest.raises(TypeError):
        rat(0.1)  # binary floats are rejected, not silently converted


def test_poly_canonical_form():
    assert Poly.const(0).is_zero()
    p = Poly.param("a") - Poly.param("a")
    assert p.is_zero() and p == Poly()
    q = Poly.param("a") * Poly.param("b")
    assert q.degree() == 2 and q.params() == {"a", "b"}
    # monomials are sorted, so a*b == b*a structurally
    assert q == Poly.param("b") * Poly.param("a")
    assert hash(q) == hash(Poly.param("b") * Poly.param("a"))


def test_poly_constant_value():
    assert Poly.const("5/2").constant_value() == F(5, 2)
    assert Poly().constant_value() == 0
    with pytest.raises(ValueError):
        Poly.param("a").constant_value()


def test_poly_partial_substitution():
    p = Poly.param("a") * Poly.param("b") + Poly.const(1)
    q = p.substitute({"a": F(2)})
    assert q == Poly.param("b").scale(2) + Poly.const(1)
    assert q.eval({"b": F(3)}) == F(7)
    with pytest.raises(KeyError):
        q.eval({})


def test_linform_cancellation():
    x = LinForm.var("x")
    s = (x.scale(F(1, 2)) + LinForm.constant(1)) + x.scale(F(1, 2))
    assert s.coeff("x") == Poly.const(1)
    assert s.const == Poly.const(1)
    assert (x - x).is_zero()
    assert "x" not in (x - x).coeffs  # zero coefficients are dropped


def test_linform_eval_frozen():
    # control-affine offset alpha*x + beta at a concrete valuation
    form = LinForm.var("x").mul_poly(Poly.param("alpha")) + LinForm.from_poly(
        Poly.param("beta")
    )
    val = form.eval({"alpha": F(-1, 32), "beta": F(4787, 512)}, {"x": F(280)})
    assert val == F(307, 512)


def test_linform_state_composition():
    # substituting x -> 2x + 3 into a form composes affinely
    x = LinForm.var("x")
    v = x.scale(F(5)) + LinForm.constant(-1)
    w = v.substitute_state({"x": x.scale(2) + LinForm.constant(3)})
    assert w.coeff("x") == Poly.const(10)
    assert w.const == Poly.const(14)
    # unmapped variables pass through
    u = (LinForm.var("x") + LinForm.var("y")).substitute_state(
        {"x": LinForm.constant(0)}
    )
    assert u.variables() == {"y"}


def test_linform_param_coefficients():
    a = Poly.param("a")
    form = LinForm.var("x").mul_poly(a)
    sub = form.substitute_state({"x": LinForm.var("x").mul_poly(a)})
    assert sub.coeff("x") == a * a
    assert sub.degree() == 2
    conc = form.substitute_params({"a": F(3)})
    assert conc.is_param_free() and conc.coeff("x") == Poly.const(3)


def test_atom_normalization():
    # atoms are <= or <; an equality is two atoms, never one
    x = LinForm.var("x")
    assert Atom(x, Rel.LE).rel == Rel.LE and Atom(x, Rel.LT).rel == Rel.LT
    with pytest.raises(ValueError, match="two <= atoms"):
        Atom(x - LinForm.constant(1), Rel.EQ)


def test_atom_holds():
    x = LinForm.var("x")
    lt = Atom(x - LinForm.constant(1), Rel.LT)
    assert lt.holds({}, {"x": F(0)})
    assert not lt.holds({}, {"x": F(1)})  # strict at the boundary
    le = Atom(x - LinForm.constant(1), Rel.LE)
    assert le.holds({}, {"x": F(1)})


rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=8
)


@st.composite
def polys(draw):
    names = ["a", "b", "c"]
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        mono = tuple(
            sorted(draw(st.lists(st.sampled_from(names), max_size=2)))
        )
        terms[mono] = draw(rationals)
    return Poly(terms)


@given(polys(), polys(), polys())
def test_poly_ring_laws(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert (p - p).is_zero()


def _assert_canonical(p):
    assert p.terms == Poly(p.terms).terms
    for mono, coeff in p.terms.items():
        assert list(mono) == sorted(mono)
        assert type(coeff) is F and coeff != 0


partial_valuations = st.dictionaries(st.sampled_from(["a", "b", "c"]), rationals)
total_valuations = st.fixed_dictionaries(
    {"a": rationals, "b": rationals, "c": rationals}
)


@given(
    polys(), polys(), rationals, st.integers(-3, 3),
    partial_valuations, total_valuations,
)
def test_operations_keep_canonical_form(p, q, f, n, partial, total):
    # results skip the checking constructor, so each must already be canonical
    results = [p + q, p - q, p - p, -p, p * q, p * (q - q)]
    results += [p.scale(f), p.scale(n), p.scale(0)]
    results += [p.substitute(partial), p.substitute(total), p.substitute({})]
    results += [Poly.const(f), Poly.const(n), Poly.param("b")]
    terms = dict(p.terms)
    _accumulate(terms, q, -1, "b")  # the in-place p - b*q of the Farkas rows
    results.append(Poly._wrap(terms))
    assert results[-1] == p - Poly.param("b") * q
    for r in results:
        _assert_canonical(r)
    assert p.scale(0).is_zero() and (p - p).is_zero()
    assert p.substitute(total).is_constant()


def _substituted(p, valuation):
    """p with its bound parameters replaced, term by term, through the
    checking constructor."""
    terms = {}
    for mono, coeff in p.terms.items():
        rest = tuple(n for n in mono if n not in valuation)
        for n in mono:
            if n in valuation:
                coeff *= valuation[n]
        terms[rest] = terms.get(rest, F(0)) + coeff
    return Poly(terms)


@given(polys(), polys(), partial_valuations)
def test_substitution_returns_its_operand_when_nothing_is_bound(p, q, val):
    f = LinForm({"x": p, "y": q}, p * q)
    for poly in (p, q, p * q):
        unbound = {n: v for n, v in val.items() if n not in poly.params()}
        assert poly.substitute(unbound) is poly
        assert poly.substitute(val) == _substituted(poly, val)
    unbound = {n: v for n, v in val.items() if n not in f.params()}
    assert f.substitute_params(unbound) is f
    assert f.substitute_params({"d": F(1)}) is f
    want = LinForm(
        {"x": _substituted(p, val), "y": _substituted(q, val)},
        _substituted(p * q, val),
    )
    assert f.substitute_params(val) == want


@given(polys(), polys(), polys())
def test_linform_params_are_its_polys_params(p, q, r):
    f = LinForm({"x": p, "y": q}, r)
    names = f.params()
    assert names == p.params() | q.params() | r.params()
    assert isinstance(names, frozenset) and f.params() is names
    assert f.is_param_free() == (f.degree() == 0)


@given(polys(), polys())
def test_cached_hashes_stay_structural(p, q):
    first = hash(p)  # fills the cache
    assert hash(p) == first == hash(frozenset(p.terms.items()))
    r = (p + q) - q  # equal to p, built another way
    assert r == p and hash(r) == first
    f = LinForm({"x": p, "y": q}, q)
    g = LinForm({"y": q}) + LinForm({"x": r}, q)
    assert f == g and hash(f) == hash(g)
    assert {Atom(f, Rel.LE): 1}[Atom(g, Rel.LE)] == 1


@given(polys(), polys(), rationals, rationals, rationals)
def test_poly_eval_is_homomorphism(p, q, va, vb, vc):
    env = {"a": va, "b": vb, "c": vc}
    assert (p + q).eval(env) == p.eval(env) + q.eval(env)
    assert (p * q).eval(env) == p.eval(env) * q.eval(env)


@given(rationals, rationals, rationals, rationals)
def test_linform_substitution_commutes_with_eval(c1, c0, d1, d0):
    # eval(V[x -> g(x)], s) == eval(V, x = eval(g, s))
    v = LinForm.var("x").scale(c1) + LinForm.constant(c0)
    g = LinForm.var("x").scale(d1) + LinForm.constant(d0)
    composed = v.substitute_state({"x": g})
    for xv in (F(0), F(1), F(-7, 3)):
        inner = g.eval({}, {"x": xv})
        assert composed.eval({}, {"x": xv}) == v.eval({}, {"x": inner})


# numerators up to 10^12, denominators up to 10^9
big = st.builds(F, st.integers(-10**12, 10**12), st.integers(1, 10**9))
big_nonzero = big.filter(bool)
big_values = st.one_of(big, st.integers(-10**12, 10**12))


@st.composite
def deep_polys(draw):
    """Up to 6 terms of degree <= 3 over a, b, c (possibly none)."""
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        mono = tuple(
            sorted(draw(st.lists(st.sampled_from("abc"), max_size=3)))
        )
        terms[mono] = draw(big_nonzero)
    return Poly(terms)


def _fold(p, env):
    """The reference value: one `Fraction` product and sum per term."""
    total = F(0)
    for mono, coeff in p.terms.items():
        prod = coeff
        for name in mono:
            prod *= env[name]
        total += prod
    return total


@given(deep_polys(), big_values, big_values, big_values)
def test_poly_eval_matches_the_fraction_fold(p, va, vb, vc):
    env = {"a": va, "b": vb, "c": vc}
    got = p.eval(env)
    assert type(got) is F and got == _fold(p, env)
    assert Poly().eval(env) == 0 and type(Poly().eval({})) is F


@given(deep_polys(), big_values)
def test_poly_eval_rejects_an_unbound_parameter(p, va):
    unbound = sorted(p.params())
    if unbound:
        with pytest.raises(KeyError, match="unbound"):
            p.eval({n: va for n in unbound[1:]})
    else:
        assert p.eval({}) == _fold(p, {})
