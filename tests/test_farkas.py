"""Farkas transform: dual shapes, routing, differential oracle."""

import dataclasses
import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streettsm import farkas, lp
from streettsm.automata import parse_dsa
from streettsm.backends import simplex_solve
from streettsm.benchmarks import load_benchmark, read_corpus_text
from streettsm.expr import Atom, LinForm, Param, ParamKind, Poly, Rel
from streettsm.farkas import (
    Disjunction,
    PolyConstraint,
    assemble,
    farkas_general,
    farkas_premise_sat,
    implication_valid_bruteforce,
    transform,
)
from streettsm.model import parse_model
from streettsm.templates import (
    FALSE_ATOM,
    CertTemplate,
    InvTemplate,
    parse_invariant,
    post_table,
)
from streettsm.vcgen import Implication, VCSet, build_product_vcs

P = Poly.param
ONE = Fraction(1)


def const_atom(coeffs: dict[str, Fraction], rhs: Fraction) -> Atom:
    """sum coeffs . y <= rhs with constant entries."""
    form = LinForm(
        {v: Poly.const(c) for v, c in coeffs.items()}, Poly.const(-rhs)
    )
    return Atom(form, Rel.LE)


def toy_implication() -> Implication:
    # forall y: (y <= 1 and -y <= 0) => y <= 2
    return Implication(
        "consec",
        None,
        ("y",),
        (const_atom({"y": ONE}, ONE), const_atom({"y": -ONE}, Fraction(0))),
        const_atom({"y": ONE}, Fraction(2)),
    )


def test_toy_dual_shape_and_witness():
    impl = toy_implication()
    assert lp.defining_atoms(impl.premise, impl.variables) == impl.premise
    dual = farkas_general(impl, "z0")
    assert [z.name for z in dual.zs] == ["z0_0", "z0_1"]
    assert all(z.kind == ParamKind.MULTIPLIER for z in dual.zs)
    # exists z >= 0: (z0 - z1 = 1 and z0 <= 2) or (z0 - z1 = 0 and z0 < 0)
    assert dual.left[0].poly == P("z0_0") - P("z0_1") - Poly.const(ONE)
    assert dual.left[0].rel == Rel.EQ
    assert dual.left[1].poly == P("z0_0") - Poly.const(Fraction(2))
    assert dual.left[1].rel == Rel.LE
    assert dual.right[0].poly == P("z0_0") - P("z0_1")
    assert dual.right[1].poly == P("z0_0")
    assert dual.right[1].rel == Rel.LT
    good = {"z0_0": ONE, "z0_1": Fraction(0)}
    assert all(item.holds(good) for item in dual.items())
    bad = {"z0_0": Fraction(0), "z0_1": Fraction(0)}
    assert not all(item.holds(bad) for item in dual.items())


def test_premise_sat_form_drops_the_disjunction():
    impl = toy_implication()
    dual = farkas_premise_sat(impl, "z0")
    assert dual.mode == "premise-sat"
    assert dual.left == () and dual.right == ()
    assert len(dual.shared) == 4  # two z >= 0, one equality, one inequality
    assert not any(isinstance(i, Disjunction) for i in dual.items())
    good = {"z0_0": ONE, "z0_1": Fraction(0)}
    assert all(item.holds(good) for item in dual.items())


def templated_control_implication() -> Implication:
    # premise [eta1, eta3, -1] x <= [eta2, eta4, -1],
    # consequent (alpha0*kappa - alpha1) x <= beta1 - beta0
    x = "x"
    premise = (
        Atom(LinForm({x: P("eta1")}, Poly() - P("eta2")), Rel.LE),
        Atom(LinForm({x: P("eta3")}, Poly() - P("eta4")), Rel.LE),
        const_atom({x: -ONE}, -ONE),
    )
    consequent = Atom(
        LinForm(
            {x: P("alpha0") * P("kappa") - P("alpha1")},
            P("beta0") - P("beta1"),
        ),
        Rel.LE,
    )
    return Implication("noninc", ("q1", "_"), (x,), premise, consequent)


def test_templated_premise_takes_general_form_with_exact_dual():
    impl = templated_control_implication()
    assert lp.defining_atoms(impl.premise, impl.variables) == impl.premise
    assert transform(VCSet((impl,), (), ())) == [farkas_general(impl, "z0")]
    dual = farkas_general(impl, "z")
    assert dual.mode == "general"
    # A^T z = c: z0*eta1 + z1*eta3 - z2 = alpha0*kappa - alpha1
    assert dual.left[0].poly == (
        P("z_0") * P("eta1")
        + P("z_1") * P("eta3")
        - P("z_2")
        - (P("alpha0") * P("kappa") - P("alpha1"))
    )
    assert dual.left[0].rel == Rel.EQ
    # b^T z <= d: z0*eta2 + z1*eta4 - z2 <= beta1 - beta0
    assert dual.left[1].poly == (
        P("z_0") * P("eta2")
        + P("z_1") * P("eta4")
        - P("z_2")
        - (P("beta1") - P("beta0"))
    )
    assert dual.left[1].rel == Rel.LE
    # infeasibility branch: A^T z = 0 and b^T z < 0
    assert dual.right[0].poly == (
        P("z_0") * P("eta1") + P("z_1") * P("eta3") - P("z_2")
    )
    assert dual.right[1].poly == (
        P("z_0") * P("eta2") + P("z_1") * P("eta4") - P("z_2")
    )
    assert dual.right[1].rel == Rel.LT


def relax(impl: Implication) -> Implication:
    """The implication with every strict premise atom read as `<=`."""
    premise = tuple(Atom(a.form, Rel.LE) for a in impl.premise)
    return dataclasses.replace(impl, premise=premise)


def test_dual_of_strict_atoms_is_the_relaxed_dual():
    # 0 < x < 1 implies x <= 2: a feasible strict premise is dualized as
    # its closure, multiplier for multiplier; so is a parameter-dependent
    # one, in the general form
    x = LinForm.var("x")
    premise = (Atom(x - LinForm.constant(ONE), Rel.LT), Atom(-x, Rel.LT))
    impl = Implication(
        "consec", None, ("x",), premise, const_atom({"x": ONE}, Fraction(2))
    )
    impls = [impl] + [
        i for i in _corpus_implications()
        if any(a.rel == Rel.LT for a in i.premise)
    ]
    checked = 0
    for impl in impls:
        (dual,) = transform(VCSet((impl,), (), ()))
        (want,) = transform(VCSet((relax(impl),), (), ()))
        assert dual.mode == want.mode and dual.zs == want.zs
        assert dual.items() == want.items()
        checked += 1
    assert checked > 1


def test_even_or_negative_synthesizes_over_its_invariant():
    b = load_benchmark("evenOrNegative")
    Vs = [CertTemplate.fresh(b.model, b.dsa, k) for k in range(len(b.dsa.pairs))]
    tables = [post_table(V, b.model, b.dsa) for V in Vs]
    vcs = build_product_vcs(b.model, b.dsa, Vs, b.invariant, tables)
    system = assemble(vcs, transform(vcs))
    assert system.all_linear()
    assert simplex_solve(system).status == "sat"


def example2_pieces(model_file: str):
    model = parse_model(read_corpus_text(model_file))
    dsa = parse_dsa(
        read_corpus_text("example2.dsa"),
        variables=model.state_vars,
        modes=model.modes,
    )
    inv = parse_invariant(read_corpus_text("example2.inv"), model, dsa)
    Vs = [CertTemplate.fresh(model, dsa, k) for k in range(len(dsa.pairs))]
    tables = [post_table(V, model, dsa) for V in Vs]
    return model, dsa, inv, Vs, tables


def test_fixed_control_concrete_invariant_assembles_to_pure_lp():
    model, dsa, inv, Vs, tables = example2_pieces("example2-fixed.model")
    vcs = build_product_vcs(model, dsa, Vs, inv, tables, eps=Fraction(1, 2))
    duals = transform(vcs)
    assert Counter(d.mode for d in duals) == {"premise-sat": 11}
    system = assemble(vcs, duals)
    assert system.degree() == 1
    assert not system.has_disjunction()
    assert system.all_linear()
    # every premise is a box, dualized in closed form: no multiplier, so
    # the parameters are V's and M's alone
    assert all(p.kind is not ParamKind.MULTIPLIER for p in system.params)
    assert len(system.params) == 7
    # the parameter-free rows of the closed form that hold are not kept,
    # nor a row that a tighter one with the same non-constant part implies
    assert len(system.constraints) == 10
    assert all(c.poly.params() for c in system.constraints)


def test_free_control_turns_quadratic_but_keeps_conjunctive_form():
    model, dsa, inv, Vs, tables = example2_pieces("example2.model")
    vcs = build_product_vcs(model, dsa, Vs, inv, tables, eps=Fraction(1, 2))
    duals = transform(vcs)
    # same routing as the fixed model: premises never mention the control
    assert Counter(d.mode for d in duals) == {"premise-sat": 11}
    system = assemble(vcs, duals)
    assert system.degree() == 2  # theta * kappa products in the consequents
    assert not system.has_disjunction()
    assert not system.all_linear()
    # deterministic multiplier naming: dual i prefixes its z's with z<i>
    for i, dual in enumerate(duals):
        assert all(z.name.startswith(f"z{i}_") for z in dual.zs)


def _dual_parts_by_repeated_add(impl, zs, homogeneous):
    """The dual rows built one `+` at a time, as a reference."""
    eqs = []
    for v in impl.variables:
        acc = Poly() if homogeneous else Poly() - impl.consequent.form.coeff(v)
        for z, atom in zip(zs, impl.premise):
            acc = acc + P(z.name) * atom.form.coeff(v)
        eqs.append(PolyConstraint(acc, Rel.EQ))
    d = Poly() - impl.consequent.form.const
    rhs = Poly() if homogeneous else Poly() - d
    for z, atom in zip(zs, impl.premise):
        rhs = rhs + P(z.name) * (Poly() - atom.form.const)
    return eqs, rhs


def _corpus_implications():
    out = []
    for name, templated in (
        ("example2", False), ("Temperature4", False), ("example2", True)
    ):
        b = load_benchmark(name)
        inv = (
            InvTemplate.fresh(b.model, b.dsa, nrows=2) if templated
            else b.invariant
        )
        Vs = [CertTemplate.fresh(b.model, b.dsa, k) for k in range(len(b.dsa.pairs))]
        tables = [post_table(V, b.model, b.dsa) for V in Vs]
        vcs = build_product_vcs(b.model, b.dsa, Vs, inv, tables)
        out.extend(vcs.implications)
    return out


@pytest.mark.parametrize("homogeneous", [False, True])
def test_dual_parts_match_repeated_addition(homogeneous):
    impls = _corpus_implications()
    # the templated invariant puts parameters into premises
    assert any(not a.form.is_param_free() for i in impls for a in i.premise)
    # "A" sorts before every template parameter name, "z" after them
    for impl, prefix in itertools.product(impls, ("z", "A")):
        zs = farkas._fresh_zs(impl, prefix)
        eqs, rhs = farkas._dual_parts(impl, zs, homogeneous)
        ref_eqs, ref_rhs = _dual_parts_by_repeated_add(impl, zs, homogeneous)
        assert eqs == ref_eqs and rhs == ref_rhs
        # same key order too, so everything downstream iterates alike
        for got, ref in zip([c.poly for c in eqs] + [rhs],
                            [c.poly for c in ref_eqs] + [ref_rhs]):
            assert list(got.terms.items()) == list(ref.terms.items())


def test_templated_invariant_forces_the_general_form():
    model, dsa, _, Vs, tables = example2_pieces("example2.model")
    inv = InvTemplate.fresh(model, dsa, nrows=2)
    vcs = build_product_vcs(model, dsa, Vs, inv, tables, eps=Fraction(1, 2))
    duals = transform(vcs)
    assert Counter(d.mode for d in duals) == {"general": 24, "premise-sat": 2}
    # the only premise-free implications are the initiation rows
    for dual, impl in zip(duals, vcs.implications):
        if dual.mode == "premise-sat":
            assert impl.family == "init"
            assert dual.zs == ()
    system = assemble(vcs, duals)
    assert system.degree() == 2  # z * eta products
    assert system.has_disjunction()


def test_empty_premise_dual_is_the_consequent_constant():
    model, dsa, _, Vs, tables = example2_pieces("example2.model")
    inv = InvTemplate.fresh(model, dsa, nrows=2)
    vcs = build_product_vcs(model, dsa, Vs, inv, tables, eps=Fraction(1, 2))
    duals = transform(vcs)
    init = [
        (dual, impl)
        for dual, impl in zip(duals, vcs.implications)
        if impl.family == "init"
    ]
    assert len(init) == 2
    for r, (dual, _) in enumerate(init):
        # row(x0) <= 0 with x0 = 100: 100*eta_x - eta_rhs <= 0
        expected = P(f"eta_q0___{r}_x").scale(100) - P(f"eta_q0___{r}_rhs")
        ineqs = [
            c for c in dual.items()
            if isinstance(c, PolyConstraint) and c.rel == Rel.LE
        ]
        assert [c.poly for c in ineqs] == [expected]


def test_assemble_carries_side_constraints_over_parameters():
    model, dsa, inv, Vs, tables = example2_pieces("example2.model")
    vcs = build_product_vcs(model, dsa, Vs, inv, tables, eps=Fraction(1, 2))
    system = assemble(vcs, transform(vcs))
    kept = [c for c in system.constraints if isinstance(c, PolyConstraint)]
    # M0 >= 0, kappa <= 4 and kappa >= -4
    upper = PolyConstraint(P("kappa") - Poly.const(Fraction(4)), Rel.LE)
    sides = [
        PolyConstraint(Poly() - P("M0"), Rel.LE),
        upper,
        PolyConstraint(Poly() - P("kappa") - Poly.const(Fraction(4)), Rel.LE),
    ]
    atoms = {PolyConstraint(a.form.const, a.rel) for a in vcs.side_atoms}
    assert atoms == set(sides)
    # each is kept, or implied by a kept inequality that exceeds it by a
    # nonnegative constant (the same non-constant part): kappa <= 4 by a
    # dual row
    for side in sides:
        assert any(
            row.rel is not Rel.EQ
            and (row.poly - side.poly).is_constant()
            and (row.poly - side.poly).constant_value() >= 0
            for row in kept
        ), side
    assert upper not in kept


def test_side_atoms_must_not_mention_state_variables():
    bad = Atom(LinForm({"x": Poly.const(ONE)}, Poly()), Rel.LE)
    vcs = VCSet((), (Param("x", ParamKind.CERT),), (bad,))
    with pytest.raises(ValueError, match="mentions variables"):
        assemble(vcs, [])


def test_dumps_are_readable():
    impl = templated_control_implication()
    duals = [farkas_general(impl, "z0")]
    vcs_params = tuple(
        Param(n, ParamKind.CERT)
        for n in ("alpha0", "alpha1", "beta0", "beta1", "kappa",
                  "eta1", "eta2", "eta3", "eta4")
    )
    system = assemble(VCSet((impl,), vcs_params, ()), duals)
    # tests read dumps as identity hashes: the text is pinned byte for byte
    assert system.dump() == (
        "params: alpha0, alpha1, beta0, beta1, kappa, eta1, eta2, eta3, eta4,"
        " z0_0, z0_1, z0_2\n"
        "max degree: 2\n"
        "  -z0_0 <= 0\n"
        "  -z0_1 <= 0\n"
        "  -z0_2 <= 0\n"
        "or:\n"
        "  | alpha1 - z0_2 - alpha0*kappa + eta1*z0_0 + eta3*z0_1 == 0\n"
        "  | beta0 - beta1 - z0_2 + eta2*z0_0 + eta4*z0_1 <= 0\n"
        "  / -z0_2 + eta1*z0_0 + eta3*z0_1 == 0\n"
        "  / -z0_2 + eta2*z0_0 + eta4*z0_1 < 0\n"
    )


# -- differential against the brute-force validity oracle ----------------------


def linear_parts(poly: Poly, names: list[str]):
    coeffs = {n: Fraction(0) for n in names}
    const = Fraction(0)
    for mono, coef in poly.terms.items():
        if len(mono) == 0:
            const += coef
        elif len(mono) == 1:
            coeffs[mono[0]] += coef
        else:
            raise AssertionError(f"nonlinear dual poly {poly}")
    return coeffs, const


def branch_feasible(constraints, names: list[str]) -> bool:
    system = lp.LinearSystem(list(names))
    for c in constraints:
        coeffs, const = linear_parts(c.poly, names)
        row = tuple((j, coeffs[n]) for j, n in enumerate(names) if coeffs[n])
        system.rows.append((row, c.rel, -const))
    return lp.solve(system).status == "optimal"


def dual_sat_by_lp(dual) -> bool:
    """Exact satisfiability of one parameter-free dual, branch by branch."""
    names = [z.name for z in dual.zs]
    if dual.mode == "premise-sat":
        return branch_feasible(dual.shared, names)
    return branch_feasible(dual.shared + dual.left, names) or branch_feasible(
        dual.shared + dual.right, names
    )


fracs = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def constant_implications(draw):
    nvars = draw(st.integers(1, 3))
    names = tuple(f"y{i}" for i in range(nvars))
    nrows = draw(st.integers(0, 4))

    def atom():
        coeffs = {v: draw(fracs) for v in names}
        rhs = draw(fracs)
        return const_atom(coeffs, rhs)

    premise = tuple(atom() for _ in range(nrows))
    return Implication("consec", None, names, premise, atom())


@given(constant_implications())
@settings(deadline=None, max_examples=120)
def test_general_dual_sat_iff_implication_valid(impl):
    dual = farkas_general(impl, "z")
    assert dual_sat_by_lp(dual) == implication_valid_bruteforce(impl)


@given(constant_implications())
@settings(deadline=None, max_examples=60)
def test_routing_preserves_dual_satisfiability(impl):
    # the screen, then the premise-sat route, agrees with the general form:
    # a premise the screen finds empty implies anything
    general = dual_sat_by_lp(farkas_general(impl, "z"))
    premise = lp.defining_atoms(impl.premise, impl.variables)
    if premise is None:
        assert general
        return
    (routed,) = transform(VCSet((screened(impl, premise),), (), ()))
    assert dual_sat_by_lp(routed) == general


def screened(impl: Implication, premise) -> Implication:
    return dataclasses.replace(impl, premise=premise)


@st.composite
def box_implications(draw):
    """Premises of one-variable atoms over a few shared bounds, so that
    bounds repeat (also scaled), strict and non-strict atoms tie at one
    bound, and constant atoms, true or false, ride along."""
    nvars = draw(st.integers(1, 3))
    names = tuple(f"y{i}" for i in range(nvars))
    bounds = st.sampled_from([Fraction(-1), Fraction(0), Fraction(1, 2), ONE])
    scales = st.sampled_from([ONE, Fraction(2), -ONE, Fraction(-1, 2), Fraction(-3)])
    rels = st.sampled_from([Rel.LE, Rel.LT])

    def atom():
        rel = draw(rels)
        if draw(st.integers(0, 5)) == 0:
            return Atom(LinForm.constant(draw(bounds)), rel)
        v, a, b = draw(st.sampled_from(names)), draw(scales), draw(bounds)
        # a (v - b) REL 0: v <= b or v < b when a > 0, a lower bound else
        return Atom(LinForm({v: Poly.const(a)}, Poly.const(-a * b)), rel)

    premise = tuple(atom() for _ in range(draw(st.integers(0, 6))))
    consequent = const_atom({v: draw(fracs) for v in names}, draw(fracs))
    return Implication("consec", None, names, premise, consequent)


@given(box_implications())
@settings(deadline=None, max_examples=150)
def test_box_premise_dual_sat_iff_implication_valid(impl):
    # the screen finds the premise empty exactly when it implies 1 <= 0
    premise = lp.defining_atoms(impl.premise, impl.variables)
    empty = implication_valid_bruteforce(
        dataclasses.replace(impl, consequent=FALSE_ATOM)
    )
    assert (premise is None) == empty
    if premise is None:
        return
    (routed,) = transform(VCSet((screened(impl, premise),), (), ()))
    assert routed.mode == "premise-sat"
    assert dual_sat_by_lp(routed) == implication_valid_bruteforce(impl)
    # only the binding atoms get a multiplier: one upper, one lower
    assert len(routed.zs) <= 2 * len(impl.variables)


def test_bruteforce_oracle_rejects_parameters():
    with pytest.raises(ValueError, match="parameter-free"):
        implication_valid_bruteforce(templated_control_implication())
