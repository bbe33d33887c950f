"""Farkas transform: dual shapes, routing, QCP lowering, differential oracle."""

import dataclasses
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
    ConstraintSystem,
    Disjunction,
    PolyConstraint,
    assemble,
    dump_duals,
    farkas_general,
    farkas_premise_sat,
    implication_valid_bruteforce,
    premise_feasible,
    rewrite_qcp,
    transform,
)
from streettsm.model import parse_model
from streettsm.templates import CertTemplate, InvTemplate, parse_invariant, post_table
from streettsm.vcgen import (
    Implication,
    VCSet,
    build_product_vcs,
    normalize_strict,
)

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
    assert premise_feasible(impl) == "feasible"
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
    assert premise_feasible(impl) == "parameter-dependent"
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


def test_infeasible_concrete_premise_routes_vacuous():
    # the same consequent under a concrete invariant whose rows contradict
    # the guard: x <= 9/10 and x >= -1/5 and x >= 1 has no solution
    x = "x"
    premise = (
        const_atom({x: ONE}, Fraction(9, 10)),
        const_atom({x: -ONE}, Fraction(1, 5)),
        const_atom({x: -ONE}, -ONE),
    )
    impl = Implication(
        "noninc", ("q1", "_"), (x,), premise,
        templated_control_implication().consequent,
    )
    assert premise_feasible(impl) == "infeasible"
    params = tuple(
        Param(n, ParamKind.CERT)
        for n in ("alpha0", "alpha1", "beta0", "beta1", "kappa")
    )
    duals = transform(VCSet((impl,), params, ()))
    assert duals[0].mode == "vacuous"
    assert duals[0].zs == () and duals[0].items() == []
    with pytest.raises(ValueError, match="infeasible premise"):
        farkas_premise_sat(impl)


def test_premise_sat_rejects_parameter_dependent_premises():
    with pytest.raises(ValueError, match="parameter-dependent"):
        farkas_premise_sat(templated_control_implication())


def test_strict_premise_contradiction_routes_vacuous():
    # x < -1/2 and -1/2 < x: empty, though its relaxation admits x = -1/2;
    # a `false` target (1 <= 0) reached only there is vacuously valid
    x = LinForm.var("x")
    half = LinForm.constant(Fraction(1, 2))
    premise, strict = normalize_strict(
        [Atom(x + half, Rel.LT), Atom(-x - half, Rel.LT)]
    )
    false = Atom(LinForm.constant(ONE), Rel.LE)
    impl = Implication(
        "consec", None, ("x",), tuple(premise), false, strict=strict
    )
    assert premise_feasible(impl) == "infeasible"
    assert transform(VCSet((impl,), (), ()))[0].mode == "vacuous"
    assert implication_valid_bruteforce(impl)
    relaxed = dataclasses.replace(impl, strict=())
    assert premise_feasible(relaxed) == "feasible"
    assert not implication_valid_bruteforce(relaxed)


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
    assert Counter(d.mode for d in duals) == {"premise-sat": 11, "vacuous": 9}
    system = assemble(vcs, duals)
    assert system.degree() == 1
    assert not system.has_disjunction()
    assert system.all_linear()
    assert len(system.params) == 45
    assert len(system.constraints) == 66


def test_free_control_turns_quadratic_but_keeps_conjunctive_form():
    model, dsa, inv, Vs, tables = example2_pieces("example2.model")
    vcs = build_product_vcs(model, dsa, Vs, inv, tables, eps=Fraction(1, 2))
    duals = transform(vcs)
    # same routing as the fixed model: premises never mention the control
    assert Counter(d.mode for d in duals) == {"premise-sat": 11, "vacuous": 9}
    system = assemble(vcs, duals)
    assert system.degree() == 2  # theta * kappa products in A^T z = c rows
    assert not system.has_disjunction()
    assert not system.all_linear()
    # deterministic multiplier naming: dual i prefixes its z's with z<i>
    for i, dual in enumerate(duals):
        assert all(z.name.startswith(f"z{i}_") for z in dual.zs)


def test_transform_screens_each_premise_once(monkeypatch):
    calls = []

    def counting(atoms, variables):
        calls.append(tuple(atoms))
        return lp.atoms_feasible(atoms, variables)

    monkeypatch.setattr(farkas, "atoms_feasible", counting)
    model, dsa, inv, Vs, tables = example2_pieces("example2.model")
    for invariant in (inv, InvTemplate.fresh(model, dsa, nrows=2)):
        vcs = build_product_vcs(
            model, dsa, Vs, invariant, tables, eps=Fraction(1, 2)
        )
        calls.clear()
        duals = transform(vcs)
        param_free = [
            impl for impl in vcs.implications
            if all(a.form.is_param_free() for a in impl.premise)
        ]
        assert len(calls) == len(param_free)
        assert len(calls) == sum(d.mode != "general" for d in duals)


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
    polys = [
        c.poly for c in system.constraints if isinstance(c, PolyConstraint)
    ]
    assert Poly() - P("M0") in polys  # M0 >= 0
    assert P("kappa") - Poly.const(Fraction(4)) in polys  # kappa <= 4
    assert Poly() - P("kappa") - Poly.const(Fraction(4)) in polys


def test_side_atoms_must_not_mention_state_variables():
    bad = Atom(LinForm({"x": Poly.const(ONE)}, Poly()), Rel.LE)
    vcs = VCSet((), (Param("x", ParamKind.CERT),), (bad,))
    with pytest.raises(ValueError, match="mentions variables"):
        assemble(vcs, [])


def test_dumps_are_readable():
    impl = templated_control_implication()
    duals = [farkas_general(impl, "z0")]
    text = dump_duals(duals)
    assert "general" in text
    assert "| " in text and "/ " in text  # both disjuncts rendered
    vcs_params = tuple(
        Param(n, ParamKind.CERT)
        for n in ("alpha0", "alpha1", "beta0", "beta1", "kappa",
                  "eta1", "eta2", "eta3", "eta4")
    )
    system = assemble(VCSet((impl,), vcs_params, ()), duals)
    dump = system.dump()
    assert dump.startswith("params:")
    assert "max degree: 2" in dump
    assert "or:" in dump


# -- QCP lowering --------------------------------------------------------------


def quartic_system() -> ConstraintSystem:
    c3 = PolyConstraint(P("a") * P("b") * P("c") - Poly.const(ONE), Rel.LE)
    cx3 = PolyConstraint(P("x") * P("x") * P("x") - P("x"), Rel.LE)
    c4 = PolyConstraint(P("a") * P("b") * P("c") * P("d"), Rel.EQ)
    disj = Disjunction(
        (c4,), (PolyConstraint(P("a") - Poly.const(Fraction(2)), Rel.LT),)
    )
    params = tuple(Param(n, ParamKind.CERT) for n in "abcdx")
    return ConstraintSystem(params, (c3, cx3, disj))


def test_qcp_rewrite_lowers_degree_to_two():
    system = quartic_system()
    assert system.degree() == 4
    lowered = rewrite_qcp(system)
    assert lowered.degree() == 2
    # one product variable per distinct factor pair, with its definition
    defs = [
        c for c in lowered.constraints
        if isinstance(c, PolyConstraint) and c.rel == Rel.EQ
        and any(n.startswith("qv") for mono in c.poly.terms for n in mono)
    ]
    assert PolyConstraint(P("qv0") - P("a") * P("b"), Rel.EQ) in defs
    assert PolyConstraint(P("qv1") - P("x") * P("x"), Rel.EQ) in defs
    assert PolyConstraint(P("qv2") - P("c") * P("d"), Rel.EQ) in defs
    fresh = [p for p in lowered.params if p.name.startswith("qv")]
    assert [p.name for p in fresh] == ["qv0", "qv1", "qv2"]
    assert all(p.kind == ParamKind.MULTIPLIER for p in fresh)


@given(
    st.fixed_dictionaries(
        {
            n: st.fractions(min_value=-3, max_value=3, max_denominator=4)
            for n in "abcdx"
        }
    )
)
@settings(deadline=None)
def test_qcp_rewrite_preserves_meaning(valuation):
    system = quartic_system()
    lowered = rewrite_qcp(system)
    extended = dict(valuation)
    extended["qv0"] = valuation["a"] * valuation["b"]
    extended["qv1"] = valuation["x"] * valuation["x"]
    extended["qv2"] = valuation["c"] * valuation["d"]
    assert system.holds(valuation) == lowered.holds(extended)


def test_qcp_rewrite_is_identity_at_low_degree():
    impl = templated_control_implication()
    system = assemble(
        VCSet((impl,), tuple(
            Param(n, ParamKind.CERT)
            for n in ("alpha0", "alpha1", "beta0", "beta1", "kappa",
                      "eta1", "eta2", "eta3", "eta4")
        ), ()),
        [farkas_general(impl, "z0")],
    )
    assert rewrite_qcp(system) is system


def test_qcp_rewrite_refuses_colliding_names():
    cubic = PolyConstraint(P("qv0") * P("qv0") * P("qv0"), Rel.LE)
    system = ConstraintSystem(
        (Param("qv0", ParamKind.CERT),), (cubic,)
    )
    with pytest.raises(ValueError, match="taken"):
        rewrite_qcp(system)


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
    rel_map = {Rel.LE: "<=", Rel.LT: "<", Rel.EQ: "="}
    for c in constraints:
        coeffs, const = linear_parts(c.poly, names)
        system.add([coeffs[n] for n in names], rel_map[c.rel], -const)
    return lp.solve_strict(system).status == "optimal"


def dual_sat_by_lp(dual) -> bool:
    """Exact satisfiability of one parameter-free dual, branch by branch."""
    names = [z.name for z in dual.zs]
    if dual.mode == "vacuous":
        return True
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
    # premise-sat / vacuous routing agrees with the general form
    vcs = VCSet((impl,), (), ())
    routed = transform(vcs)[0]
    assert dual_sat_by_lp(routed) == dual_sat_by_lp(farkas_general(impl, "z"))


def test_bruteforce_oracle_rejects_parameters():
    with pytest.raises(ValueError, match="parameter-free"):
        implication_valid_bruteforce(templated_control_implication())
