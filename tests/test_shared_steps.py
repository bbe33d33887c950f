"""Post V and the consecution VCs compose each (target, branch) once per
call and reuse it for every product transition that shares it.  Every
piece and every consecution consequent must still equal the composition
made directly for that transition, and Post V makes exactly one
composition per (target, branch), scaling none."""

import os
import sys
from collections import Counter
from functools import partial

import pytest

from streettsm.benchmarks import load_benchmark, manifest
from streettsm.expr import Atom, LinForm
from streettsm.lp import defining_atoms
from streettsm.templates import (
    CertTemplate,
    InvTemplate,
    locations,
    post_table,
)
from streettsm.vcgen import build_product_vcs, promote_disturbance

BENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"
)
sys.path[:0] = [BENCH]

import pipeline  # noqa: E402


def _invariant(b):
    """The `.inv` file, else the fixture's invariant, else all-true rows."""
    if b.invariant is not None:
        return b.invariant
    if b.cert is not None:
        return pipeline.fixture_invariant(b.cert, b.model, b.dsa)
    return InvTemplate.concrete({loc: () for loc in locations(b.model, b.dsa)})


def _direct_post(V, model, piece):
    """The piece's Post V form composed for this transition alone, as the
    per-sample sum sum_w p(w) . V(f(x, w)) over the finite support, or V at
    the box mean."""
    dist = model.disturbance
    cases = (
        dist.support
        if dist.kind == "finite"
        else ((dist.mean_vector(), 1),)
    )
    br = piece.branch
    vnext = V.pieces[(piece.edge.target, br.mode_to)]
    form = LinForm()
    for value, prob in cases:
        sample = dict(zip(dist.component_names(), value))
        image = {v: f.substitute_params(sample) for v, f in br.update.items()}
        form = form + vnext.substitute_state(image).scale(prob)
    return form


def _direct_consequents(model, inv, piece):
    """The consecution consequents of one piece, in VC order: per case,
    per target row."""
    dist = model.disturbance
    wnames = dist.component_names()
    if dist.kind == "finite":
        lifts = [
            partial(LinForm.substitute_params, valuation=dict(zip(wnames, v)))
            for v, _prob in dist.support
        ]
    else:
        lifts = [partial(promote_disturbance, wnames=wnames)]
    br = piece.branch
    out = []
    for lift in lifts:
        image = {v: lift(f) for v, f in br.update.items()}
        for row in inv.rows[(piece.edge.target, br.mode_to)]:
            out.append(Atom(row.form.substitute_state(image), row.rel))
    return out


def _empty(premise, variables):
    """A piece's premise that gets no VC: parameter-free and LP-infeasible."""
    return defining_atoms(premise, variables) is None


ROWS = manifest()["benchmarks"] + manifest()["extras"]
CORPUS = [row["name"] for row in ROWS]


@pytest.mark.parametrize("name", CORPUS)
def test_shared_compositions_equal_the_direct_ones(name):
    b = load_benchmark(name)
    model, dsa = b.model, b.dsa
    inv = _invariant(b)
    Vs = [CertTemplate.fresh(model, dsa, k) for k in range(len(dsa.pairs))]
    tables = [post_table(V, model, dsa) for V in Vs]
    for V, table in zip(Vs, tables):
        for piece in table.pieces:
            assert piece.form == _direct_post(V, model, piece)
    vcs = build_product_vcs(model, dsa, Vs, inv, tables)
    got = [i.consequent for i in vcs.implications if i.family == "consec"]
    want = [
        atom
        for piece in tables[0].pieces
        if not _empty(inv.rows[piece.location] + piece.guard, model.state_vars)
        for atom in _direct_consequents(model, inv, piece)
    ]
    assert got == want


@pytest.mark.parametrize("name", CORPUS)
def test_post_composes_each_target_and_branch_once(name, monkeypatch):
    # V at the expected successor: one `LinForm.substitute_state` per
    # distinct (target, branch) of the table, and no per-sample
    # `LinForm.scale`
    b = load_benchmark(name)
    Vs = [CertTemplate.fresh(b.model, b.dsa, k) for k in range(len(b.dsa.pairs))]
    calls = Counter()
    for method in ("substitute_state", "scale"):
        fn = getattr(LinForm, method)

        def counting(*args, _fn=fn, _method=method, **kwargs):
            calls[_method] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(LinForm, method, counting)
    for V in Vs:
        calls.clear()
        table = post_table(V, b.model, b.dsa)
        steps = {
            ((p.edge.target, p.branch.mode_to), id(p.branch))
            for p in table.pieces
        }
        assert steps and calls == {"substitute_state": len(steps)}
