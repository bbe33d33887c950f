"""The pipeline composed from outside, through the public stage functions.

One operation takes one corpus entry from its files to a verdict:

    load_benchmark -> post_table -> build_product_vcs
        -> farkas.transform -> farkas.assemble -> backends.decide     (synth)
    load_benchmark -> post_table -> build_product_vcs
        -> farkas.implication_valid_bruteforce per implication         (check)

Every stage is reached through its module attribute (``benchmarks.load_benchmark``
and so on), never through a name bound at import time, so that the tracer in
``tracing.py`` can wrap the same attributes and see every call.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction

from streettsm import backends, benchmarks, farkas, templates, vcgen
from streettsm.expr import Atom, LinForm, Poly, Rel
from streettsm.templates import FALSE_ATOM, CertTemplate, InvTemplate


@dataclass(frozen=True)
class Entry:
    """One corpus entry as a workload uses it."""

    name: str
    inv_source: str  # "inv" (the provided .inv file) | "fixture" (*.cert.json)
    expect: str  # the known answer: "sat" for synthesis, "valid" for check


# The only operations expected to fail: the program's strict-premise fault
# (vcgen.normalize_strict relaxes strict atoms before the vacuity screen).
KNOWN_FAULT = frozenset({"evenOrNegative"})

WORKLOADS: dict[str, tuple[str, tuple[Entry, ...]]] = {
    "verify-lp": (
        "synth",
        (
            Entry("example2-fixed", "inv", "sat"),
            Entry("evenOrNegative", "inv", "sat"),
            Entry("PersistRW", "fixture", "sat"),
            Entry("RecurRW", "fixture", "sat"),
            Entry("GuaranteeRW", "fixture", "sat"),
            Entry("Temperature2", "fixture", "sat"),
        ),
    ),
    "control-descent": (
        "synth",
        (
            Entry("example2", "inv", "sat"),
            Entry("Temperature4", "inv", "sat"),
            Entry("SafeRWalk1", "fixture", "sat"),
            Entry("SafeRWalk2", "fixture", "sat"),
        ),
    ),
    "check": (
        "check",
        tuple(
            Entry(name, "fixture", "valid")
            for name in (
                "example2",
                "evenOrNegative",
                "PersistRW",
                "RecurRW",
                "GuaranteeRW",
                "Temperature2",
                "SafeRWalk1",
                "SafeRWalk2",
                "FinMemoryControl",
                "Temperature4",
            )
        ),
    ),
}


# -- fixtures as concrete templates ---------------------------------------------


def _location(key: str, model) -> tuple[str, str]:
    """Fixture keys are ``"<state>"`` on one-mode models, else ``"<state> <mode>"``."""
    parts = key.split()
    if len(parts) == 2:
        return parts[0], parts[1]
    if len(model.modes) != 1:
        raise ValueError(f"fixture location {key!r} names no mode")
    return parts[0], model.modes[0]


def _form(coeffs: dict, const) -> LinForm:
    return LinForm(
        {v: Poly.const(Fraction(c)) for v, c in coeffs.items()},
        Poly.const(Fraction(const)),
    )


def fixture_invariant(cert: dict, model, dsa) -> InvTemplate:
    """The fixture's invariant; a row ``{coeffs, rhs}`` is coeffs . x <= rhs,
    ``"false"`` is the canonical empty row and unlisted locations are true,
    as in ``parse_invariant``."""
    rows = {loc: () for loc in templates.locations(model, dsa)}
    for key, doc in cert["invariant"].items():
        loc = _location(key, model)
        if doc == "false":
            rows[loc] = (FALSE_ATOM,)
        else:
            rows[loc] = tuple(
                Atom(_form(r["coeffs"], -Fraction(r["rhs"])), Rel.LE)
                for r in doc
            )
    return InvTemplate.concrete(rows)


def fixture_certificates(cert: dict, model, dsa) -> list[CertTemplate]:
    out = []
    for k, pair in enumerate(cert["pairs"]):
        pieces = {
            _location(key, model): _form(doc["coeffs"], doc["const"])
            for key, doc in pair["V"].items()
        }
        out.append(CertTemplate.concrete(k, pieces))
    return out


def fixture_scalars(cert: dict, npairs: int):
    """(eps, [M per pair], {control: value}) from a fixture."""
    m = cert["M"]
    ms = [Fraction(x) for x in m] if isinstance(m, list) else [Fraction(m)] * npairs
    control = {k: Fraction(v) for k, v in cert["control"].items()}
    return Fraction(cert["epsilon"]), ms, control


# -- one operation --------------------------------------------------------------


@dataclass
class Outcome:
    """What an operation hands to the checks: the verdict and, for a sat
    synthesis, the concrete certificate read off the valuation."""

    verdict: str
    bench: object
    inv: InvTemplate
    Vs: list[CertTemplate] | None = None
    eps: Fraction = Fraction(1)
    M: list[Fraction] | None = None
    control: dict[str, Fraction] | None = None
    detail: str = ""


def _invariant(entry: Entry, bench) -> InvTemplate:
    if entry.inv_source == "inv":
        return bench.invariant
    return fixture_invariant(bench.cert, bench.model, bench.dsa)


def concrete_implications(vcset, control: dict[str, Fraction]) -> list:
    """The VCs with the control values substituted, parameter-free."""
    out = []
    for impl in vcset.implications:
        out.append(
            dataclasses.replace(
                impl,
                premise=tuple(
                    Atom(a.form.substitute_params(control), a.rel)
                    for a in impl.premise
                ),
                consequent=Atom(
                    impl.consequent.form.substitute_params(control),
                    impl.consequent.rel,
                ),
            )
        )
    return out


def synthesize(entry: Entry) -> Outcome:
    """Templated V (and M, and the control if the model has one) over a
    concrete invariant, decided by ``backends.decide``."""
    bench = benchmarks.load_benchmark(entry.name)
    model, dsa = bench.model, bench.dsa
    inv = _invariant(entry, bench)
    Vs = [
        CertTemplate.fresh(model, dsa, k) for k in range(len(dsa.pairs))
    ]
    tables = [templates.post_table(V, model, dsa) for V in Vs]
    vcset = vcgen.build_product_vcs(model, dsa, Vs, inv, tables)
    duals = farkas.transform(vcset)
    system = farkas.assemble(vcset, duals)
    verdict = backends.decide(backends.SolverJob(system))
    out = Outcome(verdict.status, bench, inv)
    if verdict.status == "sat":
        val = verdict.valuation
        out.Vs = [
            CertTemplate.concrete(
                V.pair_index,
                {
                    loc: form.substitute_params(val)
                    for loc, form in V.pieces.items()
                },
            )
            for V in Vs
        ]
        out.M = [val[f"M{k}"] for k in range(len(dsa.pairs))]
        out.control = {c.name: val[c.name] for c in model.controls}
    return out


def failing_vcs(out: Outcome) -> list[str]:
    """Tags of the VCs that the outcome's concrete certificate fails, each
    implication decided by LP maximisation over its premise."""
    model, dsa = out.bench.model, out.bench.dsa
    tables = [templates.post_table(V, model, dsa) for V in out.Vs]
    vcset = vcgen.build_product_vcs(
        model, dsa, out.Vs, out.inv, tables, eps=out.eps, M=out.M
    )
    return [
        impl.tag
        for impl in concrete_implications(vcset, out.control)
        if not farkas.implication_valid_bruteforce(impl)
    ]


def check_fixture(entry: Entry, cert: dict | None = None) -> Outcome:
    """Check the fixture's certificate, one VC at a time.

    ``cert`` replaces the corpus fixture (the mutants use this)."""
    bench = benchmarks.load_benchmark(entry.name)
    model, dsa = bench.model, bench.dsa
    cert = cert if cert is not None else bench.cert
    eps, ms, control = fixture_scalars(cert, len(dsa.pairs))
    out = Outcome(
        "valid",
        bench,
        fixture_invariant(cert, model, dsa),
        fixture_certificates(cert, model, dsa),
        eps,
        ms,
        control,
    )
    failed = failing_vcs(out)
    if failed:
        out.verdict, out.detail = "invalid", "; ".join(failed)
    return out


def run_op(kind: str, entry: Entry) -> Outcome:
    return synthesize(entry) if kind == "synth" else check_fixture(entry)
