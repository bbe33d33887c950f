"""Spans around the pipeline's public functions, recorded from outside.

``Tracer.install`` replaces module attributes (``lp.solve``,
``farkas.transform`` and so on) with wrappers that record a span per call:
name, start, end, parent span and the corpus entry being processed, plus a
few counts read off the arguments and the result.  Every caller in the
package reaches these functions through the module attribute, so the
wrappers see every call; ``uninstall`` puts the originals back.  Spans stay
in memory, one list per pass, and are written out when the run ends.

A layer's self time is the time its spans cover minus the part of that
time covered by their child spans (``self_times``).
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

from streettsm import backends, benchmarks, farkas, lp, smtsolver, templates, vcgen


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index in the same pass, -1 for none
    entry: str
    counts: dict = field(default_factory=dict)


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the union of its children's intervals,
    each clipped to the span itself."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(i, []), key=lambda c: c.start):
            lo, hi = max(c.start, reach, s.start), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


# Module attribute -> span name.  The per-layer metric each span feeds is in
# ``layer_metrics``.
TARGETS = (
    (benchmarks, "load_benchmark"),
    (templates, "post_table"),
    (vcgen, "build_product_vcs"),
    (farkas, "transform"),
    (farkas, "assemble"),
    (farkas, "implication_valid_bruteforce"),
    (backends, "decide"),
    (backends, "simplex_solve"),
    (backends, "bundled_solve"),
    (smtsolver, "decide"),
    (lp, "solve"),
)


def _lp_key(args, kwargs):
    system = args[0]
    objective = kwargs.get("objective", args[1] if len(args) > 1 else None)
    maximize = kwargs.get("maximize", args[2] if len(args) > 2 else True)
    return (
        tuple(system.variables),
        tuple((tuple(c), rel, rhs) for c, rel, rhs in system.rows),
        None if objective is None else tuple(objective),
        maximize,
    )


def _counts(name: str, args, kwargs, result) -> dict:
    """The counts a span carries, read off its arguments and result."""
    if name == "templates.post_table":
        return {"pieces": len(result.pieces)}
    if name == "vcgen.build_product_vcs":
        return dict(Counter(impl.family for impl in result.implications))
    if name == "farkas.transform":
        return dict(Counter(d.mode for d in result))
    if name == "farkas.assemble":
        return {
            "params": len(result.params),
            "constraints": len(result.constraints),
            "degree": result.degree(),
            "disjunctions": sum(
                isinstance(c, farkas.Disjunction) for c in result.constraints
            ),
        }
    if name == "lp.solve":
        return {"rows": len(args[0].rows)}
    return {}


BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    def __init__(self) -> None:
        self.passes: list[list[Span]] = []
        self.repeats: list[int] = []
        self.entry = ""  # the corpus entry being processed, set by the caller
        self._stack: list[int] = []
        self._seen: set = set()
        self._saved: list[tuple[object, str, object]] = []

    def begin_pass(self) -> None:
        self.passes.append([])
        self.repeats.append(0)
        self._seen = set()

    def _wrap(self, name: str, fn):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            spans = self.passes[-1]
            index = len(spans)
            span = Span(name, clock(), 0.0, self._stack[-1] if self._stack else -1, self.entry)
            spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                self._stack.pop()
            # the tracer's own work is a child span of the caller, so that
            # it counts in no layer's self time
            own = Span(BOOKKEEPING, clock(), 0.0, span.parent, self.entry)
            span.counts = _counts(name, args, kwargs, result)
            if name == "lp.solve":
                key = _lp_key(args, kwargs)
                if key in self._seen:
                    self.repeats[-1] += 1
                self._seen.add(key)
            own.end = clock()
            spans.append(own)
            return result

        return traced

    def install(self) -> None:
        for module, attr in TARGETS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            short = module.__name__.rsplit(".", 1)[-1]
            setattr(module, attr, self._wrap(f"{short}.{attr}", fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved = []

    def dump(self, path: str, t0: float) -> None:
        doc = [
            {
                "pass": k,
                "name": s.name,
                "start": s.start - t0,
                "end": s.end - t0,
                "parent": s.parent,
                "entry": s.entry,
                "counts": s.counts,
            }
            for k, spans in enumerate(self.passes)
            for s in spans
        ]
        with open(path, "w") as fh:
            json.dump(doc, fh)


# span name -> the layer self-time metric it adds to
SELF_TIME = {
    "benchmarks.load_benchmark": "benchmarks.load_s",
    "templates.post_table": "templates.post_s",
    "vcgen.build_product_vcs": "vcgen.s",
    "farkas.transform": "farkas.transform_s",
    "farkas.assemble": "farkas.assemble_s",
    "farkas.implication_valid_bruteforce": "farkas.check_s",
    "backends.decide": "backends.decide_s",
    "backends.simplex_solve": "backends.decide_s",
    "backends.bundled_solve": "backends.decide_s",
    "smtsolver.decide": "smtsolver.decide_s",
    "lp.solve": "lp.solve_s",
}

# span name -> the count of lp.solve calls nested anywhere below it
NESTED_LP = {
    "benchmarks.load_benchmark": "benchmarks.lp_solves",
    "farkas.transform": "farkas.lp_solves",
    "smtsolver.decide": "smtsolver.lp_solves",
}

FAMILIES = ("init", "consec", "dec", "inc", "noninc", "nonneg")

COUNT_METRICS = (
    "benchmarks.lp_solves",
    "templates.pieces",
    "vcgen.implications",
    *(f"vcgen.{f}" for f in FAMILIES),
    "farkas.lp_solves",
    "farkas.vacuous",
    "farkas.premise_sat",
    "farkas.general",
    "farkas.params",
    "farkas.constraints",
    "farkas.degree",
    "farkas.disjunctions",
    "farkas.checked",
    "backends.lp_route",
    "backends.smt_route",
    "smtsolver.lp_solves",
    "lp.solves",
    "lp.rows",
    "lp.repeat_solves",
)

TIME_METRICS = tuple(dict.fromkeys(SELF_TIME.values()))


def layer_metrics(spans: list[Span], repeats: int) -> dict[str, float]:
    """Every per-layer metric of one pass."""
    out = {m: 0.0 for m in TIME_METRICS}
    out.update({m: 0 for m in COUNT_METRICS})
    for s, own in zip(spans, self_times(spans)):
        if s.name == BOOKKEEPING:
            continue
        out[SELF_TIME[s.name]] += own
        c = s.counts
        if s.name == "lp.solve":
            out["lp.solves"] += 1
            out["lp.rows"] += c["rows"]
            p = s.parent
            while p >= 0:
                metric = NESTED_LP.get(spans[p].name)
                if metric:
                    out[metric] += 1
                p = spans[p].parent
        elif s.name == "templates.post_table":
            out["templates.pieces"] += c["pieces"]
        elif s.name == "vcgen.build_product_vcs":
            for f in FAMILIES:
                out[f"vcgen.{f}"] += c.get(f, 0)
                out["vcgen.implications"] += c.get(f, 0)
        elif s.name == "farkas.transform":
            out["farkas.vacuous"] += c.get("vacuous", 0)
            out["farkas.premise_sat"] += c.get("premise-sat", 0)
            out["farkas.general"] += c.get("general", 0)
        elif s.name == "farkas.assemble":
            for k in ("params", "constraints", "disjunctions"):
                out[f"farkas.{k}"] += c[k]
            out["farkas.degree"] = max(out["farkas.degree"], c["degree"])
        elif s.name == "farkas.implication_valid_bruteforce":
            out["farkas.checked"] += 1
        elif s.name == "backends.simplex_solve":
            out["backends.lp_route"] += 1
        elif s.name == "backends.bundled_solve":
            out["backends.smt_route"] += 1
    out["lp.repeat_solves"] = repeats
    return out


def summarize(per_pass: list[dict[str, float]]) -> dict[str, tuple[float, str]]:
    """(value, unit) per metric: the median self time over the traced
    passes, and the counts, which must repeat exactly from pass to pass."""
    out = {}
    for m in TIME_METRICS:
        out[m] = (statistics.median(p[m] for p in per_pass), "s")
    for m in COUNT_METRICS:
        values = {p[m] for p in per_pass}
        if len(values) != 1:
            raise RuntimeError(f"count {m} differs between passes: {sorted(values)}")
        out[m] = (values.pop(), "count")
    return out
