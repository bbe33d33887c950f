"""One workload in one process: set-up, timed passes, checks, optional trace.

Run by ``run.py``; prints one JSON object on its last line.

    worker.py setup --workload W
        import streettsm and make the first pass; report the time, scaled
        to reference speed (see REFERENCE_S).
    worker.py main --workload W --seed N --seconds S --trace 0|1 --out DIR
        set up as above, then make whole timed passes until S seconds of
        passes have been measured, checking every operation's output
        between passes.  With --trace 1 the second half of the time is spent
        in traced passes and per-layer metrics are reported.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

MIN_PASSES = 3


# Time at reference speed.  The host's speed changes by up to 2x over seconds
# to minutes, and process CPU time follows it.  So a speed sample is taken
# before the first operation of each pass and after each one, outside the
# operations' timed intervals: a fixed piece of exact rational arithmetic from
# the standard library alone, so that no change to ``streettsm`` moves it.
# A pass's times are scaled by REFERENCE_S over the mean of its samples: a
# scaled time is what the pass would have taken where a sample takes
# REFERENCE_S.  Scaling per pass steadies run medians more than scaling each
# operation by its neighbouring samples or the run by its median sample.
REFERENCE_S = 0.004


def _eliminate() -> None:
    n = 9
    m = [
        [Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(n + 1)]
        for i in range(n)
    ]
    for i in range(n):
        m[i][i] += 7
    for c in range(n):
        pivot = m[c][c]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c] / pivot
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]


def speed_sample() -> float:
    """Seconds for one Gauss-Jordan elimination of a fixed 9x10 rational
    matrix, the least of three tries (a try that a collection hits is
    dropped)."""
    clock = time.perf_counter
    best = float("inf")
    for _ in range(3):
        t = clock()
        _eliminate()
        best = min(best, clock() - t)
    return best


class Pass:
    """One pass: each entry's time as measured, the speed samples around
    the operations, and the outputs."""

    def __init__(self):
        self.raw: dict[str, float] = {}
        self.samples: list[float] = []
        self.results: list = []

    @property
    def wall(self) -> float:
        """The operations' time as measured, speed samples left out."""
        return sum(self.raw.values())

    @property
    def scale(self) -> float:
        return REFERENCE_S / statistics.mean(self.samples)

    def scaled(self, name: str) -> float:
        return self.raw[name] * self.scale


def timed_pass(pipeline, kind, entries, order, tracer=None) -> Pass:
    """Run the entries in ``order``, with a speed sample before the first
    and after each."""
    p = Pass()
    clock = time.perf_counter
    p.samples.append(speed_sample())
    for i in order:
        entry = entries[i]
        if tracer:
            tracer.entry = entry.name
        t = clock()
        try:
            out = pipeline.run_op(kind, entry)
        except Exception as exc:  # an operation that raises is a failed one
            out = exc
        p.raw[entry.name] = clock() - t
        p.samples.append(speed_sample())
        p.results.append((entry, out))
    return p


class Judge:
    """Counts operations and failures; checks each distinct output once
    (a check is a pure function of the output, and passes repeat outputs).

    A failure is expected only where the program's named fault shows: a
    wrong verdict on an entry in ``known_fault``."""

    def __init__(self, seed: int, checks, known_fault: frozenset[str]):
        self.seed = seed
        self.checks = checks
        self.known_fault = known_fault
        self.attempted = 0
        self.failures: list[str] = []
        self.unexpected: list[str] = []
        self._checked: dict = {}

    def _fault(self, entry, out) -> tuple[str, str] | None:
        if isinstance(out, Exception):
            return "raised", f"{type(out).__name__}: {out}"
        if out.verdict != entry.expect:
            return "verdict", f"{out.verdict}, expected {entry.expect} {out.detail}"
        key = (entry.name, repr(out.Vs), repr(out.M), repr(out.control))
        if key not in self._checked:
            self._checked[key] = self.checks.output_faults(out, self.seed)
        if self._checked[key]:
            return "check", self._checked[key][0]
        return None

    def judge(self, results) -> None:
        for entry, out in results:
            self.attempted += 1
            fault = self._fault(entry, out)
            if fault is None:
                continue
            kind, text = fault
            line = f"{entry.name}: {kind}: {text}"
            self.failures.append(line)
            if not (kind == "verdict" and entry.name in self.known_fault):
                self.unexpected.append(line)


def first_pass(pipeline, kind, entries) -> tuple[float, Pass]:
    """Set-up time at reference speed, from the process's start through
    ``import streettsm`` to the end of the first pass; and that pass."""
    import_s = time.perf_counter() - T0
    p = timed_pass(pipeline, kind, entries, range(len(entries)))
    return (import_s + p.wall) * p.scale, p


def setup(workload: str) -> float:
    import pipeline

    kind, entries = pipeline.WORKLOADS[workload]
    return first_pass(pipeline, kind, entries)[0]


def main_run(args) -> dict:
    import pipeline

    kind, entries = pipeline.WORKLOADS[args.workload]
    setup_s, first = first_pass(pipeline, kind, entries)
    import checks

    rng = random.Random(args.seed)
    judge = Judge(args.seed, checks, pipeline.KNOWN_FAULT)
    judge.judge(first.results)

    def passes(budget: float) -> list[Pass]:
        """Whole passes until ``budget`` seconds of them, speed samples
        included; each pass's outputs are judged after it, outside the
        timed interval and with the tracer (if any) taken out."""
        done, spent = [], 0.0
        while spent < budget or len(done) < MIN_PASSES:
            order = list(range(len(entries)))
            rng.shuffle(order)
            # the garbage of the previous pass and its checks is not this
            # pass's work
            gc.collect()
            start = time.perf_counter()
            if tracer:
                tracer.begin_pass()
                tracer.install()
            try:
                p = timed_pass(pipeline, kind, entries, order, tracer)
            finally:
                if tracer:
                    tracer.uninstall()
            spent += time.perf_counter() - start
            judge.judge(p.results)
            p.results = []  # the outputs are judged; keeping them would grow the heap
            done.append(p)
        return done

    tracer = None
    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = passes(budget)
    result = {
        "setup_s": setup_s,
        "pass_s": [p.wall * p.scale for p in untraced],
        "raw_pass_s": [p.wall for p in untraced],
        "sample_s": [s for p in untraced for s in p.samples],
        "reference_s": REFERENCE_S,
    }
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        traced = passes(budget)
        result["traced_pass_s"] = [p.wall * p.scale for p in traced]
        result["layers"] = tracing.summarize(
            [
                tracing.layer_metrics(spans, repeats)
                for spans, repeats in zip(tracer.passes, tracer.repeats)
            ]
        )
        os.makedirs(args.out, exist_ok=True)
        tracer.dump(
            os.path.join(args.out, f"trace-{args.workload}-seed{args.seed}.json"), T0
        )
    result["entry_s"] = {
        e.name: statistics.median(p.scaled(e.name) for p in untraced)
        for e in entries
    }
    mutant_faults = []
    if kind == "check":
        for mutant in checks.MUTANTS:
            faults, out = checks.run_mutant(mutant)
            if not faults or out.verdict != "invalid":
                mutant_faults.append(f"{mutant.entry} ({mutant.what}) not caught")
    result.update(
        attempted=judge.attempted,
        failures=judge.failures,
        unexpected=judge.unexpected,
        mutant_faults=mutant_faults,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("role", choices=("setup", "main"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=os.path.join(HERE, "results"))
    args = ap.parse_args(argv)
    if args.role == "setup":
        result = {"setup_s": setup(args.workload)}
    else:
        result = main_run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
