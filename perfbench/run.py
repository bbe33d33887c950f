"""Corpus benchmark: time to an exactly checked verdict, per workload.

    python3 perfbench/run.py --workload verify-lp --seed 1 --seconds 30 --trace 0

Each workload runs in its own processes (``worker.py``): one main process
makes the timed passes and the checks, and further processes only set up,
so that set-up time is a median of several.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  End-to-end times are scaled to reference speed
by speed samples taken between operations (``worker.REFERENCE_S``).  See
README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 3  # set-up samples per run: the main process plus two more
TIMEOUT = 170  # seconds for all the processes of one run together


def worker(args: list[str], deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(main: dict, setups: list[float]) -> dict:
    entry_s = main["entry_s"].values()
    return {
        "pass_s": (statistics.median(main["pass_s"]), "s"),
        "verdict_s_geomean": (statistics.geometric_mean(entry_s), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }


def per_layer(main: dict) -> dict:
    out = {name: tuple(pair) for name, pair in main["layers"].items()}
    overhead = statistics.median(main["traced_pass_s"]) - statistics.median(main["pass_s"])
    out["trace.overhead_s"] = (overhead, "s")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "streettsm")):
        print(f"no streettsm sources under {ROOT}/src", file=sys.stderr)
        return 2
    # bytecode is written once here, so that no set-up sample compiles it
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    start = time.monotonic()
    deadline = start + TIMEOUT
    common = ["--workload", args.workload]
    # The set-up samples count against the measuring time, so that a run
    # lasts about --seconds plus one set-up whatever the workload.  A traced
    # run reports no set-up time and takes no extra samples.
    setups = [
        worker(["setup", *common], deadline)["setup_s"]
        for _ in range(0 if args.trace else SETUPS - 1)
    ]
    remaining = max(0.0, args.seconds - (time.monotonic() - start))
    main_run = worker(
        ["main", *common, "--seed", str(args.seed), "--seconds", str(remaining),
         "--trace", str(args.trace)],
        deadline,
    )
    setups.append(main_run["setup_s"])
    metrics = per_layer(main_run) if args.trace else end_to_end(main_run, setups)
    failures = main_run["failures"]
    for line, n in Counter(failures + main_run["mutant_faults"]).items():
        print(f"failed {n}x: {line}")
    print(
        f"as measured: pass {statistics.median(main_run['raw_pass_s']):.4f} s, "
        f"speed sample {statistics.median(main_run['sample_s']) * 1e3:.3f} ms "
        f"(reference {main_run['reference_s'] * 1e3:.3f} ms)"
    )
    correct = not main_run["unexpected"] and not main_run["mutant_faults"]
    print(json.dumps({
        "correct": correct,
        "attempted": main_run["attempted"],
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
