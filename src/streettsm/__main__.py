"""Synthesize a certificate: ``python -m streettsm MODEL DSA INV``.

Prints the verdict on its first line, a sat one only once every VC has
passed the exact re-check (`pipeline.failing_vcs`), and then the
certificate: V per Streett pair and location, M per pair and the control.
A certificate that fails the re-check prints `unknown`, the failing VCs'
tags go to standard error, and the exit status is 1.  So does an input
error, printed with its file and place, and an input that parses but that
synthesis rejects (a strict invariant row at a consequent, say), printed
alone.
"""

import sys
from pathlib import Path

from . import pipeline
from .automata import parse_dsa
from .model import parse_model
from .syntax import SourceError
from .templates import parse_invariant


def _read(path: str, parse, *args, **kwargs):
    """`parse` of the file's text; exits with the file's error, if any."""
    try:
        return parse(Path(path).read_text(), *args, **kwargs)
    except (OSError, SourceError) as err:
        sys.exit(f"{path}: {err}")


def _main(paths: list[str]) -> None:
    if len(paths) != 3:
        sys.exit("usage: python -m streettsm MODEL DSA INV")
    model = _read(paths[0], parse_model)
    dsa = _read(
        paths[1], parse_dsa, variables=model.state_vars, modes=model.modes
    )
    inv = _read(paths[2], parse_invariant, model, dsa)
    try:
        out = pipeline.synthesize(model, dsa, inv)
    except ValueError as err:
        sys.exit(str(err))
    if out.verdict != "sat":
        print(out.verdict)
        return
    failed = pipeline.failing_vcs(
        model, dsa, inv, out.Vs, out.eps, out.M, out.control
    )
    if failed:
        print("unknown")
        print("the certificate fails its re-check:", file=sys.stderr)
        for tag in failed:
            print(f"  {tag}", file=sys.stderr)
        sys.exit(1)
    print("sat")
    for V, M in zip(out.Vs, out.M):
        for (q, mode), form in V.pieces.items():
            print(f"V{V.pair_index} at {q} {mode}: {form}")
        print(f"M{V.pair_index} = {M}")
    for name, value in out.control.items():
        print(f"{name} = {value}")


if __name__ == "__main__":
    _main(sys.argv[1:])
