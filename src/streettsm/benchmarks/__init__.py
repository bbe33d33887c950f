"""Bundled benchmark corpus.

Each entry ships a model file, an observer automaton, optionally a
provided supporting invariant, and optionally a known-valid certificate
fixture.  ``manifest.json`` lists the eleven synthesis benchmarks (in
table order) and, under ``extras``, two forms of the worked example:
``example2``, with its control, and ``example2-fixed``, with the control
fixed to its golden value.
"""

from __future__ import annotations

import json
from importlib import resources

from ..automata import GuardedDSA, parse_dsa
from ..model import StochModel, parse_model
from ..templates import InvTemplate, parse_invariant

__all__ = [
    "Benchmark",
    "load_benchmark",
    "manifest",
    "read_corpus_text",
]


# resolved once; the files themselves are read on every call
_ROOT = resources.files(__name__)


def read_corpus_text(filename: str) -> str:
    return (_ROOT / filename).read_text()


def manifest() -> dict:
    return json.loads(read_corpus_text("manifest.json"))


def _entries() -> dict[str, dict]:
    doc = manifest()
    out: dict[str, dict] = {}
    for row in doc["benchmarks"] + doc["extras"]:
        out[row["name"]] = row
    return out


class Benchmark:
    __slots__ = ("name", "mode", "model", "dsa", "invariant", "cert", "files")

    def __init__(
        self,
        name: str,
        mode: str,
        model: StochModel,
        dsa: GuardedDSA,
        invariant: InvTemplate | None,
        cert: dict | None,
        files: dict,
    ):
        self.name = name
        self.mode = mode  # V | VI | VC | VIC
        self.model = model
        self.dsa = dsa
        self.invariant = invariant  # provided invariant, if any
        self.cert = cert  # known-valid certificate fixture, if any
        self.files = files  # manifest row (file names, flags, notes)


def load_benchmark(name: str) -> Benchmark:
    entries = _entries()
    if name not in entries:
        known = ", ".join(sorted(entries))
        raise KeyError(f"unknown benchmark {name!r}; corpus has: {known}")
    row = entries[name]
    model = parse_model(read_corpus_text(row["model"]))
    dsa = parse_dsa(
        read_corpus_text(row["dsa"]),
        variables=model.state_vars,
        modes=model.modes,
    )
    inv = None
    if row["invariant"]:
        inv = parse_invariant(read_corpus_text(row["invariant"]), model, dsa)
    cert = None
    if row["cert"]:
        cert = json.loads(read_corpus_text(row["cert"]))
    return Benchmark(name, row["mode"], model, dsa, inv, cert, row)
