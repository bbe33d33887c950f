"""Every backticked `module.name` in the package's sources (docstrings and
comments alike) names something that exists, so that no reference is left
behind when a name is renamed or deleted."""

import importlib
import pkgutil
import re
from pathlib import Path

from streettsm import lp

PKG = Path(lp.__file__).parent
MODULES = {m.name for m in pkgutil.iter_modules([str(PKG)])}
# `module.name`, `module.Class.attr` or `module.name()`
REFERENCE = re.compile(r"`([a-z_]\w*)\.([A-Za-z_][\w.]*?)(?:\(\))?`")


def _references():
    """(file:line, module, dotted name) of each reference to a module of
    the package."""
    for path in sorted(PKG.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), 1):
            for m in REFERENCE.finditer(line):
                if m[1] in MODULES:
                    yield f"{path.relative_to(PKG)}:{lineno}", m[1], m[2]


def test_backticked_module_names_resolve():
    refs = list(_references())
    assert len(refs) > 5  # the scan sees the references
    stale = []
    for where, module, dotted in refs:
        obj = importlib.import_module(f"streettsm.{module}")
        try:
            for part in dotted.split("."):
                obj = getattr(obj, part)
        except AttributeError:
            stale.append(f"{where}: `{module}.{dotted}`")
    assert not stale
