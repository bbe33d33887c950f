"""Every backticked `module.name` in the package's sources and in the tests
(docstrings and comments alike) names something that exists, so that no
reference is left behind when a name is renamed or deleted."""

import importlib
import pkgutil
import re
from pathlib import Path

from streettsm import lp

PKG = Path(lp.__file__).parent
TESTS = Path(__file__).parent
MODULES = {m.name for m in pkgutil.iter_modules([str(PKG)])}
# `module.name`, `module.Class.attr` or `module.name()`
REFERENCE = re.compile(r"`([a-z_]\w*)\.([A-Za-z_][\w.]*?)(?:\(\))?`")


def _references(paths, root):
    """(file:line, module, dotted name) of each reference to a module of
    the package, the file named relative to `root`."""
    for path in sorted(paths):
        text = path.read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), 1):
            for m in REFERENCE.finditer(line):
                if m[1] in MODULES:
                    yield f"{path.relative_to(root)}:{lineno}", m[1], m[2]


def test_backticked_module_names_resolve():
    sources = list(_references(PKG.rglob("*.py"), PKG))
    tests = list(_references(TESTS.glob("*.py"), TESTS))
    # the scan sees the references
    assert len(sources) > 5 and len(tests) > 5
    refs = sources + tests
    stale = []
    for where, module, dotted in refs:
        obj = importlib.import_module(f"streettsm.{module}")
        try:
            for part in dotted.split("."):
                obj = getattr(obj, part)
        except AttributeError:
            stale.append(f"{where}: `{module}.{dotted}`")
    assert not stale
