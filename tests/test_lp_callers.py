"""Every public function of `lp` has a caller in another module of the
package, found by a scan of the sources' syntax trees, so that the LP layer
keeps no helper that only tests reach."""

import ast
from pathlib import Path

from streettsm import lp

PKG = Path(lp.__file__).parent
LP = PKG / "lp.py"


def _public_functions(tree: ast.Module) -> set[str]:
    return {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }


def _lp_calls(tree: ast.Module) -> set[str]:
    """The names of `lp` that a module calls, as `lp.name(...)` after
    `from . import lp` or as `name(...)` after `from .lp import name`."""
    modules, names = set(), {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or not node.level:
            continue
        for alias in node.names:
            if node.module is None and alias.name == "lp":
                modules.add(alias.asname or "lp")
            elif node.module == "lp":
                names[alias.asname or alias.name] = alias.name
    called = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in modules
        ):
            called.add(func.attr)
        elif isinstance(func, ast.Name) and func.id in names:
            called.add(names[func.id])
    return called


def test_every_public_lp_function_has_a_caller_outside_lp():
    public = _public_functions(ast.parse(LP.read_text(encoding="utf-8")))
    called = set()
    for path in sorted(PKG.rglob("*.py")):
        if path != LP:
            called |= _lp_calls(ast.parse(path.read_text(encoding="utf-8")))
    # the scan sees both spellings of a call
    assert {"solve", "defining_atoms"} <= called
    assert public and public <= called, sorted(public - called)
