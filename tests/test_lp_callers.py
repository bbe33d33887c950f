"""Every public function of `lp` has a caller in another module of the
package, found by a scan of the sources' syntax trees, so that the LP layer
keeps no helper that only tests reach.  Package-wide, every public function
is referred to by another definition of the package or by the benchmark
(`perfbench/*.py`), with no exemption; so is every public static and
class method, referred to as `Class.method`, bare or module-qualified.
Instance methods and properties are out of scope: a call `x.method()`
cannot be resolved to a class by name.  Every `__slots__` field of a
package class is read, as an attribute load of its name, in the package
or the benchmark; reads in tests do not count.  And every function the
benchmark's tracer wraps is reached through its module's attribute, never
through a name another module binds at import, so that the tracer sees
every call."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import streettsm
from streettsm import lp
from streettsm.model import parse_model
from streettsm.syntax import SourceError

PKG = Path(lp.__file__).parent
LP = PKG / "lp.py"
BENCH = PKG.parents[1] / "perfbench"
sys.path[:0] = [str(BENCH)]

import tracing  # noqa: E402


def _public_functions(tree: ast.Module) -> set[str]:
    return {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }


def _public_classes(tree: ast.Module) -> list[ast.ClassDef]:
    return [
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
    ]


def _public_static_methods(tree: ast.Module) -> set[str]:
    """`Class.method` for each public static or class method."""
    return {
        f"{cls.name}.{node.name}"
        for cls in _public_classes(tree)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and any(
            isinstance(d, ast.Name) and d.id in ("staticmethod", "classmethod")
            for d in node.decorator_list
        )
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


# -- every public function of the package has a user ---------------------------

def _module_name(path: Path) -> str:
    return path.parent.name if path.name == "__init__.py" else path.stem


def _users(tree: ast.Module):
    """(user, node) for each top-level definition, and for each method as
    `Class.method`; `user` is None for any other statement."""
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            for node in top.body:
                name = getattr(node, "name", None)
                yield (top.name if name is None else f"{top.name}.{name}"), node
        else:
            yield getattr(top, "name", None), top


def _references(tree: ast.Module, own: str | None):
    """(module, name, user) for each package name the module refers to,
    where `user` is the definition holding the reference (`_users`).  A
    name is resolved through the module's imports, or through `own`, the
    module's package name when it is a module of the package.  A class's
    attribute is the name `Class.attr`."""
    modules, names = set(), {}
    if own is not None:
        names.update({f: (own, f) for f in _public_functions(tree)})
        names.update({c.name: (own, c.name) for c in _public_classes(tree)})
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        package = node.module == "streettsm" or (node.level and not node.module)
        inside = node.level or (node.module or "").startswith("streettsm.")
        for alias in node.names:
            bound = alias.asname or alias.name
            if package:
                modules.add(bound)
            elif inside:
                names[bound] = (node.module.split(".")[-1], alias.name)
    for user, top in _users(tree):
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id in names:
                yield (*names[node.id], user)
            elif not isinstance(node, ast.Attribute):
                continue
            elif isinstance(node.value, ast.Name):
                if node.value.id in modules:
                    yield (node.value.id, node.attr, user)
                elif node.value.id in names:
                    module, cls = names[node.value.id]
                    yield (module, f"{cls}.{node.attr}", user)
            elif (
                isinstance(node.value, ast.Attribute)
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id in modules
            ):
                module, cls = node.value.value.id, node.value.attr
                yield (module, f"{cls}.{node.attr}", user)


def test_every_public_function_has_a_user_outside_itself():
    public, used = set(), set()
    for path in sorted(PKG.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = _module_name(path)
        public |= {(own, f) for f in _public_functions(tree)}
        public |= {(own, m) for m in _public_static_methods(tree)}
        for module, name, user in _references(tree, own):
            if (module, name) != (own, user):
                used.add((module, name))
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used |= {(module, name) for module, name, _ in _references(tree, None)}
    # both spellings, an attribute of a module and an imported name
    assert {("lp", "solve"), ("benchmarks", "load_benchmark")} <= used
    assert ("templates", "parse_invariant") in used
    # and both spellings of a static method, `templates.CertTemplate.fresh`
    # in the package and `CertTemplate.fresh` in the benchmark
    assert ("templates", "CertTemplate.fresh") in used
    assert ("expr", "LinForm.var") in used
    assert public and not public - used, sorted(public - used)


def _slots(tree: ast.Module):
    """(`Class.field`, field) for each name in a class's `__slots__`."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if (
                isinstance(node, ast.Assign)
                and any(
                    isinstance(t, ast.Name) and t.id == "__slots__"
                    for t in node.targets
                )
            ):
                for field in ast.literal_eval(node.value):
                    yield f"{cls.name}.{field}", field


def test_every_slot_is_read_outside_the_tests():
    # a field that only `__init__` stores and only tests read is dead
    # weight; an attribute load of its name, on any object, counts as a read
    slots, read = [], set()
    sources = sorted(PKG.rglob("*.py")) + sorted(BENCH.glob("*.py"))
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.is_relative_to(PKG):
            slots.extend(_slots(tree))
        read |= {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        }
    assert len(slots) > 50 and ("Verdict.valuation", "valuation") in slots
    unread = [qualified for qualified, field in slots if field not in read]
    assert unread == []


# -- the tracer sees every call ------------------------------------------------


def test_no_module_binds_a_traced_function_under_its_own_name():
    # `from .lp import solve` would bind the original: a call through that
    # name is one the tracer's wrapper of `lp.solve` never sees
    modules = [streettsm] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(streettsm.__path__, "streettsm.")
    ]
    assert len(modules) > 10
    bound = []
    for module in modules:
        for name, value in vars(module).items():
            for home, attr in tracing.TARGETS:
                if value is getattr(home, attr) and module is not home:
                    bound.append(f"{module.__name__}.{name}")
    assert bound == []


OVERLAP = """
state_dim: 1
init: x = 0
disturbance: w finite { (0): 1 }
branch _ -> _:
  guard: x <= 1
  update: x' = x
branch _ -> _:
  guard: x >= 0
  update: x' = x
"""


def test_the_tracer_sees_the_lp_of_a_guard_overlap():
    # the state an overlap error shows is a point `lp.solve` gives
    tracer = tracing.Tracer()
    tracer.begin_pass()
    tracer.install()
    try:
        with pytest.raises(SourceError, match="overlap .* at state x = 0 "):
            parse_model(OVERLAP)
    finally:
        tracer.uninstall()
    assert [s.name for s in tracer.passes[0]].count("lp.solve") >= 1
