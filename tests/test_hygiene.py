"""Static hygiene of the package: no unused import, no private top-level
function that nothing references, no top-level function or class that
nothing in src, tests or demos references, no method or property of a
package class (dunders aside) that nothing in src, tests, demos or
perfbench references, no relative import inside a function, no
module-level name bound by assignment that nothing in the package reads,
and no name wrapped by ``perfbench/tracer.py`` that the package lacks,
checked with ``ast``."""

import ast
import functools
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cartanlab"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _used_names(tree):
    """Every name read in the module, and the names in ``__all__``."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            names |= {elt.value for elt in node.value.elts}
    return names


def _referenced_across_modules():
    """Names that some module of the package imports from another, or
    reads as an attribute."""
    names = set()
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ImportFrom) and node.level:
                names |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _bound_imports(tree):
    """(bound name, line) for every top-level import but __future__."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = _tree(path)
    used = _used_names(tree)
    unused = [f"{name} (line {line})" for name, line in _bound_imports(tree)
              if name not in used]
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unreferenced_private_functions(path):
    tree = _tree(path)
    referenced = _used_names(tree) | _referenced_across_modules()
    dead = [node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
            and not node.name.startswith("__") and node.name not in referenced]
    assert not dead, f"{path.name}: unreferenced private functions {dead}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_relative_imports_inside_functions(path):
    # a module of the package is loaded with the package, so importing it
    # inside a function saves nothing and hides a dependency; a lazy import
    # of a third-party module (scipy) stays allowed
    nested = [f"{node.module} (line {node.lineno})"
              for fn in ast.walk(_tree(path))
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(fn)
              if isinstance(node, ast.ImportFrom) and node.level]
    assert not nested, f"{path.name}: relative imports inside functions {nested}"


@functools.cache
def _references(dirs=("src", "tests", "demos")):
    """Names read, read as an attribute or imported anywhere in the
    directories ``dirs`` of the repository (an import in ``__init__`` is
    an export)."""
    root = PACKAGE.parents[1]
    names = set()
    for path in (p for d in dirs for p in (root / d).rglob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names}
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_top_level_definition_is_referenced(path):
    dead = [node.name for node in _tree(path).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name not in _references()]
    assert not dead, f"{path.name}: unreferenced definitions {dead}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_method_is_referenced(path):
    referenced = _references(("src", "tests", "demos", "perfbench"))
    dead = [f"{cls.name}.{node.name}" for cls in _tree(path).body
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and node.name not in referenced]
    assert not dead, f"{path.name}: unreferenced methods {dead}"


def _tracer_targets():
    """The (module, function) keys of ``SPAN_TARGETS`` and ``COUNT_TARGETS``
    in ``perfbench/tracer.py``, read with ``ast`` (the tracer is not
    imported)."""
    tree = _tree(PACKAGE.parents[1] / "perfbench" / "tracer.py")
    targets = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in ("SPAN_TARGETS", "COUNT_TARGETS")):
            targets[node.targets[0].id] = list(ast.literal_eval(node.value))
    return targets


def test_every_traced_name_exists():
    # the benchmark run looks up every traced name before its timed passes,
    # even untraced, so a renamed target fails the whole run
    targets = _tracer_targets()
    assert set(targets) == {"SPAN_TARGETS", "COUNT_TARGETS"}
    missing = [f"cartanlab.{module}.{name}"
               for keys in targets.values() for module, name in keys
               if not hasattr(importlib.import_module(f"cartanlab.{module}"), name)]
    assert not missing, f"perfbench/tracer.py wraps missing names {missing}"


def _assigned_names(tree):
    """(name, line) for every module-level name bound by assignment,
    dunders aside."""
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            for name in ast.walk(target):
                if (isinstance(name, ast.Name)
                        and not (name.id.startswith("__") and name.id.endswith("__"))):
                    yield name.id, node.lineno


def test_every_module_level_assignment_is_read():
    # a constant of a deleted mechanism must not live on because a test
    # still imports it: every one is read in the package itself
    read = set()
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = [f"{path.name}: {name} (line {line})" for path in MODULES
              for name, line in _assigned_names(_tree(path)) if name not in read]
    assert not unread, f"module-level names nothing in the package reads {unread}"
