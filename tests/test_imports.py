"""Every name a module of the package imports is used there or re-exported,
and every name it defines at top level is read somewhere or exported.

No linter ships with the test dependencies, so these are the unused-import
and dead-name checks: they parse the sources and compare the names a module
binds with the names the code reads and the names ``__all__`` lists.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "crowdflow"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used and name not in exported(tree))


def exported(tree) -> set:
    """The names a module's ``__all__`` lists."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def defined(tree) -> dict:
    """The module's top-level defs, classes and constants, dunders aside,
    each with its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    names[t.id] = node.lineno
    return {name: line for name, line in names.items() if not name.startswith("__")}


def read_names(tree) -> set:
    """The names code reads: loaded names, attributes, imported names, and the
    dotted parts of strings, which is how monkeypatch and the benchmark
    tracer name what they replace."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(node.value.split("."))
    return names


def dead_names(module: str, readers) -> list:
    """The top-level names of ``module`` (source) that neither it nor any of
    the ``readers`` (sources) reads, and its ``__all__`` does not list."""
    tree = ast.parse(module)
    read = read_names(tree).union(*(read_names(ast.parse(r)) for r in readers))
    return sorted(f"{name} (line {line})" for name, line in defined(tree).items()
                  if name not in read and name not in exported(tree))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_check_sees_an_unused_import():
    source = "import os\nimport sys\nfrom math import pi, tau\n__all__ = ['tau']\nsys.exit(0)\n"
    assert unused_imports(source) == ["os (line 1)", "pi (line 3)"]


def all_sources() -> dict:
    return {path: path.read_text() for top in ("src", "tests", "bench")
            for path in sorted((ROOT / top).rglob("*.py"))}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_dead_names(path):
    sources = all_sources()
    module = sources.pop(path)
    assert dead_names(module, sources.values()) == []


def test_check_sees_a_dead_name():
    # read by the module itself (_B), an import (f), an attribute (C), a
    # dotted string (h) and __all__ (K); dunders are not checked
    module = ("import math\nA = 1\n_B = 2\nC: int = 3\n__version__ = '1'\n"
              "def f():\n    return _B\ndef g():\n    pass\ndef h():\n    pass\n"
              "class K:\n    pass\n__all__ = ['K']\n")
    readers = ["from m import f\nm.C\n", "monkeypatch.setattr('m.h', None)"]
    assert dead_names(module, readers) == ["A (line 2)", "g (line 8)"]
