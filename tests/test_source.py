"""Static checks over the package source."""

import ast
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lcdep"
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*$")


def unused_imports(source):
    """(line, name) of every name an import binds and the module never
    reads; ``from __future__`` imports bind nothing."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_check_sees_every_import_form():
    source = "\n".join([
        "from __future__ import annotations",
        "import os",
        "import a.b",
        "from x import y as z",
        "from p import (q,",
        "    r)",
        "def f():",
        "    return os.sep, q",
    ])
    assert unused_imports(source) == [(3, "a"), (4, "z"), (5, "r")]


def third_party_imports(source):
    """Top-level names of the modules that ``source`` imports from outside
    the standard library and this package; relative imports are the
    package's own."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return {name for name in names
            if name not in sys.stdlib_module_names and name != "lcdep"}


def declared_dependencies():
    """The module names of the ``dependencies`` in ``pyproject.toml``."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(
        (ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    return {re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0].lower()
            .replace("-", "_") for dep in project["dependencies"]}


def test_every_third_party_import_is_a_declared_dependency():
    # an undeclared import works only where it happens to be installed, and
    # a heavy one costs every command its import time
    imported = {name for path in sorted(SRC.glob("*.py"))
                for name in third_party_imports(
                    path.read_text(encoding="utf-8"))}
    assert sorted(imported - declared_dependencies()) == []


def test_third_party_import_check_sees_every_import_form():
    source = "\n".join([
        "import os.path",
        "import numpy.linalg as la",
        "from scipy import optimize",
        "from . import sbg",
        "from .hypergraph import NEG_INF",
        "import lcdep.cli",
        "def f():",
        "    import yaml",
    ])
    assert third_party_imports(source) == {"numpy", "scipy", "yaml"}


def module_constants(source):
    """Names of the upper-case constants a module assigns at top level."""
    names = set()
    for node in ast.parse(source).body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and CONSTANT.match(name.id):
                    names.add(name.id)
    return names


def names_read(source):
    """Every name the source loads, bare or as an attribute."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            out.add(node.attr)
    return out


def project_reads():
    """Every name read in the sources under src, tests and scripts."""
    read = set()
    for top in ("src", "tests", "scripts"):
        for path in (ROOT / top).rglob("*.py"):
            read |= names_read(path.read_text(encoding="utf-8"))
    return read


def test_every_module_constant_is_read():
    read = project_reads()
    unread = sorted(
        "%s.%s" % (path.stem, name)
        for path in sorted(SRC.glob("*.py"))
        for name in module_constants(path.read_text(encoding="utf-8"))
        if name not in read)
    assert unread == []


def test_constant_checks_see_assignments_and_reads():
    source = "\n".join([
        "A = 1",
        "_B, c = 2, 3",
        "D: int = 4",
        "E = A",
        "def f():",
        "    G = 5",
        "    return m.D",
    ])
    assert module_constants(source) == {"A", "_B", "D", "E"}
    assert names_read(source) == {"int", "A", "m", "D"}


def public_definitions(source):
    """Qualified names of the public top-level functions and of the public
    methods of top-level classes."""
    names = set()
    for node in ast.parse(source).body:
        owner, body = ((node.name + ".", node.body)
                       if isinstance(node, ast.ClassDef) else ("", [node]))
        for fn in body:
            if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not fn.name.startswith("_")):
                names.add(owner + fn.name)
    return names


def test_every_public_function_and_method_is_read():
    read = project_reads()
    unread = sorted(
        "%s.%s" % (path.stem, name)
        for path in sorted(SRC.glob("*.py"))
        for name in public_definitions(path.read_text(encoding="utf-8"))
        if name.rpartition(".")[2] not in read)
    assert unread == []


def test_public_definition_check_sees_functions_and_methods():
    source = "\n".join([
        "def f():",
        "    def inner():",
        "        pass",
        "def _g():",
        "    pass",
        "async def h():",
        "    pass",
        "class C:",
        "    def m(self):",
        "        pass",
        "    def _n(self):",
        "        pass",
        "    def __len__(self):",
        "        return 0",
        "class _D:",
        "    def k(self):",
        "        pass",
    ])
    assert public_definitions(source) == {"f", "h", "C.m", "_D.k"}
