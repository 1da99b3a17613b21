"""Source hygiene: no module imports a name it never uses, and no
top-level definition in src/qpl is left that nothing names.

Both are stdlib `ast` scans over src/qpl/*.py and tests/*.py.  A name
counts as used when it appears in a module as an identifier (which
covers attribute chains such as `np.int64`).  The imports in
src/qpl/__init__.py are the package's re-exports: they are exempt from
the unused-import scan and count as uses in the definition scan.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "qpl").glob("*.py"))
ALL_FILES = SOURCES + sorted((ROOT / "tests").glob("*.py"))
MODULES = [p for p in ALL_FILES if p != ROOT / "src" / "qpl" / "__init__.py"]


def unused_imports(source):
    """Names bound by import statements in source and never referenced."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*":
                    imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_unused_import():
    assert unused_imports("import os\nimport sys\nimport numpy as np\n"
                          "from math import gcd, lcm\nnp.ones(gcd(2, 4))\n") \
        == [(1, "os"), (2, "sys"), (4, "lcm")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def top_level_definitions(source):
    """Names of the functions, classes and constants a module defines at
    top level."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def referenced_names(source):
    """Names a module reads, reaches as an attribute or imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_scan_finds_unused_definition():
    source = ("LIMIT = 3\nUNUSED = 4\nclass Box: pass\n"
              "def used(): return LIMIT\ndef dead(): pass\nBox.used = used\n")
    assert sorted(top_level_definitions(source) - referenced_names(source)) \
        == ["UNUSED", "dead"]


def test_no_unused_definitions():
    used = set().union(*(referenced_names(p.read_text()) for p in ALL_FILES))
    unused = sorted("%s: %s" % (p.name, name) for p in SOURCES
                    for name in top_level_definitions(p.read_text()) - used)
    assert unused == []
