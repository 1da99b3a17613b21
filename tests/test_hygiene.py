"""Source hygiene: no module imports a name it never uses.

A stdlib `ast` scan over src/qpl/*.py and tests/*.py.  A name counts as
used when it appears anywhere in the module as an identifier (which
covers attribute chains such as `np.int64`).  The imports in
src/qpl/__init__.py are the package's re-exports and are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in [*(ROOT / "src" / "qpl").glob("*.py"),
                             *(ROOT / "tests").glob("*.py")]
                 if p != ROOT / "src" / "qpl" / "__init__.py")


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
