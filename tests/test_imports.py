"""Every imported name is used, the library imports only the standard
library, and each library module imports on its own.

Each module of the library and of the tests is parsed with ``ast``; a name
that an import statement binds but the module never references is dead
weight that keeps a removed function looking used.  Every library module
may import only relative modules and those of ``sys.stdlib_module_names``:
the package declares no dependencies.  The package ``__init__`` imports no
module, so each module is imported alone in a fresh interpreter, where an
import-order dependency would show.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "bilapsym").glob("*.py"), key=lambda p: p.name)
MODULES = sorted(
    LIBRARY + list((ROOT / "tests").glob("*.py")),
    key=lambda p: p.relative_to(ROOT).as_posix(),
)


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements and never referenced."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_scan_finds_an_unused_name():
    assert unused_imports("import os\nfrom json import dumps, loads\nloads('1')\n") == [
        "dumps",
        "os",
    ]


@pytest.mark.parametrize(
    "path", MODULES, ids=[p.relative_to(ROOT).as_posix() for p in MODULES]
)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def nonstandard_imports(source: str) -> list[str]:
    """Top-level modules of absolute imports outside the standard library."""
    tops = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            tops.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            tops.add(node.module.split(".")[0])
    return sorted(tops - sys.stdlib_module_names)


def test_scan_finds_a_nonstandard_module():
    source = "import os.path\nimport numpy as np\nfrom .exactpoly import rat\nfrom sympy import S\n"
    assert nonstandard_imports(source) == ["numpy", "sympy"]


@pytest.mark.parametrize("path", LIBRARY, ids=[p.name for p in LIBRARY])
def test_library_imports_only_the_standard_library(path):
    assert nonstandard_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "name", [p.stem for p in LIBRARY if p.name != "__init__.py"]
)
def test_module_imports_alone(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", f"import bilapsym.{name}"], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
