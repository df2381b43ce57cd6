"""Every name that a module of the package or a test module imports is used in it,
and the package namespace is its modules."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# __init__.py imports its modules to make them the package's attributes, not to use them.
MODULES = sorted(p for p in (ROOT / "src" / "drnnsim").glob("*.py") if p.name != "__init__.py")
MODULES += sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no ``ast.Name`` of the module reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import math\nimport numpy as np\nfrom os import path, sep\n"
        "np.zeros(len(sep))\n"
    )
    assert unused_imports(source) == ["math", "path"]


def test_package_namespace_is_its_modules():
    # A fresh interpreter: importing drnnsim.cli elsewhere in the session adds it to the namespace.
    code = "import drnnsim; print(' '.join(sorted(n for n in vars(drnnsim) if not n.startswith('_'))))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    # stack_forward stays at package level for the benchmark's tracer test.
    assert out.stdout.split() == ["accel", "corpus", "cosim", "lm", "stack_forward", "training"]
