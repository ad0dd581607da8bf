"""The package's layering: the cell-probe model sits below the structures
that charge its probes, and every import of a package module is at
module level, where the import graph shows it."""

import ast
from pathlib import Path

import pytest

import rankprobe

PACKAGE = Path(rankprobe.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))


def package_imports(node):
    """The ``rankprobe`` modules an import statement names."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names if a.name.split(".")[0] == "rankprobe"]
    if isinstance(node, ast.ImportFrom):
        if node.level:
            return [f"rankprobe.{node.module}"] if node.module else [f"rankprobe.{a.name}" for a in node.names]
        if node.module.split(".")[0] == "rankprobe":
            return [node.module]
    return []


def test_model_imports_nothing_from_structures():
    tree = ast.parse((PACKAGE / "model.py").read_text())
    named = [m for node in ast.walk(tree) for m in package_imports(node)]
    assert "rankprobe.structures" not in named


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_imports_a_package_module(path):
    tree = ast.parse(path.read_text())
    inner = [
        (node.lineno, m)
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for node in ast.walk(fn)
        for m in package_imports(node)
    ]
    assert inner == []
