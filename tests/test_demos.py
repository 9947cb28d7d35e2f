"""The demos import only names the package still has (they are not run here)."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def _package_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("tricomi_lab"):
            for alias in node.names:
                yield node.module, alias.name


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    missing = [
        f"{module}.{name}"
        for module, name in _package_imports(path)
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, f"{path.name} imports names the package lacks: {missing}"
