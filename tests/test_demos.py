"""The demos use only names, keywords and argument counts the package still has (they are not run here)."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def _package_imports(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("tricomi_lab"):
            for alias in node.names:
                yield node.module, alias.name, alias.asname or alias.name


def _calls(tree: ast.AST, objects: dict):
    """The ``name(...)`` calls of an imported callable ``name``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in objects:
            yield node


def _bad_keywords(tree: ast.AST, objects: dict) -> list[str]:
    """``name(kw=...)`` calls whose keyword the imported callable ``name`` does not take."""
    bad = []
    for node in _calls(tree, objects):
        params = inspect.signature(objects[node.func.id]).parameters
        if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
            continue
        bad += [f"{node.func.id}({kw.arg}=)" for kw in node.keywords if kw.arg and kw.arg not in params]
    return bad


def _unbound_calls(tree: ast.AST, objects: dict) -> list[str]:
    """``name(...)`` calls whose arguments the signature of the imported callable ``name`` cannot bind.

    The argument nodes stand in as placeholders; a call that unpacks
    ``*args`` or ``**kwargs`` has no count to check and is skipped.
    """
    bad = []
    for node in _calls(tree, objects):
        if any(isinstance(a, ast.Starred) for a in node.args) or any(kw.arg is None for kw in node.keywords):
            continue
        try:
            inspect.signature(objects[node.func.id]).bind(*node.args, **{kw.arg: kw.value for kw in node.keywords})
        except TypeError as exc:
            bad.append(f"{node.func.id}: {exc}")
    return bad


def _callables(tree: ast.AST) -> dict:
    found = {
        local: getattr(importlib.import_module(module), name, None)
        for module, name, local in _package_imports(tree)
    }
    return {local: obj for local, obj in found.items() if callable(obj)}


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    missing = [
        f"{module}.{name}"
        for module, name, _ in _package_imports(ast.parse(path.read_text()))
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, f"{path.name} imports names the package lacks: {missing}"


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_keywords_exist(path):
    tree = ast.parse(path.read_text())
    bad = _bad_keywords(tree, _callables(tree))
    assert not bad, f"{path.name} passes keywords the package does not take: {bad}"


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_calls_bind(path):
    tree = ast.parse(path.read_text())
    bad = _unbound_calls(tree, _callables(tree))
    assert not bad, f"{path.name} makes calls the package signatures do not bind: {bad}"


def test_keyword_check_catches_removed_option():
    from tricomi_lab.semilinear import time_march

    tree = ast.parse("time_march(p, s, f, g, 1.0, c, grid, enforce_support=False)")
    assert _bad_keywords(tree, {"time_march": time_march}) == ["time_march(enforce_support=)"]


def test_binding_check_catches_stale_positional():
    from tricomi_lab.semilinear import time_march

    tree = ast.parse(
        "time_march(p, s, f, g, 1.0, dt, grid, times, False, extra)\n"
        "time_march(p, s, f, g, 1.0, dt, grid)\n"
        "time_march(*args)"
    )
    (bad,) = _unbound_calls(tree, {"time_march": time_march})
    assert bad == "time_march: too many positional arguments"
