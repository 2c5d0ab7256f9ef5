"""Every module-level import in src/selqa is used: a stdlib stand-in for a linter's check."""

import ast

import pytest

from conftest import SRC_DIR

MODULES = sorted((SRC_DIR / "selqa").glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """The names the module's top-level imports bind, each with its line."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    return bound


def _used(tree: ast.Module) -> set[str]:
    """The names the module's code reads, and the strings its __all__ lists."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name) and node.targets[0].id == "__all__"):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_unused_module_level_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    used = _used(tree)
    dead = {name: line for name, line in _imported(tree).items() if name not in used}
    assert dead == {}, f"{path.name}: imported but never used: {dead}"


def test_an_unused_import_is_found():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Container, Iterable\n"
        "from . import io as selqa_io\n"
        "__all__ = ['Iterable']\n"
        "def f(x: selqa_io.Thing) -> None:\n"
        "    os.path.join(x)\n"
    )
    used = _used(tree)
    assert [name for name in _imported(tree) if name not in used] == ["Container"]
