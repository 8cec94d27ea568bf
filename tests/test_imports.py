"""What the modules of ``src/orientkit`` import, read from the sources with ``ast``.

Every name an import binds is read in the scope that imports it (the
function holding the import, or the module); ``from __future__`` lines are
exempt.  Only ``orientation`` and ``density`` import ``dataclasses``, each
for its one record: ``dataclasses`` imports ``inspect``, the largest part of
a command's start, so the other eight records are plain classes, and ``gen``
and ``cnf`` load neither module.
"""

import ast
from pathlib import Path

import pytest

import orientkit

PACKAGE = Path(orientkit.__file__).resolve().parent
MODULES = {
    path.stem: ast.parse(path.read_text(), filename=str(path))
    for path in sorted(PACKAGE.glob("*.py"))
}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_imports(scope):
    """The import statements of scope outside its nested functions."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def unread_imports(tree):
    """Sorted (line, name) of each imported name its scope never reads."""
    unread = []
    for scope in [tree, *(node for node in ast.walk(tree) if isinstance(node, FUNCTIONS))]:
        read = {
            node.id for node in ast.walk(scope)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in _own_imports(scope):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unread.append((node.lineno, name))
    return sorted(unread)


def test_the_guard_finds_an_unread_import():
    source = (
        "from __future__ import annotations\n"
        "from dataclasses import dataclass, field\n"
        "import os.path\n"
        "@dataclass\n"
        "class A:\n"
        "    def f(self):\n"
        "        from .graphs import Graph, bipartition\n"
        "        return Graph, os\n"
    )
    assert unread_imports(ast.parse(source)) == [(2, "field"), (7, "bipartition")]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_read(module):
    assert unread_imports(MODULES[module]) == []


def test_only_two_records_are_dataclasses():
    users = {}
    for module, tree in MODULES.items():
        if any(
            isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
            or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
            for node in ast.walk(tree)
        ):
            users[module] = [
                node.name for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef)
                and any("dataclass" in ast.unparse(d) for d in node.decorator_list)
            ]
    assert users == {"density": ["DensityReport"], "orientation": ["Orientation"]}
