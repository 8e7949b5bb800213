"""Import and record hygiene of the package, read from its source with ``ast``."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "leveldecay"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> set[str]:
    """Every name an import statement binds, ``from __future__`` aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return names


def unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported_names(tree) - used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == set()


def test_detects_an_unused_import():
    assert unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") == {"math", "path"}


def test_all_is_exactly_what_init_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    declared = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "__all__" for t in node.targets)
    )
    names = [ast.literal_eval(elt) for elt in declared.elts]
    assert len(names) == len(set(names))
    assert set(names) == imported_names(tree)


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
        for d in node.decorator_list
    )


def unread_fields(sources: list[str]) -> set[str]:
    """``Class.field`` for every dataclass field no attribute read names.

    Name-level: a field counts as read if any ``x.field`` is loaded anywhere
    in ``sources``, whatever ``x`` is.
    """
    trees = [ast.parse(src) for src in sources]
    fields = {
        f"{node.name}.{stmt.target.id}"
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and _is_dataclass(node)
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    }
    read = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return {f for f in fields if f.split(".")[1] not in read}


def test_every_dataclass_field_is_read():
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    assert unread_fields(sources) == set()


def test_detects_an_unread_field():
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int\n"
        "@dataclass\nclass B:\n    z: int\n"
        "print(A(1, 2).x)\n"
    )
    assert unread_fields([source]) == {"A.y", "B.z"}


def _loaded_names(node: ast.AST) -> Counter:
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    )


def uncalled_definitions(sources: list[str]) -> set[str]:
    """Every module-level function or class that nothing in ``sources`` names
    outside its own definition.

    Name-level, like ``unread_fields``: a definition counts as called if its
    name is loaded, as a name or an attribute, anywhere else in ``sources``,
    whatever the object.
    """
    trees = [ast.parse(src) for src in sources]
    everywhere = sum((_loaded_names(tree) for tree in trees), Counter())
    return {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and everywhere[node.name] == _loaded_names(node)[node.name]
    }


def test_every_package_function_has_a_caller():
    # __init__.py only re-exports: a name it alone imports has no caller.
    assert uncalled_definitions([p.read_text() for p in MODULES]) == set()


def test_detects_a_definition_without_a_caller():
    sources = [
        "def used():\n    return 1\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "class Unused:\n    pass\n"
        "print(used())\n",
        "def remote():\n    pass\n",
        "import m\nm.remote()\n",
    ]
    assert uncalled_definitions(sources) == {"recursive", "Unused"}
