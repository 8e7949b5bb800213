"""Import and record hygiene of the package, read from its source with ``ast``."""

from __future__ import annotations

import ast
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
