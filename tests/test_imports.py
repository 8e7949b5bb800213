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


def _family_members() -> set[str]:
    """The names and values of ``CouplingFamily``'s members, from its source."""
    tree = ast.parse((PACKAGE / "coupling.py").read_text())
    enum_class = next(
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "CouplingFamily"
    )
    return {
        part
        for stmt in enum_class.body if isinstance(stmt, ast.Assign)
        for part in (stmt.targets[0].id, ast.literal_eval(stmt.value))
    }


def naming_family_members(sources: dict[str, str], members: set[str]) -> set[str]:
    """The modules of ``sources`` that name a member of ``members``, as a
    name, an attribute or a string constant."""
    return {
        module
        for module, src in sources.items()
        for node in ast.walk(ast.parse(src))
        if (isinstance(node, ast.Name) and node.id in members)
        or (isinstance(node, ast.Attribute) and node.attr in members)
        or (isinstance(node, ast.Constant) and node.value in members)
    }


def test_only_verification_names_a_family_outside_coupling():
    # The family decides only p, and coupling.py holds that decision; the
    # verify matrix, its sweeps and its criteria 2 and 8 pick their models.
    sources = {
        p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py")) if p.name != "coupling.py"
    }
    assert naming_family_members(sources, _family_members()) == {"verification.py"}


def test_detects_a_named_family_member():
    members = {"TWO", "2d"}
    sources = {
        "attr.py": "x = F.TWO\n", "name.py": "from m import TWO\nprint(TWO)\n",
        "value.py": "F('2d')\n", "none.py": "x = F.THREE\nprint('3d')\n",
    }
    assert naming_family_members(sources, members) == {"attr.py", "name.py", "value.py"}


# The caller's units: read only where a public entry point maps them to the
# canonical model (family, gamma, beta) or back, through the model's maps.
UNIT_FIELDS = {"cutoff", "e1", "e2", "strength_sq", "level_gap"}
INNER_MODULES = ("quadrature.py", "spectrum.py", "evolution.py", "volterra.py")
MAPS = {"xi", "energy", "up", "down", "phase"}


def _public_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    declared = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "__all__" for t in node.targets)
    )
    return {ast.literal_eval(elt) for elt in declared.elts}


def unit_readers(source: str, allowed: set[str]) -> set[str]:
    """The top-level definitions of ``source`` outside ``allowed`` that read
    one of ``UNIT_FIELDS`` as an attribute; module-level code is ``<module>``."""
    return {
        getattr(stmt, "name", "<module>")
        for stmt in ast.parse(source).body
        if getattr(stmt, "name", "<module>") not in allowed
        for node in ast.walk(stmt)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and node.attr in UNIT_FIELDS
    }


@pytest.mark.parametrize("module", INNER_MODULES)
def test_only_entry_points_and_the_map_read_the_callers_units(module):
    assert unit_readers((PACKAGE / module).read_text(), _public_names()) == set()


def test_detects_a_unit_read_outside_the_entry_points():
    source = (
        "def entry(params):\n    return params.e1\n"
        "def inner(model):\n    return model.cutoff * 2\n"
        "def writes(model):\n    model.cutoff = 1\n"
        "x = p.level_gap\n"
    )
    assert unit_readers(source, {"entry"}) == {"inner", "<module>"}


def caller_model_uses(source: str) -> set[str]:
    """Where ``source`` names ``ModelParams`` (a name, an attribute or an
    import) and the map methods of ``MAPS`` it calls."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == "ModelParams":
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr == "ModelParams":
            found.add(node.attr)
        elif isinstance(node, ast.alias) and node.name == "ModelParams":
            found.add(node.name)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in MAPS):
            found.add(node.func.attr)
    return found


def test_quadrature_works_on_the_canonical_model_alone():
    # k_regular takes the Canonical and a distance in xi; no caller's model
    # and none of its maps reach the integrator.
    assert caller_model_uses((PACKAGE / "quadrature.py").read_text()) == set()


def test_detects_a_caller_model_or_a_map_call():
    source = (
        "from .coupling import ModelParams\n"
        "def k(params: coupling.ModelParams, lam):\n"
        "    return params.up(f(params.xi(lam))) + params.energy\n"
    )
    assert caller_model_uses(source) == {"ModelParams", "up", "xi"}
