"""The package ships only what its own pipeline uses.

Every public top-level function and class in src/gbmfolio must be named
somewhere else in the package: by a Name, an Attribute or an import. A
definition only the tests call belongs in the tests. `__init__.py` holds
no re-exports, and an import there would only forward a name, so its
imports do not count as uses.
"""

import ast
from pathlib import Path

import gbmfolio

PACKAGE = Path(gbmfolio.__file__).resolve().parent

# called from outside the package: the console entry point and perfbench's fixture
ENTRY_POINTS = {"cli.main", "synthetic.make_universe"}


def modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}


def public_definitions(trees):
    """module.name of every public top-level function and class."""
    return {
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def referenced_names(trees):
    """Every name used in the package, outside the definition of that name."""
    names = set()
    for module, tree in trees.items():
        for statement in tree.body:
            own = getattr(statement, "name", None)
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    found = [node.id]
                elif isinstance(node, ast.Attribute):
                    found = [node.attr]
                elif isinstance(node, (ast.Import, ast.ImportFrom)) and module != "__init__":
                    found = [part for alias in node.names for part in alias.name.split(".")]
                else:
                    continue
                names.update(name for name in found if name != own)
    return names


def test_every_public_definition_is_used_by_the_package():
    trees = modules()
    used = referenced_names(trees)
    unused = {
        qualified
        for qualified in public_definitions(trees) - ENTRY_POINTS
        if qualified.split(".", 1)[1] not in used
    }
    assert not unused, f"defined in src/gbmfolio but used only outside it: {sorted(unused)}"


def test_entry_points_exist():
    assert ENTRY_POINTS <= public_definitions(modules())


def test_init_holds_only_the_docstring_and_version():
    body = modules()["__init__"].body
    assert len(body) == 2
    assert isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
    assert [target.id for target in body[1].targets] == ["__version__"]
