"""The package ships only what its own pipeline uses.

Every public top-level function and class in src/gbmfolio must be used
somewhere else in the package: imported by name from its module
(`from .mod import f`), or read as a Name in its own module outside its
own definition. An attribute such as `r.mape` is not a use of a function
`mape`, whatever object `r` is. A definition only the tests call belongs
in the tests. `__init__.py` holds no re-exports, and an import there
would only forward a name, so its imports do not count as uses.
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


def used_definitions(trees):
    """module.name of every definition the package imports or reads by name."""
    used = set()
    for module, tree in trees.items():
        for statement in tree.body:
            own = getattr(statement, "name", None)
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    if node.id != own:
                        used.add(f"{module}.{node.id}")
                elif isinstance(node, ast.ImportFrom) and node.level == 1 and module != "__init__":
                    used.update(f"{node.module}.{alias.name}" for alias in node.names)
    return used


def unused_definitions(trees):
    return public_definitions(trees) - ENTRY_POINTS - used_definitions(trees)


def test_every_public_definition_is_used_by_the_package():
    unused = unused_definitions(modules())
    assert not unused, f"defined in src/gbmfolio but used only outside it: {sorted(unused)}"


def test_an_attribute_of_the_same_name_is_not_a_use():
    # the scalar mape that HorizonResult.mape once kept alive
    trees = {
        "evaluation": ast.parse(
            "class HorizonResult:\n    mape: float\n\n"
            "def mape(a, f):\n    return mape(a[1:], f[1:]) if len(a) > 1 else 0.0\n"
        ),
        "report": ast.parse(
            "from .evaluation import HorizonResult\n\n"
            "def rows(results):\n    return [r.mape for r in results]\n\n"
            "def write(results):\n    return rows(results)\n"
        ),
    }
    assert unused_definitions(trees) == {"evaluation.mape", "report.write"}


def test_entry_points_exist():
    assert ENTRY_POINTS <= public_definitions(modules())


def test_init_holds_only_the_docstring_and_version():
    body = modules()["__init__"].body
    assert len(body) == 2
    assert isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
    assert [target.id for target in body[1].targets] == ["__version__"]
