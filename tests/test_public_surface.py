"""The package ships only what its own pipeline uses.

Every public top-level function and class in src/gbmfolio must be used
somewhere else in the package: imported by name from its module
(`from .mod import f`), or read as a Name in its own module outside its
own definition. An attribute such as `r.mape` is not a use of a function
`mape`, whatever object `r` is. A definition only the tests call belongs
in the tests. `__init__.py` holds no re-exports, and an import there
would only forward a name, so its imports do not count as uses.

Likewise, every defaulted parameter of a public top-level function must
be passed, by position or by keyword, at some call in the package: a
parameter only the tests pass is a code path only the tests run.
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


def defaulted_parameters(trees):
    """module.function.parameter -> its position (None if keyword-only), for every
    defaulted parameter of a public top-level function."""
    found = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                args = node.args.posonlyargs + node.args.args
                for position in range(len(args) - len(node.args.defaults), len(args)):
                    found[f"{module}.{node.name}.{args[position].arg}"] = position
                for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                    if default is not None:
                        found[f"{module}.{node.name}.{arg.arg}"] = None
    return found


def passed_parameters(trees, parameters):
    """The `parameters` that some call in the package passes."""
    passed = set()
    for module, tree in trees.items():
        # module.function of each name this module calls: its own or imported
        names = {n.name: f"{module}.{n.name}" for n in tree.body if isinstance(n, ast.FunctionDef)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names.update((a.asname or a.name, f"{node.module}.{a.name}") for a in node.names)
        for call in ast.walk(tree):
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)):
                continue
            function = names.get(call.func.id)
            keywords = {k.arg for k in call.keywords}
            starred = any(isinstance(a, ast.Starred) for a in call.args) or None in keywords
            for key, position in parameters.items():
                function_of, _, name = key.rpartition(".")
                if function_of == function and (
                    starred
                    or name in keywords
                    or (position is not None and position < len(call.args))
                ):
                    passed.add(key)
    return passed


def unpassed_parameters(trees):
    parameters = {
        key: position
        for key, position in defaulted_parameters(trees).items()
        if key.rpartition(".")[0] not in ENTRY_POINTS
    }
    return set(parameters) - passed_parameters(trees, parameters)


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


def test_every_defaulted_parameter_is_passed_by_the_package():
    unpassed = unpassed_parameters(modules())
    assert not unpassed, f"defaulted parameters only the tests pass: {sorted(unpassed)}"


def test_a_parameter_is_passed_by_position_or_keyword_from_any_module():
    trees = {
        "draw": ast.parse(
            "def rows(seed, count=1, out=None, *, width=2, step=None):\n    return seed\n\n"
            "def again(seed):\n    return rows(seed, 4)\n"
        ),
        "run": ast.parse(
            "from .draw import rows as draw_rows\n\n"
            "def go(out):\n    return draw_rows(1, out=out), out.rows(1, 2, 3, width=3)\n"
        ),
    }
    # out.rows is an attribute, not a call of draw.rows, so width and step go unpassed
    assert unpassed_parameters(trees) == {"draw.rows.width", "draw.rows.step"}


def test_entry_points_exist():
    assert ENTRY_POINTS <= public_definitions(modules())


def test_the_fixture_imports_nothing_from_the_package():
    # perfbench builds its inputs with make_universe from the tree under test, so an
    # edit to the pipeline must not move them
    for node in ast.walk(modules()["synthetic"]):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and node.module.split(".")[0] != "gbmfolio", ast.unparse(node)
        elif isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] != "gbmfolio" for a in node.names), ast.unparse(node)


def test_init_holds_only_the_docstring_and_version():
    body = modules()["__init__"].body
    assert len(body) == 2
    assert isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
    assert [target.id for target in body[1].targets] == ["__version__"]
