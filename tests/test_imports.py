"""Every name a causekit or test module imports is used in it or exported
by it, every public function and class of a module is used by the package,
the demos or the benchmark, so code only the tests call stays in the tests,
every private function of a module is used by the package, every
parameter of a package function is read in its body, and every function
and class of the tests' helpers is read by a test or another helper."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "causekit").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
USERS = sorted(p for d in ("src", "demos", "perfbench") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source):
    """The names bound by an import statement of `source` that no expression
    reads and `__all__` does not list, sorted."""
    tree = ast.parse(source)
    imported = set()
    used = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.partition(".")[0])
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return sorted(imported - used - exported)


def test_the_check_sees_an_unused_import():
    source = "import os\nfrom . import a, b as c\nfrom .m import d\n__all__ = ['d']\nprint(c)\n"
    assert unused_imports(source) == ["a", "os"]


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda path: path.name)
def test_no_module_imports_a_name_it_does_not_use(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def referenced_names(sources):
    """The names that a name expression, an attribute or a from-import of
    any of `sources` reads; a definition reads nothing."""
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def unreferenced(module, names, private=False):
    """The public top-level functions and classes of `module` not in
    `names`; with `private`, its private top-level functions instead,
    dunders aside."""
    kinds = ast.FunctionDef if private else (ast.FunctionDef, ast.ClassDef)
    return [
        node.name
        for node in ast.parse(module).body
        if isinstance(node, kinds)
        and node.name.startswith("_") == private
        and not node.name.startswith("__")
        and node.name not in names
    ]


def test_the_check_sees_an_unreferenced_function():
    module = "def used():\n    pass\n\ndef unused():\n    used()\n\nclass _Private:\n    pass\n"
    user = "from m import used\nimport m\nm.used()\n"
    assert unreferenced(module, referenced_names([module, user])) == ["unused"]


def test_the_check_sees_an_unreferenced_private_function():
    module = (
        "def _used():\n    pass\n\ndef _unused():\n    _used()\n\n"
        "def public():\n    pass\n\nclass _Private:\n    pass\n"
    )
    user = "from m import _imported\n"
    names = referenced_names([module, user])
    assert unreferenced(module, names, private=True) == ["_unused"]
    assert unreferenced("def _imported():\n    pass\n", names, private=True) == []


def test_every_private_function_is_used_in_the_package():
    names = referenced_names(path.read_text(encoding="utf-8") for path in SOURCES)
    assert {
        path.name: unreferenced(path.read_text(encoding="utf-8"), names, private=True)
        for path in SOURCES
    } == {path.name: [] for path in SOURCES}


def test_every_public_function_is_used_outside_the_tests():
    names = referenced_names(path.read_text(encoding="utf-8") for path in USERS)
    assert {
        path.name: unreferenced(path.read_text(encoding="utf-8"), names)
        for path in SOURCES
    } == {path.name: [] for path in SOURCES}


def test_every_helper_is_read_by_a_test_or_another_helper():
    names = referenced_names(path.read_text(encoding="utf-8") for path in TESTS)
    helpers = (ROOT / "tests" / "helpers.py").read_text(encoding="utf-8")
    assert unreferenced(helpers, names) + unreferenced(helpers, names, private=True) == []


def unread_parameters(source):
    """(function, parameter) for each parameter of a function or lambda of
    `source` that no name expression in its body reads, a nested function's
    included, sorted."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for part in body for n in ast.walk(part) if isinstance(n, ast.Name)}
            name = getattr(node, "name", "<lambda>")
            out.extend((name, p) for p in params if p not in read)
    return sorted(out)


def test_the_check_sees_an_unread_parameter():
    source = (
        "def f(a, b, *rest, c=1, **extra):\n"
        "    def g(d):\n        return b\n"
        "    return g\n\n"
        "key = lambda item, unused: item\n"
    )
    assert unread_parameters(source) == [
        ("<lambda>", "unused"), ("f", "a"), ("f", "c"), ("f", "extra"), ("f", "rest"), ("g", "d"),
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text(encoding="utf-8")) == []
