"""Every name a causekit module imports is used in it or exported by it."""

import ast
import pathlib

import pytest

SOURCES = sorted((pathlib.Path(__file__).parent.parent / "src" / "causekit").glob("*.py"))


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_imports_a_name_it_does_not_use(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
