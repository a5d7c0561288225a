"""Module boundaries: no module of the package imports another module's
private (underscore) names."""

import ast
from pathlib import Path

import totsym

SOURCES = sorted(Path(totsym.__file__).parent.glob("*.py"))


def _private_imports(path):
    """The underscore names that `path` takes with a relative import."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{'.' * node.level}{node.module or ''}.{alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names if alias.name.startswith("_")]


def test_no_module_imports_a_private_name_of_another():
    assert SOURCES
    found = {p.name: names for p in SOURCES if (names := _private_imports(p))}
    assert found == {}
