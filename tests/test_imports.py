"""Module boundaries: the modules of the package form one layer order, and
no module imports another module's private (underscore) names."""

import ast
from pathlib import Path

import totsym

SOURCES = sorted(Path(totsym.__file__).parent.glob("*.py"))

# each module imports only modules earlier in this order
ORDER = ("field", "linalg", "spectral", "core", "catalog", "serialize", "suite", "cli")


def _relative_imports(path):
    """The ImportFrom nodes of `path` that name a module of the package,
    those inside functions included."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level]


def _private_imports(path):
    """The underscore names that `path` takes with a relative import."""
    return [f"{'.' * node.level}{node.module or ''}.{alias.name}"
            for node in _relative_imports(path)
            for alias in node.names if alias.name.startswith("_")]


def _imported_modules(path):
    """The package modules that `path` imports: `x` of `from .x import ...`
    and of `from . import x`."""
    return [node.module.split(".")[0] if node.module else alias.name
            for node in _relative_imports(path) for alias in node.names]


def test_no_module_imports_a_private_name_of_another():
    assert SOURCES
    found = {p.name: names for p in SOURCES if (names := _private_imports(p))}
    assert found == {}


def test_each_module_imports_only_earlier_layers():
    modules = {p.stem: p for p in SOURCES if p.stem != "__init__"}
    assert sorted(modules) == sorted(ORDER)
    late = {name: sorted({m for m in _imported_modules(path)
                          if m not in ORDER[:ORDER.index(name)]})
            for name, path in modules.items()}
    assert {name: found for name, found in late.items() if found} == {}
