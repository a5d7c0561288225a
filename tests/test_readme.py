"""The README's Python quick tour runs as it is shown, and the names it
quotes exist."""

import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import totsym

README = Path(__file__).parent.parent / "README.md"
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")


def test_readme_quick_tour_runs():
    block = README.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    tour = doctest.DocTestParser().get_doctest(block, {}, "README quick tour", str(README), 0)
    assert tour.examples
    assert doctest.DocTestRunner().run(tour).failed == 0


def unresolved(names):
    """The dotted names whose head is not the package, one of its modules or
    a name in one, or whose attribute path from that head breaks off."""
    modules = {info.name: importlib.import_module(f"totsym.{info.name}")
               for info in pkgutil.iter_modules(totsym.__path__)}
    namespace = {name: value for module in modules.values()
                 for name, value in vars(module).items()}
    namespace.update(modules, totsym=totsym)
    missing = []
    for name in sorted(names):
        head, *rest = name.split(".")
        obj = namespace.get(head)
        for part in rest:
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(name)
    return missing


def test_readme_dotted_names_resolve():
    # `linalg.null_space` or `Subspace.maps_into` in the README must name an
    # attribute that exists, so a deletion cannot leave the README behind
    names = set(DOTTED.findall(README.read_text()))
    assert names and unresolved(names) == []
    assert unresolved({"Subspace.apply", "linalg.solve", "field.constants"}) == [
        "Subspace.apply", "field.constants", "linalg.solve"]
