"""The README's Python quick tour runs as it is shown."""

import doctest
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_readme_quick_tour_runs():
    block = README.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    tour = doctest.DocTestParser().get_doctest(block, {}, "README quick tour", str(README), 0)
    assert tour.examples
    assert doctest.DocTestRunner().run(tour).failed == 0
