"""Failure reports for comparisons over K, such as ``k_rows(...) ==
oracle_kernel(...)``: sympy spells an element of K with its whole
degree-8 minimal polynomial, so the report names the first entry that
differs instead and spells both values as Scalars (``oracles.from_k``)."""

from sympy.polys.polyclasses import ANP

from oracles import from_k


def _cells(value):
    """(shape, {index: element}) of a list of rows of elements of K, or of
    a nonempty list of elements of K; None for any other value."""
    if not isinstance(value, list):
        return None
    if all(isinstance(row, list) and all(isinstance(x, ANP) for x in row) for row in value):
        width = len(value[0]) if value else 0
        return f"{len(value)}x{width}", {(r, c): x for r, row in enumerate(value)
                                         for c, x in enumerate(row)}
    if value and all(isinstance(x, ANP) for x in value):
        return f"{len(value)}", {(i,): x for i, x in enumerate(value)}
    return None


def _spell(x):
    return "nothing" if x is None else repr(from_k(x))


def pytest_assertrepr_compare(op, left, right):
    if op != "==":
        return None
    sides = (_cells(left), _cells(right))
    if None in sides:
        return None
    (left_shape, left_cells), (right_shape, right_cells) = sides
    if not left_cells and not right_cells:
        return None
    lines = [f"values over K differ (shapes {left_shape} and {right_shape})"]
    for index in sorted(left_cells.keys() | right_cells.keys()):
        x, y = left_cells.get(index), right_cells.get(index)
        if x != y:
            where = (f"row {index[0]}, column {index[1]}" if len(index) == 2
                     else f"entry {index[0]}")
            lines.append(f"first difference at {where}: {_spell(x)} != {_spell(y)}")
            break
    return lines
