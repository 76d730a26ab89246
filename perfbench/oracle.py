"""Independent checks with sympy, run outside the timed loop on a sample.

Both checks start from the text the package printed or the literal it was
given, so they share no arithmetic with the package.
"""

from __future__ import annotations

import json


def _coords(literal: str):
    import sympy

    # canonical literals hold no nested commas: sqrt(n) takes one argument
    return [sympy.sympify(part) for part in literal.strip()[1:-1].split(",")]


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _is_zero(expr) -> bool:
    import sympy

    return sympy.expand(expr) == 0


def orthocenter_parallels(literal: str, output: str) -> bool:
    """The line from each vertex to H is parallel to the line from Q to the
    cevian trace on the opposite side, Q being the isotomcomplement of the
    base point.  Pairs where either line degenerates are skipped."""
    import sympy

    x, y, z = _coords(literal)
    h = _coords("[" + ",".join(json.loads(output)["H"]) + "]")
    q = (x * (y + z), y * (x + z), z * (x + y))
    vertices = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    traces = ((0, y, z), (x, 0, z), (x, y, 0))
    checked = 0
    for vertex, trace in zip(vertices, traces):
        l1, l2 = _cross(h, vertex), _cross(q, trace)
        if all(_is_zero(c) for c in l1) or all(_is_zero(c) for c in l2):
            continue
        # parallel lines meet on the line at infinity x + y + z = 0
        if not _is_zero(sympy.Matrix([l1, l2, (1, 1, 1)]).det(method="berkowitz")):
            return False
        checked += 1
    return checked > 0


def on_translation_cubic(literal: str) -> bool:
    """x(y+z)^2 + y(x+z)^2 + z(x+y)^2 = 0."""
    x, y, z = _coords(literal)
    return _is_zero(x * (y + z) ** 2 + y * (x + z) ** 2 + z * (x + y) ** 2)
