"""The tolerance ledger stays true: every small float literal in the
package is a module-level constant, named once with what it compares."""

from __future__ import annotations

import ast
from pathlib import Path

import extdicke

SRC = Path(extdicke.__file__).resolve().parent


def _inline_small_floats(tree: ast.Module) -> list[tuple[int, float]]:
    """(line, value) of each float literal of magnitude in (0, 1e-2) that is
    not part of a module-level assignment."""
    named = {id(node) for stmt in tree.body
             if isinstance(stmt, (ast.Assign, ast.AnnAssign))
             for node in ast.walk(stmt)}
    return [(node.lineno, node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, float)
            and 0.0 < abs(node.value) < 1e-2 and id(node) not in named]


def test_small_float_literals_are_module_constants():
    found = {path.name: _inline_small_floats(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: lits for name, lits in found.items() if lits} == {}


def test_the_check_sees_inline_literals():
    tree = ast.parse("TOL = 1e-9\n\n\ndef f(x, eps=1e-8):\n"
                     "    return abs(x) < -1e-12 or x > 0.5\n")
    assert _inline_small_floats(tree) == [(4, 1e-8), (5, 1e-12)]
