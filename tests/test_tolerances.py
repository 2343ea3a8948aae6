"""The tolerance ledger stays true: every small float literal in the
package is a module-level constant, named once with what it compares."""

from __future__ import annotations

import ast
import importlib
import re
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


def _ledger_names() -> list[tuple[str, str, str]]:
    """(name, module, value) of each backticked name in the first column of
    README's tolerance table, whose rows read "`NAME` (module), value"."""
    text = (SRC.parents[1] / "README.md").read_text()
    lines = text[text.index("## Tolerances"):].splitlines()
    start = lines.index(next(line for line in lines if line.startswith("| Name")))
    out = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        first = re.split(r"(?<!\\)\|", line)[1].strip()
        for name in re.findall(r"`([^`]*)`", first):
            m = re.fullmatch(rf"`{re.escape(name)}` \((\w+)\), (\S+).*", first)
            assert m, f"ledger row names {name!r} but does not read `NAME` (module), value"
            out.append((name, *m.groups()))
    return out


def test_ledger_rows_name_live_constants():
    # every constant the README's ledger names exists at module level in
    # the module it names, with the value it gives, so a deleted or changed
    # constant cannot leave a stale row
    rows = _ledger_names()
    assert len(rows) >= 15
    for name, module, value in rows:
        mod = importlib.import_module(f"extdicke.{module}")
        assert name in vars(mod), (name, module)
        assert isinstance(vars(mod)[name], (int, float)), (name, module)
        assert vars(mod)[name] == float(value), (name, module, value)
