"""Each coupling has one spelling per boundary, written once: outside the
table model.COUPLINGS no string in the package spells the field lam, the
key "lambda" or the flags --lambda and --rabi, the names in which a
coupling's field, key and flag differ."""

from __future__ import annotations

import ast
from pathlib import Path

import extdicke

SRC = Path(extdicke.__file__).resolve().parent
_SPELLINGS = ("lam", "lambda", "--lambda", "--rabi")


def _spellings(tree: ast.Module) -> tuple[list[str], list[tuple[int, str]]]:
    """The spellings in a module-level assignment to COUPLINGS, and the
    (line, spelling) of each one elsewhere."""
    table = {id(node) for stmt in tree.body if isinstance(stmt, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id == "COUPLINGS" for t in stmt.targets)
             for node in ast.walk(stmt)}
    found = [node for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and node.value in _SPELLINGS]
    return ([node.value for node in found if id(node) in table],
            [(node.lineno, node.value) for node in found if id(node) not in table])


def test_coupling_spellings_appear_only_in_the_table():
    found = {path.name: _spellings(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: outside for name, (_, outside) in found.items() if outside} == {}
    assert sorted(found["model.py"][0]) == sorted(_SPELLINGS)


def test_the_check_sees_spellings_outside_the_table():
    tree = ast.parse('COUPLINGS = (("lam", "lambda"),)\n\n\n'
                     'def f(args):\n    return {"lambda": args.lam, "lam": "--rabi"}\n')
    assert _spellings(tree) == (["lam", "lambda"],
                                [(5, "lambda"), (5, "lam"), (5, "--rabi")])
