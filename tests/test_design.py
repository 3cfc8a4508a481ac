"""Checks that span the package: its import hygiene and the README."""

import ast
import doctest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "epsclass"
MODULES = {p.stem for p in PACKAGE.glob("*.py")}


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def _private_uses(source):
    """(line, name) for each private name of another package module that
    source imports, or reads as an attribute of an imported module."""
    tree = ast.parse(source)
    imported_modules = set()
    uses = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and node.module != "epsclass" and \
                not (node.module or "").startswith("epsclass."):
            continue
        for alias in node.names:
            if node.module in (None, "epsclass") and alias.name in MODULES:
                imported_modules.add(alias.asname or alias.name)
            elif _is_private(alias.name):
                uses.append((node.lineno, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _is_private(node.attr) and \
                isinstance(node.value, ast.Name) and \
                node.value.id in imported_modules:
            uses.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return uses


def test_no_module_uses_another_modules_private_names():
    found = {p.name: _private_uses(p.read_text())
             for p in sorted(PACKAGE.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}


def test_private_use_detector():
    src = ("from . import zlin\nfrom .arith import _mr_round, vp\n"
           "from epsclass.quadclass import _euler_table\n"
           "from __future__ import annotations\n"
           "x = zlin._col_bezout\ny = zlin.xgcd\n")
    assert _private_uses(src) == [(2, "_mr_round"), (3, "_euler_table"),
                                  (5, "zlin._col_bezout")]


def test_readme_examples():
    result = doctest.testfile(str(ROOT / "README.md"), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0
