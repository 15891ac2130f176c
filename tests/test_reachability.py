"""Regrowth guards: every top-level function, class and constant of the
package is reached from the program (src/, scripts/ or perfbench/), not only
from tests, and every config field is read by the package. Dunder names such
as ``__all__`` are exempt.

A name counts as referenced when some top-level statement other than its own
definition mentions it: as a variable, an attribute, an imported name, or a
word inside a string that is not a docstring (perfbench's tracer names its
patch targets as strings; a docstring naming a function does not call it).
"""

from __future__ import annotations

import ast
import re
from dataclasses import fields
from pathlib import Path

from topospec.probe import ProbeSpec
from topospec.sweep import SweepConfig

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "topospec"
PROGRAM_DIRS = ("src", "scripts", "perfbench")

# package names no program path calls (name -> why it stays); empty, since
# test-reference implementations live in tests/helpers.py
ALLOWED: dict[str, str] = {}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstrings(tree: ast.Module) -> set[int]:
    """ids of the docstring constants of a module and its classes and functions."""
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, DOCUMENTED)
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    }


def _mentions(node: ast.AST, docstrings: set[int]) -> set[str]:
    names: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and id(sub) not in docstrings:
            names.update(re.findall(r"\w+", sub.value))
    return names


def _defined(stmt: ast.stmt) -> list[str]:
    """The names a top-level statement defines: a def or class name, or the
    non-dunder names an assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def unreached_names() -> list[str]:
    """Top-level def, class and constant names of the package no other
    program statement mentions."""
    mentions: list[tuple[Path, ast.stmt, set[str]]] = []
    for top in PROGRAM_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            docstrings = _docstrings(tree)
            mentions += [(path, stmt, _mentions(stmt, docstrings)) for stmt in tree.body]
    unreached = []
    for path, stmt, _ in mentions:
        if path.parent != PACKAGE:
            continue
        for name in _defined(stmt):
            if name in ALLOWED:
                continue
            if not any(name in names for _, other, names in mentions if other is not stmt):
                unreached.append(name)
    return sorted(unreached)


def test_every_package_name_is_reached_from_the_program():
    assert unreached_names() == []


def test_allowlist_names_exist():
    defined = {
        name
        for path in PACKAGE.glob("*.py")
        for stmt in ast.parse(path.read_text()).body
        for name in _defined(stmt)
    }
    assert set(ALLOWED) <= defined


def _attributes_read(node: ast.AST) -> set[str]:
    """Attribute names loaded under node, outside any ``__post_init__``,
    where a config only checks its own fields."""
    names: set[str] = set()
    for sub in ast.iter_child_nodes(node):
        if isinstance(sub, ast.FunctionDef) and sub.name == "__post_init__":
            continue
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            names.add(sub.attr)
        names |= _attributes_read(sub)
    return names


def test_every_config_field_is_read_by_the_package():
    # a settable key that no stage reads is an option the program ignores
    reads = set().union(*(_attributes_read(ast.parse(p.read_text())) for p in sorted(PACKAGE.glob("*.py"))))
    unread = [
        f"{cls.__name__}.{f.name}" for cls in (SweepConfig, ProbeSpec) for f in fields(cls) if f.name not in reads
    ]
    assert unread == []
