"""Design rules of the package source, checked on its syntax tree.

leanfa keeps no unbounded module-level caches: what is derived from a game
lives in the game's memo and is freed with the game.  A frozen dataclass
holds no `dict`, `list` or `set`: it would be frozen only on the surface.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "leanfa").glob("*.py"))
CACHES = {"lru_cache", "cache"}


def _cache_uses(tree: ast.AST):
    """Line and name of each `functools.lru_cache` or `functools.cache`
    imported or referenced."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            for alias in node.names:
                if alias.name in CACHES:
                    yield node.lineno, f"from functools import {alias.name}"
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
            and node.attr in CACHES
        ):
            yield node.lineno, f"functools.{node.attr}"


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"games.py", "machines.py", "cycles.py", "equilibrium.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_functools_cache_in_the_package(path):
    uses = list(_cache_uses(ast.parse(path.read_text(), filename=str(path))))
    assert uses == [], f"{path.name} caches at module level: {uses}"


MUTABLE = {"dict", "list", "set"}


def _frozen_dataclasses(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
            isinstance(d, ast.Call)
            and getattr(d.func, "id", None) == "dataclass"
            and any(
                k.arg == "frozen" and getattr(k.value, "value", None) is True
                for k in d.keywords
            )
            for d in node.decorator_list
        ):
            yield node


def _mutable_fields(tree: ast.AST):
    """Class, field and line of each field of a frozen dataclass annotated
    as a `dict`, `list` or `set` (bare or subscripted)."""
    for cls in _frozen_dataclasses(tree):
        for stmt in cls.body:
            if not isinstance(stmt, ast.AnnAssign):
                continue
            ann = stmt.annotation
            base = ann.value if isinstance(ann, ast.Subscript) else ann
            if isinstance(base, ast.Name) and base.id in MUTABLE:
                yield stmt.lineno, f"{cls.name}.{stmt.target.id}: {base.id}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_mutable_map_in_a_frozen_dataclass(path):
    # a frozen report that holds a dict can still be changed through it
    fields = list(_mutable_fields(ast.parse(path.read_text(), filename=str(path))))
    assert fields == [], f"{path.name} has mutable fields in frozen dataclasses: {fields}"
