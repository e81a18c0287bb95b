"""Design rules of the package source, checked on its syntax tree.

leanfa keeps no unbounded module-level caches: what is derived from a game
lives in the game's memo and is freed with the game.
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
