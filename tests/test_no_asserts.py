"""No ``assert`` statement in the package: a verification step raises an
explicit exception, as asserts vanish under ``python -O``.  A static check
with the standard library's ast module, as tests/test_imports.py is."""

import ast
from pathlib import Path

import pytest

import heisweil

SOURCES = sorted(Path(heisweil.__file__).resolve().parent.glob("*.py"))


def assert_lines(tree: ast.Module) -> list[int]:
    """The line of each assert statement in the module."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_statements(path):
    assert assert_lines(ast.parse(path.read_text())) == []


def test_the_check_finds_an_assert():
    tree = ast.parse(
        "def f(x):\n"
        "    assert x > 0, 'positive'\n"
        "    if x:\n"
        "        assert x\n"
        "    return 'assert x'\n"
    )
    assert assert_lines(tree) == [2, 4]
