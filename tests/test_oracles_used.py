"""Every public oracle in ``oracles.py`` is called by some test module."""

import ast
import pathlib

from test_descriptors_used import called_names

TESTS = pathlib.Path(__file__).resolve().parent
ORACLES = TESTS / "oracles.py"


def public_functions(source: str) -> set[str]:
    """Module-level functions of ``source`` whose names do not start with _."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")}


def test_detects_a_public_function():
    source = "def a():\n    def b(): pass\ndef _c(): pass\nD = 1\n"
    assert public_functions(source) == {"a"}


def test_every_oracle_has_a_caller():
    called = set()
    for path in TESTS.glob("*.py"):
        if path != ORACLES:
            called |= called_names(path.read_text())
    uncalled = sorted(public_functions(ORACLES.read_text()) - called)
    assert uncalled == []
