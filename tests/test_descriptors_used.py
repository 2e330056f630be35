"""Every registered descriptor kind is built by a compiler."""

import ast
import pathlib

from vnlab import constructions, deepsets  # noqa: F401 (register every kind)
from vnlab.mpnnvn import Descriptor

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "vnlab"
COMPILERS = ("constructions.py", "deepsets.py")


def called_names(source: str) -> set[str]:
    """Names called in ``source``, as ``Name(...)`` or ``module.Name(...)``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                names.add(node.func.id)
            elif isinstance(node.func, ast.Attribute):
                names.add(node.func.attr)
    return names


def test_detects_a_call():
    source = "x = MeanPool\ny = mpnnvn.KeepVn()\nz = IdentityGn()\n"
    assert called_names(source) == {"KeepVn", "IdentityGn"}


def test_every_descriptor_kind_is_built_by_a_compiler():
    built = set()
    for name in COMPILERS:
        built |= called_names((PACKAGE / name).read_text())
    unbuilt = sorted(cls.__name__ for cls in Descriptor._registry.values()
                     if cls.__module__.startswith("vnlab.")
                     and cls.__name__ not in built)
    assert unbuilt == []
