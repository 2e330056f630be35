"""Every config knob is read somewhere in the package.

A ``DeepSimConfig``/``KernelSimConfig`` field must be read as
``cfg.<field>`` and a CLI config key as ``cfg["<key>"]`` in ``src/vnlab/``;
a knob that nothing reads is dead weight that every caller still has to set.
"""

import ast
import dataclasses
import pathlib

from vnlab.cli import COMMANDS
from vnlab.constructions import DeepSimConfig, KernelSimConfig

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "vnlab"


def cfg_reads(source: str) -> tuple[set[str], set[str]]:
    """(attributes read as ``cfg.name``, keys read as ``cfg["key"]``)."""
    attrs, keys = set(), set()
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, (ast.Attribute, ast.Subscript))
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id == "cfg"):
            continue
        if isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node.slice, ast.Constant) \
                and isinstance(node.slice.value, str):
            keys.add(node.slice.value)
    return attrs, keys


def package_reads() -> tuple[set[str], set[str]]:
    attrs, keys = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        a, k = cfg_reads(path.read_text())
        attrs |= a
        keys |= k
    return attrs, keys


def test_detects_reads():
    source = ("x = cfg.mode\ny = cfg['seeds']\nz = other.n\n"
              "cfg.seed = 1\ncfg['tol'] = 2\nw = cfg[key]\n")
    assert cfg_reads(source) == ({"mode"}, {"seeds"})


def test_every_config_field_is_read():
    attrs, _ = package_reads()
    unread = sorted(f"{cls.__name__}.{f.name}"
                    for cls in (DeepSimConfig, KernelSimConfig)
                    for f in dataclasses.fields(cls)
                    if f.name not in attrs)
    assert unread == []


def test_every_cli_key_is_read():
    _, keys = package_reads()
    unread = sorted(f"{name}:{key}" for name, command in COMMANDS.items()
                    for key in command.keys if key not in keys)
    assert unread == []
