"""Every config knob is read somewhere in the package, and every defaulted
parameter is set somewhere outside the unit tests.

A ``DeepSimConfig``/``KernelSimConfig`` field must be read as
``cfg.<field>`` and a CLI config key as ``cfg["<key>"]`` in ``src/vnlab/``;
a knob that nothing reads is dead weight that every caller still has to set.

The other way round, a defaulted parameter of a public top-level function,
or a defaulted field of a public dataclass, must be set by some caller other
than a unit test: package code, the benchmark harness (``benchmarks/*.py``),
the acceptance criteria or a README python block.  A call sets a knob by
keyword or by position, and a ``**`` splat sets every knob of its callee.
A knob that only its default and unit tests set is dead weight that tests
and docs still have to cover, unless ``KEPT`` says what keeps it.
"""

import ast
import dataclasses
import pathlib
import re

from vnlab.cli import COMMANDS
from vnlab.constructions import DeepSimConfig, KernelSimConfig

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vnlab"

# "function.parameter" or "Class.field" -> what keeps it although nothing
# outside the unit tests sets it
KEPT = {
    "main.argv": "the tests drive the CLI in-process through main([...]); "
                 "the console entry point reads sys.argv",
}


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


# "Class.field" -> why the field stays although the package no longer reads
# it; every other field must be read
RETIRED = {
    "KernelSimConfig.piece_epochs": "inert since recip is built; the "
                                    "benchmark warm-up still passes it "
                                    "(ROADMAP item 1)",
    "KernelSimConfig.piece_restarts": "inert since recip is built; the "
                                      "benchmark warm-up still passes it "
                                      "(ROADMAP item 1)",
}


def test_every_config_field_is_read():
    attrs, _ = package_reads()
    unread = sorted(f"{cls.__name__}.{f.name}"
                    for cls in (DeepSimConfig, KernelSimConfig)
                    for f in dataclasses.fields(cls)
                    if f.name not in attrs)
    assert unread == sorted(RETIRED)


def test_every_cli_key_is_read():
    _, keys = package_reads()
    unread = sorted(f"{name}:{key}" for name, command in COMMANDS.items()
                    for key in command.keys if key not in keys)
    assert unread == []


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        func = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(func, "id", getattr(func, "attr", None)) == "dataclass":
            return True
    return False


def defaulted_knobs(source: str) -> dict[str, dict[str, int | None]]:
    """Defaulted knobs of the public top-level functions and dataclasses of
    ``source``: owner -> {knob: its position, None if keyword-only}."""
    out = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            knobs = {a.arg: i for i, a in enumerate(positional) if i >= first}
            knobs.update({a.arg: None for a, default
                          in zip(args.kwonlyargs, args.kw_defaults)
                          if default is not None})
            out[node.name] = knobs
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node) \
                and not node.name.startswith("_"):
            fields = [stmt for stmt in node.body
                      if isinstance(stmt, ast.AnnAssign)
                      and "ClassVar" not in ast.unparse(stmt.annotation)]
            out[node.name] = {stmt.target.id: i
                              for i, stmt in enumerate(fields)
                              if stmt.value is not None}
    return out


def knob_settings(sources) -> dict[str, tuple[set[str], float]]:
    """Callee name -> (keywords passed to it, most positional arguments).

    A ``**`` splat passes every keyword (``{"**"}``), a ``*`` splat every
    position (``inf``).
    """
    out = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            keywords, positions = out.get(name, (set(), 0))
            keywords |= {k.arg or "**" for k in node.keywords}
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            positions = max(positions,
                            float("inf") if starred else len(node.args))
            out[name] = (keywords, positions)
    return out


def unset_knobs(knobs: dict, sources) -> list[str]:
    """``owner.knob`` for every knob of ``knobs`` no call in ``sources`` sets."""
    settings = knob_settings(sources)
    unset = []
    for owner, params in knobs.items():
        keywords, positions = settings.get(owner, (set(), 0))
        for knob, position in params.items():
            if not ("**" in keywords or knob in keywords
                    or (position is not None and position < positions)):
                unset.append(f"{owner}.{knob}")
    return sorted(unset)


def user_sources() -> list[str]:
    """Package code, benchmark harness, acceptance criteria, README blocks."""
    paths = [*sorted(PACKAGE.glob("*.py")),
             *sorted((ROOT / "benchmarks").glob("*.py")),
             ROOT / "tests" / "test_acceptance.py"]
    readme = (ROOT / "README.md").read_text()
    return [path.read_text() for path in paths] + re.findall(
        r"^```python\n(.*?)^```", readme, flags=re.MULTILINE | re.DOTALL)


def test_detects_defaulted_knobs():
    source = ("def f(a, b=1, c=2, *, k=3, j):\n    pass\n"
              "def _g(x=1):\n    pass\n"
              "@dataclass(frozen=True)\nclass C:\n    kind: ClassVar[str] = 'c'\n"
              "    n: int\n    m: int = 0\n"
              "class D:\n    m: int = 0\n")
    assert defaulted_knobs(source) == {"f": {"b": 1, "c": 2, "k": None},
                                       "C": {"m": 1}}


def test_detects_unset_knobs():
    knobs = {"f": {"b": 1, "c": 2, "k": None}, "C": {"m": 1},
             "E": {"p": 0}}
    assert unset_knobs(knobs, ["f(0, 5)\nf(0, k=4)\nC(**blob)\n"]) \
        == ["E.p", "f.c"]
    assert unset_knobs(knobs, ["mod.f(0, 1, 2)\nE(*xs)\n"]) \
        == ["C.m", "f.k"]


def test_every_defaulted_knob_is_set():
    knobs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        knobs.update(defaulted_knobs(path.read_text()))
    assert unset_knobs(knobs, user_sources()) == sorted(KEPT)
