"""Every public top-level function or class of the package has a user.

A public name in ``src/vnlab/`` counts as used when something other than its
own definition refers to it: package code, the benchmark harness
(``benchmarks/*.py``), the acceptance criteria, or the README (a python block
or a backticked name).  A name whose only users are unit tests is dead API
unless ``KEPT`` names the test or ROADMAP item that keeps it.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vnlab"

# name -> what keeps it although no user outside the unit tests refers to it
KEPT = {
    "check_assumptions": "ROADMAP items 3 and 9: the score interval "
                         "|s| <= C1^2 C2^2 for the output-error bound",
    "denominator_lower_bound": "ROADMAP item 2: the recip window floor",
    "random_network": "test_deepsets.py: random multi-layer networks",
    "delta_nonlin_sep": "test_separability.py: the three-cluster gap",
}


def public_definitions(source: str) -> set[str]:
    """Top-level functions and classes of ``source`` not starting with _."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def referenced_names(source: str) -> set[str]:
    """Names ``source`` reads, as ``Name`` or ``module.Name``.

    A top-level definition's references to its own name (recursion, a
    class naming itself in its body) do not count.
    """
    names = set()
    for stmt in ast.parse(source).body:
        own = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name != own:
                names.add(name)
    return names


def readme_names(text: str) -> set[str]:
    """Names referred to in python blocks or backticked spans of ``text``."""
    names = set()
    for block in re.findall(r"^```python\n(.*?)^```", text,
                            flags=re.MULTILINE | re.DOTALL):
        names |= referenced_names(block)
    prose = re.sub(r"^```.*?^```", "", text, flags=re.MULTILINE | re.DOTALL)
    for span in re.findall(r"`([^`\n]+)`", prose):
        names |= set(re.findall(r"[A-Za-z_]\w*", span))
    return names


def unreferenced_names() -> list[str]:
    defined, used = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        defined |= public_definitions(source)
        used |= referenced_names(source)
    for path in [*sorted((ROOT / "benchmarks").glob("*.py")),
                 ROOT / "tests" / "test_acceptance.py"]:
        used |= referenced_names(path.read_text())
    used |= readme_names((ROOT / "README.md").read_text())
    return sorted(defined - used)


def test_detects_definitions_and_references():
    source = ("def a():\n    return a()\nclass B:\n    x = B\n"
              "def _c(): pass\nD = mod.a\nE = B\n")
    assert public_definitions(source) == {"a", "B"}
    assert referenced_names(source) == {"mod", "a", "B"}
    assert referenced_names("def a():\n    return a()\n") == set()


def test_detects_readme_references():
    text = ("Call `pkg.f(x)` here.\n\n```python\ny = g(1)\n```\n\n"
            "```sh\nh --flag\n```\n")
    assert readme_names(text) == {"pkg", "f", "x", "g"}


def test_every_public_name_has_a_user():
    assert unreferenced_names() == sorted(KEPT)
