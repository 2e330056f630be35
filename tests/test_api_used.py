"""Every public top-level function or class of the package has a user, and
so does every public method or property of a public class.

A public name in ``src/vnlab/`` counts as used when something other than its
own definition refers to it: package code, the benchmark harness
(``benchmarks/*.py``), the acceptance criteria, or the README (a python block
or a backticked name).  A member ``Class.name`` counts as used when such a
user reads ``.name`` outside the member's own body.  A name whose only users
are unit tests is dead API unless ``KEPT`` names the test or ROADMAP item
that keeps it.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vnlab"

# name -> what keeps it although no user outside the unit tests refers to it
KEPT = {}


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


def public_members(source: str) -> set[str]:
    """``Class.name`` for each public method or property of each public
    top-level class of ``source``."""
    return {f"{node.name}.{item.name}" for node in ast.parse(source).body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
            for item in node.body
            if isinstance(item, ast.FunctionDef)
            and not item.name.startswith("_")}


def attribute_names(source: str) -> set[str]:
    """Attribute names ``source`` reads as ``x.name``, except inside a
    function of that name (a member's references to itself)."""
    names = set()

    def visit(node, own: frozenset):
        if isinstance(node, ast.FunctionDef):
            own = own | {node.name}
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) \
                and node.attr not in own:
            names.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    visit(ast.parse(source), frozenset())
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


def user_paths() -> list[pathlib.Path]:
    """The package, the benchmark harness and the acceptance criteria."""
    return [*sorted(PACKAGE.glob("*.py")),
            *sorted((ROOT / "benchmarks").glob("*.py")),
            ROOT / "tests" / "test_acceptance.py"]


def unreferenced_names() -> list[str]:
    defined, used = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        defined |= public_definitions(path.read_text())
    for path in user_paths():
        used |= referenced_names(path.read_text())
    used |= readme_names((ROOT / "README.md").read_text())
    return sorted(defined - used)


def unreferenced_members() -> list[str]:
    defined, used = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        defined |= public_members(path.read_text())
    for path in user_paths():
        used |= attribute_names(path.read_text())
    used |= readme_names((ROOT / "README.md").read_text())
    return sorted(m for m in defined if m.partition(".")[2] not in used)


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


def test_detects_members_and_attribute_reads():
    source = ("class A:\n    def f(self):\n        return self.f()\n"
              "    @property\n    def g(self):\n        return self.h\n"
              "    def _p(self): pass\n"
              "class _B:\n    def q(self): pass\n"
              "x = obj.g\ny = f\nobj.z = 1\n")
    assert public_members(source) == {"A.f", "A.g"}
    assert attribute_names(source) == {"h", "g"}


def test_every_public_name_has_a_user():
    assert unreferenced_names() == sorted(k for k in KEPT if "." not in k)


def test_every_public_member_has_a_user():
    assert unreferenced_members() == sorted(k for k in KEPT if "." in k)
