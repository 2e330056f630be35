"""No package code reads a key of a program's ``metadata``.

A program's layers are its one contract: its layout, node count, output,
selection kind and amplification all come from its descriptors, so the
``metadata`` dict only echoes the compile config.  A read of one of its keys
(``.metadata[...]`` or ``.metadata.get(...)``) would let an echo decide how
a program runs or is checked again, and a document whose echo was lost or
rewritten would then run or report differently from the intact one.
``ALLOWED`` lists the functions that only copy a key into their output, or
read the ``metadata`` of something other than a program.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vnlab"

# "module.function" -> why its metadata read is allowed
ALLOWED = {
    "cli.cmd_verify_kernel": "copies the mlp compile's piece fits into the "
                             "verify-kernel report",
    "mpnnvn._codec_fields": "reads a dataclass field's metadata (its "
                            "codec), not a program's",
}


def _is_metadata(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "metadata"


def metadata_reads(source: str, module: str) -> list[str]:
    """The qualified name of the function (``module.function``,
    ``module.Class.method``, or ``module`` at top level) of every read of a
    ``.metadata`` key in ``source``, once per read."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            owner = f"{owner}.{node.name}"
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load) \
                and _is_metadata(node.value):
            found.append(owner)
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "get" and _is_metadata(node.func.value):
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), module)
    return found


def test_detects_metadata_reads():
    source = (
        "def run(prog):\n"
        "    a = prog.metadata['compiler']\n"
        "    b = prog.metadata.get('c')\n"
        "    prog.metadata['note'] = 1\n"
        "    config = dict(prog.metadata)\n"
        "    metadata = {}\n"
        "    return metadata['x'], config.get('n')\n"
        "class Program:\n"
        "    def check(self):\n"
        "        return self.metadata.get('n')\n"
        "top = doc.metadata['d']\n"
    )
    assert metadata_reads(source, "mod") == [
        "mod.run", "mod.run", "mod.Program.check", "mod"]


def test_no_package_code_reads_a_metadata_key():
    reads = {owner for path in sorted(PACKAGE.glob("*.py"))
             for owner in metadata_reads(path.read_text(), path.stem)}
    assert sorted(reads) == sorted(ALLOWED)
