"""A census of the package's definitions: each must be named somewhere besides its own body.

It reads the source only. A name counts where it is loaded, read as an
attribute, imported, or spelled out as a (dotted) identifier string, as
``monkeypatch.setattr`` targets and the bench's tracer spell theirs; a
docstring or comment does not count.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "txpack"
SEARCHED = ("src", "tests", "bench", "demos")


def _names(tree) -> list:
    """(name, line) of every use of a name in the tree."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.alias):
            out += [(part, node.lineno) for part in node.name.split(".")]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"[A-Za-z_][\w.]*", node.value):
                out += [(part, node.lineno) for part in node.value.split(".")]
    return out


def test_every_definition_is_named_outside_itself():
    uses = {}  # name -> [(path, line)]
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for name, line in _names(ast.parse(path.read_text(), str(path))):
                uses.setdefault(name, []).append((path, line))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if all(p == path and line in own for p, line in uses.get(node.name, [])):
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    assert not unused, "defined but never named elsewhere: " + ", ".join(unused)
