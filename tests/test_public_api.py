"""Every public function and class in src/multsidon is used by the package.

A top-level def or class whose name has no leading underscore must appear
as a name or an attribute somewhere in the package's modules.  __init__ is
left out, since it re-exports every public name.  Helpers that only the
tests need live in tests/claims.py instead.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "multsidon"


def test_every_public_definition_is_used_in_src():
    modules = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    used = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [
        f"{stem}.{node.name}"
        for stem, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in used
    ]
    assert not unused, f"public names used only outside src: {', '.join(unused)}"
