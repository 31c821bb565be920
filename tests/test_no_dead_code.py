"""Every function, class and method in the library has a user.

A module-level function or class, or a non-dunder method of a module-level
class, in ``src/fqzeta`` must be named somewhere in ``src/``, ``tests/`` or
``bench/``: called, imported, read as an attribute, or given as an
identifier string (``__all__``, the benchmark tracer's look-up tables).  A
definition on its own is not a use, so a helper that nothing names fails
here.  A name used only inside its own body is not caught.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "fqzeta"


def _trees():
    for top in ("src", "tests", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def _definitions(path, tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{path.stem}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield f"{path.stem}.{node.name}.{item.name}", item.name


def _names_used(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value


def test_every_library_definition_is_named_somewhere():
    defined, used = [], set()
    for path, tree in _trees():
        if path.parent == LIBRARY:
            defined.extend(_definitions(path, tree))
        used.update(_names_used(tree))
    orphans = sorted(where for where, name in defined if name not in used)
    assert not orphans, f"defined but never named: {orphans}"
