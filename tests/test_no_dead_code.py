"""Every function, class and method in the library has a user outside
the tests.

A module-level function or class, or a non-dunder method of a module-level
class, in ``src/fqzeta`` must be named somewhere in ``src/`` or ``bench/``:
called, imported, read as an attribute, or given as an identifier string
(the benchmark tracer's look-up tables).  The re-exports of
``fqzeta/__init__.py`` (its imports and ``__all__``) are not uses, and
neither is anything in ``tests/``: code that only tests call belongs in
``tests/``, as an oracle.  The exceptions are listed in ``TEST_PINNED``,
each with the claim its tests pin.  A definition on its own is not a use,
so a helper that nothing names fails here, and neither is a use inside
the body of a definition of the same name: two methods that only call
each other's name through different objects are both unused.

A method whose name is also a data attribute of the library
(``self.<name> = ...`` or a namedtuple field) is held to more: reading
``x.<name>`` reads the data, so only a call ``.<name>(...)`` or an
identifier string counts as a use, and a string that names data (a dict
key such as the JSON key ``"rank"``, a subscript, a namedtuple field
spec) or is the text of an f-string does not.  Properties are read as
attributes and keep the plain rule.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "fqzeta"
USERS = (ROOT / "src", ROOT / "bench")

# Library definitions that only tests call, each kept because its tests pin
# a claim of the paper or of the acceptance gate.
TEST_PINNED = {
    "gauges.check_raynaud_relations":
        "FV = p = VF on a gauge (Ekedahl's Raynaud relations)",
    "gauges.FGaugeWindow.lattice_at":
        "the gauge filtration M^i, checked against the window-scan oracle",
    "geometry.CohomologyPackage.check_purity":
        "Weil purity of the corpus factors (acceptance test 08)",
    "geometry.CohomologyPackage.tate_twist":
        "verifying X at r equals verifying X(r) at 0",
}


def _trees():
    for top in ("src", "tests", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def _is_property(func):
    return any(isinstance(d, ast.Name) and d.id == "property"
               for d in func.decorator_list)


def _definitions(path, tree):
    """(where, name, is_method) for each definition the rule covers."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{path.stem}.{node.name}", node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield (f"{path.stem}.{node.name}.{item.name}", item.name,
                           not _is_property(item))


def _namedtuple_fields(node):
    """The field-name constants of a namedtuple(...) call, else []."""
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
    if name != "namedtuple" or len(node.args) < 2:
        return []
    spec = node.args[1]
    return [spec] if isinstance(spec, ast.Constant) else list(
        getattr(spec, "elts", []))


def _data_attributes(tree):
    """Names the library stores as data: self.<name> targets, namedtuple
    fields."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Call):
            for field in _namedtuple_fields(node):
                if isinstance(field.value, str):
                    yield from field.value.replace(",", " ").split()
            continue
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if (isinstance(sub, ast.Attribute)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"):
                    yield sub.attr


def _data_strings(tree):
    """ids of string constants that name data or are text, not code:
    namedtuple field specs, dict keys, subscripts (``doc["rank"]``),
    ``"rank" in doc`` and the literal parts of f-strings."""
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            yield from map(id, node.values)
        elif isinstance(node, ast.Call):
            yield from map(id, _namedtuple_fields(node))
        elif isinstance(node, ast.Dict):
            yield from map(id, node.keys)
        elif isinstance(node, ast.Subscript):
            yield id(node.slice)
        elif isinstance(node, ast.Compare):
            yield from map(id, [node.left] + node.comparators)


def _scoped(node, around=frozenset()):
    """(node, names of the definitions around it) for every node below."""
    for child in ast.iter_child_nodes(node):
        yield child, around
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _scoped(child, around | {child.name})
        else:
            yield from _scoped(child, around)


def _uses(path, tree):
    """(names, calls): every name used, and the names that count for a
    method shadowed by data (attribute calls and identifier strings that
    do not name data).  Nothing counts in tests/, nor the imports and
    __all__ of an __init__.py, nor a name inside a definition of that
    name."""
    names, calls = set(), set()
    if not any(path.is_relative_to(top) for top in USERS):
        return names, calls
    if path.name == "__init__.py":
        tree = ast.Module(body=[
            node for node in tree.body
            if not isinstance(node, (ast.Import, ast.ImportFrom))
            and not (isinstance(node, ast.Assign)
                     and any(getattr(t, "id", None) == "__all__"
                             for t in node.targets))], type_ignores=[])
    data_strings = set(_data_strings(tree))
    for node, around in _scoped(tree):
        name = call = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rsplit(".", 1)[-1]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            name = node.value
            if id(node) not in data_strings:
                call = node.value
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)):
            call = node.func.attr
        if name is not None and name not in around:
            names.add(name)
        if call is not None and call not in around:
            calls.add(call)
    return names, calls


def _orphans(trees):
    defined, data, names, calls = [], set(), set(), set()
    for path, tree in trees:
        if path.parent == LIBRARY:
            defined.extend(_definitions(path, tree))
            data.update(_data_attributes(tree))
        tree_names, tree_calls = _uses(path, tree)
        names |= tree_names
        calls |= tree_calls
    return sorted(where for where, name, is_method in defined
                  if name not in (calls if is_method and name in data
                                  else names))


def test_every_library_definition_is_named_somewhere():
    orphans = sorted(set(_orphans(_trees())) - set(TEST_PINNED))
    assert not orphans, f"defined but never named in src/ or bench/: {orphans}"


def test_every_test_pinned_definition_has_only_test_users():
    # an entry whose definition gained a library caller, or lost its
    # definition, leaves the list
    assert set(TEST_PINNED) <= set(_orphans(_trees()))


def test_a_definition_only_tests_call_fails():
    planted = ast.parse("def planted_helper():\n    return 0\n")
    exported = ast.parse("from .planted import planted_helper\n"
                         "__all__ = ['planted_helper']\n")
    called = ast.parse("from fqzeta.planted import planted_helper\n\n\n"
                       "def test_it():\n    assert planted_helper() == 0\n")
    trees = list(_trees()) + [(LIBRARY / "planted.py", planted),
                              (LIBRARY / "__init__.py", exported),
                              (ROOT / "tests" / "test_planted.py", called)]
    assert "planted.planted_helper" in _orphans(trees)
    assert "planted.planted_helper" not in _orphans(
        trees + [(ROOT / "bench" / "use.py", called)])


def test_method_named_like_data_needs_a_call():
    # `rank` is data (`self.rank = n`) and read as `vc.rank` all over the
    # library, so a read does not make an uncalled rank() method used.
    planted = ast.parse("class Planted:\n"
                        "    def rank(self):\n"
                        "        return 0\n")
    trees = list(_trees()) + [(LIBRARY / "planted.py", planted)]
    assert set(_orphans(trees)) - set(TEST_PINNED) == {
        "planted.Planted", "planted.Planted.rank"}
    called = ast.parse("def use(x):\n    return Planted().rank()\n")
    assert set(_orphans(trees + [(ROOT / "bench" / "use.py", called)])) \
        == set(TEST_PINNED)


def test_methods_that_only_name_each_other_fail():
    # each method calls the other's name, through another object, inside a
    # definition of that same name: neither is used
    planted = ast.parse("class First:\n"
                        "    def planted_twist(self, other):\n"
                        "        return other.planted_twist(self)\n\n\n"
                        "class Second:\n"
                        "    def planted_twist(self, other):\n"
                        "        return other.planted_twist(self)\n")
    trees = list(_trees()) + [(LIBRARY / "planted.py", planted)]
    assert {"planted.First.planted_twist",
            "planted.Second.planted_twist"} <= set(_orphans(trees))
    called = ast.parse("def use(x, y):\n    return x.planted_twist(y)\n")
    assert "planted.First.planted_twist" not in _orphans(
        trees + [(ROOT / "bench" / "use.py", called)])
