"""No module imports a name it never uses, src/ holds no API only tests reach,
and no class in src/ keeps a field that nothing reads.

Three AST scans.  The first reads every module under src/permstab (except
__init__.py, whose imports are the package's re-exports) and every test
module: each name an import statement binds must occur somewhere else in the
module as a name.  The second reads every public function, class and method
defined under src/permstab (again except __init__.py): its name must occur
as an `Attribute` in src/permstab or perfbench/, as a `Name` in a module
where a permstab import or a top-level def or class binds it (a local
variable of the same name does not count), or as a string in a table of
perfbench/tracer.py, which patches callables by name.  The third reads every
attribute a class under src/permstab assigns on `self` or declares as an
annotated field: it must be loaded as an attribute somewhere in src/permstab
or perfbench/, on a receiver other than `self`, or on `self` inside its own
class or a class related to it by inheritance.  Tests and docstrings do not count as a reference.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC_MODULES = sorted(p for p in (ROOT / "src" / "permstab").glob("*.py") if p.name != "__init__.py")
MODULES = SRC_MODULES + sorted((ROOT / "tests").glob("*.py"))
# the code whose references count: all of src/permstab and perfbench/
READING = sorted((ROOT / "src" / "permstab").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported.setdefault(bound, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_flags_an_unused_import():
    source = "import os\nfrom typing import List, Tuple\nimport numpy as np\nx: List[int] = np.zeros(1)\n"
    assert _unused_imports(source) == [(1, "os"), (2, "Tuple")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    unused = _unused_imports(path.read_text())
    assert not unused, f"{path.name}: imported but never used: {unused}"


def _public_definitions(source: str):
    """The public module-level functions and classes, and the public methods, as dotted paths."""
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}"


def _permstab_bindings(tree: ast.Module):
    """The names a permstab import or a top-level def or class binds in a module."""
    bound = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "permstab"):
            bound.update(alias.asname or alias.name for alias in node.names)
    return bound


def _referenced_names(source: str):
    tree = ast.parse(source)
    bound = _permstab_bindings(tree)
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id in bound}
    return names | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _tracer_table_names(source: str):
    """Every dotted part of a string in a module-level assignment, e.g. "GroupHom.verify"."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for const in ast.walk(node):
                if isinstance(const, ast.Constant) and isinstance(const.value, str):
                    names.update(const.value.split("."))
    return names


def _unreached(modules, referencing_sources, tracer_source=""):
    used = _tracer_table_names(tracer_source)
    for source in referencing_sources:
        used |= _referenced_names(source)
    return sorted(
        f"{stem}.{path}"
        for stem, source in modules
        for path in _public_definitions(source)
        if path.rsplit(".", 1)[-1] not in used
    )


def test_scan_flags_an_unreached_name():
    source = (
        '"""orphan() is named in this docstring only."""\n'
        "def kept(): pass\n"
        "def orphan(): pass\n"
        "class Box:\n"
        "    def used(self): pass\n"
        "    def unused(self): pass\n"
        "    def _private(self): pass\n"
    )
    caller = "from permstab.m import Box, kept\nkept()\nBox().used()\n"
    assert _unreached([("m", source)], [source, caller]) == ["m.Box.unused", "m.orphan"]
    # a local variable that shares a public name does not reach it
    local = "def f():\n    orphan = 1\n    return orphan\n"
    assert _unreached([("m", source)], [source, caller, local]) == ["m.Box.unused", "m.orphan"]
    imported = "from permstab.m import orphan\norphan()\n"
    assert _unreached([("m", source)], [source, caller, imported]) == ["m.Box.unused"]
    tables = 'SPANS = {"m.span": [("m", "Box.unused")]}\n'
    assert _unreached([("m", source)], [source, caller], tables) == ["m.orphan"]


def test_no_test_only_api_in_src():
    unreached = _unreached(
        [(p.stem, p.read_text()) for p in SRC_MODULES],
        [p.read_text() for p in READING],
        (ROOT / "perfbench" / "tracer.py").read_text(),
    )
    assert not unreached, f"public names no src/ or perfbench/ code reaches: {unreached}"


def _fields(source: str):
    """(class, attribute) for each attribute a class assigns on `self` or declares as a field."""
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for item in cls.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                yield cls.name, item.target.id
        for node in ast.walk(cls):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                yield cls.name, node.attr


def _attribute_loads(node, cls=None):
    """(class, attribute) per attribute load: the innermost enclosing class for
    a load on `self`, None for a load on any other receiver."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
            on_self = isinstance(child.value, ast.Name) and child.value.id == "self"
            yield (cls if on_self else None), child.attr
        yield from _attribute_loads(child, child.name if isinstance(child, ast.ClassDef) else cls)


def _relatives(trees):
    """Each class name mapped to itself, its ancestors and its descendants."""
    bases = {
        cls.name: {b.id if isinstance(b, ast.Name) else b.attr for b in cls.bases if isinstance(b, (ast.Name, ast.Attribute))}
        for tree in trees
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
    }

    def ancestors(name):
        found, todo = set(), [name]
        while todo:
            for base in bases.get(todo.pop(), ()):
                if base not in found:
                    found.add(base)
                    todo.append(base)
        return found

    up = {name: ancestors(name) for name in bases}
    return {name: {name} | up[name] | {d for d in bases if name in up[d]} for name in bases}


def _unread_fields(modules, reading_sources):
    """A field is read by a load of its name on any receiver but `self`, or on
    `self` inside its own class or a class related to it by inheritance."""
    trees = [ast.parse(source) for source in reading_sources]
    loads = {load for tree in trees for load in _attribute_loads(tree)}
    relatives = _relatives(trees + [ast.parse(source) for _, source in modules])
    fields = {(stem, cls, attr) for stem, source in modules for cls, attr in _fields(source)}
    return sorted(
        f"{stem}.{cls}.{attr}"
        for stem, cls, attr in fields
        if (None, attr) not in loads and not any((c, attr) in loads for c in relatives[cls])
    )


def test_scan_flags_an_unread_field():
    source = (
        "class Result:\n"
        "    value: int\n"
        "    note: str = ''\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.size = 1\n"
        "        self.cache = {}\n"
        "    def area(self):\n"
        "        return self.size\n"
    )
    caller = "r = Result()\nprint(r.value)\nb = Box()\nb.cache = None  # written again, still never read\n"
    assert _unread_fields([("m", source)], [source, caller]) == ["m.Box.cache", "m.Result.note"]


def test_scan_reads_self_loads_by_class():
    source = (
        "class Instance:\n"
        "    marked: int\n"
        "class Hom:\n"
        "    def __init__(self):\n"
        "        self.marked = 1\n"
        "    def use(self):\n"
        "        return self.marked\n"
        "class Base:\n"
        "    def __init__(self):\n"
        "        self.size = 1\n"
        "        self.count = 0\n"
        "class Child(Base):\n"
        "    def area(self):\n"
        "        return self.size\n"
        "class Grandchild(Child):\n"
        "    def __init__(self):\n"
        "        self.depth = 2\n"
        "    def reads_up(self):\n"
        "        return self.count\n"
        "class Reader:\n"
        "    def __init__(self):\n"
        "        self.depth = 0\n"
        "    def total(self):\n"
        "        return self.depth\n"
    )
    # Instance.marked is read only as self.marked in the unrelated Hom; Grandchild.depth
    # only inside the unrelated Reader; Base.size and Base.count inside descendants
    assert _unread_fields([("m", source)], [source]) == ["m.Grandchild.depth", "m.Instance.marked"]
    caller = "def show(inst):\n    return inst.marked\n"  # any other receiver counts for every class
    assert _unread_fields([("m", source)], [source, caller]) == ["m.Grandchild.depth"]


def test_no_field_written_and_never_read():
    unread = _unread_fields([(p.stem, p.read_text()) for p in SRC_MODULES], [p.read_text() for p in READING])
    assert not unread, f"fields that no src/ or perfbench/ code reads: {unread}"
