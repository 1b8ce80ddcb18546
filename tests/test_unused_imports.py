"""No module imports a name it never uses, and src/ holds no API only tests reach.

Two AST scans.  The first reads every module under src/permstab (except
__init__.py, whose imports are the package's re-exports) and every test
module: each name an import statement binds must occur somewhere else in the
module as a name.  The second reads every public function, class and method
defined under src/permstab (again except __init__.py): its name must occur
as a `Name` or an `Attribute` in src/permstab or perfbench/, or as a string
in a table of perfbench/tracer.py, which patches callables by name.  Tests
and docstrings do not count as a reference.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC_MODULES = sorted(p for p in (ROOT / "src" / "permstab").glob("*.py") if p.name != "__init__.py")
MODULES = SRC_MODULES + sorted((ROOT / "tests").glob("*.py"))


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


def _referenced_names(source: str):
    tree = ast.parse(source)
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
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
    caller = "from m import kept\nkept()\nBox().used()\n"
    assert _unreached([("m", source)], [source, caller]) == ["m.Box.unused", "m.orphan"]
    tables = 'SPANS = {"m.span": [("m", "Box.unused")]}\n'
    assert _unreached([("m", source)], [source, caller], tables) == ["m.orphan"]


def test_no_test_only_api_in_src():
    referencing = sorted((ROOT / "src" / "permstab").glob("*.py")) + sorted(
        (ROOT / "perfbench").glob("*.py")
    )
    unreached = _unreached(
        [(p.stem, p.read_text()) for p in SRC_MODULES],
        [p.read_text() for p in referencing],
        (ROOT / "perfbench" / "tracer.py").read_text(),
    )
    assert not unreached, f"public names no src/ or perfbench/ code reaches: {unreached}"
