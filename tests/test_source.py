import ast
from collections import Counter
from pathlib import Path

import pytest

SOURCES = sorted(
    p for p in (Path(__file__).parent.parent / "src" / "chowtool").glob("*.py")
    if p.name != "__init__.py"
)


def _unread_imports(source):
    """Names a module binds by import and never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(bound - read)


def test_scan_sees_every_kind_of_unread_import():
    source = (
        "import os\nimport os.path\nfrom math import gcd, lcm as l\n"
        "from . import catalog as _c\nprint(gcd)\n"
    )
    assert _unread_imports(source) == ["_c", "l", "os"]
    assert _unread_imports("import os.path\nos.sep\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert _unread_imports(path.read_text()) == []


PACKAGE = sorted((Path(__file__).parent.parent / "src" / "chowtool").glob("*.py"))


def _stranded_private_definitions(sources):
    """Private module-level functions and classes that no module reads.

    sources maps a module name to its text.  A definition is read when its
    name is loaded, or taken as an attribute, anywhere outside its own body,
    so a private helper that only calls itself still counts as stranded.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}

    def reads(node):
        return Counter(
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
        )

    total = sum(map(reads, trees.values()), Counter())
    stranded = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            if total[node.name] == reads(node)[node.name]:
                stranded.append(f"{name}.{node.name}")
    return sorted(stranded)


def test_scan_sees_every_stranded_private_definition():
    sources = {
        "a": (
            "def _used(): pass\ndef _dead(): pass\ndef _recursive(n): return _recursive(n - 1)\n"
            "class _Dead: pass\ndef public(): pass\ndef __dunder__(): pass\n"
        ),
        "b": "from . import a\nfrom .a import _used\n_used()\nx = a._attr_read\ndef _attr_read(): pass\n",
    }
    assert _stranded_private_definitions(sources) == ["a._Dead", "a._dead", "a._recursive"]


def test_package_reads_every_private_definition():
    sources = {path.stem: path.read_text() for path in PACKAGE}
    assert _stranded_private_definitions(sources) == []


def _assert_lines(source):
    """Line numbers of the assert statements in a module's source."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_scan_sees_every_assert():
    source = "assert x\ndef f():\n    if y:\n        assert y, 'msg'\nraise AssertionError('kept')\n"
    assert _assert_lines(source) == [1, 4]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_module_has_no_assert_statement(path):
    # python -O strips asserts, so every invariant check in src/ is an explicit raise
    assert _assert_lines(path.read_text()) == []


def _foreign_attribute_stores(source):
    """Line numbers where a module stores an attribute on an object it did
    not make: any attribute store or delete on a name other than self, and
    any setattr call."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
            if not (isinstance(node.value, ast.Name) and node.value.id == "self"):
                lines.append(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("setattr", "delattr"):
                lines.append(node.lineno)
    return sorted(lines)


def test_scan_sees_every_foreign_attribute_store():
    source = (
        "class T:\n    def __init__(self):\n        self.x = 1\n"
        "def f(P):\n    P._memo = {}\n    P.a.b += 1\n    del P._x\n"
        "    setattr(P, 'y', 2)\n    P._memo[1] = 2\n    return P.dim\n"
    )
    assert _foreign_attribute_stores(source) == [5, 6, 7, 8]


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "geometry.py"], ids=lambda p: p.name
)
def test_only_geometry_stores_attributes_on_a_polytope(path):
    # a fact of a polytope computed on first use goes through
    # geometry.per_polytope, so no other module declares a cache on Polytope
    assert _foreign_attribute_stores(path.read_text()) == []
