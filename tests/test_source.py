import ast
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
