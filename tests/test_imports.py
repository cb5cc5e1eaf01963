"""No module of the package imports a name it never uses. The scan is
lenient about scope: a name counts as used when any expression in the
module reads it, annotations included."""
import ast
from pathlib import Path

import shortcat

PACKAGE = Path(shortcat.__file__).parent


def _unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_the_scan_finds_an_unused_import():
    source = "from .shortskew import LOOSE, TIGHT\nimport os.path\n\ndef f() -> TIGHT:\n    return os\n"
    assert _unused_imports(source) == [(1, "LOOSE")]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(PACKAGE.glob("*.py"))
    unused = {path.name: _unused_imports(path.read_text()) for path in modules}
    assert {name: found for name, found in unused.items() if found} == {}
    assert len(modules) > 10
