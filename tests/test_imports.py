"""No module of the package imports a name it never uses. The scan is
lenient about scope: a name counts as used when any expression in the
module reads it, annotations included. Every module of the package, the
tests and the bench parses under the Python 3.10 grammar, the oldest
pyproject.toml claims. Only fincat.check_tables raises a "not total"
error: every finite table is checked there. And the law table,
tests/laws.py, names no index, lookup, accessor or check kernel of the
package."""
import ast
import re
from pathlib import Path

import pytest

import shortcat

PACKAGE = Path(shortcat.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


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


def _grammar_errors(path: Path) -> list[str]:
    """The syntax errors of a module under the Python 3.10 grammar. The
    grammar only: a standard-library name added after 3.10 passes."""
    try:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
    except SyntaxError as exc:
        return [f"{path.name}:{exc.lineno}: {exc.msg}"]
    return []


def test_the_grammar_check_finds_newer_syntax(tmp_path):
    path = tmp_path / "newer.py"
    path.write_text("try:\n    pass\nexcept* ValueError:\n    pass\n")
    (error,) = _grammar_errors(path)
    assert error.startswith("newer.py:") and "Python 3.11" in error


@pytest.mark.parametrize("tree", ["src", "tests", "bench"])
def test_every_module_parses_under_the_3_10_grammar(tree):
    modules = sorted((ROOT / tree).rglob("*.py"))
    assert modules
    assert [error for path in modules for error in _grammar_errors(path)] == []


def _not_total_raises(source: str) -> list[str]:
    """The qualified names of the functions with a raise whose message
    holds the words `not total`. Docstrings and other strings do not count."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Raise) and child.exc is not None and any(
                    isinstance(part, ast.Constant) and "not total" in str(part.value)
                    for part in ast.walk(child.exc)):
                found.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_the_scan_finds_a_hand_written_totality_raise():
    source = (
        'class C:\n'
        '    """Raise unless j is not total."""\n'
        '    def check_structure(self):\n'
        '        if f not in self.j:\n'
        '            raise MalformedTable(f"{self.name}: j not total at {f}")\n'
        '        note = "not total"\n'
        '        raise MalformedTable(note)\n'
        'def check_tables(name, rows):\n'
        '    raise MalformedTable(f"{name}: {label} not total at {key}")\n')
    assert _not_total_raises(source) == ["C.check_structure", "check_tables"]


def test_only_check_tables_raises_not_total():
    found = {path.name: _not_total_raises(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: raises for name, raises in found.items() if raises} == {
        "fincat.py": ["check_tables"]}


# What the law table must not read: the package's indexes, its lookups and
# table domains, its accessors of the base and of the tensor (the span dict,
# the composition and hom helpers), its image, flavour and swap helpers and
# its check kernels (every name ending in _checks).
PACKAGE_INTERNALS = frozenset({
    "_index", "_adjacency", "_by_cod", "_mapsets", "domains", "lookups", "table_maps", "info",
    "multimaps", "maps_into", "mapset", "mapset_keys", "safe_pre", "safe_post", "safe_subst",
    "_span", "compose_opt", "mors_out_of", "tm_left", "_comp_chain", "table_domains",
    "composable_pairs", "safe_apply", "is_tight", "is_loose", "is_iso", "_swap", "_SPECS"})


def _internal_names(source: str) -> list[str]:
    """The package internals a module names: as a name, an attribute, a def,
    an argument, an import or a keyword, or as a word of a string that is not
    a docstring (the source of generated code, a getattr)."""
    tree = ast.parse(source)
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef))
                  and ast.get_docstring(node) is not None}
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.arg, ast.keyword)):
            names.append(node.arg or "")
        elif isinstance(node, ast.alias):
            names += [node.name, node.asname or ""]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in docstrings:
            names += re.findall(r"[A-Za-z_]\w*", node.value)
    return sorted({n for n in names if n in PACKAGE_INTERNALS or n.endswith("_checks")})


def test_the_scan_finds_a_package_internal():
    source = ('"""Reads no lookups."""\nimport x as lookups\ndef f(m, info):\n'
              '    """m.domains"""\n    return m._index, getattr(m, "safe_subst"), "_by_cod[k]",'
              ' typing_checks(m, table_maps=1), "str(_span.get(f))", F.safe_apply(f)\n')
    assert _internal_names(source) == ["_by_cod", "_index", "_span", "info", "lookups",
                                       "safe_apply", "safe_subst", "table_maps", "typing_checks"]


def test_the_law_table_names_no_package_internal():
    assert _internal_names((ROOT / "tests" / "laws.py").read_text(encoding="utf-8")) == []
