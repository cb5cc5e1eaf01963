"""Code that no command reaches only shrinks. A name-based walk over the
package finds every def that no command of the command line reaches; it
must be one TEST_ONLY lists, and every name listed must be such a def.

The walk starts at cli.main, every cmd_* (main looks them up by name) and
the statements that run at import. Each Name, Attribute attribute and
string constant in a reached body reaches every def of that name; a string
counts because fileformat.VALIDATORS names its validators as strings. A
reached class reaches its dunder methods, which Python calls for it, and
only so is a dunder method reached.

What is left of the copies of former package code in
tests/reference_validators.py, the former inductions and certification
searches with their helpers, only shrinks too: its line count is pinned as
REFERENCE_LINES."""
import ast
from pathlib import Path

import shortcat

PACKAGE = Path(shortcat.__file__).parent

# def -> why it stays: the acceptance gate (tests/test_acceptance.py) calls
# it, the bench names it (bench/), or other tests call it. A def that only
# another def of the list calls takes that def's reason.
TEST_ONLY = {
    "braiding.check_short_symmetry": "gate",
    "braiding.derive_beta2": "tests",
    "braiding.short_braidings_equal": "gate",
    "braiding.validate_braided_transport_functor": "gate",
    "catalogue.bz2_category": "tests",
    "catalogue.catalogue_short_braidings": "gate",
    "catalogue.catalogue_short_skews": "gate",
    "catalogue.catalogue_skew_closed": "gate",
    "catalogue.validate_mutant": "gate",
    "classify.classifier_uniqueness_isos": "tests",
    "classify.find_binary_classifier": "gate",
    "classify.find_nullary_classifier": "gate",
    "classify.hom_action": "gate",
    "classify.sharp_laws": "gate",
    "classify.verify_left_iff_adjoint": "tests",
    "classify.verify_units_left_universal": "gate",
    "errors.AxiomTransferFailure": "tests",
    "errors.AxiomTransferFailure.__init__": "tests",
    "induce.induce_short_multi": "bench",
    "report.ValidationReport.has_failure": "gate",
    "report.run_checks": "bench",
    "shortmulti.MultiTables.mapset_keys": "gate",
    "shortskew.ShortSkewMulticategory.is_loose": "tests",
    "shortskew.embed_multi_morphism": "gate",
    "shortskew.identity_skew_morphism": "gate",
    "skewmon.check_symmetry": "gate",
    "skewmon.identity_lax_functor": "tests",
    "skewmon.validate_braided_functor": "bench",
    "transport._rebuilt_morphism": "tests",
    "transport._solve_f0": "gate",
    "transport.biclosed_subst_check": "gate",
    "transport.check_representable_iff_monoidal": "gate",
    "transport.k_morphism": "gate",
    "transport.k_morphism_inverse": "gate",
    "transport.kcl_morphism": "tests",
    "transport.kcl_morphism_inverse": "tests",
    "transport.ks_morphism": "tests",
    "transport.ks_morphism_inverse": "tests",
    "transport.lax_functor_equal": "gate",
    "transport.multi_morphism_equal": "gate",
    "transport.skew_closed_equal": "bench",
    "transport.skew_monoidal_equal": "bench",
    "transport.transport_closed": "gate",
}

# The source lines of the defs TEST_ONLY lists, as test_only_lines_only_shrink
# counts them; a change may lower this, never raise it.
TEST_ONLY_LINES = 617

# The lines of tests/reference_validators.py; a change may lower this, never
# raise it.
REFERENCE_LINES = 880


class Def:
    """A module-level def or a method: its qualified name, its node and the
    nodes a walk of its body visits."""

    def __init__(self, qualname: str, node: ast.AST, body: list):
        self.qualname, self.node, self.body = qualname, node, body
        self.name = qualname.rsplit(".", 1)[1]


def _defs_and_roots(sources: dict[str, str]) -> tuple[list[Def], list[ast.stmt]]:
    """The defs of the modules, by module name, and the statements that run
    when they are imported."""
    defs, roots = [], []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append(Def(f"{module}.{stmt.name}", stmt, [stmt]))
            elif isinstance(stmt, ast.ClassDef):
                methods = [s for s in stmt.body
                           if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))]
                defs.append(Def(f"{module}.{stmt.name}", stmt,
                                [*stmt.decorator_list, *stmt.bases,
                                 *(s for s in stmt.body if s not in methods)]))
                defs += [Def(f"{module}.{stmt.name}.{m.name}", m, [m]) for m in methods]
            else:
                roots.append(stmt)
    return defs, roots


def _names(nodes) -> set[str]:
    """The names that the nodes reference."""
    found = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                found.add(sub.value)
    return found


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unreached(sources: dict[str, str]) -> dict[str, Def]:
    """The defs of the modules that no command reaches, by qualified name."""
    defs, roots = _defs_and_roots(sources)
    by_name: dict[str, list[Def]] = {}
    for d in defs:
        if not _dunder(d.name):
            by_name.setdefault(d.name, []).append(d)
    reached: set[str] = set()
    todo: list[Def] = []

    def reach(targets):
        for d in targets:
            if d.qualname not in reached:
                reached.add(d.qualname)
                todo.append(d)

    reach(d for d in defs if d.qualname == "cli.main" or d.qualname.startswith("cli.cmd_"))
    reach(d for name in _names(roots) for d in by_name.get(name, ()))
    while todo:
        d = todo.pop()
        reach(t for name in _names(d.body) for t in by_name.get(name, ()))
        if isinstance(d.node, ast.ClassDef):
            reach(m for m in defs if _dunder(m.name)
                  and m.qualname.rsplit(".", 1)[0] == d.qualname)
    return {d.qualname: d for d in defs if d.qualname not in reached}


def _package_sources() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8")
            for path in sorted(PACKAGE.glob("*.py"))}


def test_the_walk_follows_names_strings_and_classes():
    sources = {
        "cli": "TABLE = {'k': 'listed'}\n"
               "def main():\n    return helper()\n"
               "def cmd_go(args):\n    return args.method() + Thing()\n"
               "def helper():\n    pass\n"
               "def dead():\n    return other()\n",
        "lib": "def listed():\n    pass\n"
               "def other():\n    pass\n"
               "class Thing:\n    def __init__(self):\n        pass\n"
               "    def method(self):\n        pass\n"
               "    def unused(self):\n        pass\n"
               "class Unused:\n    def __init__(self):\n        pass\n",
    }
    assert sorted(unreached(sources)) == [
        "cli.dead", "lib.Thing.unused", "lib.Unused", "lib.Unused.__init__", "lib.other"]
    # Unused's three lines hold its __init__, which is not counted again
    assert _lines(unreached(sources)) == 2 + 2 + 3 + 2


def test_only_listed_defs_are_unreached():
    """A def no command reaches must be listed, with the reason it stays, and
    a listed name must still be an unreached def: a def a command now
    reaches, or one that is gone, leaves the list."""
    found = unreached(_package_sources())
    assert set(TEST_ONLY.values()) <= {"gate", "bench", "tests"}
    assert sorted(set(found) - set(TEST_ONLY)) == [], "unlisted: no command reaches these"
    assert sorted(set(TEST_ONLY) - set(found)) == [], "listed, but reached or gone"


def _lines(defs: dict[str, Def]) -> int:
    """The source lines of the defs, end_lineno - lineno + 1 each; a method
    whose class is among them is counted with its class, not again."""
    return sum(d.node.end_lineno - d.node.lineno + 1 for qualname, d in defs.items()
               if qualname.rsplit(".", 1)[0] not in defs)


def test_only_lines_only_shrink():
    """The unreached defs take at most TEST_ONLY_LINES lines of the package."""
    assert _lines(unreached(_package_sources())) <= TEST_ONLY_LINES


def test_reference_lines_only_shrink():
    """tests/reference_validators.py takes at most REFERENCE_LINES lines."""
    text = (Path(__file__).parent / "reference_validators.py").read_text(encoding="utf-8")
    assert len(text.splitlines()) <= REFERENCE_LINES
