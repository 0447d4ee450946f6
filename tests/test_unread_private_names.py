"""Every module-level private name of the package is read somewhere in it.

A function, class or assignment at the top of a `src/zkhomology/*.py`
module whose name starts with one underscore (dunders excluded) is dead
when no module of the package reads it: no `ast.Name` loads it and no
attribute access (`checks._lex_boundary`) names it.  Imports are not reads,
so a private name that is only imported is still caught; the import itself
is `test_unused_imports`'s to report.  Standard library only.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "zkhomology"


def private_definitions(tree):
    """(line, name) of each module-level private function, class or
    assigned name."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(node.lineno, t.id) for target in targets for t in ast.walk(target)
                      if isinstance(t, ast.Name)]
    return [(line, name) for line, name in found
            if name.startswith("_") and not name.startswith("__")]


def reads(tree):
    """Every name the module loads, and every attribute it names."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def unread_private_names(sources):
    """{module: [(line, name), ...]} of the private names no source reads,
    given {module: source}."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set().union(*map(reads, trees.values()))
    found = {name: [(line, n) for line, n in private_definitions(tree) if n not in read]
             for name, tree in trees.items()}
    return {name: unread for name, unread in found.items() if unread}


def test_every_private_name_of_the_package_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert len(sources) > 10
    assert unread_private_names(sources) == {}


def test_the_guard_names_a_dead_private_name():
    sources = {
        "a.py": ("_TABLE = {}\n_used, _spare = 1, 2\n__all__ = []\n"
                 "def _helper():\n    return _TABLE\n"
                 "class _Dead:\n    pass\n"
                 "def _only_imported():\n    pass\n"
                 "def public():\n    return _used\n"),
        "b.py": ("from .a import _only_imported\nimport a\n"
                 "def run():\n    return a._helper()\n"),
    }
    assert unread_private_names(sources) == {
        "a.py": [(2, "_spare"), (6, "_Dead"), (8, "_only_imported")]}
