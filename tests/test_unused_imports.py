"""No module of the package imports a name it never reads.

Each `src/zkhomology/*.py` but `__init__.py` (whose names resolve lazily)
is parsed with `ast`; a module-level import is unused when the name it
binds never appears as a name, which covers the base of an attribute
(`json` in `json.dumps`).  Standard library only.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "zkhomology"


def unused_imports(source):
    """(line, bound name) of each module-level import never read."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(node.lineno, bound)
            for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
            if (bound := alias.asname or alias.name.split(".")[0]) not in read]


def test_no_module_imports_a_name_it_never_reads():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 10
    found = {p.name: unused_imports(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: unused for name, unused in found.items() if unused} == {}


def test_the_guard_names_a_leftover():
    source = ("import json\nimport os.path\nfrom functools import cache, partial\n"
              "from .exact import poly_str as show\n"
              "json.dumps(os.sep)\nf = partial(print)\n")
    assert unused_imports(source) == [(3, "cache"), (4, "show")]
