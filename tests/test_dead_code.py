"""Every module-level function and class in the package has a caller.

Code whose only callers are tests is deleted, not maintained.  A name
counts as used when src/ or bench/ mentions it anywhere but inside its own
definition: a call, an attribute access, a re-export from the package
__init__, or a string naming it (the benchmark tracer looks functions up
by name).  Names are matched across modules, so a name defined twice is
used if either is.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "delcodes"


def mentions(node):
    """Every identifier a syntax tree mentions."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def test_every_module_level_definition_is_used():
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    # (file, top-level statement) sites at which each name is mentioned
    sites: dict[str, set] = {}
    defined = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for i, stmt in enumerate(tree.body):
            for name in mentions(stmt):
                sites.setdefault(name, set()).add((path, i))
            if path.parent == PACKAGE and isinstance(
                    stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path, i, stmt.name))
    unused = [f"{path.name}: {name}" for path, i, name in defined
              if not sites.get(name, set()) - {(path, i)}]
    assert not unused
