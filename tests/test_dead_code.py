"""Every module-level function, class and constant in the package, and
every method and property of its classes, has a caller.

Code whose only callers are tests is deleted, not maintained.  A name
counts as used when src/ or bench/ mentions it anywhere but inside its own
definition: a call, an attribute access, or a string naming it (the
benchmark tracer looks functions up by name).  A mention in the package
__init__ does not count, so a re-export there cannot keep a name alive
that only tests call.  Names are matched across modules, so a name defined
twice is used if either is.  Dunder assignments such as __all__ and dunder
methods such as __post_init__ are called by Python itself and are exempt.

Every name a package or test module imports is mentioned elsewhere in
that module.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "delcodes"
INIT = PACKAGE / "__init__.py"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def parsed(paths=SOURCES):
    """(path, syntax tree) of every file in paths, by default every source
    file in src/ and bench/."""
    return [(path, ast.parse(path.read_text(encoding="utf-8")))
            for path in paths]


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


def defined_names(stmt):
    """The names a top-level statement defines: a function or class, or the
    plain-name targets of an assignment, dunders left out."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [sub.id for t in targets for sub in ast.walk(t)
            if isinstance(sub, ast.Name) and not is_dunder(sub.id)]


def test_every_module_level_definition_is_used():
    # (file, top-level statement) sites at which each name is mentioned
    sites: dict[str, set] = {}
    defined = []
    for path, tree in parsed():
        for i, stmt in enumerate(tree.body):
            if path != INIT:
                for name in mentions(stmt):
                    sites.setdefault(name, set()).add((path, i))
            if path.parent == PACKAGE:
                defined.extend((path, i, name) for name in defined_names(stmt))
    unused = [f"{path.name}: {name}" for path, i, name in defined
              if not sites.get(name, set()) - {(path, i)}]
    assert not unused


def test_every_method_is_used():
    trees = parsed()
    everywhere = Counter(name for path, tree in trees if path != INIT
                         for name in mentions(tree))
    unused = []
    for path, tree in trees:
        if path.parent != PACKAGE:
            continue
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if (isinstance(stmt, ast.FunctionDef)
                        and not is_dunder(stmt.name)
                        and everywhere[stmt.name]
                        == Counter(mentions(stmt))[stmt.name]):
                    unused.append(f"{path.name}: {cls.name}.{stmt.name}")
    assert not unused


def imported_names(stmt):
    """The names an import statement binds; __future__ imports bind none."""
    if isinstance(stmt, ast.ImportFrom):
        if stmt.module == "__future__":
            return []
        return [a.asname or a.name for a in stmt.names]
    if isinstance(stmt, ast.Import):
        return [a.asname or a.name.split(".")[0] for a in stmt.names]
    return []


def test_every_import_is_used():
    unused = []
    for path, tree in parsed(sorted(PACKAGE.glob("*.py")) + TESTS):
        used = Counter(mentions(tree))
        for stmt in ast.walk(tree):
            for name in imported_names(stmt):
                if used[name] == Counter(mentions(stmt))[name]:
                    unused.append(f"{path.name}: {name}")
    assert not unused
