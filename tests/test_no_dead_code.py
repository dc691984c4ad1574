"""The package holds only what it runs, and imports only what it uses.

The definitions are the module-level functions, classes and constants of
`src/wittenres` and every method whose name is not a dunder.  A name counts
as used when it occurs in `src/` or `bench/` outside every definition of
that name: as a name, an attribute, a keyword argument or a string that
spells it (the benchmark wraps functions by name).  Uses in `tests/` do not
count, so a name only the tests reach belongs in `tests/`, and an import
alone is not a use.  Methods are matched by name alone, so a method is kept
alive by any use of a same-named attribute, but not by one inside a
same-named method: `RatM.is_zero` calling `self.num.is_zero` keeps no
`is_zero` alive.

Every name a module of `src/` or `tests/` imports must be used in that
module, and the package imports nothing outside the standard library.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wittenres"


def _sources(*tops):
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def _definitions(tree):
    """(name, first line, last line) of each definition in a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("__")):
                    yield item.name, item.lineno, item.end_lineno
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        for target in targets:
            for name in getattr(target, "elts", [target]):
                if (isinstance(name, ast.Name)
                        and not name.id.startswith("__")):
                    yield name.id, node.lineno, node.end_lineno


def _uses(tree):
    """(name, line) of every occurrence that can refer to a definition."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value, node.lineno


def test_every_definition_is_used():
    uses: dict[str, list[tuple[Path, int]]] = {}
    defined = []
    for path, tree in _sources("src", "bench"):
        for name, line in _uses(tree):
            uses.setdefault(name, []).append((path, line))
        if path.parent == PACKAGE:
            defined.extend((path, *d) for d in _definitions(tree))
    assert defined
    spans: dict[str, list[tuple[Path, int, int]]] = {}
    for path, name, first, last in defined:
        spans.setdefault(name, []).append((path, first, last))
    unused = sorted(
        f"{path.stem}.{name}" for path, name, _, _ in defined
        if all(any(p == q and first <= line <= last
                   for q, first, last in spans[name])
               for p, line in uses.get(name, ())))
    assert unused == []


def _imported(tree):
    """(bound name, line) of each name a module's imports bind."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0],
                       node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported(tree):
    """The names a module's `__all__` lists."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            for elt in node.value.elts:
                yield elt.value


def test_every_import_is_used():
    unused = []
    for path, tree in _sources("src", "tests"):
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        used.update(_exported(tree))
        unused.extend(f"{path.relative_to(ROOT)}:{line} {name}"
                      for name, line in _imported(tree) if name not in used)
    assert unused == []


def test_package_imports_only_the_standard_library():
    outside = []
    for path, tree in _sources("src"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            else:
                continue
            outside.extend(f"{path.relative_to(ROOT)}:{node.lineno} {top}"
                           for top in tops
                           if top not in sys.stdlib_module_names)
    assert outside == []
