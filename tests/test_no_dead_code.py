"""Every name the package defines is used somewhere.

The definitions are the module-level functions, classes and constants of
`src/wittenres` and every method whose name is not a dunder.  A name counts
as used when it occurs outside its own definition in `src/`, `tests/` or
`bench/`: as a name, an attribute, an imported name, a keyword argument or
a string that spells it (the benchmark wraps functions by name).  Methods
are matched by name alone, so a method is kept alive by any use of a
same-named attribute.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wittenres"


def _sources():
    for top in ("src", "tests", "bench"):
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
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value, node.lineno


def test_every_definition_is_used():
    uses: dict[str, list[tuple[Path, int]]] = {}
    defined = []
    for path, tree in _sources():
        for name, line in _uses(tree):
            uses.setdefault(name, []).append((path, line))
        if path.parent == PACKAGE:
            defined.extend((path, *d) for d in _definitions(tree))
    assert defined
    unused = sorted(
        f"{path.stem}.{name}" for path, name, first, last in defined
        if not any(p != path or not first <= line <= last
                   for p, line in uses.get(name, ())))
    assert unused == []
