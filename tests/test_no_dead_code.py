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

A call trace over the command-line paths lists the functions of `src/`
that no `wittenres` run enters; the list must equal `NEVER_ENTERED`, which
gives each one's reason to stay.
"""

import ast
import inspect
import sys
from pathlib import Path

from wittenres.cli import main

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


# The CLI paths the trace below follows: every report format, a concrete
# dimension, each way of choosing labels, a mismatching and a malformed
# golden file, the usage errors, and each query kind with its error paths.
VERIFY_RUNS = (
    [], ["--format", "json"], ["--format", "latex"], ["--dimension", "6"],
    ["--term", "I-1,II-3-E"], ["--functional", "metric"],
    ["--functional", "metric", "--golden", "{mismatching}"],
    ["--golden", "{malformed}"], ["--term", "I-99"], ["--dimension", "5"],
)
QUERY_RUNS = (
    ["trace", "c1 c2 c1 c2", "--dimension", "4"], ["trace", "c1 chat1"],
    ["trace", "c1 q2"], ["trace", "c1 c5", "--dimension", "4"],
    ["sphere", "2,0,0,0@n=4"], ["sphere", "2", "--dimension", "4"],
    ["sphere", "2,x@n=4"], ["sphere", "2,0"],
    ["sphere", "2@n=4", "--dimension", "6"],
)

BENCH_WRAPS = "bench/verdict.py wraps it by name (ROADMAP item 16)"
RATM = ("RatM is bench-only: bench/verdict.py wraps its operators by name, "
        "and nothing in src/ builds one (ROADMAP item 16)")
RATM_CALLS = "only the bench-only RatM and poly_gcd call it"
HASH = "__hash__ must agree with __eq__"
PRINTED = "reprs and error messages print it"
TRUTH = "its truth value agrees with is_zero, which src/ calls instead"

# The functions of src/wittenres that no CLI path above enters, each with
# the reason it stays.
NEVER_ENTERED = {
    "pdo.terms_equal_taylor": "bench/ runs it as the taylor_diff workload "
                              "until ROADMAP item 19 retires that",
    "pdo.origin_terms": "only terms_equal_taylor calls it",
    "terms.merge_presentations": "only pdo.terms_equal_taylor calls it "
                                 "(bench taylor_diff, item 19)",
    "reference.ab_symbol_reference": "bench/workloads.py diffs the derived "
                                     "A B symbol against it (item 19)",
    "reference.eta_form": "only ab_symbol_reference calls it in src/; the "
                          "tests convert their printed displays with it",
    "tensor.bianchi_pass": BENCH_WRAPS,
    "scalars.poly_gcd": f"{BENCH_WRAPS}; only RatM calls it",
    "scalars.Scalar.degree": RATM_CALLS,
    "scalars.RatM.__init__": RATM,
    "scalars.RatM.is_zero": RATM,
    "scalars.RatM.__add__": RATM,
    "scalars.RatM.__neg__": RATM,
    "scalars.RatM.__sub__": RATM,
    "scalars.RatM.__mul__": RATM,
    "scalars.RatM.__truediv__": RATM,
    "scalars.RatM.__eq__": RATM,
    "scalars.RatM.__hash__": RATM,
    "scalars.RatM.__bool__": RATM,
    "scalars.RatM.__str__": RATM,
    "scalars.Scalar.__sub__": BENCH_WRAPS,
    "scalars.Scalar.__truediv__": f"{BENCH_WRAPS}; no src/ path divides",
    "scalars.Scalar.__hash__": HASH,
    "scalars.Scalar.__bool__": TRUTH,
    "scalars.Scalar.__str__": PRINTED,
}


def _functions():
    """`module.qualname` of every function and method that src/wittenres
    defines, at any depth, leaving out comprehensions and lambdas."""
    names = set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = "wittenres" if path.stem == "__init__" else path.stem
        stack = [compile(path.read_text(encoding="utf-8"), str(path),
                         "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts
                         if isinstance(c, type(code)))
            # a class body or a module has no optimized locals
            if (code.co_flags & inspect.CO_OPTIMIZED
                    and not code.co_name.startswith("<")):
                names.add(f"{module}.{code.co_qualname}")
    return names


def test_the_cli_enters_every_function_but_the_listed_ones(tmp_path,
                                                           capsys):
    mismatching = tmp_path / "mismatching.json"
    mismatching.write_text('{"units": "TrId*Vol", "values": '
                           '{"metric": {"g(u,w)": ["-2"]}}}')
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"units": "TrId*Vol", "values": '
                         '{"I-1": {"g(u,w)": ["x"]}}}')
    runs = [["verify", *(a.format(mismatching=mismatching,
                                  malformed=malformed) for a in argv)]
            for argv in VERIFY_RUNS]
    runs += [["query", *argv] for argv in QUERY_RUNS]
    entered = set()

    def record(frame, event, arg):
        # a global tracer sees call events; returning None traces no
        # line of the frame
        module = frame.f_globals.get("__name__", "")
        if module == "wittenres" or module.startswith("wittenres."):
            entered.add(f"{module.rpartition('.')[2]}."
                        f"{frame.f_code.co_qualname}")

    previous = sys.gettrace()
    sys.settrace(record)
    try:
        for argv in runs:
            try:
                main(argv)
            except SystemExit:  # argparse's usage error
                pass
    finally:
        sys.settrace(previous)
    capsys.readouterr()
    assert sorted(_functions() - entered) == sorted(NEVER_ENTERED)
