"""The statement lines of src/wittenres that no tier-1 test runs.

    python tests/linecov.py [pytest arguments]

Runs the suite (tests/, or the given pytest arguments) with pytest in
this process, strictly in sequence, under a `sys.settrace` line tracer
built from the standard library, since `coverage` is no dependency.  It
then prints, per module, the statement lines that never ran, and exits
with pytest's status.  A statement line is the first line of an `ast`
statement that the compiler keeps, one some code object maps an
instruction to, so a docstring is none.

What the tracer cannot see counts as unreached: a line that runs only in
a child process (the fresh interpreters of `test_cli`'s closed-stream
cases), or only while a test has its own tracer installed
(`test_no_dead_code`'s call trace).  This script starts no process itself.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wittenres"


def statement_lines(path: Path) -> set[int]:
    source = path.read_text(encoding="utf-8")
    kept = set()
    stack = [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if isinstance(c, type(code)))
        kept.update(line for _, _, line in code.co_lines() if line)
    return kept & {node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.stmt)}


def _ranges(lines: list[int]) -> str:
    """Sorted line numbers as comma-separated runs: 3, 7-9."""
    runs = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main(argv: list[str]) -> int:
    modules = {path: set() for path in sorted(PACKAGE.glob("*.py"))}
    # co_filename -> its line tracer, None outside the package
    tracers = {}

    def line_tracer(done: set[int]):
        def local(frame, event, arg):
            if event == "line":
                done.add(frame.f_lineno)
            return local
        return local

    def calls(frame, event, arg):
        # every new frame comes here; only the package's trace their lines
        name = frame.f_code.co_filename
        if name not in tracers:
            done = modules.get(Path(name).resolve())
            tracers[name] = None if done is None else line_tracer(done)
        return tracers[name]

    sys.path.insert(0, str(ROOT / "src"))
    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        status = pytest.main(["-c", str(ROOT / "pyproject.toml"),
                              "--rootdir", str(ROOT), "-p", "no:cacheprovider",
                              *(argv or [str(ROOT / "tests")])])
    finally:
        sys.settrace(previous)
    for path, done in modules.items():
        missed = sorted(statement_lines(path) - done)
        if missed:
            print(f"{path.relative_to(ROOT)}: {_ranges(missed)}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
