"""Bytecode counts of the package's three measured paths.

    python tests/opcount.py

Prints three lines, `ledger N`, `verify_json N` and `taylor N`: the number
of opcodes Python executes, in every frame, for

- ledger: `evaluate_labels(with_children(("metric", "einstein")))`;
- verify_json: `cli.main(["verify", "--format", "json"])`, its stdout
  captured;
- taylor: `pdo.terms_equal_taylor` on `bench/workloads.taylor_inputs(s)`
  for s = 100..105, the inputs built before counting and each verdict
  asserted true.

Each count runs in a fresh interpreter, one after another, with every
`PYTHON*` variable removed from its environment, and counts only after the
package is imported and the inputs are built.  The child sets
`frame.f_trace_opcodes` from a `sys.settrace` function and counts the
'opcode' events.  For a fixed Python version the counts are exact, so two
trees compare without timing noise.  `verify_json` resolves file paths in
counted frames, so compare trees checked out at the same directory depth.
Uses only the standard library and reads `bench/` without writing to it.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NAMES = ("ledger", "verify_json", "taylor")


def prepare(name):
    """The work of one count, with its imports done and inputs built."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    if name == "ledger":
        from wittenres.residue import evaluate_labels, with_children
        return lambda: evaluate_labels(with_children(("metric", "einstein")))
    if name == "verify_json":
        from wittenres import cli

        def work():
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["verify", "--format", "json"]) == 0
        return work
    import workloads
    from wittenres.pdo import terms_equal_taylor
    inputs = [workloads.taylor_inputs(s) for s in range(100, 106)]

    def work():
        for i in inputs:
            assert terms_equal_taylor(i.derived, i.printed)
    return work


def count(work) -> int:
    n = 0

    def tracer(frame, event, arg):
        nonlocal n
        frame.f_trace_opcodes = True
        if event == "opcode":
            n += 1
        return tracer

    sys.settrace(tracer)
    try:
        work()
    finally:
        sys.settrace(None)
    return n


def main() -> None:
    if len(sys.argv) == 2:
        print(count(prepare(sys.argv[1])))
        return
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    for name in NAMES:
        out = subprocess.run([sys.executable, "-B", __file__, name], env=env,
                             capture_output=True, text=True, check=True)
        print(name, out.stdout.strip())


if __name__ == "__main__":
    main()
