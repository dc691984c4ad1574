"""Quick checks of the benchmark's own code; run.py runs them before timing.

    PYTHONPATH=src python3 bench/selftest.py
"""

from __future__ import annotations

import json
import sys
from types import ModuleType

import workloads
from tracer import Tracer


def check_seeding() -> list[str]:
    first, again = workloads.taylor_inputs(1), workloads.taylor_inputs(1)
    other = workloads.taylor_inputs(2)
    problems = []
    if first != again or workloads.digest(first) != workloads.digest(again):
        problems.append("one seed gave two different taylor_diff inputs")
    if first.order == other.order:
        problems.append("seeds 1 and 2 gave the same term order")
    return problems


def check_checker(recorded: bytes) -> list[str]:
    problems = []
    if workloads.check_report(recorded, recorded):
        problems.append("the checker rejects the recorded report")
    report = json.loads(recorded)
    report["entries"]["einstein"]["value"]["g(u,w)*s"] = ["1/13"]
    changed = (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()
    # pass the changed report as its own recording, so only the
    # hand-written constants can catch it
    if not workloads.check_report(changed, changed):
        problems.append("the checker accepts a changed einstein coefficient")
    if not workloads.check_report(changed, recorded):
        problems.append("the byte comparison accepts a changed report")
    return problems


def check_tracer() -> list[str]:
    """Self time on a nested toy call, with a clock that ticks once a read."""
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    inner_mod, outer_mod = ModuleType("inner"), ModuleType("outer")

    def inner(x):
        return x + 1

    def outer(x):
        return outer_mod.step(outer_mod.step(x))

    inner_mod.inner, outer_mod.step, outer_mod.outer = inner, inner, outer
    mods = [inner_mod, outer_mod]
    tracer.patch_function(mods, inner_mod, "inner", "toy.inner")
    tracer.patch_function(mods, outer_mod, "outer", "toy.outer")
    result = outer_mod.outer(0)
    tracer.restore()
    # outer spans ticks 0..5, the two inner calls 1..2 and 3..4
    want = {"toy.inner": {"calls": 2, "total_ns": 2, "self_ns": 2},
            "toy.outer": {"calls": 1, "total_ns": 5, "self_ns": 3}}
    problems = []
    if result != 2 or tracer.totals() != want:
        problems.append(f"toy trace gave {tracer.totals()}")
    if outer_mod.step is not inner:
        problems.append("restore left a wrapper bound")
    return problems


def run_all() -> list[str]:
    recorded = workloads.RECORDED.read_bytes()
    return check_seeding() + check_checker(recorded) + check_tracer()


if __name__ == "__main__":
    found = run_all()
    for problem in found:
        print(problem, file=sys.stderr)
    print("self-checks failed" if found else "self-checks passed")
    sys.exit(1 if found else 0)
