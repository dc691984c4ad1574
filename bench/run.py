"""wittenres benchmark: verdicts in a closed loop, one client, each verdict
in a fresh interpreter.

    python3 bench/run.py --workload verify_cli --seed 1 --seconds 30 --trace 0

Run from any directory of a source checkout.  Prints a table of metrics,
then as its last line one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 reports the end-to-end metrics named in
BENCHMARK.json, --trace 1 the per-layer ones from a separate traced run.
Exits non-zero if any check fails, or at once if the source tree is absent.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_run"
WORKERS_ENV = "WITTENRES_WORKERS"
RUN_BUDGET_S = 170   # a run must end within 180 s
SETUP_SAMPLES = 8    # per side of the timed loop


class Workload(NamedTuple):
    kind: str          # verdict.py subcommand
    workers: int       # WITTENRES_WORKERS; 1 leaves it unset
    timeout_s: float   # a verdict that runs longer is killed and fails


WORKLOADS = {
    "verify_cli": Workload("verify", 1, 60),
    # never more workers than CPUs: the CLI starts every worker up front
    "verify_fanout": Workload("verify", 2, 60),
    "taylor_diff": Workload("taylor", 1, 120),
}


class Verdict(NamedTuple):
    wall_s: float      # spawn to exit
    cpu_s: float       # user + system, the process and every child it reaped
    rss_mb: float      # largest resident set of the process or those children
    code: int | None   # exit code; None after a timeout
    stdout: bytes
    stderr: bytes


def _stop_group(pgid: int) -> None:
    """Kill what is left of a verdict's process group and wait for it."""
    give_up = time.monotonic() + 10
    while time.monotonic() < give_up:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)
    print(f"process group {pgid} outlived SIGKILL", file=sys.stderr)


def spawn(argv: list[str], env: dict, timeout_s: float) -> Verdict:
    """Run one process to exit, with its rusage as wait4 reports it (the
    same figures as the parent's RUSAGE_CHILDREN delta)."""
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=WORK) as out, \
            tempfile.TemporaryFile(dir=WORK) as err:
        expired = threading.Event()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                cwd=ROOT, start_new_session=True)

        def expire():
            expired.set()
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(max(timeout_s, 0.0), expire)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall_s = time.perf_counter() - start
        # wait4 reaped the child; tell Popen so it never waits again
        proc.returncode = os.waitstatus_to_exitcode(status)
        _stop_group(proc.pid)
        out.seek(0)
        err.seek(0)
        return Verdict(wall_s, usage.ru_utime + usage.ru_stime,
                       usage.ru_maxrss / 1024,
                       None if expired.is_set() else proc.returncode,
                       out.read(), err.read())


class Bench:
    """One run: a workload, its seed and the deadline every process shares.

    The k-th verdict of a `taylor_diff` run compares the inputs made from
    input seed 100 * seed + k, so a run averages over several inputs.
    """

    def __init__(self, name: str, seed: int):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.recorded = workloads.RECORDED.read_bytes()

    def input_seed(self, k: int) -> int:
        return 100 * self.seed + k

    def expected(self, k: int, negative: bool) -> dict:
        inputs = workloads.taylor_inputs(self.input_seed(k))
        if negative:
            inputs = workloads.with_control_doubled(inputs)
        return {"verdict": not negative, "inputs": workloads.digest(inputs)}

    def env(self, workers: int) -> dict:
        """The caller's environment without WITTENRES_WORKERS or any PYTHON*
        setting, so that bytecode caching and buffering behave as they do
        for an installed package whoever starts the benchmark."""
        env = {k: v for k, v in os.environ.items()
               if k != WORKERS_ENV and not k.startswith("PYTHON")}
        env["PYTHONPATH"] = str(ROOT / "src")
        if workers > 1:
            if workers > len(os.sched_getaffinity(0)):
                raise SystemExit(f"{self.name} needs {workers} CPUs")
            env[WORKERS_ENV] = str(workers)
        return env

    def timeout(self) -> float:
        return min(self.workload.timeout_s, self.deadline - time.monotonic())

    def verdict(self, k=0, trace: Path | None = None, negative=False,
                workers: int | None = None) -> Verdict:
        argv = [sys.executable, str(BENCH / "verdict.py"),
                self.workload.kind, "--seed", str(self.input_seed(k))]
        if trace:
            argv += ["--trace", str(trace)]
        if negative:
            argv.append("--negative")
        workers = self.workload.workers if workers is None else workers
        return spawn(argv, self.env(workers), self.timeout())

    def problems(self, v: Verdict, k=0, negative=False) -> list[str]:
        if v.code is None:
            return ["timed out"]
        if v.code != 0:
            tail = v.stderr.decode(errors="replace").strip()[-300:]
            return [f"exit code {v.code}: {tail}"]
        if self.workload.kind == "verify":
            return workloads.check_report(v.stdout, self.recorded)
        want = self.expected(k, negative)
        try:
            got = json.loads(v.stdout)
        except ValueError:
            got = v.stdout[-300:]
        return [] if got == want else [f"printed {got}, expected {want}"]

    def import_walls(self, samples=SETUP_SAMPLES) -> list[float]:
        """Wall times of fresh interpreters importing the package."""
        argv = [sys.executable, "-c", "import wittenres, wittenres.cli"]
        walls = []
        for _ in range(samples):
            v = spawn(argv, self.env(1), self.timeout())
            if v.code != 0:
                raise SystemExit(f"import failed: {v.stderr.decode()}")
            walls.append(v.wall_s)
        return walls


def timed_loop(bench: Bench, seconds: float):
    """Closed loop with one client: the next verdict starts when the
    previous one has exited, until `seconds` have passed."""
    runs = []
    start = time.perf_counter()
    while bench.timeout() > 0:
        k = len(runs)
        v = bench.verdict(k)
        runs.append((v, bench.problems(v, k)))
        if time.perf_counter() - start >= seconds:
            break
    return runs, time.perf_counter() - start


def end_to_end(bench: Bench, seconds: float):
    # set-up is sampled before and after the loop, so that one slow or fast
    # spell of the machine does not decide it
    bench.import_walls(1)   # writes __pycache__
    imports = bench.import_walls()
    runs, loop_s = timed_loop(bench, seconds)
    imports += bench.import_walls()
    good = [v for v, p in runs if not p]
    walls = sorted(v.wall_s for v, _ in runs)
    metrics = {
        "verdicts_per_s": len(good) / loop_s,
        "verdict_p50_s": statistics.median(walls),
        "cpu_s_per_verdict": statistics.median(v.cpu_s for v, _ in runs),
        "peak_rss_mb": max(v.rss_mb for v, _ in runs),
        "setup_s": statistics.median(imports),
        "failed_frac": (len(runs) - len(good)) / len(runs),
    }
    notes = [f"verdicts: {len(runs)} in {loop_s:.2f} s, "
             f"max {walls[-1]:.4f} s"]
    if len(walls) > 10:
        # the highest percentile with at least ten samples beyond it
        share = 100 * (len(walls) - 10) / len(walls)
        notes.append(f"p{share:.0f} {walls[-11]:.4f} s")
    return metrics, runs, notes, []


def per_layer(bench: Bench, seconds: float, units: dict):
    """Pairs of an untraced and a traced verdict, until `seconds` pass.

    Counts must repeat exactly across pairs; times are medians.
    """
    runs, rows = [], []
    trace = WORK / f"spans-{bench.name}.json"
    start = time.perf_counter()
    while bench.timeout() > 0:
        k = len(rows)
        plain = bench.verdict(k)
        traced = bench.verdict(k, trace=trace)
        problems = bench.problems(traced, k)
        if not problems and traced.stdout != plain.stdout:
            problems = ["traced output differs from the untraced output"]
        runs += [(plain, bench.problems(plain, k)), (traced, problems)]
        if problems:
            break
        row = json.loads(trace.read_text())["metrics"]
        row["trace.overhead_ratio"] = traced.wall_s / plain.wall_s
        rows.append(row)
        if time.perf_counter() - start >= seconds:
            break
    if not rows:
        return {}, runs, [], []

    # fan-out's useful share: the sequential ledger's CPU over its own
    base = None
    if bench.workload.workers > 1:
        seq = bench.verdict(trace=trace, workers=1)
        problems = bench.problems(seq)
        runs.append((seq, problems))
        if not problems:
            base = json.loads(trace.read_text())["metrics"]
    for row in rows:
        cpu = row["cli.evaluate_ledger.cpu_s"]
        seq_cpu = (base or row)["cli.evaluate_ledger.cpu_s"]
        row["cli.fanout.useful_ratio"] = seq_cpu / cpu if cpu else 0.0

    metrics, problems = {}, []
    for name, unit in units.items():
        values = [row[name] for row in rows if name in row]
        if not values:
            continue
        if unit == "count":
            if len(set(values)) > 1:
                problems.append(f"{name} did not repeat: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    return metrics, runs, [f"traced pairs: {len(rows)}"], problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "wittenres" / "cli.py").is_file():
        print(f"no wittenres source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    import selftest
    problems = selftest.run_all()
    bench = Bench(args.workload, args.seed)
    if bench.workload.kind == "taylor":
        # negative control, untimed: a doubled display term must not pass
        v = bench.verdict(negative=True)
        problems += [f"negative control: {p}"
                     for p in bench.problems(v, negative=True)]

    if args.trace:
        metrics, runs, notes, found = per_layer(bench, args.seconds, units)
    else:
        metrics, runs, notes, found = end_to_end(bench, args.seconds)
    failed = sum(1 for _, p in runs if p)
    problems += found + [p for _, ps in runs for p in ps]
    problems += [f"no value for {name}" for name in units
                 if name not in metrics]

    seed_note = ("seed unused" if bench.workload.kind == "verify"
                 else f"seed {args.seed}")
    print(f"# {args.workload} ({seed_note}), trace {args.trace}")
    for note in notes:
        print(f"# {note}")
    for name, value in metrics.items():
        print(f"{name:40s} {value:>14.6g} {units.get(name, 'ratio')}")
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    correct = not problems and bool(runs)
    print(json.dumps({
        "correct": correct,
        "attempted": max(len(runs), 1),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
