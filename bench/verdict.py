"""One verdict in a fresh interpreter: the process that run.py times.

    python3 bench/verdict.py verify [--trace PATH]
    python3 bench/verdict.py taylor --seed N [--negative] [--trace PATH]

`verify` is `wittenres verify --format json`; set WITTENRES_WORKERS to fan
it out.  `taylor` compares the seeded `taylor_diff` inputs and prints
{"verdict": ..., "inputs": <sha256 of the inputs>}.  With --trace, the
public functions of each layer are wrapped before the work starts, and the
per-layer figures and all spans are written to PATH when it ends.  Spans
inside forked fan-out workers are not collected: the workers hold their own
copies of the tracer, which are lost when they exit.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import importlib
import json
import resource
import sys
import time

import workloads


def _terms_in(args, result):
    return len(args[0])


def _terms_out(args, result):
    return len(result)


def _summand_terms_out(args, result):
    return len(result[0])


def _useful_gcd(args, result):
    return int(result.degree() > 0)


# (span name, module, attribute, options); the span name is the layer name
# followed by the public name, and special methods drop their underscores
FUNCTIONS = (
    ("scalars.poly_gcd", "scalars", "poly_gcd",
     {"count": {"useful": _useful_gcd}}),
    ("terms.normalize", "terms", "normalize",
     {"count": {"terms_in": _terms_in, "terms_out": _terms_out},
      "materialize": True}),
    ("terms.mul_terms", "terms", "mul_terms", {}),
    ("clifford.trace", "clifford", "trace",
     {"count": {"terms_in": _terms_in, "terms_out": _terms_out},
      "materialize": True}),
    ("sphere.integrate_term", "sphere", "integrate_term",
     {"count": {"terms_out": _terms_out}}),
    ("tensor.canonicalize", "tensor", "canonicalize", {}),
    ("tensor.bianchi_pass", "tensor", "bianchi_pass", {}),
    ("tensor.collect", "tensor", "collect", {}),
    ("pdo.compose", "pdo", "compose", {}),
    ("pdo.composition_summand", "pdo", "composition_summand",
     {"count": {"terms_out": _summand_terms_out}}),
    ("pdo.d_x_terms", "pdo", "d_x_terms",
     {"count": {"terms_out": _terms_out}}),
    ("pdo.d_xi_terms", "pdo", "d_xi_terms", {}),
    ("operators.parametrix_symbols", "operators", "parametrix_symbols", {}),
    ("residue.wres_density", "residue", "wres_density", {}),
    ("residue.part1_top_norm_exponent", "residue",
     "part1_top_norm_exponent", {}),
    ("reference.load_reference", "reference", "load_reference", {}),
)
SCALAR_METHODS = ("add", "sub", "mul", "neg", "truediv")


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def install(tracer, ledger_cpu: dict) -> None:
    """Wrap every layer's public functions in all wittenres modules."""
    modules = [m for name, m in sys.modules.items()
               if name == "wittenres" or name.startswith("wittenres.")]
    for span, module, attr, options in FUNCTIONS:
        owner = importlib.import_module(f"wittenres.{module}")
        tracer.patch_function(modules, owner, attr, span, **options)

    scalars = importlib.import_module("wittenres.scalars")
    for cls in (scalars.Scalar, scalars.RatM):
        for op in SCALAR_METHODS:
            tracer.patch_method(cls, f"__{op}__",
                                f"scalars.{cls.__name__}.{op}")

    # the fan-out workers' CPU is read from the parent, as RUSAGE_CHILDREN
    # deltas around the ledger evaluation
    cli = importlib.import_module("wittenres.cli")
    ledger = cli.evaluate_ledger

    @functools.wraps(ledger)
    def measured_ledger(*args, **kwargs):
        self0 = resource.getrusage(resource.RUSAGE_SELF)
        child0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        try:
            return ledger(*args, **kwargs)
        finally:
            child = (_cpu_s(resource.getrusage(resource.RUSAGE_CHILDREN))
                     - _cpu_s(child0))
            own = _cpu_s(resource.getrusage(resource.RUSAGE_SELF)) - _cpu_s(
                self0)
            ledger_cpu["child_cpu_s"] += child
            ledger_cpu["cpu_s"] += own + child

    tracer.patch_function(modules, cli, "evaluate_ledger",
                          "cli.evaluate_ledger", replacement=measured_ledger)
    tracer.patch_method(concurrent.futures.ProcessPoolExecutor, "submit",
                        "cli.fanout.submit")
    tracer.patch_method(concurrent.futures.Future, "result",
                        "cli.fanout.result")


def layer_metrics(tracer, ledger_cpu: dict, import_s: float) -> dict:
    """Every per-layer figure under its metric name."""
    out = {}
    layer_self: dict[str, float] = {}
    for name, row in tracer.totals().items():
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.wall_s"] = row["total_ns"] / 1e9
        out[f"{name}.self_s"] = row["self_ns"] / 1e9
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + row["self_ns"] / 1e9
    for (name, key), value in tracer.counters.items():
        out[f"{name}.{key}"] = value
    out.update({f"{layer}.self_s": s for layer, s in layer_self.items()})
    gcd_calls = out["scalars.poly_gcd.calls"]
    out["scalars.poly_gcd.useful_ratio"] = (
        out["scalars.poly_gcd.useful"] / gcd_calls if gcd_calls else 0.0)
    out["scalars.RatM.ops"] = sum(out[f"scalars.RatM.{op}.calls"]
                                  for op in SCALAR_METHODS)
    out["cli.fanout.tasks"] = out["cli.fanout.submit.calls"]
    out["cli.fanout.wait_s"] = out["cli.fanout.result.wall_s"]
    out["cli.fanout.child_cpu_s"] = ledger_cpu["child_cpu_s"]
    out["cli.evaluate_ledger.cpu_s"] = ledger_cpu["cpu_s"]
    out["process.import_s"] = import_s
    return out


def run(args) -> int:
    if args.kind == "verify":
        import wittenres.cli
        return wittenres.cli.main(["verify", "--format", "json"])
    from wittenres.pdo import terms_equal_taylor
    inputs = workloads.taylor_inputs(args.seed)
    if args.negative:
        inputs = workloads.with_control_doubled(inputs)
    verdict = terms_equal_taylor(inputs.derived, inputs.printed)
    print(json.dumps({"verdict": verdict,
                      "inputs": workloads.digest(inputs)}))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("kind", choices=("verify", "taylor"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--negative", action="store_true")
    ap.add_argument("--trace")
    args = ap.parse_args()

    start = time.perf_counter()
    import wittenres.cli  # noqa: F401  (the import users pay for)
    import_s = time.perf_counter() - start
    if not args.trace:
        return run(args)

    from tracer import Tracer
    tracer = Tracer()
    ledger_cpu = {"cpu_s": 0.0, "child_cpu_s": 0.0}
    install(tracer, ledger_cpu)
    try:
        code = run(args)
    finally:
        tracer.restore()
    with open(args.trace, "w", encoding="utf-8") as fh:
        json.dump({"metrics": layer_metrics(tracer, ledger_cpu, import_s),
                   "names": tracer.names, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
