"""The names the benchmark harness in `bench/` reaches into the package by.

`bench/verdict.py` wraps layer functions and scalar special methods by
name, and `bench/workloads.py` imports from the package; a rename in
`src/` should fail here, not in the middle of a benchmark run.  The bench
files are only read: `verdict.py` is imported without running it.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def verdict():
    import sys
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "bench_verdict", BENCH / "verdict.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


def test_traced_functions_exist(verdict):
    assert verdict.FUNCTIONS
    for span, module, attr, _ in verdict.FUNCTIONS:
        owner = importlib.import_module(f"wittenres.{module}")
        assert callable(getattr(owner, attr, None)), span


def test_wrapped_methods_and_ledger_exist(verdict):
    from wittenres import cli
    from wittenres.scalars import RatM, Scalar

    assert callable(cli.evaluate_ledger)
    assert callable(cli.main)
    for cls in (Scalar, RatM):
        for op in verdict.SCALAR_METHODS:
            assert f"__{op}__" in vars(cls), (cls.__name__, op)


def test_wrapped_scalar_results_keep_what_bench_reads():
    # `bench/verdict.py` `_useful_gcd` reads the degree of poly_gcd's
    # result, and the wrapped RatM operators act on Scalar halves
    from wittenres.scalars import RatM, Scalar, poly_gcd

    m = Scalar.poly((0, 1))
    g = poly_gcd(Scalar.poly((0, 1, 1)), Scalar.poly((0, 2)))
    assert g == m and g.degree() == 1
    assert poly_gcd(m, Scalar.poly((1, 1))).degree() == 0
    r = RatM(Scalar.poly((1, 1)), Scalar.poly((0, 2)))
    for x in (r, r + r, r * r, -r, r - r, r / r):
        assert type(x.num) is Scalar and type(x.den) is Scalar


@pytest.mark.parametrize("name", ["workloads.py", "verdict.py"])
def test_bench_imports_resolve(name):
    tree = ast.parse((BENCH / name).read_text(encoding="utf-8"))
    found = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and \
                node.module.startswith("wittenres"):
            owner = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(owner, alias.name), (node.module, alias.name)
                found += 1
    assert found


def test_the_taylor_control_fails_after_the_display_conversion():
    # the taylor_diff workload diffs the derived order-zero symbol against
    # the printed display, which `reference.eta_form` has converted: the
    # seeded inputs still agree, and the control with one printed
    # coefficient doubled still does not
    import sys
    from wittenres.pdo import terms_equal_taylor
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    inputs = workloads.taylor_inputs(100)
    assert terms_equal_taylor(inputs.derived, inputs.printed)
    control = workloads.with_control_doubled(inputs)
    assert not terms_equal_taylor(control.derived, control.printed)
