"""The suite's own pytest settings against a failing property test.

Hypothesis reports a failing `@given` test through `hypothesis.extra.
_patching`, which imports libcst, which uses `mypy_extensions.TypedDict`
and so warns with a DeprecationWarning.  Under `filterwarnings = error`
alone that warning is raised inside pluggy's hook teardown, and the
session ends with INTERNALERROR before the later tests run.
"""

import tomllib
from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_property_test_fails_and_the_next_one_runs(pytester):
    with PYPROJECT.open("rb") as fh:
        options = tomllib.load(fh)["tool"]["pytest"]["ini_options"]
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(
        f"    {line}\n" for line in options["filterwarnings"]))
    pytester.makepyfile("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n < 0

        def test_after():
            pass
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str()
