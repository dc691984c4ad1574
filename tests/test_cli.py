import json
import re
import time
from pathlib import Path

import oracle
import pytest

from wittenres import pdo, residue
from wittenres.cli import canonical_json, main

EXPECTED_REPORT = Path(__file__).parents[1] / "bench" / "expected_report.json"
DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def einstein_json():
    import io
    import contextlib
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["verify", "--functional", "einstein", "--format",
                     "json"])
    assert code == 0
    return buf.getvalue()


def test_verify_einstein_statuses(einstein_json):
    report = json.loads(einstein_json)
    statuses = {lab: e["status"] for lab, e in report["entries"].items()}
    assert statuses.pop("II-3-E") == "PAPER_TYPO"
    assert set(statuses.values()) == {"MATCH"}
    assert report["status"] == "pass"
    assert report["diagnostics"][0]["status"] == "PAPER_TYPO"
    assert report["diagnostics"][0]["derived"] == "-2m-2"
    assert report["diagnostics"][0]["printed"] == "-2m-4"


def test_json_round_trips_byte_identical(einstein_json):
    parsed = json.loads(einstein_json)
    assert canonical_json(parsed) == einstein_json


def test_verify_metric_single_entry(capsys):
    code, out, _ = run(capsys, "verify", "--functional", "metric")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert lines[0].startswith("metric")
    assert "(-1) g(u,w)" in lines[0]
    assert "[MATCH]" in lines[0]


def test_verify_term_filter(capsys):
    code, out, _ = run(capsys, "verify", "--term", "I-2")
    assert code == 0
    entry_lines = [l for l in out.splitlines() if l.startswith("I-")]
    assert len(entry_lines) == 1
    assert entry_lines[0].split()[:2] == ["I-2", "0"]


def test_verify_term_evaluates_only_its_job(monkeypatch, capsys):
    # one ledger job: one density of one summand.  The summands pdo runs
    # are the four of sigma_0(D_V o D_V), from which the job's parametrix
    # takes the endomorphism
    calls = {}

    def counted(module, name):
        original = getattr(module, name)
        key = f"{module.__name__.rpartition('.')[2]}.{name}"
        calls[key] = 0

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(residue, "wres_density")
    for module in (residue, pdo):
        counted(module, "composition_summand")
    code, _, _ = run(capsys, "verify", "--term", "I-2")
    assert code == 0
    assert calls == {"residue.wres_density": 1,
                     "residue.composition_summand": 1,
                     "pdo.composition_summand": 4}


def test_verify_json_matches_recorded_report(capsys):
    code, out, _ = run(capsys, "verify", "--format", "json")
    assert code == 0
    assert out == EXPECTED_REPORT.read_text(encoding="utf-8")


@pytest.mark.parametrize("argv, recorded", [
    ([], "report.txt"),
    (["--format", "latex"], "report.tex"),
    (["--dimension", "6"], "report_dim6.txt"),
], ids=["text", "latex", "dimension6"])
def test_verify_report_matches_recorded(capsys, argv, recorded):
    code, out, _ = run(capsys, "verify", *argv)
    assert code == 0
    assert out == (DATA / recorded).read_text(encoding="utf-8")


def test_verify_unknown_term_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--term", "I-99")
    assert code == 2
    assert "unknown term" in err


def test_verify_names_an_empty_term_label(capsys):
    code, out, err = run(capsys, "verify", "--term", "I-1,")
    assert (code, out) == (2, "")
    assert err == "unknown term label(s): ''\n"
    code, _, err = run(capsys, "verify", "--term", "I-99, ", "--term", "II-2")
    assert code == 2
    assert err == "unknown term label(s): 'I-99', ''\n"


def test_verify_bad_golden_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "golden.json"
    bad.write_text("{\"values\": {\"I-1\": {\"g(u,w)\": [\"x\"]}}, "
                   "\"units\": \"TrId*Vol\"}")
    code, _, err = run(capsys, "verify", "--golden", str(bad))
    assert code == 2
    assert "golden file error" in err


METRIC_ONLY = {"units": "TrId*Vol",
               "values": {"metric": {"g(u,w)": ["-1"]}}}


def _golden(coeff: str, extra: str = "") -> bytes:
    return (f'{{"units": "TrId*Vol", "values": {{"I-2": {{"g(u,w)": '
            f'[{coeff}]}}}}{extra}}}').encode()


@pytest.mark.parametrize("content", [
    _golden('"1e6000000"'),              # Fraction expands the exponent
    _golden("1" * 5000),                 # past the integer digit limit
    b"[" * 100000,                       # past the recursion limit
    b'{"units": "TrId*Vol\xff"}',       # not UTF-8
    _golden('"1"', ', "notes": ["x"]'),  # notes not an object
    _golden("0.5"),                      # a float coefficient
    _golden('"1/0"'),                    # a zero denominator
    b'{"units": "TrId*Vol", "values": {"I-2": ["1"]}}',
    b'{"units": "TrId*Vol", "values": {"I-2": {"g(u,w)": "1"}}}',
], ids=["exponent", "digits", "nesting", "encoding", "notes", "float",
        "zero-denominator", "entry-type", "coefficient-list-type"])
def test_verify_malformed_golden_exits_two_promptly(tmp_path, capsys,
                                                    content):
    path = tmp_path / "golden.json"
    path.write_bytes(content)
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--golden", str(path),
                         "--term", "I-2")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert "golden file error" in err


def test_verify_golden_without_norm_exponent(tmp_path, capsys,
                                             monkeypatch):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(METRIC_ONLY))
    calls = []
    monkeypatch.setattr(residue, "wres_density",
                        lambda *a, **k: calls.append(a))
    code, out, err = run(capsys, "verify", "--golden", str(path))
    assert (code, out, calls) == (2, "", [])
    assert "golden file error" in err and "printed_norm_exponents" in err
    monkeypatch.undo()
    code, out, _ = run(capsys, "verify", "--functional", "metric",
                       "--golden", str(path))
    assert code == 0
    assert "[MATCH]" in out


@pytest.mark.parametrize("norms", [{"part1-top": [-4]},
                                   {"part1-top": ["-4", "-2"]},
                                   {"part1-top": -4}, [[-4, -2]]])
def test_verify_golden_bad_norm_exponent_shape(tmp_path, capsys, norms):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({**METRIC_ONLY,
                                "printed_norm_exponents": norms}))
    code, _, err = run(capsys, "verify", "--functional", "metric",
                       "--golden", str(path))
    assert code == 2
    assert "golden file error" in err


def test_verify_builds_each_parametrix_once(monkeypatch, capsys):
    # the full power as a symbol, and of the reduced power only the terms
    # of the one component Part I reads
    offsets = {"parametrix_symbols": [], "parametrix_terms": []}

    def counted(name):
        original = getattr(residue, name)

        def wrapper(data, offset):
            offsets[name].append(offset)
            return original(data, offset)
        monkeypatch.setattr(residue, name, wrapper)

    counted("parametrix_symbols")
    counted("parametrix_terms")
    code, _, _ = run(capsys, "verify", "--format", "json")
    assert code == 0
    assert offsets == {"parametrix_symbols": [0], "parametrix_terms": [1]}


def test_verify_mismatching_golden_exits_one(tmp_path, capsys):
    golden = {
        "units": "TrId*Vol",
        "values": {"metric": {"g(u,w)": ["-2"]}},
    }
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    code, out, _ = run(capsys, "verify", "--functional", "metric",
                       "--golden", str(path))
    assert code == 1
    assert "MISMATCH" in out


def test_latex_and_text_agree_on_coefficients(capsys):
    code, text, _ = run(capsys, "verify", "--term", "einstein")
    assert code == 0
    code, latex, _ = run(capsys, "verify", "--term", "einstein",
                         "--format", "latex")
    assert code == 0
    plain = set(re.findall(r"(-?\d+)/(\d+)", text))
    frac = set(re.findall(r"(-?)\\frac\{(\d+)\}\{(\d+)\}", latex))
    assert {(s + p, q) for s, p, q in frac} == plain


def test_concrete_dimension_report(capsys):
    code, out, _ = run(capsys, "verify", "--term", "metric",
                       "--dimension", "4")
    assert code == 0
    # -1 * 2^{2m} * 2 pi^m / Gamma(m) at m=2: -32 pi^2
    assert "(-32)*pi^2 g(u,w)" in out
    # the largest dimension accepted
    code, out, _ = run(capsys, "verify", "--functional", "metric",
                       "--dimension", "1000")
    assert code == 0
    assert out.startswith("metric   (-1) g(u,w)   [MATCH]   = (-")
    assert ")*pi^500 g(u,w)\n" in out


def test_query_trace(capsys):
    code, out, _ = run(capsys, "query", "trace", "c1 c1",
                       "--dimension", "4")
    assert (code, out.strip()) == (0, "-16")
    code, out, _ = run(capsys, "query", "trace", "c1 chat1")
    assert (code, out.strip()) == (0, "0")
    code, out, _ = run(capsys, "query", "trace", "c1 c2 c1 c2",
                       "--dimension", "4")
    assert (code, out.strip()) == (0, "-16")


def test_query_sphere(capsys):
    code, out, _ = run(capsys, "query", "sphere", "2,0,0,0@n=4")
    assert (code, out.strip()) == (0, "(1/4) * Vol(S^3)")
    code, out, _ = run(capsys, "query", "sphere", "1,1,0,0@n=4")
    assert (code, out.strip()) == (0, "0")
    for expr, want in (("2,2@n=4", "(1/24) * Vol(S^3)"),
                       ("4,2@n=6", "(1/160) * Vol(S^5)"),
                       ("0@n=2", "(1) * Vol(S^1)"), ("3,1@n=4", "0")):
        assert run(capsys, "query", "sphere", expr)[:2] == (0, want + "\n")


def test_query_sphere_closed_form_is_fast(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "query", "sphere", "30@n=4")
    assert time.perf_counter() - start < 1.0
    want = oracle.sphere_integral_exact([30, 0, 0, 0], 4)
    assert (code, out.strip()) == (0, f"({want}) * Vol(S^3)")


def test_query_trace_closed_form_is_fast(capsys):
    # (c1 c2 chat3)^2 = -1, c4 c4 = -1 and chat1 chat1 = 1: 40 generators
    word = " ".join(["c1 c2 chat3"] * 12 + ["c4 c4 chat1 chat1"])
    start = time.perf_counter()
    code, out, _ = run(capsys, "query", "trace", word, "--dimension", "4")
    assert time.perf_counter() - start < 1.0
    assert (code, out.strip()) == (0, "-16")
    code, out, _ = run(capsys, "query", "trace", " ".join(["c1"] * 14))
    assert (code, out.strip()) == (0, "(-1) * TrId")


@pytest.mark.parametrize("kind, expression, what", [
    ("sphere", "20000@n=2", "total degree 20000"),
    ("sphere", "2@n=1002", "dimension 1002"),
    ("trace", " ".join(["c1"] * 1001), "word length 1001"),
], ids=["degree", "dimension", "word"])
def test_query_size_is_bounded(capsys, kind, expression, what):
    code, out, err = run(capsys, "query", kind, expression)
    assert (code, out) == (2, "")
    assert err == f"parse error: {what} is above 1000\n"


def test_query_parse_error_positions(capsys):
    code, _, err = run(capsys, "query", "trace", "c1 q2")
    assert code == 2
    assert "parse error at position 3" in err
    code, _, err = run(capsys, "query", "sphere", "2,x@n=4")
    assert code == 2
    assert "parse error" in err
    # an index, exponent or dimension is ASCII digits only: int() alone
    # takes each of these, and an index past its digit limit raised
    for kind, expression, pos in (
            ("trace", "c1 c\u0661", 3),          # an Arabic-Indic one
            ("trace", "c" + "1" * 5000, 0),
            ("sphere", "+2,0@n=4", 0),
            ("sphere", "2_0,0@n=4", 0),
            ("sphere", "2,0@n=+4", 6),
            ("sphere", "2,0@n=4_0", 6),
            ("sphere", "2,0@n=\uff14", 6)):     # a fullwidth four
        code, out, err = run(capsys, "query", kind, expression)
        assert (code, out) == (2, ""), expression
        assert err.startswith(f"parse error at position {pos}: "), err


def test_query_trace_index_past_dimension(capsys):
    code, out, err = run(capsys, "query", "trace", "c1 c5 c5",
                         "--dimension", "4")
    assert (code, out) == (2, "")
    assert err == ("parse error at position 3: generator c5 is past "
                   "dimension 4\n")
    code, out, _ = run(capsys, "query", "trace", "chat4 chat4",
                       "--dimension", "4")
    assert (code, out.strip()) == (0, "16")
    # a symbolic dimension has every frame index
    code, out, _ = run(capsys, "query", "trace", "c5 c5")
    assert (code, out.strip()) == (0, "(-1) * TrId")


def test_query_sphere_conflicting_dimensions(capsys):
    code, out, err = run(capsys, "query", "sphere", "2@n=4",
                         "--dimension", "6")
    assert (code, out) == (2, "")
    assert err == ("parse error at position 4: dimension 4 conflicts with "
                   "--dimension 6\n")
    for argv in (["2@n=4", "--dimension", "4"], ["2@n=4"],
                 ["2", "--dimension", "4"]):
        code, out, _ = run(capsys, "query", "sphere", *argv)
        assert (code, out.strip()) == (0, "(1/4) * Vol(S^3)")


@pytest.mark.parametrize("argv, err", [
    (["2,0@x=4"], "parse error at position 4: expected n=<even>, got 'x=4'"),
    (["@n=3"], "parse error at position 3: dimension must be even and "
               "positive, got 3"),
    (["2,0"], "parse error: sphere query needs a dimension (append "
              "@n=<even> or pass --dimension)"),
    (["1,1,1@n=2"], "parse error: 3 exponents for dimension 2"),
], ids=["not-n", "odd", "missing", "too-many"])
def test_query_sphere_refuses_a_bad_dimension(capsys, argv, err):
    code, out, got = run(capsys, "query", "sphere", *argv)
    assert (code, out, got) == (2, "", err + "\n")


def test_bad_dimension_flag(capsys):
    # an odd dimension, and text that int() reads but that is not ASCII
    # digits: a space, a sign, a fullwidth four and an underscore
    for value in ("5", " 4", "+4", "\uff14", "4_0"):
        for command in (["verify"], ["query", "trace", "c1"]):
            with pytest.raises(SystemExit) as exc:
                main([*command, "--dimension", value])
            assert exc.value.code == 2, (command, value)
            assert "dimension" in capsys.readouterr().err
    # a leading zero is read, and the report carries the number
    code, out, _ = run(capsys, "verify", "--functional", "metric",
                       "--dimension", "04", "--format", "json")
    assert code == 0
    assert json.loads(out)["dimension"] == "4"


@pytest.mark.parametrize("argv, dim", [
    (["verify", "--functional", "metric", "--dimension", "20000"], 20000),
    (["query", "trace", "c1 c1", "--dimension", "1002"], 1002),
], ids=["verify", "query"])
def test_dimension_flag_is_bounded(capsys, argv, dim):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"dimension {dim} is above 1000" in capsys.readouterr().err

