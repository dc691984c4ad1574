import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import oracle
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wittenres import pdo, reference, residue
from wittenres.cli import (EXIT_MISMATCH, EXIT_OK, EXIT_PIPE, EXIT_USAGE,
                           canonical_json, main)

EXPECTED_REPORT = Path(__file__).parents[1] / "bench" / "expected_report.json"
SRC = Path(__file__).parents[1] / "src"
DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def einstein_json():
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


def test_verify_term_evaluates_only_its_job(record_calls, capsys):
    # one ledger job: one density of one summand.  The summands pdo runs
    # are the four of sigma_0(D_V o D_V), from which the job's parametrix
    # takes the endomorphism
    densities = record_calls("wres_density", residue)
    jobs = record_calls("composition_summand", residue)
    summands = record_calls("composition_summand", pdo)
    code, _, _ = run(capsys, "verify", "--term", "I-2")
    assert code == 0
    assert (len(densities), len(jobs), len(summands)) == (1, 1, 4)


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


@pytest.mark.parametrize("argv", [
    ["--format", "json"], [], ["--format", "latex"], ["--dimension", "6"],
], ids=["json", "text", "latex", "dimension6"])
def test_verify_parses_each_stored_coefficient_once(capsys, monkeypatch,
                                                     argv):
    # every report is rendered from the ledger's Scalar values, so the only
    # strings that become a Fraction are the stored coefficients, once each
    ref = reference.load_reference()
    stored = sum(len(coeffs) for table in (ref["values"], ref["printed"])
                 for atoms in table.values() for coeffs in atoms.values())
    parses = []
    original = Fraction.__new__

    def counted(cls, numerator=0, *args, **kwargs):
        if isinstance(numerator, str):
            parses.append(numerator)
        return original(cls, numerator, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    code, _, _ = run(capsys, "verify", *argv)
    monkeypatch.undo()
    assert code == 0
    assert len(parses) == stored == 45


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
    _golden('"1"', ', "printed": {"I-2": {"g(u,w)": ["1/0"]}}'),
    b'{"units": "TrId*Vol", "values": {"I-2": ["1"]}}',
    b'{"units": "TrId*Vol", "values": {"I-2": {"g(u,w)": "1"}}}',
], ids=["exponent", "digits", "nesting", "encoding", "notes", "float",
        "zero-denominator", "printed-zero-denominator", "entry-type",
        "coefficient-list-type"])
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


def test_verify_builds_each_parametrix_once(record_calls, capsys):
    # the full power for Part II and the reduced power for Part I, each
    # once however many components and jobs read it
    offsets = record_calls("parametrix_symbols", residue,
                           value=lambda args, result: args[1])
    code, _, _ = run(capsys, "verify", "--format", "json")
    assert code == 0
    assert sorted(offsets) == [0, 1]


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


def test_verify_reads_zero_padded_golden_values_as_the_packaged_ones(
        tmp_path, capsys):
    # a trailing zero coefficient and an atom written as zero change no
    # value, so neither changes a status or a byte of the report
    golden = reference.load_reference()
    golden["values"] = {
        label: {atom: coeffs + ["0"] for atom, coeffs in atoms.items()}
        or {"g(u,w)": ["0"]}
        for label, atoms in golden["values"].items()}
    assert any(atoms == {"g(u,w)": ["0"]}
               for atoms in golden["values"].values())
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    code, out, _ = run(capsys, "verify", "--format", "json",
                       "--golden", str(path))
    assert code == 0
    assert out == EXPECTED_REPORT.read_text(encoding="utf-8")


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


class _ClosedPipe:
    """A stdout whose reader has gone, as after `wittenres verify | head`:
    a flush fails, and so does every write unless the stream buffers."""

    def __init__(self, buffered):
        self.buffered = buffered

    def write(self, text):
        if not self.buffered:
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("argv", [["verify", "--term", "I-1"],
                                  ["verify", "--format", "json"],
                                  ["query", "trace", "c1 c2 c1 c2"]])
def test_a_closed_stdout_ends_without_a_traceback(capsys, monkeypatch, argv,
                                                  buffered):
    # the status is neither a verdict nor a usage error, and no stdout is
    # left for the interpreter to flush, and fail on, at exit
    monkeypatch.setattr(sys, "stdout", _ClosedPipe(buffered))
    assert main(argv) == EXIT_PIPE
    assert EXIT_PIPE not in (EXIT_OK, EXIT_MISMATCH, EXIT_USAGE)
    assert sys.stdout is None
    assert capsys.readouterr().err == ""


def _run_with_a_closed(stream, argv):
    """Run `python -m wittenres.cli` in a fresh interpreter, with
    PYTHONUNBUFFERED unset so stdout is block-buffered, and with `stream`
    a pipe whose reader has already gone.  The exit status and what the
    other stream printed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    read, write = os.pipe()
    os.close(read)
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE,
               stream: write}
    try:
        proc = subprocess.run([sys.executable, "-m", "wittenres.cli", *argv],
                              env=env, timeout=120, **streams)
    finally:
        os.close(write)
    return (proc.returncode,
            (proc.stdout if stream == "stderr" else proc.stderr).decode())


# (closed stream, argv, status, what the other stream prints): the help,
# a usage error from argparse, and the verify path, where a golden file
# that cannot be read is the usage error
CLOSED_STREAM_CASES = [
    ("stdout", ["verify", "--help"], EXIT_PIPE, ""),
    ("stdout", ["--help"], EXIT_PIPE, ""),
    ("stdout", ["verify", "--dimension", "5"], EXIT_USAGE,
     "concrete dimension must be even"),
    ("stdout", ["verify", "--format", "json"], EXIT_PIPE, ""),
    ("stderr", ["verify", "--help"], EXIT_OK, "--golden GOLDEN"),
    ("stderr", ["verify", "--dimension", "5"], EXIT_PIPE, ""),
    ("stderr", ["verify", "--golden", "{missing}"], EXIT_PIPE, ""),
    ("stderr", ["verify", "--functional", "metric", "--format", "json"],
     EXIT_OK, '"status": "pass"'),
]


@pytest.mark.parametrize(
    "stream, argv, status, printed", CLOSED_STREAM_CASES,
    ids=[f"{case[0]}-{'-'.join(case[1])}" for case in CLOSED_STREAM_CASES])
def test_a_closed_stream_ends_with_a_documented_status(tmp_path, stream,
                                                       argv, status, printed):
    # a stream closed before the output reaches it, at a write or at the
    # interpreter's flush at exit, ends in EXIT_PIPE with nothing printed,
    # not in `Exception ignored ... BrokenPipeError` and status 120
    argv = [a.format(missing=tmp_path / "missing.json") for a in argv]
    code, other = _run_with_a_closed(stream, argv)
    assert code == status
    assert "Exception ignored" not in other and "Traceback" not in other
    if printed:
        assert printed in other
    else:
        assert other == ""


def test_help_lists_every_exit_status(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == EXIT_OK
    epilog = " ".join(capsys.readouterr().out.split("exit status:")[1].split())
    assert epilog == (f"{EXIT_OK} pass, {EXIT_MISMATCH} mismatch, "
                      f"{EXIT_USAGE} usage error, "
                      f"{EXIT_PIPE} output closed")


# ---------------------------------------------------------------------------
# every user surface ends in a documented exit status

GOLDEN_ARG = "<golden>"
LABELS = list(residue.LEDGER)
_DIM = st.one_of(
    st.sampled_from(["symbolic", "4", "6", "1000"]),
    st.sampled_from(["0", "2", "5", "-4", "1002", "9" * 5000, "abc", "4.0",
                     " 4", "٤", "+4", "4_0", ""]))
_TERM = st.one_of(
    st.sampled_from(LABELS),
    st.sampled_from(["I-99", "", ",", "metric ", "I-1,II-3-E", "é"]))
_OPTION = st.one_of(
    st.tuples(st.just("--dimension"), _DIM),
    st.tuples(st.just("--format"),
              st.sampled_from(["json", "text", "latex", "xml"])),
    st.tuples(st.just("--functional"),
              st.sampled_from(["metric", "einstein", "both", "all"])),
    st.tuples(st.just("--term"), _TERM),
    st.tuples(st.just("--golden"),
              st.sampled_from(["/nonexistent/golden.json", "."])),
    st.tuples(st.sampled_from(["--bogus", "-h", "junk", "--term"])),
)
# query expressions: trace words, sphere exponents with an optional
# dimension, and text from the grammar's alphabet plus junk characters
_INDEX = st.sampled_from(["1", "2", "4", "0", "9", "", "x", "٣", "99999"])
_WORD = st.lists(st.tuples(st.sampled_from(["c", "chat", "C", "h"]),
                           _INDEX).map("".join),
                 max_size=5).map(" ".join)
_SPHERE = st.tuples(
    st.lists(st.sampled_from(["0", "1", "2", "4", " 2", "", "x", "-1", "٣",
                              "2000"]),
             min_size=1, max_size=5).map(",".join),
    st.sampled_from(["", "@n=4", "@n=6", "@n=5", "@n=0", "@n=", "@m=4",
                     "@n=x", "@n=2000", "@"])).map("".join)
_TEXT = st.text(st.sampled_from("chat0129 ,@n=-_\tx*é٣\x00"), max_size=8)
_ARGV = st.one_of(
    # three verify runs in four read the edited golden file
    st.tuples(st.sampled_from([["verify"]] + 3 * [["verify", "--golden",
                                                   GOLDEN_ARG]]),
              st.lists(_OPTION, max_size=2)),
    st.tuples(st.tuples(st.just("query"), st.sampled_from(["trace",
                                                           "sphere"]),
                        st.one_of(_WORD, _SPHERE, _TEXT)).map(list),
              st.lists(st.tuples(st.just("--dimension"), _DIM),
                       max_size=1)),
    st.tuples(st.lists(st.sampled_from(["", "check", "--help", "query",
                                        "dirac"]),
                       max_size=2),
              st.just([])),
).map(lambda parts: parts[0] + [tok for opt in parts[1] for tok in opt])


def _paths(node, path=()):
    """The path of every value in a JSON document, the root first."""
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield from _paths(value, path + (key,))


LEDGER_FILE = reference.load_reference()
# JSON text an edit puts in place of a value: another type, a malformed
# coefficient, or deep nesting
_REPLACEMENT = {
    "type": ["null", "true", "1.5", "7", "[]", "{}", '"x"', '["1"]',
             '{"g(u,w)": ["1"]}'],
    "coefficient": ['"1/0"', '"1e5"', "1e5", "0.5", '"1.5"', '""', '"--1"',
                    '"１"', '"1_0"', '" 1"', '"1/-2"', "9" * 5000,
                    '"1e6000000"', '"\udcff"'],  # the last is not UTF-8
    "nesting": ["[" * 60 + "]" * 60, "[" * 5000 + "]" * 5000,
                '{"a": ' * 5000 + "1" + "}" * 5000],
}
_MARK = "<replaced>"


@st.composite
def _golden_text(draw):
    """The packaged ledger after one random edit, as JSON text: a dropped
    key or list item, or a value replaced."""
    doc = json.loads(json.dumps(LEDGER_FILE))
    path = draw(st.sampled_from(list(_paths(doc))[1:]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    kind = draw(st.sampled_from(["drop", *_REPLACEMENT]))
    if kind == "drop":
        del parent[path[-1]]
        return json.dumps(doc)
    parent[path[-1]] = _MARK
    return json.dumps(doc).replace(json.dumps(_MARK),
                                   draw(st.sampled_from(_REPLACEMENT[kind])))


@settings(max_examples=200, derandomize=True, deadline=2000,
          suppress_health_check=[HealthCheck.too_slow])
@given(_ARGV, _golden_text())
def test_every_user_input_ends_in_a_documented_status(tmp_path_factory,
                                                       argv, golden):
    path = tmp_path_factory.getbasetemp() / "robustness-golden.json"
    path.write_bytes(golden.encode("utf-8", "surrogateescape"))
    argv = [str(path) if a == GOLDEN_ARG else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse's help and usage errors
            status = exc.code
    assert status in (EXIT_OK, EXIT_MISMATCH, EXIT_USAGE), argv
    assert "Traceback" not in out.getvalue() + err.getvalue()
