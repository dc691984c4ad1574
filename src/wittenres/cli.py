"""Batch command-line driver.

`wittenres verify` evaluates ledger labels in this process, diffs each
against the reference ledger as `reference.validate_reference` parsed it,
and reports MATCH / PAPER_TYPO / MISMATCH per label (exit 0 only when
nothing mismatches); each format renders the values ({atom: Scalar}).
`--functional` selects a functional's label and every label it sums over,
`--term` a list of labels; either way only those labels and their children
are computed.  The report's "bianchi" key is always "on": first Bianchi is
a rule of `terms.normalize`, not an option.
`wittenres query` evaluates one-off traces and sphere integrals from a tiny
expression grammar.  A concrete `--dimension` of either subcommand is an
even integer from 4 to `QUERY_LIMIT`; under it a trace word's indices lie
in 1..n, and a sphere query's own `@n=` must equal it.  Every integer the
user writes (a dimension, an index, an exponent) is ASCII digits only.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import clifford, reference, sphere
from .residue import (Pieces, evaluate_labels, part1_top_norm_exponent,
                      with_children)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_PIPE = 141  # 128 + SIGPIPE: a reader closed stdout or stderr

# The largest trace word length, total sphere degree and dimension a query
# accepts, and the largest concrete dimension of either subcommand.  Every
# number printed within these bounds stays far below the interpreter's
# 4300-digit limit on printing an integer.
QUERY_LIMIT = 1000

# an integer on the command line or in a query is ASCII digits only; int()
# would also take signs, spaces, underscores and other scripts' digits
_DIGITS = re.compile(r"[0-9]+")


def _natural(text: str) -> int | None:
    """The value of a string of ASCII digits, or None for any other string
    (and for one past the interpreter's digit limit)."""
    if not _DIGITS.fullmatch(text):
        return None
    try:
        return int(text)
    except ValueError:
        return None


class QueryError(Exception):
    def __init__(self, message, pos=None):
        super().__init__(message)
        self.pos = pos


# ---------------------------------------------------------------------------
# ledger evaluation and report rendering


def evaluate_ledger(labels: list[str], ref: dict, tables: dict,
                    pieces: Pieces) -> dict[str, dict]:
    """Report entries for the labels, in ledger order: the engine's value
    ({atom: Scalar}), its status against the `tables` parsed from `ref`, and
    the note and printed table that `ref` stores, as written, if any.  The
    symbol pieces built on the way stay in `pieces`."""
    entries = {}
    for lab, value in evaluate_labels(labels, pieces).items():
        if lab not in labels:
            continue
        entry = {"value": value,
                 "status": reference.compare_entry(value, tables, lab)}
        note = ref.get("notes", {}).get(lab)
        if note:
            entry["note"] = note
        printed = ref.get("printed", {}).get(lab)
        if printed is not None:
            entry["printed"] = printed
        entries[lab] = entry
    return entries


def _entry_str(value: dict, latex=False) -> str:
    if not value:
        return "0"
    bits = []
    for atom, p in sorted(value.items()):
        shown = atom if not latex else atom.replace("|V|^2", "|V|^{2}")
        bits.append(f"({p.render(latex)}) {shown}")
    return " + ".join(bits)


def _substitute(value: dict, m: int) -> str:
    """Concrete-dimension rendering with the units substituted: TrId is
    2^(2m) and Vol the volume of S^(2m-1)."""
    trid = 2 ** (2 * m)
    vol_rat, vol_pi = sphere.vol_sphere_value(m)
    bits = []
    for atom, p in sorted(value.items()):
        total = p.evaluate(m) * trid * vol_rat
        bits.append(f"({total})*pi^{vol_pi} {atom}")
    return " + ".join(bits) if bits else "0"


def canonical_json(payload: dict) -> str:
    # a Scalar is written as its coefficients, ascending
    return json.dumps(payload, sort_keys=True, indent=2,
                      default=lambda p: [str(c) for c in p.coeffs()]) + "\n"


def cmd_verify(args) -> int:
    # the Part I norm-exponent diagnostic runs with the Einstein ledger
    diagnose = args.functional != "metric" and not args.term
    try:
        if args.golden:
            with open(args.golden, encoding="utf-8") as fh:
                ref = json.load(fh)
        else:
            ref = reference.load_reference()
        tables, printed = reference.validate_reference(ref)
        if diagnose and printed is None:
            raise reference.ReferenceFormatError(
                "reference lacks printed_norm_exponents[part1-top], which "
                "the Einstein norm-exponent check needs")
    except (OSError, ValueError, RecursionError,
            reference.ReferenceFormatError) as exc:
        # ValueError covers malformed JSON, bytes that are not UTF-8 and
        # integers past the interpreter's digit limit
        print(f"golden file error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    tops = (("metric", "einstein") if args.functional == "both"
            else (args.functional,))
    labels = with_children(tops)
    if args.term:
        wanted = [t.strip() for ts in args.term for t in ts.split(",")]
        missing = [t for t in wanted if t not in labels]
        if missing:
            # quoted, so an empty item ("I-1,") is named too
            print(f"unknown term label(s): {', '.join(map(repr, missing))}",
                  file=sys.stderr)
            return EXIT_USAGE
        labels = wanted
    pieces = Pieces()
    entries = evaluate_ledger(labels, ref, tables, pieces)

    diagnostics = []
    if diagnose:
        # the ledger's Part I labels have built this piece already
        derived = part1_top_norm_exponent(pieces["par1_top"])
        diagnostics.append({
            "check": "part1-top-norm-exponent",
            "derived": _norm_str(derived),
            "printed": _norm_str(printed),
            "status": reference.compare_norm_exponent(derived, printed),
        })

    dim = args.dimension
    report = {
        "schema": "wittenres-report/1",
        "units": ref["units"],
        "dimension": dim,
        "bianchi": "on",
        "entries": entries,
        "diagnostics": diagnostics,
    }
    ok = all(e["status"] != reference.MISMATCH for e in entries.values())
    report["status"] = "pass" if ok else "mismatch"

    if args.format == "json":
        sys.stdout.write(canonical_json(report))
    else:
        latex = args.format == "latex"
        for lab, entry in report["entries"].items():
            line = f"{lab:8s} {_entry_str(entry['value'], latex=latex)}"
            line += f"   [{entry['status']}]"
            if dim != "symbolic":
                line += f"   = {_substitute(entry['value'], int(dim) // 2)}"
            print(line)
            if "note" in entry:
                print(f"         note: {entry['note']}")
        for d in diagnostics:
            print(f"norm-exponent check: derived {d['derived']} vs "
                  f"printed {d['printed']}   [{d['status']}]")
        print(f"overall: {report['status']}")
    return EXIT_OK if ok else EXIT_MISMATCH


def _norm_str(norm: tuple[int, int]) -> str:
    c0, c1 = norm
    out = f"{c1}m" if c1 else ""
    if c0:
        out += f"{c0:+d}" if out else str(c0)
    return out or "0"


# ---------------------------------------------------------------------------
# query subcommand


def _bounded(what: str, size: int) -> None:
    if size > QUERY_LIMIT:
        raise QueryError(f"{what} {size} is above {QUERY_LIMIT}")


def _parse_word(text: str, dim: int | None):
    """The word's generators; under a concrete dimension an index must be
    one of its frame indices 1..dim."""
    tokens = text.split()
    _bounded("word length", len(tokens))
    word = []
    pos = 0
    for tok in tokens:
        pos = text.index(tok, pos)
        low = tok.lower()
        fam, rest = ("h", low[4:]) if low.startswith("chat") else \
            (("c", low[1:]) if low.startswith("c") else (None, ""))
        k = _natural(rest)
        if fam is None or k is None or k < 1:
            raise QueryError(
                f"expected c<k> or chat<k>, got {tok!r}", pos)
        if dim is not None and k > dim:
            raise QueryError(f"generator {tok} is past dimension {dim}",
                             pos)
        word.append(clifford.c(k) if fam == "c" else clifford.chat(k))
        pos += len(tok)
    return tuple(word)


def _parse_sphere(text: str, dim: int | None):
    """The exponents and the dimension, from `@n=` or else from `dim`; an
    `@n=` that differs from a concrete `dim` is refused."""
    body, _, tail = text.partition("@")
    n = dim
    if tail:
        if not tail.startswith("n="):
            raise QueryError(f"expected n=<even>, got {tail!r}",
                             len(body) + 1)
        n = _natural(tail[2:])
        if n is None:
            raise QueryError(f"bad dimension {tail[2:]!r}", len(body) + 3)
        if n % 2 or n < 2:
            raise QueryError(f"dimension must be even and positive, got {n}",
                             len(body) + 3)
        _bounded("dimension", n)
        if dim is not None and n != dim:
            raise QueryError(f"dimension {n} conflicts with --dimension "
                             f"{dim}", len(body) + 3)
    pos = 0
    exps = []
    for part in body.split(","):
        pos = text.index(part, pos) if part else pos
        e = _natural(part.strip())
        if e is None:
            raise QueryError(f"bad exponent {part.strip()!r}", pos)
        exps.append(e)
        pos += len(part)
    _bounded("total degree", sum(exps))
    return exps, n


def cmd_query(args) -> int:
    try:
        dim = None if args.dimension == "symbolic" else int(args.dimension)
        if args.kind == "trace":
            val = clifford.concrete_trace(_parse_word(args.expression, dim))
            if dim is None:
                print(f"({val}) * TrId" if val else "0")
            else:
                print(val * 2 ** dim)
            return EXIT_OK
        exps, n = _parse_sphere(args.expression, dim)
        if n is None:
            raise QueryError("sphere query needs a dimension "
                             "(append @n=<even> or pass --dimension)")
        if len(exps) > n:
            raise QueryError(f"{len(exps)} exponents for dimension {n}")
        total = sphere.concrete_moment(exps, n)
        if total == 0:
            print("0")
        else:
            print(f"({total}) * Vol(S^{n - 1})")
        return EXIT_OK
    except QueryError as exc:
        loc = f" at position {exc.pos}" if exc.pos is not None else ""
        print(f"parse error{loc}: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _dimension(value: str) -> str:
    if value == "symbolic":
        return value
    n = _natural(value)
    if n is None:
        raise argparse.ArgumentTypeError(
            f"dimension must be 'symbolic' or an even integer >= 4, "
            f"got {value!r}")
    if n % 2 or n < 4:
        raise argparse.ArgumentTypeError(
            f"concrete dimension must be even and >= 4, got {n}")
    if n > QUERY_LIMIT:
        raise argparse.ArgumentTypeError(
            f"dimension {n} is above {QUERY_LIMIT}")
    return str(n)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wittenres",
        description="Exact verification of the metric and Einstein "
                    "spectral functionals for the Witten deformation.",
        epilog=f"exit status: {EXIT_OK} pass, {EXIT_MISMATCH} mismatch, "
               f"{EXIT_USAGE} usage error, {EXIT_PIPE} output closed")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the pipeline and diff against "
                                      "the reference ledger")
    v.add_argument("--dimension", type=_dimension, default="symbolic")
    v.add_argument("--functional", choices=("metric", "einstein", "both"),
                   default="both")
    v.add_argument("--format", choices=("text", "json", "latex"),
                   default="text")
    v.add_argument("--golden", help="path to an alternative reference "
                                    "ledger")
    v.add_argument("--term", action="append",
                   help="restrict to these labels (repeat or separate "
                        "with commas)")
    v.set_defaults(fn=cmd_verify)

    q = sub.add_parser("query", help="evaluate a one-off trace or sphere "
                                     "integral")
    q.add_argument("kind", choices=("trace", "sphere"))
    q.add_argument("expression",
                   help="e.g. \"c1 c2 chat1 chat2\" or \"2,0,0,0@n=4\"")
    q.add_argument("--dimension", type=_dimension, default="symbolic")
    q.set_defaults(fn=cmd_query)
    return ap


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        finally:  # argparse's help and usage errors exit through here
            sys.stdout.flush()
            sys.stderr.flush()
        status = args.fn(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # drop each closed stream, which would fail the flush at exit (120)
        for name in ("stdout", "stderr"):
            try:
                getattr(sys, name).flush()
            except OSError:
                setattr(sys, name, None)
        return EXIT_PIPE
    return status


if __name__ == "__main__":
    sys.exit(main())
