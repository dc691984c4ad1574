"""Batch command-line driver.

`wittenres verify` runs the functionals, diffs every labeled term against
the stored reference ledger, and reports MATCH / PAPER_TYPO / MISMATCH per
label (exit 0 only when nothing mismatches).  `wittenres query` evaluates
one-off traces and sphere integrals from a tiny expression grammar.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import clifford, reference, sphere
from .residue import (LEDGER_ORDER, TermLedger, compute_einstein_functional,
                      compute_metric_functional, part1_top_norm_exponent)
from .scalars import vol_sphere_value
from .tensor import ScalarInvariantExpr

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2

WORKERS_ENV = "WITTENRES_WORKERS"


class QueryError(Exception):
    def __init__(self, message, pos=None):
        super().__init__(message)
        self.pos = pos


# ---------------------------------------------------------------------------
# ledger evaluation (optionally fanned out over processes)

_PARTS = ("metric", "I", "II-1", "II-2", "II-3", "II-4", "II-5", "II-6")

_PART_LABELS = {
    "metric": ("metric",),
    "I": ("I-1", "I-2", "I-3", "I-4", "I-5", "I-6", "I-7"),
    "II-1": ("II-1-A", "II-1-B", "II-1-C", "II-1-D", "II-1-E"),
    "II-2": ("II-2",),
    "II-3": ("II-3-A", "II-3-B", "II-3-C", "II-3-D", "II-3-E", "II-3-F",
             "II-3-G"),
    "II-4": ("II-4-A", "II-4-B", "II-4-C"),
    "II-5": ("II-5",),
    "II-6": ("II-6",),
}


def _compute_part(part: str, bianchi: bool) -> dict[str, dict]:
    """Worker entry: evaluate one ledger part, JSON-safe output."""
    if part == "metric":
        return {"metric": _expr_json(compute_metric_functional(bianchi))}
    led = compute_einstein_functional(bianchi=bianchi)
    return {lab: _expr_json(led[lab]) for lab in _PART_LABELS[part]}


def _expr_json(expr: ScalarInvariantExpr) -> dict:
    return {atom: [str(c) for c in coeffs]
            for atom, coeffs in expr.coeff_lists().items()}


def _ledger_json(led: TermLedger) -> dict[str, dict]:
    return {lab: _expr_json(led[lab]) for lab in led.labels()}


def evaluate_ledger(bianchi: bool, workers: int) -> dict[str, dict]:
    """Label -> {atom -> coefficient list} for the full ledger."""
    # more processes than parts or CPUs cannot help, so the pool never
    # starts more than that, whatever was asked for
    workers = min(workers, len(_PARTS), os.cpu_count() or 1)
    if workers > 1:
        # fan the independent parts out; totals are reassembled exactly
        from concurrent.futures import ProcessPoolExecutor
        values: dict[str, dict] = {}
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futs = {part: pool.submit(_compute_part, part, bianchi)
                    for part in _PARTS}
            for part in _PARTS:
                values.update(futs[part].result())
        for total, members in (
                ("S1", _PART_LABELS["I"]),
                ("II-1", _PART_LABELS["II-1"]),
                ("II-3", _PART_LABELS["II-3"]),
                ("II-4", _PART_LABELS["II-4"])):
            values[total] = _sum_json(values[m] for m in members)
        values["S2"] = _sum_json(values[l] for l in
                                 ("II-1", "II-2", "II-3", "II-4", "II-5",
                                  "II-6"))
        values["einstein"] = _sum_json((values["S1"], values["S2"]))
        return {lab: values[lab] for lab in LEDGER_ORDER}
    led = compute_einstein_functional(bianchi=bianchi)
    return _ledger_json(led)


def _sum_json(parts) -> dict:
    acc: dict[str, list[Fraction]] = {}
    for part in parts:
        for atom, coeffs in part.items():
            cur = acc.setdefault(atom, [])
            for k, cstr in enumerate(coeffs):
                while len(cur) <= k:
                    cur.append(Fraction(0))
                cur[k] += Fraction(cstr)
    out = {}
    for atom, coeffs in sorted(acc.items()):
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if coeffs:
            out[atom] = [str(c) for c in coeffs]
    return out


# ---------------------------------------------------------------------------
# report rendering


def _poly_str(coeffs: list[str]) -> str:
    if not coeffs:
        return "0"
    parts = []
    for deg in range(len(coeffs) - 1, -1, -1):
        c = Fraction(coeffs[deg])
        if c == 0:
            continue
        mono = "" if deg == 0 else ("m" if deg == 1 else f"m^{deg}")
        mag = "" if (abs(c) == 1 and mono) else str(abs(c))
        body = (mag + ("*" if mag and mono else "") + mono) or str(abs(c))
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts) if parts else "0"


def _poly_latex(coeffs: list[str]) -> str:
    if not coeffs:
        return "0"
    parts = []
    for deg in range(len(coeffs) - 1, -1, -1):
        c = Fraction(coeffs[deg])
        if c == 0:
            continue
        mono = "" if deg == 0 else ("m" if deg == 1 else f"m^{{{deg}}}")
        a = abs(c)
        mag = "" if (a == 1 and mono) else (
            str(a) if a.denominator == 1
            else f"\\frac{{{a.numerator}}}{{{a.denominator}}}")
        body = (mag + (" " if mag and mono else "") + mono) or str(a)
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts) if parts else "0"


def _entry_str(value: dict, latex=False) -> str:
    if not value:
        return "0"
    render = _poly_latex if latex else _poly_str
    bits = []
    for atom, coeffs in sorted(value.items()):
        shown = atom if not latex else atom.replace("|V|^2", "|V|^{2}")
        bits.append(f"({render(coeffs)}) {shown}")
    return " + ".join(bits)


def _substitute(value: dict, m: int) -> str:
    """Concrete-dimension rendering with the tokens substituted."""
    trid = 2 ** (2 * m)
    vol_rat, vol_pi = vol_sphere_value(m)
    bits = []
    for atom, coeffs in sorted(value.items()):
        c = sum(Fraction(x) * m ** k for k, x in enumerate(coeffs))
        total = c * trid * vol_rat
        bits.append(f"({total})*pi^{vol_pi} {atom}")
    return " + ".join(bits) if bits else "0"


def canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def cmd_verify(args) -> int:
    if args.golden:
        try:
            with open(args.golden, encoding="utf-8") as fh:
                ref = json.load(fh)
            reference.validate_reference(ref)
        except (OSError, json.JSONDecodeError,
                reference.ReferenceFormatError) as exc:
            print(f"golden file error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        ref = reference.load_reference()

    try:
        workers = int(os.environ.get(WORKERS_ENV, "1"))
    except ValueError:
        print(f"bad {WORKERS_ENV} value", file=sys.stderr)
        return EXIT_USAGE

    bianchi = args.bianchi == "on"
    if args.functional == "metric":
        values = {"metric": _expr_json(compute_metric_functional(bianchi))}
    else:
        values = evaluate_ledger(bianchi, workers)
        if args.functional == "einstein":
            values.pop("metric", None)

    wanted = None
    if args.term:
        wanted = [t.strip() for ts in args.term for t in ts.split(",")]
        missing = [t for t in wanted if t not in values]
        if missing:
            print(f"unknown term label(s): {', '.join(missing)}",
                  file=sys.stderr)
            return EXIT_USAGE
        values = {lab: values[lab] for lab in wanted}

    statuses = {}
    for lab, val in values.items():
        stored = ref["values"].get(lab)
        if stored is None:
            statuses[lab] = reference.MISMATCH
            continue
        norm_stored = reference._coeffs(stored)
        norm_val = {a: tuple(Fraction(x) for x in cs)
                    for a, cs in val.items()}
        if norm_val != norm_stored:
            statuses[lab] = reference.MISMATCH
        else:
            printed = ref.get("printed", {}).get(lab)
            if printed is not None and reference._coeffs(printed) != norm_stored:
                statuses[lab] = reference.PAPER_TYPO
            else:
                statuses[lab] = reference.MATCH

    diagnostics = []
    if args.functional != "metric" and not wanted:
        derived = part1_top_norm_exponent()
        printed = reference.printed_part1_top_norm(ref)
        diagnostics.append({
            "check": "part1-top-norm-exponent",
            "derived": _norm_str(derived),
            "printed": _norm_str(printed),
            "status": (reference.MATCH if derived == printed
                       else reference.PAPER_TYPO),
        })

    dim = args.dimension
    report = {
        "schema": "wittenres-report/1",
        "units": ref.get("units", "TrId*Vol"),
        "dimension": dim,
        "bianchi": args.bianchi,
        "entries": {},
        "diagnostics": diagnostics,
    }
    for lab in (l for l in LEDGER_ORDER if l in values):
        entry = {"value": values[lab], "status": statuses[lab]}
        note = ref.get("notes", {}).get(lab)
        if note:
            entry["note"] = note
        printed = ref.get("printed", {}).get(lab)
        if printed is not None:
            entry["printed"] = printed
        report["entries"][lab] = entry

    ok = all(s != reference.MISMATCH for s in statuses.values())
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


def _parse_word(text: str):
    word = []
    pos = 0
    for tok in text.split():
        pos = text.index(tok, pos)
        low = tok.lower()
        fam, rest = ("h", low[4:]) if low.startswith("chat") else \
            (("c", low[1:]) if low.startswith("c") else (None, ""))
        if fam is None or not rest.isdigit() or int(rest) < 1:
            raise QueryError(
                f"expected c<k> or chat<k>, got {tok!r}", pos)
        word.append(clifford.c(int(rest)) if fam == "c"
                    else clifford.chat(int(rest)))
        pos += len(tok)
    return tuple(word)


def _parse_sphere(text: str):
    body, _, tail = text.partition("@")
    n = None
    if tail:
        if not tail.startswith("n="):
            raise QueryError(f"expected n=<even>, got {tail!r}",
                             len(body) + 1)
        try:
            n = int(tail[2:])
        except ValueError:
            raise QueryError(f"bad dimension {tail[2:]!r}", len(body) + 3)
        if n % 2 or n < 2:
            raise QueryError(f"dimension must be even and positive, got {n}",
                             len(body) + 3)
    pos = 0
    exps = []
    for part in body.split(","):
        pos = text.index(part, pos) if part else pos
        try:
            e = int(part.strip())
        except ValueError:
            raise QueryError(f"bad exponent {part.strip()!r}", pos)
        if e < 0:
            raise QueryError("exponents must be non-negative", pos)
        exps.append(e)
        pos += len(part)
    return exps, n


def cmd_query(args) -> int:
    try:
        if args.kind == "trace":
            word = _parse_word(args.expression)
            out = clifford.trace([clifford.word_term(word)])
            if not out:
                print("0")
                return EXIT_OK
            (term,) = out
            if args.dimension == "symbolic":
                print(f"({term.coeff}) * TrId")
            else:
                n = int(args.dimension)
                re, im = term.coeff.evaluate(Fraction(n, 2))
                val = (re + im * 1j) if im else re
                print(val * 2 ** n if not im else f"({val})*{2 ** n}")
            return EXIT_OK
        exps, n = _parse_sphere(args.expression)
        if n is None and args.dimension != "symbolic":
            n = int(args.dimension)
        if n is None:
            raise QueryError("sphere query needs a dimension "
                             "(append @n=<even> or pass --dimension)")
        if len(exps) < n:
            exps = exps + [0] * (n - len(exps))
        if len(exps) != n:
            raise QueryError(f"{len(exps)} exponents for dimension {n}")
        # expand the monomial indices and integrate symbolically
        indices = []
        for slot, e in enumerate(exps, start=1):
            indices.extend([slot] * e)
        total = Fraction(0)
        for t in sphere.integrate_monomial(indices, n):
            ok = all(f.idx[0] == f.idx[1] for f in t.fac)
            if ok:
                re, im = t.coeff.evaluate(Fraction(n, 2))
                total += re
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
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"dimension must be 'symbolic' or an even integer >= 4, "
            f"got {value!r}")
    if n % 2 or n < 4:
        raise argparse.ArgumentTypeError(
            f"concrete dimension must be even and >= 4, got {n}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wittenres",
        description="Exact verification of the metric and Einstein "
                    "spectral functionals for the Witten deformation.")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the pipeline and diff against "
                                      "the reference ledger")
    v.add_argument("--dimension", type=_dimension, default="symbolic")
    v.add_argument("--functional", choices=("metric", "einstein", "both"),
                   default="both")
    v.add_argument("--bianchi", choices=("on", "off"), default="on")
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
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
