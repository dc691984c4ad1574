"""Stored reference values and the literal A B product-symbol display.

The golden ledger records the published per-label values (with the two
documented corrections noted), each as {atom: coefficient list}, the list
ascending in m.  `validate_reference` is the one place a stored coefficient
is parsed, and it reads these keys of the JSON object:
- "units", which must be "TrId*Vol";
- "values", the stored table, which must be present, and "printed", the
  printed values it records;
- "notes", strings by label;
- "printed_norm_exponents", whose "part1-top" pair is the printed Part I
  |xi| exponent.
"schema" is not read.  The tables become ledger values, {atom: Scalar}
with no zero atom, so a trailing zero coefficient or an atom written as
zero changes no status.  `compare_entry` diffs against those.  Statuses:
MATCH (derived equals the stored and printed value), PAPER_TYPO (derived
equals the stored value while the printed line differs), MISMATCH (derived
disagrees with the stored value).  `ab_symbol_reference` transcribes the
printed A B product-symbol display verbatim, with its powers of i; the
package never calls it, and it stays here because the benchmark's
`taylor_diff` workload diffs the derived symbol against it.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from importlib import resources

from .clifford import c, chat
from .scalars import S_ONE, Scalar
from .terms import Term, fct

MATCH = "MATCH"
PAPER_TYPO = "PAPER_TYPO"
MISMATCH = "MISMATCH"


def load_reference() -> dict:
    """The packaged reference ledger as its JSON object, unchecked."""
    with resources.files("wittenres.data").joinpath(
            "reference_ledger.json").open("r", encoding="utf-8") as fh:
        return json.load(fh)


class ReferenceFormatError(Exception):
    pass


# a coefficient is an integer or a fraction of integers, written out: no
# exponent, which Fraction would expand digit by digit, and no float
_COEFF = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _coeff(x, where: str) -> Fraction:
    # a bad value can be any length; the message shows 40 characters
    if not (type(x) is int or isinstance(x, str) and _COEFF.fullmatch(x)):
        raise ReferenceFormatError(
            f"bad coefficient {x!r:.40} in {where}: expected an integer or "
            f"a string such as \"-1/6\"")
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError) as exc:
        raise ReferenceFormatError(
            f"bad coefficient {x!r:.40} in {where}") from exc


def validate_reference(ref) -> tuple[dict[str, dict[str, dict[str, Scalar]]],
                                     tuple[int, int] | None]:
    """The checked ledger's "values" and "printed" tables, each as {label:
    {atom: Scalar}}, and its printed Part I |xi| exponent, None when it
    has none; ReferenceFormatError names what is malformed."""
    if not isinstance(ref, dict):
        raise ReferenceFormatError("reference file must be a JSON object")
    if ref.get("units") != "TrId*Vol":
        raise ReferenceFormatError("reference units must be 'TrId*Vol'")
    if "values" not in ref:
        raise ReferenceFormatError("reference file lacks a values table")
    tables = {}
    for section in ("values", "printed"):
        table = ref.get(section, {})
        if not isinstance(table, dict):
            raise ReferenceFormatError(f"{section} must be an object")
        parsed = tables[section] = {}
        for label, atoms in table.items():
            if not isinstance(atoms, dict):
                raise ReferenceFormatError(
                    f"{section}[{label}] must map atoms to coefficient lists")
            value = parsed[label] = {}
            for atom, coeffs in atoms.items():
                if not isinstance(coeffs, list):
                    raise ReferenceFormatError(
                        f"{section}[{label}][{atom}] must be a list")
                p = Scalar.poly([_coeff(x, f"{label}/{atom}")
                                 for x in coeffs])
                if not p.is_zero():
                    value[atom] = p
    notes = ref.get("notes", {})
    if not (isinstance(notes, dict)
            and all(isinstance(n, str) for n in notes.values())):
        raise ReferenceFormatError("notes must map labels to strings")
    norms = ref.get("printed_norm_exponents", {})
    if not isinstance(norms, dict):
        raise ReferenceFormatError("printed_norm_exponents must be an object")
    pair = None
    if "part1-top" in norms:
        pair = norms["part1-top"]
        if not (isinstance(pair, list) and len(pair) == 2
                and all(type(x) is int for x in pair)):
            raise ReferenceFormatError(
                "printed_norm_exponents[part1-top] must be a list of two "
                "integers")
        pair = tuple(pair)
    return tables, pair


def compare_entry(value: dict[str, Scalar], tables: dict, label: str) -> str:
    """Status of one ledger value ({atom: Scalar}, no zero atom) against
    the tables `validate_reference` returned; a label the reference does
    not store is a MISMATCH."""
    stored = tables["values"].get(label)
    if stored is None or value != stored:
        return MISMATCH
    printed = tables["printed"].get(label)
    if printed is not None and printed != stored:
        return PAPER_TYPO
    return MATCH


def compare_norm_exponent(derived: tuple[int, int],
                          printed: tuple[int, int]) -> str:
    """Status of the derived |xi| exponent of the Part I top component
    against the printed one, which is a PAPER_TYPO where they differ."""
    return MATCH if derived == printed else PAPER_TYPO


# ---------------------------------------------------------------------------
# literal transcription of the printed A B display


class DisplayParityError(Exception):
    """A printed term whose power of i and xi count differ in parity."""


def eta_form(printed) -> tuple[Term, ...]:
    """A display printed in xi, in eta = i xi (see `terms`): a row (p,
    coeff, fac, word[, norm]) is i^p Term(coeff, fac, word, norm), whose k
    xi factors read xi_a = -i eta_a, so it is i^(p-k) times that Term.
    DisplayParityError names a term with p - k odd: a typo."""
    out = []
    for p, *fields in printed:
        t = Term(*fields)
        k = sum(1 for f in t.fac if f.kind == "xi")
        if (p - k) % 2:
            raise DisplayParityError(f"i^{p} with {k} xi factor(s): {t}")
        out.append(t if (p - k) % 4 == 0 else t._replace(coeff=-t.coeff))
    return tuple(out)


def ab_symbol_reference() -> dict[tuple[int, int], tuple[Term, ...]]:
    """The printed product-symbol displays for A B, with the connection
    coefficient's x-linear value substituted, converted by `eta_form`.

    Two slips in the printed order-zero display are corrected to the forms
    its own later use fixes: the two vector-derivative lines have their
    c(w) / c(e_gamma) arguments exchanged, and one c(v) reads c(u).
    """
    u, w, v = fct("u", "r"), fct("w", "k"), fct("v", "b")
    xi_f, xi_g = fct("xi", "f"), fct("xi", "g")
    dw = fct("dw", "j", "g")
    riem = fct("riem", "l", "p", "t", "s")
    xl = fct("x", "l")
    riem2 = fct("riem", "e", "q", "z", "y")
    xe = fct("x", "e")

    sigma2 = (
        (0, -S_ONE, (u, xi_f, w, xi_g), (c("r"), c("f"), c("k"), c("g"))),
    )
    sigma1 = (
        (1, Scalar.of(1, 8), (u, xi_f, w, riem, xl),
         (c("r"), c("f"), c("k"), c("p"), c("s"), c("t"))),
        (1, Scalar.of(-1, 8), (u, xi_f, w, riem, xl),
         (c("r"), c("f"), c("k"), c("p"), chat("s"), chat("t"))),
        (1, Scalar.of(1, 8), (u, riem, xl, w, xi_f),
         (c("r"), c("p"), c("s"), c("t"), c("k"), c("f"))),
        (1, Scalar.of(-1, 8), (u, riem, xl, w, xi_f),
         (c("r"), c("p"), chat("s"), chat("t"), c("k"), c("f"))),
        (1, S_ONE, (u, xi_f, w, v), (c("r"), c("f"), c("k"), chat("b"))),
        (1, S_ONE, (u, v, w, xi_f), (c("r"), chat("b"), c("k"), c("f"))),
        (1, S_ONE, (u, dw, xi_f), (c("r"), c("j"), c("g"), c("f"))),
    )
    sigma0 = (
        (0, Scalar.of(1, 64), (u, riem, xl, w, riem2, xe),
         (c("r"), c("p"), c("s"), c("t"), c("k"), c("q"), c("y"), c("z"))),
        (0, Scalar.of(-1, 64), (u, riem, xl, w, riem2, xe),
         (c("r"), c("p"), c("s"), c("t"),
          c("k"), c("q"), chat("y"), chat("z"))),
        (0, Scalar.of(-1, 64), (u, riem2, xe, w, riem, xl),
         (c("r"), c("q"), chat("y"), chat("z"),
          c("k"), c("p"), c("s"), c("t"))),
        (0, Scalar.of(1, 64), (u, riem, xl, w, riem2, xe),
         (c("r"), c("p"), chat("s"), chat("t"),
          c("k"), c("q"), chat("y"), chat("z"))),
        (0, Scalar.of(1, 8), (u, riem, xl, w, v),
         (c("r"), c("p"), c("s"), c("t"), c("k"), chat("b"))),
        (0, Scalar.of(-1, 8), (u, riem, xl, w, v),
         (c("r"), c("p"), chat("s"), chat("t"), c("k"), chat("b"))),
        (0, Scalar.of(1, 8), (u, v, w, riem2, xe),
         (c("r"), chat("b"), c("k"), c("q"), c("y"), c("z"))),
        (0, Scalar.of(-1, 8), (u, v, w, riem2, xe),
         (c("r"), chat("b"), c("k"), c("q"), chat("y"), chat("z"))),
        (0, Scalar.of(1, 8), (u, fct("riem", "j", "p", "t", "s"), w),
         (c("r"), c("j"), c("k"), c("p"), c("s"), c("t"))),
        (0, Scalar.of(-1, 8), (u, fct("riem", "j", "p", "t", "s"), w),
         (c("r"), c("j"), c("k"), c("p"), chat("s"), chat("t"))),
        (0, Scalar.of(1, 8), (u, riem, xl, dw),
         (c("r"), c("j"), c("g"), c("p"), c("s"), c("t"))),
        (0, Scalar.of(-1, 8), (u, riem, xl, dw),
         (c("r"), c("j"), c("g"), c("p"), chat("s"), chat("t"))),
        (0, S_ONE, (u, dw, v), (c("r"), c("j"), c("g"), chat("b"))),
        (0, S_ONE, (u, fct("dv", "j", "b"), w),
         (c("r"), c("j"), c("k"), chat("b"))),
        (0, S_ONE, (u, v, w, fct("v", "b2")),
         (c("r"), chat("b"), c("k"), chat("b2"))),
    )
    return {(2, 0): eta_form(sigma2), (1, 0): eta_form(sigma1),
            (0, 0): eta_form(sigma0)}
