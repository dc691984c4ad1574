"""Stored reference values and the literal A B product-symbol display.

The golden ledger records the published per-label values (with the two
documented corrections noted).  Comparison statuses: MATCH (derived equals
the stored and printed value), PAPER_TYPO (derived equals the stored value
while the printed line differs), MISMATCH (derived disagrees with the stored
value).  `ab_symbol_reference` transcribes the printed A B product-symbol
display verbatim; the package never calls it, and it stays here because the
benchmark's `taylor_diff` workload diffs the derived symbol against it.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from importlib import resources

from .clifford import c, chat
from .scalars import S_I, S_ONE, Scalar
from .terms import Term, fct

MATCH = "MATCH"
PAPER_TYPO = "PAPER_TYPO"
MISMATCH = "MISMATCH"


def load_reference() -> dict:
    with resources.files("wittenres.data").joinpath(
            "reference_ledger.json").open("r", encoding="utf-8") as fh:
        ref = json.load(fh)
    validate_reference(ref)
    return ref


class ReferenceFormatError(Exception):
    pass


# a coefficient is an integer or a fraction of integers, written out: no
# exponent, which Fraction would expand digit by digit, and no float
_COEFF = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _check_coeff(x, where: str) -> None:
    # a bad value can be any length; the message shows 40 characters
    if not (type(x) is int or isinstance(x, str) and _COEFF.fullmatch(x)):
        raise ReferenceFormatError(
            f"bad coefficient {x!r:.40} in {where}: expected an integer or "
            f"a string such as \"-1/6\"")
    try:
        Fraction(x)
    except (ValueError, ZeroDivisionError) as exc:
        raise ReferenceFormatError(
            f"bad coefficient {x!r:.40} in {where}") from exc


def validate_reference(ref) -> None:
    if not isinstance(ref, dict):
        raise ReferenceFormatError("reference file must be a JSON object")
    if ref.get("units") != "TrId*Vol":
        raise ReferenceFormatError("reference units must be 'TrId*Vol'")
    for section in ("values", "printed"):
        table = ref.get(section, {})
        if not isinstance(table, dict):
            raise ReferenceFormatError(f"{section} must be an object")
        for label, atoms in table.items():
            if not isinstance(atoms, dict):
                raise ReferenceFormatError(
                    f"{section}[{label}] must map atoms to coefficient lists")
            for atom, coeffs in atoms.items():
                if not isinstance(coeffs, list):
                    raise ReferenceFormatError(
                        f"{section}[{label}][{atom}] must be a list")
                for x in coeffs:
                    _check_coeff(x, f"{label}/{atom}")
    if "values" not in ref:
        raise ReferenceFormatError("reference file lacks a values table")
    notes = ref.get("notes", {})
    if not (isinstance(notes, dict)
            and all(isinstance(n, str) for n in notes.values())):
        raise ReferenceFormatError("notes must map labels to strings")
    norms = ref.get("printed_norm_exponents", {})
    if not isinstance(norms, dict):
        raise ReferenceFormatError("printed_norm_exponents must be an object")
    if "part1-top" in norms:
        pair = norms["part1-top"]
        if not (isinstance(pair, list) and len(pair) == 2
                and all(type(x) is int for x in pair)):
            raise ReferenceFormatError(
                "printed_norm_exponents[part1-top] must be a list of two "
                "integers")


def _coeffs(table: dict) -> dict[str, tuple[Fraction, ...]]:
    out = {}
    for atom, coeffs in table.items():
        fr = [Fraction(x) for x in coeffs]
        while fr and fr[-1] == 0:
            fr.pop()
        if fr:
            out[atom] = tuple(fr)
    return out


def compare_entry(expr, ref: dict, label: str) -> str:
    """Status of one ledger entry against the stored reference; a label
    the reference does not store is a MISMATCH."""
    if label not in ref["values"]:
        return MISMATCH
    stored = _coeffs(ref["values"][label])
    if _coeffs(expr.coeff_lists()) != stored:
        return MISMATCH
    printed = ref.get("printed", {}).get(label)
    if printed is not None and _coeffs(printed) != stored:
        return PAPER_TYPO
    return MATCH


def compare_norm_exponent(derived: tuple[int, int],
                          printed: tuple[int, int]) -> str:
    """Status of the derived |xi| exponent of the Part I top component
    against the printed one, which is a PAPER_TYPO where they differ."""
    return MATCH if derived == printed else PAPER_TYPO


def printed_part1_top_norm(ref: dict) -> tuple[int, int]:
    """The printed |xi| exponent of the Part I top component; a validated
    reference that lacks it raises ReferenceFormatError."""
    try:
        c0, c1 = ref["printed_norm_exponents"]["part1-top"]
    except KeyError:
        raise ReferenceFormatError(
            "reference lacks printed_norm_exponents[part1-top], which the "
            "Einstein norm-exponent check needs") from None
    return (c0, c1)


# ---------------------------------------------------------------------------
# literal transcription of the printed A B display


def ab_symbol_reference() -> dict[tuple[int, int], tuple[Term, ...]]:
    """The printed product-symbol displays for A B, with the connection
    coefficient's x-linear value substituted.

    Two slips in the printed order-zero display are corrected to the forms
    its own later use fixes: the two vector-derivative lines have their
    c(w) / c(e_gamma) arguments exchanged, and one c(v) reads c(u).
    """
    u, w, v = fct("u", "r"), fct("w", "k"), fct("v", "b")
    xi_f, xi_g = fct("xi", "f"), fct("xi", "g")
    riem = fct("riem", "l", "p", "t", "s")
    xl = fct("x", "l")
    riem2 = fct("riem", "e", "q", "z", "y")
    xe = fct("x", "e")

    sigma2 = (
        Term(-S_ONE, (u, xi_f, w, xi_g),
             (c("r"), c("f"), c("k"), c("g"))),
    )
    sigma1 = (
        Term(Scalar.of(1, 8) * S_I, (u, xi_f, w, riem, xl),
             (c("r"), c("f"), c("k"), c("p"), c("s"), c("t"))),
        Term(Scalar.of(-1, 8) * S_I, (u, xi_f, w, riem, xl),
             (c("r"), c("f"), c("k"), c("p"), chat("s"), chat("t"))),
        Term(Scalar.of(1, 8) * S_I, (u, riem, xl, w, xi_f),
             (c("r"), c("p"), c("s"), c("t"), c("k"), c("f"))),
        Term(Scalar.of(-1, 8) * S_I, (u, riem, xl, w, xi_f),
             (c("r"), c("p"), chat("s"), chat("t"), c("k"), c("f"))),
        Term(S_I, (u, xi_f, w, v), (c("r"), c("f"), c("k"), chat("b"))),
        Term(S_I, (u, v, w, xi_f), (c("r"), chat("b"), c("k"), c("f"))),
        Term(S_I, (u, fct("dw", "j", "g"), xi_f),
             (c("r"), c("j"), c("g"), c("f"))),
    )
    sigma0 = (
        Term(Scalar.of(1, 64), (u, riem, xl, w, riem2, xe),
             (c("r"), c("p"), c("s"), c("t"),
              c("k"), c("q"), c("y"), c("z"))),
        Term(Scalar.of(-1, 64), (u, riem, xl, w, riem2, xe),
             (c("r"), c("p"), c("s"), c("t"),
              c("k"), c("q"), chat("y"), chat("z"))),
        Term(Scalar.of(-1, 64), (u, riem2, xe, w, riem, xl),
             (c("r"), c("q"), chat("y"), chat("z"),
              c("k"), c("p"), c("s"), c("t"))),
        Term(Scalar.of(1, 64), (u, riem, xl, w, riem2, xe),
             (c("r"), c("p"), chat("s"), chat("t"),
              c("k"), c("q"), chat("y"), chat("z"))),
        Term(Scalar.of(1, 8), (u, riem, xl, w, v),
             (c("r"), c("p"), c("s"), c("t"), c("k"), chat("b"))),
        Term(Scalar.of(-1, 8), (u, riem, xl, w, v),
             (c("r"), c("p"), chat("s"), chat("t"), c("k"), chat("b"))),
        Term(Scalar.of(1, 8), (u, v, w, riem2, xe),
             (c("r"), chat("b"), c("k"), c("q"), c("y"), c("z"))),
        Term(Scalar.of(-1, 8), (u, v, w, riem2, xe),
             (c("r"), chat("b"), c("k"), c("q"), chat("y"), chat("z"))),
        Term(Scalar.of(1, 8), (u, fct("riem", "j", "p", "t", "s"), w),
             (c("r"), c("j"), c("k"), c("p"), c("s"), c("t"))),
        Term(Scalar.of(-1, 8), (u, fct("riem", "j", "p", "t", "s"), w),
             (c("r"), c("j"), c("k"), c("p"), chat("s"), chat("t"))),
        Term(Scalar.of(1, 8), (u, riem, xl, fct("dw", "j", "g")),
             (c("r"), c("j"), c("g"), c("p"), c("s"), c("t"))),
        Term(Scalar.of(-1, 8), (u, riem, xl, fct("dw", "j", "g")),
             (c("r"), c("j"), c("g"), c("p"), chat("s"), chat("t"))),
        Term(S_ONE, (u, fct("dw", "j", "g"), v),
             (c("r"), c("j"), c("g"), chat("b"))),
        Term(S_ONE, (u, fct("dv", "j", "b"), w),
             (c("r"), c("j"), c("k"), chat("b"))),
        Term(S_ONE, (u, v, w, fct("v", "b2")),
             (c("r"), chat("b"), c("k"), chat("b2"))),
    )
    return {(2, 0): sigma2, (1, 0): sigma1, (0, 0): sigma0}
