"""Abstract-index tensor terms: canonical form and collection.

Delta contraction and the curvature self-contractions are rules of
terms.normalize.

Sign conventions fixed here: Ric_ab = sum_l R_lalb and s = sum_a Ric_aa.
First Bianchi is a rule of terms.normalize too, so `canonicalize` is
normalize.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .scalars import Scalar
from .terms import Term, normalize

class CollectError(Exception):
    """A term survived to collection that is not an invariant atom."""


def bianchi_pass(terms: Iterable[Term]) -> tuple[Term, ...]:
    """The canonical form of the terms under first Bianchi, which is a rule
    of `terms.normalize` (`terms._first_bianchi`).  The name stays because
    the benchmark in `bench/` traces it."""
    return normalize(terms)


def canonicalize(terms: Iterable[Term]) -> tuple[Term, ...]:
    """`normalize` of a sum of terms; a single term is passed as a sum of
    one."""
    return normalize(terms)


ATOM_NAMES = {"scal": "s", "guw": "g(u,w)", "ricuw": "Ric(u,w)",
              "vsq": "|V|^2"}


def _atom_name(t: Term) -> str | None:
    """The printed name of the term's atom, such as "g(u,w)*s", or None
    when the term holds another factor, a Clifford word or a norm power."""
    if (t.word or t.norm != (0, 0)
            or any(f.kind not in ATOM_NAMES for f in t.fac)):
        return None
    kinds = sorted(f.kind for f in t.fac)
    return "*".join(ATOM_NAMES[k] for k in kinds) or "1"


class ScalarInvariantExpr:
    """Exact expression over the fully contracted invariant atoms, keyed
    by atom name."""

    def __init__(self, entries: dict | None = None):
        self.entries: dict[str, Scalar] = {}
        for k, v in (entries or {}).items():
            if not v.is_zero():
                self.entries[k] = v

    def is_zero(self) -> bool:
        return not self.entries

    def __add__(self, other):
        out = dict(self.entries)
        for k, v in other.entries.items():
            s = out.get(k)
            out[k] = v if s is None else s + v
        return ScalarInvariantExpr(out)

    def __sub__(self, other):
        out = dict(self.entries)
        for k, v in other.entries.items():
            s = out.get(k)
            out[k] = -v if s is None else s - v
        return ScalarInvariantExpr(out)

    def __eq__(self, other):
        return (isinstance(other, ScalarInvariantExpr)
                and self.entries == other.entries)

    def __hash__(self):
        return hash(frozenset(self.entries.items()))

    def check_real(self):
        for k, v in self.entries.items():
            if not v.is_real():
                raise ValueError(f"imaginary part survived in {k}: {v}")
        return self

    def coeff_lists(self) -> dict[str, list[Fraction]]:
        """Atom name -> ascending polynomial-in-m coefficients (exact)."""
        return {k: v.real_poly_coeffs()
                for k, v in sorted(self.entries.items())}

    def __str__(self):
        if not self.entries:
            return "0"
        bits = []
        for k, v in sorted(self.entries.items()):
            bits.append(f"({v}) * {k}")
        return " + ".join(bits)

    __repr__ = __str__


def collect(terms: Iterable[Term]) -> ScalarInvariantExpr:
    """Group fully contracted canonical terms by invariant atom.

    Terms with leftover indexed factors (free indices, derivative atoms,
    unrecognized kinds), a Clifford word or a norm power raise CollectError
    naming the first offender.
    """
    entries: dict[str, Scalar] = {}
    bad = []
    for t in terms:
        key = _atom_name(t)
        if key is None:
            bad.append(t)
            continue
        s = entries.get(key)
        entries[key] = t.coeff if s is None else s + t.coeff
    if bad:
        raise CollectError(
            f"{len(bad)} term(s) are not invariant atoms "
            f"(first: {bad[0].fac} word={bad[0].word})")
    return ScalarInvariantExpr(entries)
