"""Abstract-index tensor terms: canonical form and collection.

Delta contraction and the curvature self-contractions are rules of
terms.normalize.

Sign conventions fixed here: Ric_ab = sum_l R_lalb and s = sum_a Ric_aa.
The optional first-Bianchi pass rewrites Riemann terms whose canonical
pattern is maximal in its three-term cyclic orbit; for every sum this
pipeline produces the pass is a no-op, but it is available and tested.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .scalars import Scalar
from .terms import ATOM_KINDS, F, Term, normalize, term_key


class CollectError(Exception):
    """A term survived to collection that is not an invariant atom."""

    def __init__(self, message, leftovers=()):
        super().__init__(message)
        self.leftovers = tuple(leftovers)


def _bianchi_orbit(t: Term, k: int):
    """The three cyclic variants of the k-th Riemann factor, canonicalized."""
    f = t.fac[k]
    a, b, c, d = f.idx
    variants = ((a, b, c, d), (a, c, d, b), (a, d, b, c))
    out = []
    for idx in variants:
        nt = Term(t.coeff, t.fac[:k] + (F("riem", idx),) + t.fac[k + 1:],
                  t.word, t.norm, t.trid, t.vol)
        out.append(normalize([nt]))
    return out


def bianchi_pass(terms: Iterable[Term]) -> tuple[Term, ...]:
    """Eliminate, per cyclic orbit, the maximal Riemann pattern via
    R_abcd = -R_acdb - R_adbc.  Value preserving; terminates because every
    rewrite strictly lowers the pattern."""
    work = list(terms)
    out = []
    guard = 0
    while work:
        guard += 1
        if guard > 100000:
            raise RuntimeError("bianchi pass did not terminate")
        t = work.pop()
        ks = [k for k, f in enumerate(t.fac) if f.kind == "riem"]
        rewritten = False
        for k in ks:
            orig, cyc1, cyc2 = _bianchi_orbit(t, k)
            keys = [tuple(term_key(x) for x in branch)
                    for branch in (orig, cyc1, cyc2)]
            if (len(orig) == 1 and keys[0] > keys[1] and keys[0] > keys[2]):
                for branch in (cyc1, cyc2):
                    work.extend(Term(-x.coeff, x.fac, x.word, x.norm,
                                     x.trid, x.vol) for x in branch)
                rewritten = True
                break
        if not rewritten:
            out.append(t)
    return normalize(out)


def canonicalize(terms: Term | Iterable[Term],
                 bianchi: bool = True) -> tuple[Term, ...]:
    if isinstance(terms, Term):
        terms = [terms]
    out = normalize(terms)
    if bianchi and any(f.kind == "riem" for t in out for f in t.fac):
        out = bianchi_pass(out)
    return out


ATOM_NAMES = {"scal": "s", "guw": "g(u,w)", "ricuw": "Ric(u,w)",
              "vsq": "|V|^2"}


def _atom_key(t: Term) -> tuple:
    kinds = sorted(f.kind for f in t.fac)
    for f in t.fac:
        if f.kind not in ATOM_KINDS:
            raise CollectError(
                f"unrecognized factor in collected term: {f}", [t])
    if t.word:
        raise CollectError("Clifford word survived to collection", [t])
    return (tuple(kinds), t.norm, t.trid, t.vol)


def atom_label(key: tuple) -> str:
    kinds, norm, trid, vol = key
    parts = [ATOM_NAMES[k] for k in kinds] or ["1"]
    return "*".join(parts)


class ScalarInvariantExpr:
    """Exact expression over the fully contracted invariant atoms."""

    def __init__(self, entries: dict | None = None):
        self.entries: dict[tuple, Scalar] = {}
        for k, v in (entries or {}).items():
            if not v.is_zero():
                self.entries[k] = v

    @staticmethod
    def zero() -> "ScalarInvariantExpr":
        return ScalarInvariantExpr()

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
                raise ValueError(
                    f"imaginary part survived in {atom_label(k)}: {v}")
        return self

    def by_atom(self) -> dict[str, Scalar]:
        return {atom_label(k): v for k, v in sorted(self.entries.items())}

    def coeff_lists(self) -> dict[str, list[Fraction]]:
        """Atom name -> ascending polynomial-in-m coefficients (exact)."""
        return {atom_label(k): v.real_poly_coeffs()
                for k, v in sorted(self.entries.items())}

    def evaluate(self, m) -> dict[str, Fraction]:
        out = {}
        for k, v in sorted(self.entries.items()):
            re, im = v.evaluate(m)
            if im != 0:
                raise ValueError("imaginary coefficient")
            out[atom_label(k)] = re
        return out

    def __str__(self):
        if not self.entries:
            return "0"
        bits = []
        for k, v in sorted(self.entries.items()):
            bits.append(f"({v}) * {atom_label(k)}")
        return " + ".join(bits)

    __repr__ = __str__


def collect(terms: Iterable[Term]) -> ScalarInvariantExpr:
    """Group fully contracted canonical terms by invariant atom.

    Terms with leftover indexed factors (free indices, derivative atoms,
    unrecognized kinds) raise CollectError carrying the offenders.
    """
    entries: dict[tuple, Scalar] = {}
    bad = []
    for t in terms:
        try:
            key = _atom_key(t)
        except CollectError:
            bad.append(t)
            continue
        s = entries.get(key)
        entries[key] = t.coeff if s is None else s + t.coeff
    if bad:
        raise CollectError(
            f"{len(bad)} term(s) are not invariant atoms "
            f"(first: {bad[0].fac} word={bad[0].word})", bad)
    return ScalarInvariantExpr(entries)
