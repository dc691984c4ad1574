"""Abstract-index tensor terms: canonical form and collection.

Delta contraction and the curvature self-contractions are rules of
terms.normalize.

Sign conventions fixed here: Ric_ab = sum_l R_lalb and s = sum_a Ric_aa.
`canonicalize` is normalize followed, whenever a Riemann factor survives,
by the first-Bianchi pass, which rewrites Riemann terms whose canonical
pattern is maximal in its three-term cyclic orbit.  No sum the ledger
produces keeps a Riemann factor past normalize, so there the pass is never
entered.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .scalars import Scalar
from .terms import ATOM_KINDS, F, NormalizeError, Term, normalize, term_key

# rewrite steps after which bianchi_pass gives up
_MAX_BIANCHI_STEPS = 100000


class CollectError(Exception):
    """A term survived to collection that is not an invariant atom."""


def _bianchi_orbit(t: Term, k: int):
    """The three cyclic variants of the k-th Riemann factor, canonicalized."""
    f = t.fac[k]
    a, b, c, d = f.idx
    variants = ((a, b, c, d), (a, c, d, b), (a, d, b, c))
    out = []
    for idx in variants:
        nt = Term(t.coeff, t.fac[:k] + (F("riem", idx),) + t.fac[k + 1:],
                  t.word, t.norm)
        out.append(normalize([nt]))
    return out


def bianchi_pass(terms: Iterable[Term]) -> tuple[Term, ...]:
    """Eliminate, per cyclic orbit, the maximal Riemann pattern via
    R_abcd = -R_acdb - R_adbc.  Value preserving; terminates because every
    rewrite strictly lowers the pattern.  Past _MAX_BIANCHI_STEPS steps it
    raises NormalizeError."""
    work = list(terms)
    out = []
    steps = 0
    while work:
        steps += 1
        if steps > _MAX_BIANCHI_STEPS:
            raise NormalizeError(
                f"bianchi_pass did not terminate within {_MAX_BIANCHI_STEPS} "
                f"rewrite steps ({len(work)} term(s) still pending)")
        t = work.pop()
        ks = [k for k, f in enumerate(t.fac) if f.kind == "riem"]
        rewritten = False
        for k in ks:
            orig, cyc1, cyc2 = _bianchi_orbit(t, k)
            keys = [tuple(term_key(x) for x in branch)
                    for branch in (orig, cyc1, cyc2)]
            if (len(orig) == 1 and keys[0] > keys[1] and keys[0] > keys[2]):
                for branch in (cyc1, cyc2):
                    work.extend(Term(-x.coeff, x.fac, x.word, x.norm)
                                for x in branch)
                rewritten = True
                break
        if not rewritten:
            out.append(t)
    return normalize(out)


def canonicalize(terms: Term | Iterable[Term]) -> tuple[Term, ...]:
    if isinstance(terms, Term):
        terms = [terms]
    out = normalize(terms)
    if any(f.kind == "riem" for t in out for f in t.fac):
        out = bianchi_pass(out)
    return out


ATOM_NAMES = {"scal": "s", "guw": "g(u,w)", "ricuw": "Ric(u,w)",
              "vsq": "|V|^2"}


def _atom_name(t: Term) -> str | None:
    """The printed name of the term's atom, such as "g(u,w)*s", or None
    when the term holds another factor, a Clifford word or a norm power."""
    if (t.word or t.norm != (0, 0)
            or any(f.kind not in ATOM_KINDS for f in t.fac)):
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
