"""Abstract-index tensor terms: canonical form and collection.

`collect` turns a canonical sum of fully contracted terms into the value
the report prints: a plain dict from invariant atom name, such as
"g(u,w)*s", to its polynomial in m (a `Scalar`), with no zero atom.

Delta contraction and the curvature self-contractions are rules of
terms.normalize.

Sign conventions fixed here: Ric_ab = sum_l R_lalb and s = sum_a Ric_aa.
First Bianchi is a rule of terms.normalize too, so `canonicalize` is
normalize.
"""

from __future__ import annotations

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


def collect(terms: Iterable[Term]) -> dict[str, Scalar]:
    """Group fully contracted canonical terms by invariant atom, each
    atom's coefficients summed into one Scalar, zero atoms left out.

    Terms with leftover indexed factors (free indices, derivative atoms,
    unrecognized kinds), a Clifford word or a norm power raise CollectError
    naming the first offender.  The division by the cosphere moment, and
    with it the check that a density is polynomial in m, is
    `residue.wres_density`'s.
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
    return {key: s for key, s in entries.items() if not s.is_zero()}
