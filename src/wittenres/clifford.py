"""Clifford word algebra over the two anticommuting generator families.

The c family squares to -1 on unit frame vectors, the hat family to +1, and
the families anticommute.  Words carry tensor-valued coefficients through
the shared Term type; vector-argument generators are always expanded at
construction into component factor times frame generator.
"""

from __future__ import annotations

from itertools import groupby
from typing import Iterable

from . import sphere
from .scalars import S_ONE
from .terms import (ContractViolation, F, G, Idx, Term, contract_deltas,
                    label_counts, normalize)

Word = tuple[G, ...]


def c(i: Idx) -> G:
    return G("c", i)


def chat(i: Idx) -> G:
    return G("h", i)


def c_vec(field: str, label: str) -> Term:
    """c(u) or c(w) expanded: component factor times frame generator."""
    if field not in ("u", "w"):
        raise ValueError(f"unknown c-family vector field {field!r}")
    return Term(S_ONE, (F(field, (label,)),), (c(label),))


def chat_v(label: str) -> Term:
    """chat(V) expanded into V-component times hat generator."""
    return Term(S_ONE, (F("v", (label,)),), (chat(label),))


def c_xi(label: str) -> Term:
    """c(xi) expanded: xi-component factor times frame generator."""
    return Term(S_ONE, (F("xi", (label,)),), (c(label),))


def scalar_part(w: Word) -> tuple[tuple[int, tuple[F, ...]], ...]:
    """Scalar component of a single-family word as a signed delta sum.

    One (sign, deltas) pair per perfect pairing of the generators
    (`sphere.pairings`), with one delta per pair and the sign of the pairing
    as an int; odd words vanish.  Each c pair contracts to -delta, each hat
    pair to +delta.  A pair of two distinct concrete indices is left out,
    since its delta is zero.
    """
    w = tuple(w)
    if len({g.fam for g in w}) > 1:
        raise ContractViolation("scalar_part requires a single-family word")
    if len(w) % 2:
        return ()
    flip = -1 if w and w[0].fam == "c" and len(w) // 2 % 2 else 1
    return tuple((sign * flip, tuple(F("delta", pair) for pair in pairs))
                 for pairs, sign in sphere.pairings([g.idx for g in w]))


def concrete_trace(word: Word) -> int:
    """tr(word) / tr(id) for a word in concrete indices: 1, -1 or 0.

    Distinct generators anticommute, so a stable sort by (family, index)
    multiplies the word by the sign of the sorting permutation.  Each equal
    pair then squares to -1 (c family) or +1 (hat family), and a leftover
    generator leaves a product of distinct generators, whose trace is zero.
    """
    word = tuple(word)
    if not all(isinstance(g.idx, int) for g in word):
        raise ContractViolation("concrete_trace needs concrete indices")
    order = sorted(range(len(word)), key=word.__getitem__)
    sign = 1
    seen = [False] * len(word)
    for start in range(len(word)):
        p, length = start, 0
        while not seen[p]:
            seen[p] = True
            p = order[p]
            length += 1
        if length and length % 2 == 0:  # an even cycle flips the sign
            sign = -sign
    for g, run in groupby(word[p] for p in order):
        k = len(list(run))
        if k % 2:
            return 0
        if g.fam == "c" and k // 2 % 2:
            sign = -sign
    return sign


def _family_split(word: Word):
    """Move every c generator left of every hat generator, counting sign."""
    cs, hs, swaps = [], [], 0
    for g in word:
        if g.fam == "c":
            swaps += len(hs)
            cs.append(g)
        else:
            hs.append(g)
    sign = -1 if swaps % 2 else 1
    return tuple(cs), tuple(hs), sign


def trace(terms: Iterable[Term]) -> tuple[Term, ...]:
    """Fiberwise trace over the exterior bundle.

    Words split into their c and hat parts (with the anticommutation sign)
    and each part contracts to its scalar component, so the value is in
    units of tr[id].  Linear over terms; normalized output.  The signs
    stay ints, so an emitted term's coefficient is the input's, negated at
    most once.

    `normalize` gets one term per pairing of the word, with no word and
    with the pairing's deltas already applied (`terms.contract_deltas`):
    the word's labels move into the deltas one for one, so the input
    term's label counts serve every pairing.
    """
    out = []
    for t in terms:
        cs, hs, sign = _family_split(t.word)
        sc_c = scalar_part(cs)
        if not sc_c:
            continue
        sc_h = scalar_part(hs)
        if not sc_h:
            continue
        counts = label_counts(t)
        for sa, fa in sc_c:
            for sb, fb in sc_h:
                coeff = t.coeff if sign * sa * sb > 0 else -t.coeff
                paired = contract_deltas(Term(coeff, t.fac, (), t.norm),
                                         fa + fb, counts)
                if paired is not None:
                    out.append(paired)
    return normalize(out)
