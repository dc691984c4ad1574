"""Clifford word algebra over the two anticommuting generator families.

The c family squares to -1 on unit frame vectors, the hat family to +1, and
the families anticommute.  Words carry tensor-valued coefficients through
the shared Term type; vector-argument generators are always expanded at
construction into component factor times frame generator, and every
generator a constructor makes is a block of its own (see `terms`).
"""

from __future__ import annotations

from itertools import groupby
from typing import Iterable

from .scalars import S_ONE
from .terms import ContractViolation, F, G, Idx, Term, paired_terms

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


def trace(terms: Iterable[Term]) -> tuple[Term, ...]:
    """Fiberwise trace over the exterior bundle, in units of tr[id].

    In the block basis only a word's wordless part has a trace: a block of
    distinct generators, or a C block times a CHAT block, is traceless.  So
    the trace of a term is the sum over the full pairings of its word,
    where every generator pairs with one of its family from another block:
    `terms.paired_terms` with full=True.  Linear over terms and not
    normalized: one wordless term per full pairing that does not vanish,
    with its sign and deltas applied, and its callers normalize.  The
    word's labels move into the deltas one for one, so a pairing holds a
    label as often as the input term, which must hold none more than
    twice.  The signs stay ints, so an emitted term's coefficient is the
    input's, negated at most once.
    """
    return tuple([p for t in terms for p in paired_terms(t, full=True)])
