"""Clifford word algebra over the two anticommuting generator families.

The c family squares to -1 on unit frame vectors, the hat family to +1, and
the families anticommute.  Words carry tensor-valued coefficients through
the shared Term type; vector-argument generators are always expanded at
construction into component factor times frame generator.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .scalars import S_ONE, Scalar
from .terms import ContractViolation, F, G, Idx, Term, normalize

Word = tuple[G, ...]


def c(i: Idx) -> G:
    return G("c", i)


def chat(i: Idx) -> G:
    return G("h", i)


def word_term(word: Sequence[G], coeff: Scalar = S_ONE,
              fac: Sequence[F] = ()) -> Term:
    return Term(coeff, tuple(fac), tuple(word))


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


def scalar_part(w: Word) -> tuple[Term, ...]:
    """Scalar component of a single-family word as a signed delta sum.

    Recursive contraction against the first generator; odd words vanish.
    The c family contracts to -delta, the hat family to +delta.
    """
    w = tuple(w)
    fams = {g.fam for g in w}
    if len(fams) > 1:
        raise ContractViolation("scalar_part requires a single-family word")
    if not w:
        return (Term(S_ONE, ()),)
    if len(w) % 2:
        return ()
    pair_sign = Fraction(-1) if w[0].fam == "c" else Fraction(1)
    out = []
    for j in range(1, len(w)):
        rest = w[1:j] + w[j + 1:]
        swap = Fraction(-1) ** (j - 1)
        coeff = Scalar.of(swap * pair_sign)
        delta = F("delta", (w[0].idx, w[j].idx))
        for sub in scalar_part(rest):
            out.append(Term(coeff * sub.coeff, (delta,) + sub.fac))
    return tuple(out)


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

    Words split into their c and hat parts (with the anticommutation sign),
    each part contracts to its scalar component, and one tr[id] token is
    attached.  Linear over terms; normalized output.
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
        base = Scalar.of(sign) * t.coeff
        for a in sc_c:
            for b in sc_h:
                out.append(Term(base * a.coeff * b.coeff,
                                t.fac + a.fac + b.fac, (),
                                t.norm, t.trid + 1, t.vol))
    return normalize(out)
