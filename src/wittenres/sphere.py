"""Exact monomial integrals over the unit cosphere.

A monomial xi_{g1}...xi_{g2k} integrates to the sum over all (2k-1)!!
perfect pairings of delta products, times Vol(S^{n-1})/(n(n+2)...(n+2k-2)).
Pairings are enumerated directly, leaving out pairs of two distinct concrete
indices, whose delta is zero; symbolic degrees here never exceed a handful.
A monomial in concrete indices alone has the closed form `concrete_moment`.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Iterable

from .scalars import PolyM, P_ONE, RatM, Scalar
from .terms import F, Idx, Term


def _pairings(slots: list):
    """Perfect pairings of the slots, without pairs of two distinct concrete
    indices (their delta is zero)."""
    if not slots:
        yield ()
        return
    first = slots[0]
    for j in range(1, len(slots)):
        if (isinstance(first, int) and isinstance(slots[j], int)
                and first != slots[j]):
            continue
        rest = slots[1:j] + slots[j + 1:]
        for tail in _pairings(rest):
            yield ((first, slots[j]),) + tail


def _moment_scalar(k: int, n) -> Scalar:
    """1 / (n (n+2) ... (n+2k-2)) with n either an int or the symbol 2m."""
    if n == "sym":
        den = P_ONE
        for j in range(k):
            den = den * PolyM((2 * j, 2))
        return Scalar(RatM(P_ONE, den))
    return Scalar.of(concrete_moment((2,) * k, n))  # each (2-1)!! is 1


def concrete_moment(exponents: Iterable[int], n: int) -> Fraction:
    """Integral of prod_i xi_i^(e_i) over S^(n-1), in units of its volume.

    A concrete index pairs only with itself, so the pairing sum collapses to
    prod (e_i - 1)!! / (n (n+2) ... (n+|e|-2)); an odd exponent gives zero.
    """
    exps = list(exponents)
    if any(e % 2 for e in exps):
        return Fraction(0)
    num = prod(prod(range(e - 1, 0, -2)) for e in exps)
    return Fraction(num, prod(n + 2 * j for j in range(sum(exps) // 2)))


def integrate_monomial(indices: Iterable[Idx], n="sym") -> tuple[Term, ...]:
    """Integral of the xi-monomial with the given index slots.

    Returns delta-pairing terms carrying one VolSphere token; odd length
    integrates to zero.
    """
    slots = list(indices)
    if len(slots) % 2:
        return ()
    k = len(slots) // 2
    pref = _moment_scalar(k, n)
    out = []
    for pairing in _pairings(slots):
        fac = tuple(F("delta", (a, b)) for a, b in pairing)
        out.append(Term(pref, fac, (), (0, 0), 0, 1))
    return tuple(out)


def integrate_term(t: Term, n="sym") -> tuple[Term, ...]:
    """Replace the xi factors of a term by their cosphere integral.

    The norm power must already have been consumed (set to one) by the
    caller; x factors must be gone.
    """
    if t.norm != (0, 0):
        raise ValueError(f"norm power {t.norm} not reduced before "
                         "integration")
    slots = [f.idx[0] for f in t.fac if f.kind == "xi"]
    rest = tuple(f for f in t.fac if f.kind != "xi")
    out = []
    for p in integrate_monomial(slots, n):
        out.append(Term(t.coeff * p.coeff, rest + p.fac, t.word, (0, 0),
                        t.trid, t.vol + p.vol))
    return tuple(out)

