"""Exact monomial integrals over the unit cosphere.

A monomial xi_{g1}...xi_{g2k} integrates to the sum over all (2k-1)!!
perfect pairings of delta products, times Vol(S^{n-1})/(n(n+2)...(n+2k-2)).
Those denominators are Pochhammer products in n = 2m, and
`moment_denominator` gives them as polynomials.  `integrate_term` applies
the rule to the xi factors of a term in units of Vol/moment_denominator(k),
for a k its caller fixes: it enumerates the pairings directly, leaving out
pairs of two distinct concrete indices, whose delta is zero, and multiplies
a term with fewer than k xi pairs by the missing factors, so no coefficient
gets a denominator in m; symbolic degrees here never exceed a handful.  A
monomial in concrete indices alone has the closed form `concrete_moment`,
and `vol_sphere_value` gives the volume unit itself.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod
from typing import Iterable

from .scalars import S_ONE, Scalar
from .terms import F, Term, contract_deltas


def pairings(slots):
    """Perfect pairings of the slots.  A pair of two distinct concrete
    indices is left out, since its delta is zero."""
    if not slots:
        yield ()
        return
    first = slots[0]
    for j in range(1, len(slots)):
        if (isinstance(first, int) and isinstance(slots[j], int)
                and first != slots[j]):
            continue
        for tail in pairings(slots[1:j] + slots[j + 1:]):
            yield ((first, slots[j]),) + tail


def moment_denominator(k: int, j: int = 0) -> Scalar:
    """(n+2j) (n+2j+2) ... (n+2k-2) with n the symbol 2m: for j = 0 the
    denominator n (n+2) ... (n+2k-2) of a degree-2k moment, and otherwise
    its quotient by the degree-2j one."""
    den = S_ONE
    for i in range(j, k):
        den = den * Scalar.poly((2 * i, 2))
    return den


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


def vol_sphere_value(m: int):
    """Exact Vol(S^{2m-1}) = 2*pi^m/(m-1)! as (rational, pi power)."""
    if m < 1:
        raise ValueError(f"half-dimension must be positive, got {m}")
    return Fraction(2, factorial(m - 1)), m


def integrate_term(t: Term, k: int) -> tuple[Term, ...]:
    """Replace the xi factors of a term by their integral over the unit
    cosphere, in units of Vol / moment_denominator(k), where every norm
    power is one and eta^e = (-1)^j xi^e for |e| = 2j (see `terms`); x
    factors must be gone.  An odd number of xi factors integrates to zero,
    and a term with j < k xi pairs takes moment_denominator(k, j).
    ValueError for more than 2k xi factors.

    Each pairing's deltas are applied at once (`terms.contract_deltas`):
    the xi labels move into the deltas one for one, so a pairing holds a
    label as often as the term, which must hold none more than twice.
    """
    slots = [f.idx[0] for f in t.fac if f.kind == "xi"]
    if len(slots) % 2:
        return ()
    j = len(slots) // 2
    if j > k:
        raise ValueError(f"{len(slots)} xi factors exceed the moment of "
                         f"degree {2 * k}: {t}")
    # every pairing carries the same weight
    coeff = t.coeff if j % 2 == 0 else -t.coeff
    if j < k:
        coeff = coeff * moment_denominator(k, j)
    rest = Term(coeff, tuple(f for f in t.fac if f.kind != "xi"), t.word)
    out = []
    for pairing in pairings(slots):
        paired = contract_deltas(rest, tuple(F("delta", p) for p in pairing))
        if paired is not None:
            out.append(paired)
    return tuple(out)
