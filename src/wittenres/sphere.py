"""Exact monomial integrals over the unit cosphere.

A monomial xi_{g1}...xi_{g2k} integrates to the sum over all (2k-1)!!
perfect pairings of delta products, times Vol(S^{n-1})/(n(n+2)...(n+2k-2)).
Pairings are enumerated directly, leaving out pairs of two distinct concrete
indices, whose delta is zero; symbolic degrees here never exceed a handful.
The same signed enumeration gives `clifford.scalar_part`.
A monomial in concrete indices alone has the closed form `concrete_moment`,
and `vol_sphere_value` gives the volume unit itself.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod
from typing import Iterable

from .scalars import PolyM, P_ONE, RatM, Scalar
from .terms import F, Idx, Term, contract_deltas, label_counts


def pairings(slots):
    """Perfect pairings of the slots, each with its sign as a permutation.

    Pairing the first slot with slot j contributes (-1)^(j-1).  A pair of
    two distinct concrete indices is left out, since its delta is zero.
    """
    if not slots:
        yield (), 1
        return
    first = slots[0]
    for j in range(1, len(slots)):
        if (isinstance(first, int) and isinstance(slots[j], int)
                and first != slots[j]):
            continue
        for tail, sign in pairings(slots[1:j] + slots[j + 1:]):
            yield ((first, slots[j]),) + tail, sign if j % 2 else -sign


def _moment_scalar(k: int) -> Scalar:
    """1 / (n (n+2) ... (n+2k-2)) with n the symbol 2m, built reduced:
    2^-k over the monic m (m+1) ... (m+k-1)."""
    den = P_ONE
    for j in range(k):
        den = den * PolyM((j, 1))
    return Scalar(RatM(PolyM.const(Fraction(1, 2 ** k)), den, _reduced=True))


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


def integrate_monomial(indices: Iterable[Idx]) -> tuple[Term, ...]:
    """Integral of the xi-monomial with the given index slots over
    S^{2m-1}, in units of its volume.

    Returns delta-pairing terms; odd length integrates to zero.
    """
    slots = list(indices)
    if len(slots) % 2:
        return ()
    k = len(slots) // 2
    pref = _moment_scalar(k)
    out = []
    for pairing, _ in pairings(slots):
        fac = tuple(F("delta", (a, b)) for a, b in pairing)
        out.append(Term(pref, fac))
    return tuple(out)


def integrate_term(t: Term) -> tuple[Term, ...]:
    """Replace the xi factors of a term by their integral over the unit
    cosphere, where every norm power is one; x factors must be gone.

    Each pairing's deltas are applied at once (`terms.contract_deltas`):
    the xi labels move into the deltas one for one, so the term's label
    counts serve every pairing.
    """
    slots = [f.idx[0] for f in t.fac if f.kind == "xi"]
    integral = integrate_monomial(slots)
    if not integral:
        return ()
    # every pairing carries the same moment
    rest = Term(t.coeff * integral[0].coeff,
                tuple(f for f in t.fac if f.kind != "xi"), t.word)
    counts = label_counts(t)
    out = []
    for p in integral:
        paired = contract_deltas(rest, p.fac, counts)
        if paired is not None:
            out.append(paired)
    return tuple(out)

