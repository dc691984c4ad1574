import itertools
from fractions import Fraction

import oracle
import pytest
from oracle import at_m, sums_equal

from wittenres import clifford, sphere
from wittenres.scalars import Scalar
from wittenres.terms import F, Term, fct, normalize, wick


def total(terms, n):
    """Exact rational multiple of Vol for concrete-index pairing output."""
    out = Fraction(0)
    for t in terms:
        if all(f.idx[0] == f.idx[1] for f in t.fac):
            re, im = at_m(t.coeff, Fraction(n, 2))
            assert im == 0
            out += re
    return out


def at_n(terms, n):
    """The terms with each coefficient evaluated at m = n/2."""
    return [t._replace(coeff=Scalar.of(at_m(t.coeff, Fraction(n, 2))[0]))
            for t in terms]


def test_two_and_four_slot_formulas_symbolic():
    from wittenres.scalars import PolyM, P_ONE, RatM
    two = sphere.integrate_monomial(["g1", "g2"])
    assert len(two) == 1
    t = two[0]
    assert t.fac == (F("delta", ("g1", "g2")),)
    assert t.coeff == Scalar(RatM(P_ONE, PolyM((0, 2))))  # 1/n
    four = sphere.integrate_monomial(["g1", "g2", "g3", "g4"])
    assert len(four) == 3  # the three pairings
    for t in four:
        # 1/(n(n+2)) with n = 2m
        assert t.coeff == Scalar(RatM(P_ONE, PolyM((0, 4, 4))))


def test_odd_vanishes_and_degree_four_concrete():
    assert sphere.integrate_monomial([1, 1, 1]) == ()
    # x_1^4 over S^3 integrates to Vol/8
    assert total(sphere.integrate_monomial([1, 1, 1, 1]), 4) == \
        Fraction(1, 8)
    assert total(sphere.integrate_monomial([1, 1]), 4) == Fraction(1, 4)


def test_permutation_invariance():
    idx = ["a", "b", "c", "d"]
    base = normalize(sphere.integrate_monomial(idx))
    for perm in itertools.permutations(idx):
        assert sums_equal(sphere.integrate_monomial(list(perm)), base)


def test_recursion_cross_check():
    # I^{g1...g2k} = 1/(2(k-1)+n) [ delta^{g1 g2} I^{g3...} + ... ]
    for n in (4, 6):
        for k in (1, 2, 3):
            labs = [f"g{i}" for i in range(2 * k)]
            direct = normalize(at_n(sphere.integrate_monomial(labs), n))
            rec = []
            pref = Scalar.of(1, 2 * (k - 1) + n)
            for j in range(1, 2 * k):
                rest = labs[1:j] + labs[j + 1:]
                for t in at_n(sphere.integrate_monomial(rest), n):
                    rec.append(Term(t.coeff * pref,
                                    (fct("delta", labs[0], labs[j]),)
                                    + t.fac, (), t.norm))
            assert sums_equal(direct, rec)


def test_pairing_matches_gamma_oracle_spot():
    for n in (4, 6):
        for exps in ((2, 0, 0, 0), (2, 2, 0, 0), (4, 2, 0, 0),
                     (1, 1, 0, 0), (6, 0, 0, 0)):
            exps = exps + (0,) * (n - 4)
            indices = []
            for slot, e in enumerate(exps, start=1):
                indices.extend([slot] * e)
            got = total(sphere.integrate_monomial(indices), n)
            assert got == oracle.sphere_integral_exact(exps, n)
            assert sphere.concrete_moment(exps, n) == got


def _all_pairings(slots):
    """Every perfect pairing with its sign as a permutation."""
    if not slots:
        yield (), 1
        return
    for j in range(1, len(slots)):
        for tail, sign in _all_pairings(slots[1:j] + slots[j + 1:]):
            yield ((slots[0], slots[j]),) + tail, (-1) ** (j - 1) * sign


@pytest.mark.parametrize("slots", [
    [1, 2, "a", "b"], [1, "a", 2, 1, "b", 2], ["a", 1, "a", 2],
    [1, 2, 3, "a", "b", "c"], [2, 1, 1, 2, "a", "a"], [1, 1, 2, 3, 3, 2],
])
def test_pruned_pairings_equal_the_full_enumeration(slots):
    pruned = sphere.integrate_monomial(slots)
    full = [Term(pruned[0].coeff,
                 tuple(fct("delta", a, b) for a, b in pairing))
            for pairing, _ in _all_pairings(slots)]
    assert len(pruned) < len(full)
    assert normalize(pruned) == normalize(full)
    # signed: the scalar part of a c word, each pair contracting to -delta
    flip = (-1) ** (len(slots) // 2)
    signed = [Term(Scalar.of(sign * flip),
                   tuple(fct("delta", a, b) for a, b in pairing))
              for pairing, sign in _all_pairings(slots)]
    got = [Term(Scalar.of(sign), fac) for sign, fac, _
           in wick(tuple(clifford.c(i) for i in slots), full=True)]
    assert len(got) < len(signed)
    assert normalize(got) == normalize(signed)


def test_integrate_term_sets_unit_norm():
    # on the unit cosphere |xi|^2 is one, so a norm power integrates away
    t = Term(Scalar.of(1), (fct("xi", "a"), fct("xi", "a")), (), (2, 0))
    got = sphere.integrate_term(t)
    assert got == sphere.integrate_term(t._replace(norm=(0, 0)))
    assert got and all(x.norm == (0, 0) for x in got)


def test_vol_sphere():
    assert sphere.vol_sphere_value(2) == (Fraction(2), 2)    # 2 pi^2
    assert sphere.vol_sphere_value(3) == (Fraction(1), 3)    # pi^3
    for m in (0, -2):
        with pytest.raises(ValueError):
            sphere.vol_sphere_value(m)
