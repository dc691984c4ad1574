import itertools
from fractions import Fraction

import pytest

from wittenres import oracle, sphere
from wittenres.scalars import Scalar, vol_sphere_value
from wittenres.terms import F, Term, fct, normalize, sums_equal


def total(terms, n):
    """Exact rational multiple of Vol for concrete-index pairing output."""
    out = Fraction(0)
    for t in terms:
        if all(f.idx[0] == f.idx[1] for f in t.fac):
            re, im = t.coeff.evaluate(Fraction(n, 2))
            assert im == 0
            out += re
    return out


def test_two_and_four_slot_formulas_symbolic():
    from wittenres.scalars import PolyM, P_ONE, RatM
    two = sphere.integrate_monomial(["g1", "g2"])
    assert len(two) == 1
    t = two[0]
    assert t.fac == (F("delta", ("g1", "g2")),) and t.vol == 1
    assert t.coeff == Scalar(RatM(P_ONE, PolyM((0, 2))))  # 1/n
    four = sphere.integrate_monomial(["g1", "g2", "g3", "g4"])
    assert len(four) == 3  # the three pairings
    for t in four:
        # 1/(n(n+2)) with n = 2m
        assert t.coeff == Scalar(RatM(P_ONE, PolyM((0, 4, 4))))


def test_odd_vanishes_and_degree_four_concrete():
    assert sphere.integrate_monomial([1, 1, 1], 4) == ()
    # x_1^4 over S^3 integrates to Vol/8
    assert total(sphere.integrate_monomial([1, 1, 1, 1], 4), 4) == \
        Fraction(1, 8)
    assert total(sphere.integrate_monomial([1, 1], 4), 4) == Fraction(1, 4)


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
            direct = normalize(sphere.integrate_monomial(labs, n))
            rec = []
            pref = Scalar.frac(1, 2 * (k - 1) + n)
            for j in range(1, 2 * k):
                rest = labs[1:j] + labs[j + 1:]
                for t in sphere.integrate_monomial(rest, n):
                    rec.append(Term(t.coeff * pref,
                                    (fct("delta", labs[0], labs[j]),)
                                    + t.fac, (), t.norm, t.trid, t.vol))
            assert sums_equal(direct, rec)


def test_pairing_matches_gamma_oracle_spot():
    for n in (4, 6):
        for exps in ((2, 0, 0, 0), (2, 2, 0, 0), (4, 2, 0, 0),
                     (1, 1, 0, 0), (6, 0, 0, 0)):
            exps = exps + (0,) * (n - 4)
            indices = []
            for slot, e in enumerate(exps, start=1):
                indices.extend([slot] * e)
            got = total(sphere.integrate_monomial(indices, n), n)
            assert got == oracle.sphere_integral_exact(exps, n)
            assert sphere.concrete_moment(exps, n) == got


def _all_pairings(slots):
    if not slots:
        yield ()
        return
    for j in range(1, len(slots)):
        for tail in _all_pairings(slots[1:j] + slots[j + 1:]):
            yield ((slots[0], slots[j]),) + tail


@pytest.mark.parametrize("slots", [
    [1, 2, "a", "b"], [1, "a", 2, 1, "b", 2], ["a", 1, "a", 2],
    [1, 2, 3, "a", "b", "c"], [2, 1, 1, 2, "a", "a"], [1, 1, 2, 3, 3, 2],
])
def test_pruned_pairings_equal_the_full_enumeration(slots):
    pruned = sphere.integrate_monomial(slots)
    full = [Term(pruned[0].coeff,
                 tuple(fct("delta", a, b) for a, b in pairing), (), (0, 0),
                 0, 1) for pairing in _all_pairings(slots)]
    assert len(pruned) < len(full)
    assert normalize(pruned) == normalize(full)


def test_integrate_term_requires_unit_norm():
    t = Term(Scalar.of(1), (fct("xi", "a"), fct("xi", "a")), (), (2, 0))
    with pytest.raises(ValueError):
        sphere.integrate_term(t)


def test_vol_sphere():
    assert vol_sphere_value(2) == (Fraction(2), 2)
    assert vol_sphere_value(3) == (Fraction(1), 3)
    for m in (0, -2):
        with pytest.raises(ValueError):
            vol_sphere_value(m)
