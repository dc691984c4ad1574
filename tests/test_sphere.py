import itertools
from fractions import Fraction

import oracle
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracle import at_m, sums_equal
from test_canonical_search import small_terms

from wittenres import clifford, sphere
from wittenres.scalars import S_ONE, Scalar
from wittenres.terms import F, Term, fct, normalize, wick


def xi_integral(indices, k=None):
    """The cosphere integral of the xi-monomial with these index slots, in
    units of Vol(S^{2m-1}) / moment_denominator(k), with k half the number
    of slots unless given.  The package's xi factors are components of
    eta = i xi, so a monomial of degree 2j is written with the weight
    (-1)^j = i^(-2j); one of odd degree integrates to zero."""
    return sphere.integrate_term(
        Term(Scalar.of((-1) ** (len(indices) // 2)),
             tuple(fct("xi", i) for i in indices)),
        len(indices) // 2 if k is None else k)


def evaluated(indices, n):
    """(value, term) for each term of `xi_integral` of the slots, its value
    the coefficient at m = n/2 as a rational multiple of Vol(S^{n-1})."""
    m = Fraction(n, 2)
    den = sphere.moment_denominator(len(indices) // 2).evaluate(m)
    out = []
    for t in xi_integral(indices):
        out.append((at_m(t.coeff, m) / den, t))
    return out


def at_n(indices, n):
    """`xi_integral` of the slots with each coefficient evaluated at
    m = n/2, in units of Vol(S^{n-1})."""
    return [t._replace(coeff=Scalar.of(v)) for v, t in evaluated(indices, n)]


def total(indices, n):
    """Exact rational multiple of Vol for concrete-index pairing output."""
    return sum((v for v, t in evaluated(indices, n)
                if all(f.idx[0] == f.idx[1] for f in t.fac)), Fraction(0))


def test_two_and_four_slot_formulas_symbolic():
    from wittenres.scalars import PolyM
    two = xi_integral(["g1", "g2"])
    assert len(two) == 1
    t = two[0]
    assert t.fac == (F("delta", ("g1", "g2")),)
    # 1/n with n = 2m
    assert t.coeff == S_ONE and sphere.moment_denominator(1) == PolyM((0, 2))
    four = xi_integral(["g1", "g2", "g3", "g4"])
    assert len(four) == 3  # the three pairings
    # 1/(n(n+2))
    assert all(t.coeff == S_ONE for t in four)
    assert sphere.moment_denominator(2) == PolyM((0, 4, 4))
    # in the units of a degree-4 moment the degree-2 one, 1/n, is
    # (n+2)/(n(n+2))
    assert sphere.moment_denominator(2, 1) == PolyM((2, 2))
    assert xi_integral(["g1", "g2"], 2) == (t._replace(coeff=Scalar.poly(
        (2, 2))),)


def test_integrate_term_refuses_more_xi_factors_than_its_moment():
    # with no factor left for the missing pairs, the units would silently
    # be wrong
    with pytest.raises(ValueError, match="4 xi factors exceed"):
        xi_integral(["a", "b", "a", "b"], 1)
    assert xi_integral(["a", "b", "c"], 1) == ()  # odd: zero for every k


def test_odd_vanishes_and_degree_four_concrete():
    assert xi_integral([1, 1, 1]) == ()
    # x_1^4 over S^3 integrates to Vol/8
    assert total([1, 1, 1, 1], 4) == Fraction(1, 8)
    assert total([1, 1], 4) == Fraction(1, 4)


def test_permutation_invariance():
    idx = ["a", "b", "c", "d"]
    base = normalize(xi_integral(idx))
    for perm in itertools.permutations(idx):
        assert sums_equal(xi_integral(list(perm)), base)


def test_recursion_cross_check():
    # I^{g1...g2k} = 1/(2(k-1)+n) [ delta^{g1 g2} I^{g3...} + ... ]
    for n in (4, 6):
        for k in (1, 2, 3):
            labs = [f"g{i}" for i in range(2 * k)]
            direct = normalize(at_n(labs, n))
            rec = []
            pref = Scalar.of(1, 2 * (k - 1) + n)
            for j in range(1, 2 * k):
                rest = labs[1:j] + labs[j + 1:]
                for t in at_n(rest, n):
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
            got = total(indices, n)
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
    pruned = xi_integral(slots)
    full = [Term(S_ONE, tuple(fct("delta", a, b) for a, b in pairing))
            for pairing, _ in _all_pairings(slots)]
    # pairs of two distinct concrete indices are never built
    assert len(list(sphere.pairings(slots))) < len(full)
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
    got = sphere.integrate_term(t, 1)
    assert got == sphere.integrate_term(t._replace(norm=(0, 0)), 1)
    assert got and all(x.norm == (0, 0) for x in got)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(small_terms(vectors=("u", "w", "v", "xi"), max_word=6,
                            fams=("c", "h"), blocks=True),
                min_size=1, max_size=3))
def test_integration_and_trace_commute(x):
    """Both stages are linear sums over pairings with their deltas applied,
    so integrating before the fiber trace gives the normal form that the
    trace's normal form, integrated, gives."""
    k = max(sum(1 for f in t.fac if f.kind == "xi") // 2 for t in x)
    integrated_first = [u for t in x for u in sphere.integrate_term(t, k)]
    traced_first = normalize(clifford.trace(x))
    assert (normalize(clifford.trace(integrated_first))
            == normalize([u for t in traced_first
                          for u in sphere.integrate_term(t, k)]))


def test_vol_sphere():
    assert sphere.vol_sphere_value(2) == (Fraction(2), 2)    # 2 pi^2
    assert sphere.vol_sphere_value(3) == (Fraction(1), 3)    # pi^3
    for m in (0, -2):
        with pytest.raises(ValueError):
            sphere.vol_sphere_value(m)
