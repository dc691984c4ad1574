"""The x-degree cut in `pdo.terms_equal_taylor` against the unpruned loop.

The cut rests on one invariant: `normalize` keeps each term's number of x
factors and merges only equal presentations, so normalizing a sum equals
normalizing each x-degree part of it on its own.  A derivative lowers the
x-degree by at most one, so after derivative k a term with more than
xorder - k x factors cannot reach an origin comparison.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_canonical_search import small_terms

from wittenres.operators import symbol_of_a, symbol_of_b
from wittenres.pdo import (_fresh_labels, compose, d_x_terms, origin_terms,
                           terms_equal_taylor)
from wittenres.reference import ab_symbol_reference
from wittenres.scalars import S_ONE, Scalar
from wittenres.terms import (NormalizeError, Term, fct, label_counts,
                             map_labels, normalize, sums_equal, term_key)

XORDER = 2


def x_degree(t: Term) -> int:
    return sum(1 for f in t.fac if f.kind == "x")


@st.composite
def x_graded_sums(draw):
    """Random terms with x factors, some joined by a copy with renamed
    dummies, so that normalizing merges and cancels terms."""
    out = []
    for t in draw(st.lists(small_terms(vectors=("u", "w", "xi", "x")),
                           min_size=1, max_size=4)):
        coeff = Scalar.of(draw(st.sampled_from((-2, -1, 1, 3))))
        out.append(t._replace(coeff=coeff))
        if draw(st.booleans()):
            dummies = sorted(lab for lab, n in label_counts(t).items()
                             if n == 2)
            copy = map_labels(t, {lab: f"z{k}"
                                  for k, lab in enumerate(dummies)})
            other = Scalar.of(draw(st.sampled_from((-3, -1, 2))))
            out.append(copy._replace(coeff=coeff * other))
    return out


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(x_graded_sums())
def test_normalize_commutes_with_x_grading(terms):
    parts: dict[int, list[Term]] = {}
    for t in terms:
        parts.setdefault(x_degree(t), []).append(t)
    graded = []
    for deg, part in parts.items():
        normal = normalize(part)
        assert all(x_degree(t) == deg for t in normal)
        graded.extend(normal)
    assert normalize(terms) == tuple(sorted(graded, key=term_key))


def unpruned_taylor_equal(a, b, xorder=XORDER) -> bool:
    """The comparison without the cut: every derivative fully normalized."""
    labels = _fresh_labels((a, b), xorder)
    ca, cb = tuple(a), tuple(b)
    for k in range(xorder + 1):
        if not sums_equal(origin_terms(ca), origin_terms(cb)):
            return False
        if k < xorder:
            ca = d_x_terms(ca, labels[k], strict=False)
            cb = d_x_terms(cb, labels[k], strict=False)
    return True


@pytest.fixture(scope="module")
def seeded_pair():
    """The order-zero product symbol and the printed display, with the
    dummies renamed and the terms shuffled by seed 1."""
    rng = random.Random(1)

    def renamed(t):
        counts = label_counts(t)
        dummies = sorted(lab for lab, n in counts.items() if n == 2)
        return map_labels(t, {lab: f"y{k}"
                              for k, lab in enumerate(dummies)})

    derived = [renamed(t) for t in compose(symbol_of_a(), symbol_of_b(),
                                           [(0, 0)]).comps[(0, 0)].terms]
    printed = [renamed(t) for t in ab_symbol_reference()[(0, 0)]]
    rng.shuffle(derived)
    rng.shuffle(printed)
    return tuple(derived), tuple(printed)


@pytest.fixture(scope="module")
def unpruned_chains(seeded_pair):
    """Each side of the seeded pair and its unpruned x-derivatives."""
    labels = _fresh_labels(seeded_pair, XORDER)
    chains = []
    for side in seeded_pair:
        chain = [side]
        for lab in labels:
            chain.append(d_x_terms(chain[-1], lab, strict=False))
        chains.append(chain)
    return labels, chains


def test_seeded_pair_verdict_matches_unpruned(seeded_pair,
                                              unpruned_chains):
    _, (ca, cb) = unpruned_chains
    want = all(sums_equal(origin_terms(a), origin_terms(b))
               for a, b in zip(ca, cb))
    assert want is True
    assert terms_equal_taylor(*seeded_pair) is want


def test_cut_derivatives_are_the_low_degree_part(seeded_pair,
                                                 unpruned_chains):
    labels, chains = unpruned_chains
    for side, chain in zip(seeded_pair, chains):
        cut = side
        for k, lab in enumerate(labels):
            xmax = XORDER - k - 1
            cut = d_x_terms(cut, lab, strict=False, xmax=xmax)
            assert cut == tuple(t for t in chain[k + 1]
                                if x_degree(t) <= xmax)


def test_doubled_control_is_refused(seeded_pair):
    derived, printed = seeded_pair
    display = ab_symbol_reference()[(0, 0)]
    # the display's last term, u v w v, renamed as in the fixture
    (k,) = [k for k, t in enumerate(printed)
            if normalize([t]) == normalize([display[-1]])]
    doubled = list(printed)
    doubled[k] = printed[k]._replace(coeff=printed[k].coeff
                                     + printed[k].coeff)
    assert unpruned_taylor_equal(derived, doubled) is False
    assert terms_equal_taylor(derived, doubled) is False


def _with_extra(extra: Term):
    base = ab_symbol_reference()[(2, 0)]
    return base + (extra,), base


def test_difference_at_the_top_x_degree_is_seen():
    # ric(a,b) x_a x_b has second derivative 2 ric(j,l) at the origin
    extra = Term(S_ONE, (fct("ric", "a", "b"), fct("x", "a"),
                         fct("x", "b")))
    assert x_degree(extra) == XORDER
    a, b = _with_extra(extra)
    assert unpruned_taylor_equal(a, b) is False
    assert terms_equal_taylor(a, b) is False


def test_difference_above_the_top_x_degree_is_invisible():
    # three x factors survive two derivatives (the u factor keeps them)
    extra = Term(S_ONE, (fct("ric", "a", "b"), fct("x", "a"),
                         fct("x", "b"), fct("x", "c"), fct("u", "c")))
    assert x_degree(extra) == XORDER + 1
    a, b = _with_extra(extra)
    assert unpruned_taylor_equal(a, b) is True
    assert terms_equal_taylor(a, b) is True


def test_cut_still_checks_every_input_term():
    # all of its derivatives would be cut, but strict mode still refuses
    # the second derivative of a field
    t = Term(S_ONE, (fct("dw", "a", "b"), fct("x", "a"), fct("x", "b")))
    with pytest.raises(NormalizeError):
        d_x_terms([t], "j", xmax=0)
    assert d_x_terms([t], "j", strict=False, xmax=0) == ()
