"""`pdo.terms_equal_taylor` against the loops it replaced.

It runs one derivative chain on the difference of its two sides, cut by
x-degree, after `merge_presentations` has summed the raw terms that are
equal as written.  The chain rests on two invariants of `normalize`.  It
is split linear: each input term is reduced on its own and equal
presentations are merged, so normalizing a sum equals merging the
normalized parts, and differentiating a difference equals differencing the
derivatives.  It keeps each term's number of x factors, so normalizing
commutes with grading by x-degree; a derivative lowers the x-degree by at
most one, so after derivative k a term with more than xorder - k x factors
cannot reach an origin comparison.  The merge keeps values and, since
`normalize` reduces each term on its own, the normal form of the
presentations it sums.  Nothing but the origin part of the difference is
normalized before the first derivative, so the folds u_a w_a -> guw,
u_a ric_ab w_b -> ricuw and v_a v_a -> vsq, which turn a field pair into
a constant, run only after it.  `two_chain_taylor_equal`, one chain per
side, and `fold_after_derivative_taylor_equal`, one chain that normalizes
only its origin parts, are the references it must agree with.
"""

import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from oracle import TensorAssignment, sums_equal
from test_canonical_search import bench_workloads, small_terms, variants

from wittenres import pdo, terms
from wittenres.operators import symbol_of_a, symbol_of_b
from wittenres.pdo import (_fresh_labels, compose, d_x_terms, origin_terms,
                           terms_equal_taylor)
from wittenres.reference import ab_symbol_reference
from wittenres.scalars import S_ONE, Scalar
from wittenres.terms import (ContractViolation, G, NormalizeError, Term,
                             _finalize, fct, label_counts,
                             map_labels, merge_presentations, normalize,
                             term_key)

XORDER = 2
FIELDS = ("u", "w", "v")
# c / chat words whose labels contract into u, w, v, x and xi slots
FIELD_WORD_TERMS = small_terms(vectors=FIELDS + ("xi", "x"), max_word=4,
                               fams=("c", "h"))


def x_degree(t: Term) -> int:
    return sum(1 for f in t.fac if f.kind == "x")


@st.composite
def x_graded_sums(draw, terms=small_terms(vectors=("u", "w", "xi", "x"))):
    """Random terms with x factors, some joined by a copy with renamed
    dummies, so that normalizing merges and cancels terms."""
    out = []
    for t in draw(st.lists(terms, min_size=1, max_size=4)):
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


def two_chain_taylor_equal(a, b, xorder=XORDER) -> bool:
    """The cut comparison with one derivative chain per side."""
    lab = _fresh_labels((a, b), xorder)
    ca, cb = tuple(a), tuple(b)
    for k in range(xorder + 1):
        if not sums_equal(origin_terms(ca), origin_terms(cb)):
            return False
        if k == xorder:
            break
        cut = xorder - k - 1
        ca = d_x_terms(ca, lab[k], strict=False, xmax=cut)
        cb = d_x_terms(cb, lab[k], strict=False, xmax=cut)
    return True


def fold_after_derivative_taylor_equal(a, b, xorder=XORDER) -> bool:
    """The one-chain comparison without the merge or any normalize between
    the derivatives: the raw difference is differentiated, and only its
    origin parts are normalized."""
    lab = _fresh_labels((a, b), xorder)
    d = tuple(a) + tuple(t._replace(coeff=-t.coeff) for t in b)
    for k in range(xorder + 1):
        if normalize(origin_terms(d)):
            return False
        if k < xorder:
            d = d_x_terms(d, lab[k], strict=False, xmax=xorder - k - 1)
    return True


def merge(*sums) -> tuple[Term, ...]:
    """Sort by presentation, sum the coefficients of equal presentations
    and drop zeros: the last step of `normalize`."""
    acc: dict[tuple, Term] = {}
    for t in (t for terms in sums for t in terms):
        key = term_key(t)
        if key in acc:
            t = t._replace(coeff=acc[key].coeff + t.coeff)
        acc[key] = t
    return tuple(acc[key] for key in sorted(acc)
                 if not acc[key].coeff.is_zero())


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(x_graded_sums(), st.data())
def test_normalize_is_split_linear(terms, data):
    where = data.draw(st.lists(st.booleans(), min_size=len(terms),
                               max_size=len(terms)))
    p = [t for t, left in zip(terms, where) if left]
    q = [t for t, left in zip(terms, where) if not left]
    assert normalize(p + q) == merge(normalize(p), normalize(q))


@st.composite
def equal_copies(draw, sums=x_graded_sums()):
    """A sum, a copy of equal value and a copy with one coefficient changed.

    The equal copy renames every term's dummies, shuffles the terms and
    splits one coefficient as a = b + (a - b)."""
    terms = draw(sums)
    copy = []
    for n, t in enumerate(terms):
        dummies = sorted(lab for lab, c in label_counts(t).items() if c == 2)
        copy.append(map_labels(t, {lab: f"r{n}_{k}"
                                   for k, lab in enumerate(dummies)}))
    k = draw(st.integers(0, len(copy) - 1))
    part = Scalar.of(draw(st.sampled_from((-1, 2, 5))))
    split = copy[k]
    copy[k] = split._replace(coeff=part)
    copy.append(split._replace(coeff=split.coeff - part))
    copy = draw(st.permutations(copy))
    changed = list(copy)
    changed[0] = changed[0]._replace(coeff=changed[0].coeff + S_ONE)
    return terms, copy, changed


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(equal_copies())
def test_one_chain_agrees_with_two_chains(case):
    terms, copy, changed = case
    assert terms_equal_taylor(terms, copy) is True
    assert two_chain_taylor_equal(terms, copy) is True
    assert (terms_equal_taylor(terms, changed)
            is two_chain_taylor_equal(terms, changed))


def test_raw_inputs_are_differentiated_first():
    # u_a w_a and guw agree at the origin, but only u_a w_a has an
    # x-derivative; normalizing before differentiating would fold it away
    uw = Term(S_ONE, (fct("u", "a"), fct("w", "a")))
    guw = Term(S_ONE, (fct("guw"),))
    assert normalize([uw]) == normalize([guw])
    assert terms_equal_taylor([uw], [guw]) is False
    assert two_chain_taylor_equal([uw], [guw]) is False
    assert fold_after_derivative_taylor_equal([uw], [guw]) is False


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(equal_copies(x_graded_sums(FIELD_WORD_TERMS)))
def test_one_chain_agrees_with_two_chains_on_field_words(case):
    # field pairs under Clifford words: the two chains differentiate them
    # before any fold, an independent route to the same verdicts
    ts, copy, changed = case
    assert terms_equal_taylor(ts, copy) is True
    assert two_chain_taylor_equal(ts, copy) is True
    assert (terms_equal_taylor(ts, changed)
            is two_chain_taylor_equal(ts, changed))


@pytest.fixture(scope="module")
def workloads():
    return bench_workloads()


@pytest.mark.parametrize("seed", [2, 101, 205])
def test_seeded_inputs_agree_with_fold_after_derivative(workloads, seed):
    inputs = workloads.taylor_inputs(seed)
    doubled = workloads.with_control_doubled(inputs)
    for pair, want in ((inputs, True), (doubled, False)):
        assert terms_equal_taylor(pair.derived, pair.printed) is want
        assert (fold_after_derivative_taylor_equal(pair.derived,
                                                   pair.printed) is want)


def test_seed_sweep_verdicts(workloads):
    """Over the taylor_diff seeds 101-120 each pair is equal and each
    doubled control is not.  Any kind rank order gives a canonical form;
    a term normalize left short of it would turn an equal pair False."""
    for seed in range(101, 121):
        inputs = workloads.taylor_inputs(seed)
        doubled = workloads.with_control_doubled(inputs)
        assert terms_equal_taylor(inputs.derived,
                                  inputs.printed) is True, seed
        assert terms_equal_taylor(doubled.derived,
                                  doubled.printed) is False, seed


def test_derivatives_see_the_cancelled_difference(workloads, monkeypatch):
    """A count, not a time: the chain's x-derivatives of the seed-101
    taylor_diff comparison return at most 12 terms in all.  They return
    none, since the merge cancels the whole difference; the bound is the
    12 they returned when curvature ranked ahead of the vector fields in
    the normal order (140 when the raw difference was differentiated)."""
    inputs = workloads.taylor_inputs(101)
    sizes = []
    original = pdo.d_x_terms

    def counted(*args, **kwargs):
        out = original(*args, **kwargs)
        sizes.append(len(out))
        return out
    monkeypatch.setattr(pdo, "d_x_terms", counted)
    assert terms_equal_taylor(inputs.derived, inputs.printed) is True
    assert len(sizes) == XORDER
    assert sum(sizes) <= 12


def test_doubled_control_normalizes_only_the_origin_part(workloads,
                                                         monkeypatch):
    """A count: on the seed-101 doubled control the merge leaves one term
    of the difference, the doubled u v w v, which has no x factor.  Before
    the first derivative only the origin part of the merged difference is
    normalized: that one term, in one `_reduce` call (3 when the whole
    difference was normalized first).  It survives, so nothing is
    differentiated."""
    doubled = workloads.with_control_doubled(workloads.taylor_inputs(101))
    sizes, reduced = [], []
    normalize_, reduce_ = pdo.normalize, terms._reduce

    def counted_normalize(ts):
        ts = list(ts)
        sizes.append(len(ts))
        return normalize_(ts)

    def counted_reduce(t):
        reduced.append(t)
        return reduce_(t)

    def differentiated(*args, **kwargs):
        raise AssertionError("the origin part alone decides")
    monkeypatch.setattr(pdo, "normalize", counted_normalize)
    monkeypatch.setattr(terms, "_reduce", counted_reduce)
    monkeypatch.setattr(pdo, "d_x_terms", differentiated)
    assert terms_equal_taylor(doubled.derived, doubled.printed) is False
    assert (sizes, len(reduced)) == ([1], 1)


@st.composite
def contracted_field_sums(draw):
    """Wordless sums whose labels are all dummies: each free label of a
    small term is closed by one more field or monomial factor."""
    out = []
    for t in draw(st.lists(small_terms(vectors=FIELDS + ("xi", "x"),
                                       max_word=0),
                           min_size=1, max_size=3)):
        counts = label_counts(t)
        assume(len(counts) <= 5)
        extra = tuple(fct(draw(st.sampled_from(FIELDS + ("xi", "x"))), lab)
                      for lab, n in sorted(counts.items()) if n == 1)
        out.append(Term(Scalar.of(draw(st.sampled_from((-2, 1, 3)))),
                        t.fac + extra))
    return out


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(contracted_field_sums())
def test_normalize_preserves_values_of_contracted_fields(ts):
    assign = TensorAssignment(11, 4)
    assert assign.evaluate(normalize(ts)) == assign.evaluate(ts)


def presentations(ts) -> list[Term]:
    """Each term's canonical presentation as written, none merged."""
    out = []
    for t in ts:
        out.append(_finalize(t))
    return [t for t in out if t is not None]


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(x_graded_sums(FIELD_WORD_TERMS))
def test_merge_keeps_the_normal_form_of_the_presentations(ts):
    """`normalize` reduces each term on its own, so summing equal
    presentations first changes no normal form: neither that of the
    unmerged presentations nor, since a presentation has its term's
    value, that of the terms."""
    merged = merge_presentations(ts)
    assert len(merged) <= len(ts)
    assert normalize(merged) == normalize(presentations(ts)) == normalize(ts)


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(contracted_field_sums())
def test_merge_preserves_values(ts):
    # a renamed copy of the first term, so that the merge sums two
    ts = ts + [map_labels(t, {lab: f"z{lab}" for lab in label_counts(t)})
               for t in ts[:1]]
    assign = TensorAssignment(11, 4)
    merged = merge_presentations(ts)
    assert len(merged) < len(ts)
    assert assign.evaluate(merged) == assign.evaluate(ts)


def test_merge_keeps_the_normal_form_of_a_symmetric_pair():
    # ric(f,a) c_a c_f and its presentation ric(_d00,_d01) c_d00 c_d01 are
    # equal, 2 s each: the block c_a ^ c_f of a symmetric pair vanishes and
    # the pairing gives -delta_af
    t = Term(Scalar.of(-2), (fct("ric", "f", "a"),), (G("c", "a"),
                                                     G("c", "f")))
    assert normalize(merge_presentations([t])) == normalize([t]) == (
        Term(Scalar.of(2), (fct("scal"),)),)


@st.composite
def negated_copies(draw):
    """Small terms, and a copy of their negative: each term's dummies get
    fresh names, its factors are shuffled and one factor takes a symmetry
    variant with its sign, and the copy's terms are shuffled."""
    ts = draw(st.lists(FIELD_WORD_TERMS, min_size=1, max_size=3))
    copy = []
    for t in ts:
        dummies = sorted(lab for lab, n in label_counts(t).items() if n == 2)
        t = map_labels(t, {lab: f"z{k}" for k, lab in enumerate(dummies)})
        fac = list(draw(st.permutations(t.fac)))
        coeff = -t.coeff
        if fac:
            k = draw(st.integers(0, len(fac) - 1))
            fac[k], sign = draw(st.sampled_from(variants(fac[k])))
            coeff = coeff if sign == 1 else -coeff
        copy.append(Term(coeff, tuple(fac), t.word, t.norm))
    return ts, draw(st.permutations(copy))


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(negated_copies())
def test_merge_cancels_a_renamed_shuffled_negative(case):
    ts, copy = case
    assert merge_presentations(list(ts) + list(copy)) == []


def test_merge_refuses_a_label_used_three_times():
    t = Term(S_ONE, (fct("u", "a"), fct("w", "a")), (G("c", "a"),))
    with pytest.raises(ContractViolation, match="more than twice"):
        merge_presentations([t])


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
