"""The normalize kernel against the loops it replaced.

`reference_finalize` enumerates every ordering of structurally equal factors
times every symmetry variant of every factor, and keeps the lexicographically
least presentation; a presentation reached with both signs makes the term
vanish.  `terms._finalize` must give the same result on every input.

`reference_normalize` is the driver loop before label counts and factor
keys travelled with a term: fresh counts and keys for every popped term,
one word rule at a time (`reference_word_once`, with each anticommutator
delta left to `_contract_once`), symmetrization over the xi / x monomial
dummies (`_monomial_groups` and `_symmetrize`, the pass `normalize` once
ran) and a second reduction for every reduced term, and a check that the
word is still sorted before it is finalized.  It runs the module's factor
rules and partner keys, and `normalize`, which no longer symmetrizes and
orders a word in one loop, must give the same result on every input.
"""

import importlib.util
import random
from itertools import chain, groupby, permutations, product
from math import prod
from pathlib import Path

import pytest
from oracle import word_term
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from wittenres import clifford, pdo, terms
from wittenres.scalars import S_ONE, Scalar
from wittenres.terms import (F, G, ContractViolation, NormalizeError, Term,
                             fct, label_counts, map_labels, normalize,
                             term_key)


def variants(f):
    """The factor's monoterm symmetry variants, each with its sign."""
    return [(F(f.kind, tuple(f.idx[p] for p in perm)), s)
            for perm, s in terms._VARIANTS[f.kind]]


def reference_finalize(t, counts):
    wmap = {}
    for g in t.word:
        if (isinstance(g.idx, str) and counts.get(g.idx) == 2
                and g.idx not in wmap):
            wmap[g.idx] = f"_d{len(wmap):02d}"
    word = tuple(G(g.fam, wmap.get(g.idx, g.idx)) if isinstance(g.idx, str)
                 else g for g in t.word)
    skeys = [terms._structural_key(f, counts) for f in t.fac]
    base = sorted(range(len(t.fac)), key=skeys.__getitem__)
    groups = [list(g) for _, g in groupby(base, key=skeys.__getitem__)]
    variant_lists = [variants(f) for f in t.fac]
    best = None
    seen = {}
    for parts in product(*(permutations(g) for g in groups)):
        ordering = [k for part in parts for k in part]
        for choice in product(*variant_lists):
            sign = prod(s for _, s in choice)
            sub = dict(wmap)
            fac = []
            for k in ordering:
                vf = choice[k][0]
                fac.append(F(vf.kind, tuple(
                    sub.setdefault(i, f"_d{len(sub):02d}")
                    if isinstance(i, str) and counts.get(i) == 2 else i
                    for i in vf.idx)))
            fac = tuple(fac)
            if seen.setdefault(fac, sign) != sign:
                return None
            key = tuple(terms.factor_key(f) for f in fac)
            if best is None or key < best[0]:
                best = (key, fac, sign)
    coeff = t.coeff if best[2] == 1 else -t.coeff
    return "done", Term(coeff, best[1], word, t.norm)


# each symbolic label is drawn at most twice: once it is free, twice a dummy
_LABELS = ("a", "b", "c", "d", "e", "f", "g")
_CONCRETE = (1, 2)


def reference_word_once(t, counts):
    """One word rewriting step toward normal order, or None if ordered:
    the rewritten terms, each anticommutator delta appended as a factor."""
    w = t.word
    keys = terms._partner_keys(w, counts,
                               terms._factor_facts(t, counts)[1])
    for p in range(len(w) - 1):
        g1, g2 = w[p], w[p + 1]
        if g1.fam == "h" and g2.fam == "c":
            nw = w[:p] + (g2, g1) + w[p + 2:]
            return [Term(-t.coeff, t.fac, nw, t.norm)]
        if g1.fam != g2.fam:
            continue
        sign = -S_ONE if g1.fam == "c" else S_ONE
        delta = (F("delta", (g1.idx, g2.idx)),)
        if g1.idx == g2.idx:
            coeff = t.coeff * sign
            if isinstance(g1.idx, str):
                coeff = coeff * terms.S_N
            return [Term(coeff, t.fac, w[:p] + w[p + 2:], t.norm)]
        if keys[p] == keys[p + 1]:
            cls, part, _ = keys[p][1]
            if cls == 2 and part[0] in terms._ONE_SLOT_RANKS:
                return [Term(t.coeff * sign, t.fac + delta,
                             w[:p] + w[p + 2:], t.norm)]
        if keys[p] > keys[p + 1]:
            return [Term(-t.coeff, t.fac, w[:p] + (g2, g1) + w[p + 2:],
                         t.norm),
                    Term(t.coeff * sign * Scalar.of(2), t.fac + delta,
                         w[:p] + w[p + 2:], t.norm)]
    return None


def reference_reduce(t):
    out = []
    stack = [t]
    while stack:
        cur = stack.pop()
        if cur.coeff.is_zero():
            continue
        counts = label_counts(cur)
        if any(c > 2 for c in counts.values()):
            raise ContractViolation("a label occurs more than twice")
        step = terms._contract_once(cur, counts)
        if step == "zero":
            continue
        if step is not None:
            stack.append(step[0])  # its counts are taken afresh
            continue
        wstep = reference_word_once(cur, counts)
        if wstep is not None:
            stack.extend(wstep)
            continue
        out.append(cur)
    return out


def _monomial_groups(t: Term, counts) -> list[list[str]]:
    """The dummy labels `_symmetrize` permutes: one list per monomial kind
    with at least two of them.  Labels paired with themselves (x_a x_a) or
    shared with the other kind are left out."""
    groups = []
    for kind, other in (("xi", "x"), ("x", "xi")):
        cross = {f.idx[0] for f in t.fac if f.kind == other}
        own = [f.idx[0] for f in t.fac if f.kind == kind]
        labs = [i for i in own
                if isinstance(i, str) and counts.get(i) == 2
                and own.count(i) == 1 and i not in cross]
        if len(labs) >= 2:
            groups.append(labs)
    return groups


def _symmetrize(t: Term, groups) -> list[Term]:
    """Average over permutations of each group of dummy xi (and x) monomial
    labels; the monomials are symmetric so this is value preserving.  The
    monomial slots keep their labels and every other occurrence moves."""
    labs = [lab for group in groups for lab in group]
    slots = [k for k, f in enumerate(t.fac)
             if f.kind in ("xi", "x") and f.idx[0] in labs]
    perms = list(product(*(permutations(group) for group in groups)))
    inv = Scalar.of(1, len(perms))
    out = []
    for parts in perms:
        moved = map_labels(t, dict(zip(labs, chain.from_iterable(parts))))
        fac = list(moved.fac)
        for k in slots:
            fac[k] = t.fac[k]
        out.append(Term(t.coeff * inv, tuple(fac), moved.word,
                        t.norm))
    return out


def reference_normalize(terms_in):
    acc = {}
    work = [(t, False) for t in terms_in]
    while work:
        t, symmetrized = work.pop()
        if t.coeff.is_zero():
            continue
        reduced = reference_reduce(t)
        if not symmetrized:
            for r in reduced:
                groups = _monomial_groups(r, label_counts(r))
                work.extend((s, True) for s in _symmetrize(r, groups))
            continue
        for r in reduced:
            counts = label_counts(r)
            skeys, fmap = terms._factor_facts(r, counts)
            keys = terms._partner_keys(r.word, counts, fmap)
            # the old loop relabelled and requeued an unsorted word here
            assert keys == sorted(keys), r
            out = terms._finalize(r, counts, skeys)
            if out is not None:
                key = term_key(out)
                prev = acc.get(key)
                acc[key] = out if prev is None else out._replace(
                    coeff=prev.coeff + out.coeff)
    return tuple(acc[key] for key in sorted(acc)
                 if not acc[key].coeff.is_zero())


@st.composite
def small_terms(draw, vectors=("u", "w", "xi"), max_word=2, fams=("c",)):
    kinds = (["riem"] * draw(st.integers(0, 2))
             + draw(st.lists(st.sampled_from(("ric", "delta")), max_size=2))
             + draw(st.lists(st.sampled_from(vectors), max_size=3)))
    left = dict.fromkeys(_LABELS, 2)

    def label():
        # a label drawn once is offered twice more, so most become dummies
        pool = ([lab for lab, n in left.items() if n]
                + [lab for lab, n in left.items() if n == 1] * 2
                + list(_CONCRETE))
        lab = draw(st.sampled_from(pool))
        if isinstance(lab, str):
            left[lab] -= 1
        return lab

    fac = tuple(fct(kind, *(label() for _ in range(terms.KIND_ARITY[kind])))
                for kind in draw(st.permutations(kinds)))
    word = tuple(G(draw(st.sampled_from(fams)), label())
                 for _ in range(draw(st.integers(0, max_word))))
    return Term(S_ONE, fac, word)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(small_terms())
def test_finalize_matches_exhaustive_reference(t):
    counts = label_counts(t)
    skeys = [terms._structural_key(f, counts) for f in t.fac]
    got = terms._finalize(t, counts, skeys)
    want = reference_finalize(t, counts)
    assert got == (None if want is None else want[1])


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(small_terms(vectors=("u", "w", "v", "xi", "x"),
                            max_word=6, fams=("c", "h")),
                min_size=1, max_size=3))
# the monomial tie, a crossed word pair, a tie behind a reorder, and an
# anticommutator branch that renames a label inside a Riemann factor, which
# then contracts to Ricci and folds to ricuw
@example([Term(S_ONE, (fct("xi", "a"), fct("xi", "b")),
               (G("h", "a"), G("h", "b")))])
@example([Term(S_ONE, (fct("u", "c"),), (G("c", "a"), G("c", "c"),
                                        G("c", "b"), G("c", "a")))])
@example([Term(S_ONE, (fct("x", "a"), fct("x", "b"), fct("ric", "c", 1)),
               (G("c", "c"), G("h", 2), G("c", "b"), G("c", "a")))])
@example([Term(S_ONE, (fct("riem", "a", "e", "b", "f"), fct("u", "e"),
                       fct("w", "f")), (G("c", "b"), G("c", "a")))])
def test_normalize_matches_reference_loop(ts):
    assert normalize(ts) == reference_normalize(ts)


@st.composite
def monomial_terms(draw):
    """A small term plus two or three xi (or x) monomial factors whose
    labels are dummies contracted into a vector, a Ricci slot or the
    word, so the reduced term has a group for `_symmetrize`."""
    base = draw(small_terms(vectors=("u", "w", "v", "xi", "x"), max_word=3,
                            fams=("c", "h")))
    kind = draw(st.sampled_from(("xi", "x")))
    fac, word = list(base.fac), list(base.word)
    for lab in ("p", "q", "r")[:draw(st.integers(2, 3))]:
        fac.append(fct(kind, lab))
        partner = draw(st.sampled_from(("u", "w", "v", "ric", "c", "h")))
        if partner in ("c", "h"):
            word.insert(draw(st.integers(0, len(word))), G(partner, lab))
        elif partner == "ric":
            fac.append(fct("ric", lab, draw(st.sampled_from(_CONCRETE))))
        else:
            fac.append(fct(partner, lab))
    return Term(S_ONE, tuple(draw(st.permutations(fac))), tuple(word))


@settings(max_examples=100, deadline=None)
@given(monomial_terms())
def test_each_monomial_permutation_normalizes_alike(t):
    """Why `normalize` needs no symmetrization pass: every permutation copy
    of a reduced term's monomial dummies, at the term's own coefficient,
    already has the term's normal form."""
    checked = 0
    for r, counts, _ in terms._reduce(t):
        groups = _monomial_groups(r, counts)
        if not groups:
            continue
        want = normalize([r])
        for copy in _symmetrize(r, groups):
            assert normalize([copy._replace(coeff=r.coeff)]) == want, copy
            checked += 1
    assume(checked)


def bench_workloads():
    """`bench/workloads.py`, loaded from its path: the inputs of the
    taylor_diff benchmark."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


# the taylor_diff benchmark seeds the kernel references run over
_TAYLOR_SEEDS = range(101, 105)


def _first_derivative_raw_terms(monkeypatch, seed):
    """The raw terms that x-differentiating the raw difference of the
    taylor_diff benchmark's comparison at `seed` hands to normalize (the
    comparison itself now cancels the difference first)."""
    inputs = bench_workloads().taylor_inputs(seed)
    a, b = inputs.derived, inputs.printed
    d = a + tuple(t._replace(coeff=-t.coeff) for t in b)
    seen = []

    def recorded(ts):
        seen.append(tuple(ts))
        return normalize(seen[-1])
    monkeypatch.setattr(pdo, "normalize", recorded)
    pdo.d_x_terms(d, pdo._fresh_labels((a, b), 1)[0], strict=False, xmax=1)
    monkeypatch.undo()
    (raw,) = seen
    return raw


def test_normalize_matches_reference_on_taylor_terms(monkeypatch):
    # 92 raw terms a seed; one seed gave 182 under the earlier kind ranks
    # (curvature ahead of the vector fields), so four seeds keep the sweep
    # at least as wide
    checked = 0
    for seed in _TAYLOR_SEEDS:
        raw = _first_derivative_raw_terms(monkeypatch, seed)
        assert normalize(raw) == reference_normalize(raw), seed
        checked += len(raw)
    assert checked == 368


def test_word_reorders_reuse_label_counts(monkeypatch):
    calls, fired = [], []
    counts_of, contract = terms.label_counts, terms._contract_once

    def counted(t):
        calls.append(t)
        return counts_of(t)

    def recorded(t, counts, fold_fields=True):
        step = contract(t, counts, fold_fields)
        if step not in (None, "zero"):
            fired.append(step[0])
        return step
    monkeypatch.setattr(terms, "label_counts", counted)
    monkeypatch.setattr(terms, "_contract_once", recorded)
    c, h = clifford.c, clifford.chat
    word = (c(4), c(3), c(2), c(1), h(2), h(1))
    got = normalize([word_term(word)])
    # seven transpositions, each with a swapped and a delta branch; the
    # word rules keep the labels, so only the input's counts are computed
    assert len(calls) == 1 and fired == []
    assert got == (Term(-S_ONE, (), (c(1), c(2), c(3), c(4), h(1), h(2))),)
    # anticommutator branches whose delta renames a dummy inside a factor
    # carry their counts: they put u_a w_a and xi_d xi_d together, the field
    # fold and the |xi|^2 rule fire on what they left, and the factor rules
    # carry the counts too, so they are computed for the input alone (3
    # times while each of the 2 factor-rule outputs was counted afresh)
    calls.clear()
    t = Term(S_ONE, (fct("u", "a"), fct("w", "b"), fct("xi", "d"),
                     fct("xi", "e")), (c("e"), c("b"), c("d"), c("a")))
    got = normalize([t])
    assert {tuple(f.kind for f in step.fac) for step in fired} == {
        ("u", "w"), ("guw",)}
    assert len(fired) == 2 and calls == [t]
    monkeypatch.undo()
    assert got == reference_normalize([t])
    assert len(got) == 4


def _prepass_terms(seed=101):
    """The raw difference the taylor_diff benchmark's comparison at `seed`
    merges and normalizes fold-free before differentiating it."""
    inputs = bench_workloads().taylor_inputs(seed)
    return inputs.derived + tuple(t._replace(coeff=-t.coeff)
                                  for t in inputs.printed)


def test_finalize_matches_exhaustive_reference_on_taylor_terms():
    # two Riemann factors and words of up to eight generators, past what
    # the hypothesis terms reach; 118 reduced terms a seed, where one seed
    # gave 383 under the earlier kind ranks, so four seeds keep the sweep
    # at least as wide
    reduced = [red for seed in _TAYLOR_SEEDS for t in _prepass_terms(seed)
               for red in terms._reduce(t, fold_fields=False)]
    assert len(reduced) == 472
    assert max(len(t.word) for t, _, _ in reduced) == 8
    for t, counts, skeys in reduced:
        want = reference_finalize(t, counts)
        got = terms._finalize(t, counts, skeys)
        assert got == (None if want is None else want[1]), t


def test_prepass_work_counts(monkeypatch):
    """Deterministic work counts of the seed-101 prepass: 36 input terms
    reduce to 118, and these cancel to nothing, since both sides reach the
    same normal forms.  The label counts are computed once per input term,
    and the factor facts and the partner keys once per ordered word: 120
    words, since the `c(u) chat(V) c(w) chat(V)` term of each side ends in
    a chat pair contracted into the two V factors, a one-slot tie, whose
    half-anticommutator branch is one more word to order.  While
    a delta branch patched the facts of the one factor it renamed
    (`_refresh_facts`), the factor facts were built 36 times in full and
    patched 82 times.

    Under the earlier kind ranks, which put the curvature factors ahead of
    the vector fields, the derived side was 60 terms instead of 21, the 75
    input terms reduced to 383 and merged to 50, and label_counts and
    _partner_keys ran 75 and 383 times (459 and 914 before the facts
    travelled with a term)."""
    raw = _prepass_terms()
    assert len(raw) == 36
    calls = {}
    for name in ("label_counts", "_factor_facts", "_partner_keys"):
        def counted(*args, _name=name, _original=getattr(terms, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args)
        monkeypatch.setattr(terms, name, counted)
    assert normalize(raw, fold_fields=False) == ()
    assert calls == {"label_counts": 36, "_factor_facts": 120,
                     "_partner_keys": 120}


def test_merge_prepass_work_counts(monkeypatch):
    """Deterministic work counts of the seed-101 comparison, which merges
    equal presentations before it normal orders: the 36 raw terms of the
    difference give 27 canonical presentations as written, 18 of which
    survive the merge; these reduce to 30 terms, whose 15 presentations
    all cancel.  `_finalize` runs 66 times, 36 in the merge and 30 in
    `normalize`, where `normalize` alone runs it 118 times
    (`test_prepass_work_counts`)."""
    raw = _prepass_terms()
    finalized, merged, reduced = [], [], []
    finalize, merge, reduce_ = terms._finalize, terms._merge, terms._reduce

    def counted_finalize(*args):
        finalized.append(args)
        return finalize(*args)

    def counted_merge(presentations):
        merged.append(merge(presentations))
        return merged[-1]

    def counted_reduce(t, fold_fields=True):
        out = reduce_(t, fold_fields)
        reduced.extend(out)
        return out
    monkeypatch.setattr(terms, "_finalize", counted_finalize)
    monkeypatch.setattr(terms, "_merge", counted_merge)
    monkeypatch.setattr(terms, "_reduce", counted_reduce)
    survivors = terms.merge_presentations(raw)
    assert (len(raw), len(merged[0]), len(survivors)) == (36, 27, 18)
    assert normalize(survivors, fold_fields=False) == ()
    assert (len(reduced), len(merged[1])) == (30, 15)
    assert len(finalized) == 66
    # the comparison itself does the same work
    inputs = bench_workloads().taylor_inputs(101)
    finalized.clear()
    assert pdo.terms_equal_taylor(inputs.derived, inputs.printed) is True
    assert len(finalized) == 66


def _ring(ends):
    """Four Riemann factors in a ring, opened by two vector endpoints."""
    head, tail = ends
    return Term(Scalar.of(3), (
        fct(head, "a"),
        fct("riem", "a", "b", "c", "d"),
        fct("riem", "b", "c", "e", "f"),
        fct("riem", "d", "e", "g", "h"),
        fct("riem", "f", "g", "h", "k"),
        fct(tail, "k"),
    ))


@pytest.mark.parametrize("ends", [("u", "w"), ("x", "x")])
def test_four_riemann_ring_is_canonical(ends):
    t = _ring(ends)
    base = normalize([t])
    assert base
    rng = random.Random(7)
    labels = sorted(label_counts(t))
    for _ in range(3):
        fresh = [f"r{k}" for k in rng.sample(range(100), len(labels))]
        assert normalize([map_labels(t, dict(zip(labels, fresh)))]) == base
    for k, f in enumerate(t.fac):
        for vf, s in variants(f):
            fac = t.fac[:k] + (vf,) + t.fac[k + 1:]
            coeff = t.coeff if s == 1 else -t.coeff
            assert normalize([Term(coeff, fac)]) == base
    for _ in range(3):
        fac = list(t.fac)
        rng.shuffle(fac)
        assert normalize([Term(t.coeff, tuple(fac))]) == base


def test_frontier_guard_raises_typed_error(monkeypatch):
    monkeypatch.setattr(terms, "_MAX_FRONTIER", 4)
    # the message names the slot, the factor kinds, the word length and
    # the candidate count.  The x endpoints sort after the curvature, so
    # the search meets the ring's symmetric Riemann slots before any
    # endpoint has named a dummy (a u endpoint, which sorts first, names
    # one early and keeps the frontier within the limit)
    with pytest.raises(NormalizeError, match=(
            r"^canonical search space too large: 32 candidates for a riem "
            r"slot, past the limit 4, in a term with factors "
            r"x riem riem riem riem x and a word of length 0$")):
        normalize([_ring(("x", "x"))])


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_normalize_is_idempotent_on_curvature_word():
    # the output's word is unsorted under its own partner keys, so a second
    # pass still rewrites it
    t = Term(S_ONE, (fct("ric", "c", "b"), fct("u", "a"),
                     fct("ric", "e", "d")),
             (clifford.c("e"), clifford.c("b")))
    once = normalize([t])
    assert normalize(once) == once
