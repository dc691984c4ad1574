"""The normalize kernel against the loops it replaced.

`reference_finalize` enumerates every ordering of structurally equal factors
times every symmetry variant of every factor, and keeps the lexicographically
least presentation; a presentation reached with both signs makes the term
vanish.  `terms._finalize` must give the same result on every input.

`reference_normalize` is the driver loop before label counts and factor
keys travelled with a term: fresh counts and keys for every popped term,
symmetrization and a second reduction for every reduced term, and a check
that the word is still sorted before it is finalized.  It runs the module's
own rules, and `normalize` must give the same result on every input.
"""

import importlib.util
import random
from itertools import groupby, permutations, product
from math import prod
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from wittenres import clifford, pdo, terms
from wittenres.scalars import S_ONE, Scalar
from wittenres.terms import (F, G, ContractViolation, NormalizeError, Term,
                             fct, label_counts, map_labels, normalize,
                             term_key)


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
    variant_lists = [terms._variants(f) for f in t.fac]
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
    return "done", Term(coeff, best[1], word, t.norm, t.trid, t.vol)


# each symbolic label is drawn at most twice: once it is free, twice a dummy
_LABELS = ("a", "b", "c", "d", "e", "f", "g")
_CONCRETE = (1, 2)


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
            stack.append(step)
            continue
        wstep = terms._word_once(cur, counts,
                                 terms._factor_facts(cur, counts))
        if wstep is not None:
            stack.extend(term for term, _, _ in wstep)
            continue
        out.append(cur)
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
                groups = terms._monomial_groups(r, label_counts(r))
                work.extend((s, True) for s in terms._symmetrize(r, groups))
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
# the monomial tie, a crossed word pair, and a tie behind a reorder
@example([Term(S_ONE, (fct("xi", "a"), fct("xi", "b")),
               (G("h", "a"), G("h", "b")))])
@example([Term(S_ONE, (fct("u", "c"),), (G("c", "a"), G("c", "c"),
                                        G("c", "b"), G("c", "a")))])
@example([Term(S_ONE, (fct("x", "a"), fct("x", "b"), fct("ric", "c", 1)),
               (G("c", "c"), G("h", 2), G("c", "b"), G("c", "a")))])
def test_normalize_matches_reference_loop(ts):
    assert normalize(ts) == reference_normalize(ts)


def _first_derivative_raw_terms(monkeypatch):
    """The raw terms the first x-derivative of the taylor_diff benchmark's
    seed-101 comparison hands to normalize."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    inputs = workloads.taylor_inputs(101)
    a, b = inputs.derived, inputs.printed
    d = a + tuple(t._replace(coeff=-t.coeff) for t in b)
    seen = []

    def recorded(ts):
        seen.append(tuple(ts))
        return normalize(seen[-1])
    monkeypatch.setattr(pdo, "normalize", recorded)
    pdo.d_x_terms(d, pdo._fresh_labels((a, b), 1)[0], strict=False, xmax=1)
    (raw,) = seen
    return raw


def test_normalize_matches_reference_on_taylor_terms(monkeypatch):
    raw = _first_derivative_raw_terms(monkeypatch)
    assert len(raw) == 182
    assert normalize(raw) == reference_normalize(raw)


def test_word_reorders_reuse_label_counts(monkeypatch):
    calls = []
    original = terms.label_counts

    def counted(t):
        calls.append(t)
        return original(t)
    monkeypatch.setattr(terms, "label_counts", counted)
    c, h = clifford.c, clifford.chat
    word = (c(4), c(3), c(2), c(1), h(2), h(1))
    got = normalize([clifford.word_term(word)])
    # seven transpositions, each with a swapped and a delta branch; the
    # word rules keep the labels, so only the input's counts are computed
    assert len(calls) == 1
    assert got == (Term(-S_ONE, (), (c(1), c(2), c(3), c(4), h(1), h(2))),)


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
        for vf, s in terms._variants(f):
            fac = t.fac[:k] + (vf,) + t.fac[k + 1:]
            coeff = t.coeff if s == 1 else -t.coeff
            assert normalize([Term(coeff, fac)]) == base
    for _ in range(3):
        fac = list(t.fac)
        rng.shuffle(fac)
        assert normalize([Term(t.coeff, tuple(fac))]) == base


def test_frontier_guard_raises_typed_error(monkeypatch):
    monkeypatch.setattr(terms, "_MAX_FRONTIER", 4)
    with pytest.raises(NormalizeError):
        normalize([_ring(("u", "w"))])
