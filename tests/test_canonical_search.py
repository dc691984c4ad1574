"""The slot-by-slot canonical search against the exhaustive one it replaced.

`reference_finalize` enumerates every ordering of structurally equal factors
times every symmetry variant of every factor, and keeps the lexicographically
least presentation; a presentation reached with both signs makes the term
vanish.  `terms._finalize` must give the same result on every input.
"""

import random
from itertools import groupby, permutations, product
from math import prod

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from wittenres import terms
from wittenres.scalars import S_ONE, Scalar
from wittenres.terms import (F, G, NormalizeError, Term, fct, label_counts,
                             map_labels, normalize)


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


@st.composite
def small_terms(draw, vectors=("u", "w", "xi")):
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
    word = tuple(G("c", label()) for _ in range(draw(st.integers(0, 2))))
    return Term(S_ONE, fac, word)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(small_terms())
def test_finalize_matches_exhaustive_reference(t):
    counts = label_counts(t)
    got = terms._finalize(t, counts)
    # an unsorted word is re-sorted before any search; that path is shared
    assume(got is None or got[0] == "done")
    assert got == reference_finalize(t, counts)


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
