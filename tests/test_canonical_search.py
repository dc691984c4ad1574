"""The normalize kernel against slower loops that reach the same forms.

`reference_finalize` enumerates every ordering of structurally equal factors
times every symmetry variant of every factor, names the dummies as
`terms._finalize` does (those of one-generator blocks first, in word order,
then the factors' in traversal order, then the word's own), sorts each block
with its sign and keeps the least presentation; a presentation reached with
both signs makes the term vanish.  `terms._finalize` must give the same
result on every input.

`reference_normalize` is a rewrite loop that checks the label counts of
every popped term, applies the delta factors it holds (`terms.contract_deltas`)
and then one factor rule at a time, and it expands a word by another route
than `terms.wick`: it multiplies the generators onto the block basis one at
a time (`reference_expand`), where a generator times a block is their wedge
plus its contraction with each generator of the block, the delta appended
to the factors.  It runs the module's delta rule, factor rules, block
rules, `_finalize` and first-Bianchi rewrite, and `normalize`, which
applies its input terms' deltas on entry, expands each word by its partial
pairings with their deltas applied at once and checks the counts of its
input terms alone, must give the same result on every input.
"""

import importlib.util
import random
from itertools import groupby, permutations, product
from math import prod
from pathlib import Path

import pytest
from oracle import word_term
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from wittenres import clifford, pdo, terms
from wittenres.residue import LEDGER, evaluate_labels
from wittenres.scalars import S_ONE, Scalar
from wittenres.terms import (F, G, ContractViolation, NormalizeError, Term,
                             fct, idx_key, label_counts, map_labels,
                             normalize, term_key)


def variants(f):
    """The factor's monoterm symmetry variants, each with its sign."""
    return [(F(f.kind, tuple(f.idx[p] for p in perm)), s)
            for perm, s in terms._VARIANTS[f.kind]]


def _blocks(word):
    """The word's blocks as lists of positions."""
    out = []
    for p, g in enumerate(word):
        if g.wedge and out:
            out[-1].append(p)
        else:
            out.append([p])
    return out


def _present_word(word, sub):
    """The word with its labels renamed by sub and each block sorted, with
    the sign of the sorting."""
    out, sign = [], 1
    for block in _blocks(word):
        gens = [(word[p].fam, sub.get(word[p].idx, word[p].idx))
                for p in block]
        keys = [(fam, idx_key(i)) for fam, i in gens]
        for a in range(len(keys)):
            for b in range(a + 1, len(keys)):
                if keys[a] > keys[b]:
                    sign = -sign
        for n, (fam, i) in enumerate(sorted(
                gens, key=lambda g: (g[0], idx_key(g[1])))):
            out.append(G(fam, i, n > 0))
    return tuple(out), sign


def reference_finalize(t):
    dummy = {i for i, c in label_counts(t).items() if c == 2}
    wmap = {}
    for block in _blocks(t.word):
        g = t.word[block[0]]
        if len(block) == 1 and g.idx in dummy and g.idx not in wmap:
            wmap[g.idx] = f"_d{len(wmap):02d}"
    skeys = [terms._structural_key(f, dummy) for f in t.fac]
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
                    if i in dummy else i for i in vf.idx)))
            for g in t.word:
                if g.idx in dummy:
                    sub.setdefault(g.idx, f"_d{len(sub):02d}")
            word, wsign = _present_word(t.word, sub)
            pres = (tuple(fac), word)
            if seen.setdefault(pres, sign * wsign) != sign * wsign:
                return None
            key = (tuple(terms.factor_key(f) for f in fac),
                   tuple(terms.gen_key(g) for g in word))
            if best is None or key < best[0]:
                best = (key, pres, sign * wsign)
    coeff = t.coeff if best[2] == 1 else -t.coeff
    return Term(coeff, best[1][0], best[1][1], t.norm)


# each symbolic label is drawn at most twice: once it is free, twice a dummy;
# a free "A" sorts before the generated `_dNN` names, "a"..."g" after them
_LABELS = ("A", "a", "b", "c", "d", "e", "f", "g")
_CONCRETE = (1, 2)


def reference_expand(t):
    """The term with its word on the block basis: the generators multiplied
    on one at a time from the left, onto a C block and a CHAT block.  A
    generator times a block is their wedge plus, for each generator of the
    block of its family, the signed contraction: -delta for C, +delta for
    CHAT, the delta appended to the factors."""
    assert all(not g.wedge for g in t.word)
    # (sign, deltas, C labels, CHAT labels); the word is read right to left
    out = [(1, (), (), ())]
    for g in reversed(t.word):
        nxt = []
        for sign, deltas, cs, hs in out:
            own = cs if g.fam == "c" else hs
            # past the C block first when g is a CHAT
            s = -sign if g.fam == "h" and len(cs) % 2 else sign
            for j, i in enumerate(own):
                if isinstance(i, int) and isinstance(g.idx, int) \
                        and i != g.idx:
                    continue
                rest = own[:j] + own[j + 1:]
                # g meets own[j] past the j generators before it
                c = (-s if j % 2 else s) * (-1 if g.fam == "c" else 1)
                new = deltas + (F("delta", (g.idx, i)),)
                nxt.append((c, new, rest, hs) if g.fam == "c"
                           else (c, new, cs, rest))
            wedge = (g.idx,) + own
            nxt.append((s, deltas, wedge, hs) if g.fam == "c"
                       else (s, deltas, cs, wedge))
        out = nxt
    return [Term(t.coeff if sign > 0 else -t.coeff, t.fac + deltas,
                 tuple(G("c", i, n > 0) for n, i in enumerate(cs))
                 + tuple(G("h", i, n > 0) for n, i in enumerate(hs)),
                 t.norm)
            for sign, deltas, cs, hs in out]


def reference_normalize(terms_in):
    acc = {}
    for t in terms_in:
        stack = [t]
        while stack:
            cur = stack.pop()
            if cur.coeff.is_zero():
                continue
            if any(c > 2 for c in label_counts(cur).values()):
                raise ContractViolation("a label occurs more than twice")
            deltas = tuple(f for f in cur.fac if f.kind == "delta")
            if deltas:
                cur = terms.contract_deltas(cur._replace(fac=tuple(
                    f for f in cur.fac if f.kind != "delta")), deltas)
                if cur is None:
                    continue
            step = terms._contract_once(cur)
            if step == "zero":
                continue
            if step is not None:
                stack.append(step)
                continue
            if not terms._expanded(cur.word):
                stack.extend(reference_expand(cur))
                continue
            cur = terms._block_rules(cur)
            if cur is None:
                continue
            out = terms._finalize(cur)
            if out is not None:
                acc[out[1:]] = acc.get(out[1:], Scalar.of(0)) + out.coeff
    final = {}
    for key, coeff in acc.items():
        if coeff.is_zero():
            continue
        for out in terms._first_bianchi(Term(coeff, *key)):
            final[out[1:]] = final.get(out[1:], Scalar.of(0)) + out.coeff
    return tuple(sorted((Term(c, *k) for k, c in final.items()
                         if not c.is_zero()), key=term_key))


@st.composite
def small_terms(draw, vectors=("u", "w", "xi"), max_word=2, fams=("c",),
                blocks=False):
    """A term of a few factors and a word; with blocks, a generator after
    the first may be wedged onto the one before it."""
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
    word = tuple(G(draw(st.sampled_from(fams)), label(),
                   blocks and n > 0 and draw(st.booleans()))
                 for n in range(draw(st.integers(0, max_word))))
    return Term(S_ONE, fac, word)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(small_terms(max_word=4, fams=("c", "h"), blocks=True))
def test_finalize_matches_exhaustive_reference(t):
    assert terms._finalize(t) == reference_finalize(t)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(small_terms(vectors=("u", "w", "v", "xi", "x"),
                            max_word=6, fams=("c", "h")),
                min_size=1, max_size=3))
# a symmetric pair in one block, a crossed word pair, a pair inside the
# word beside two monomials, and a pairing that renames a label inside a
# Riemann factor, which then contracts to Ricci and folds to ricuw
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


def _monomial_groups(t: Term) -> list[list[str]]:
    """The dummy labels `_symmetrize` permutes: one list per monomial kind
    with at least two of them.  Labels paired with themselves (x_a x_a) or
    shared with the other kind are left out."""
    counts = label_counts(t)
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
    """Every permutation copy of each group of dummy xi (and x) monomial
    labels: the monomial slots keep their labels and every other
    occurrence moves."""
    labs = [lab for group in groups for lab in group]
    slots = [k for k, f in enumerate(t.fac)
             if f.kind in ("xi", "x") and f.idx[0] in labs]
    out = []
    for parts in product(*(permutations(group) for group in groups)):
        moved = map_labels(t, dict(zip(labs, [lab for part in parts
                                              for lab in part])))
        fac = list(moved.fac)
        for k in slots:
            fac[k] = t.fac[k]
        out.append(Term(t.coeff, tuple(fac), moved.word, t.norm))
    return out


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
    of a reduced term's monomial dummies already has the term's normal
    form."""
    checked = 0
    for r in terms._reduce(t):
        groups = _monomial_groups(r)
        if not groups:
            continue
        want = normalize([r])
        for copy in _symmetrize(r, groups):
            assert normalize([copy]) == want, copy
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


def test_normalize_matches_reference_on_taylor_terms():
    # each side of the taylor_diff comparison, 15 raw terms with words of
    # up to eight generators and two Riemann factors, normalized on its
    # own: both loops reach the same 70 terms from either side, which
    # have one value
    checked = 0
    for seed in _TAYLOR_SEEDS:
        inputs = bench_workloads().taylor_inputs(seed)
        want = normalize(inputs.derived)
        assert len(want) == 70
        assert normalize(inputs.printed) == want
        assert reference_normalize(inputs.derived) == want, seed
        checked += len(inputs.derived)
    assert checked == 60


def test_word_expansion_sorts_blocks_and_renames_into_factors():
    c, h = clifford.c, clifford.chat
    word = (c(4), c(3), c(2), c(1), h(2), h(1))
    # distinct frame indices never pair, so the word is one sorted block
    # per family, with the sign of the sort
    assert normalize([word_term(word)]) == (
        Term(-S_ONE, (), (G("c", 1), G("c", 2, True), G("c", 3, True),
                          G("c", 4, True), G("h", 1), G("h", 2, True))),)
    # pairings whose delta renames a dummy inside a factor put u_a w_a and
    # xi_d xi_d together, and the field fold and the |xi|^2 rule fire on
    # what they leave
    t = Term(S_ONE, (fct("u", "a"), fct("w", "b"), fct("xi", "d"),
                     fct("xi", "e")), (c("e"), c("b"), c("d"), c("a")))
    got = normalize([t])
    assert got == reference_normalize([t])
    assert len(got) == 4


def _raw_difference(seed=101):
    """The raw difference the taylor_diff benchmark's comparison at `seed`
    merges (`merge_presentations`) before differentiating it."""
    inputs = bench_workloads().taylor_inputs(seed)
    return inputs.derived + tuple(t._replace(coeff=-t.coeff)
                                  for t in inputs.printed)


def test_finalize_matches_exhaustive_reference_on_taylor_terms():
    # two Riemann factors and words of up to eight generators, past what
    # the hypothesis terms reach: the raw terms as `merge_presentations`
    # finalizes them, 30 a seed, and the reduced terms of each display
    # term with no x factor, 58 a seed, with their blocks
    raw = [t for seed in _TAYLOR_SEEDS for t in _raw_difference(seed)]
    reduced = [red for seed in _TAYLOR_SEEDS
               for t in bench_workloads().taylor_inputs(seed).printed
               if not pdo.x_degree(t)
               for red in terms._reduce(t)]
    assert (len(raw), len(reduced)) == (120, 232)
    assert max(len(t.word) for t in raw) == 8
    assert any(g.wedge for t in reduced for g in t.word)
    for t in raw + reduced:
        assert terms._finalize(t) == reference_finalize(t), t


def test_normalize_work_counts_on_the_raw_difference(record_calls):
    """Deterministic work counts of normalizing the seed-101 raw difference
    as it stands, without the merge of equal presentations that the
    comparison runs instead: its 30 input terms are expanded on the block
    basis, and what they leave cancels to nothing, since both sides reach
    the same normal forms.  Every word is expanded once (`wick`); the
    pairings leave 2092 terms for the block rules, and the 1936 those keep
    are finalized.  The label counts are computed once per input term, to
    check it: `_finalize` counts the labels of each term it presents in
    its own scan, which names the dummies and checks the term too, and no
    rule between the two carries them."""
    raw = _raw_difference()
    assert len(raw) == 30
    calls = {name: record_calls(name, terms)
             for name in ("label_counts", "wick", "_block_rules", "_finalize")}
    assert normalize(raw) == ()
    assert {name: len(c) for name, c in calls.items()} == {
        "label_counts": 30, "wick": 30, "_block_rules": 2092,
        "_finalize": 1936}


def test_merge_work_counts_on_the_raw_difference(record_calls):
    """Deterministic work counts of the seed-101 comparison, which merges
    equal presentations before it normalizes: the 30 raw terms of the
    difference give 15 canonical presentations as written, and all of them
    cancel in one `merge_equal` call, since the derived side keeps its
    Clifford products as written, as the display does.  `_finalize` runs
    30 times, all in the merge, where `normalize` alone runs it 1936 times
    (`test_normalize_work_counts_on_the_raw_difference`).
    """
    raw = _raw_difference()
    finalized = record_calls("_finalize", terms,
                             value=lambda args, result: result)
    merged = record_calls("merge_equal", terms,
                          value=lambda args, result: result)
    survivors = terms.merge_presentations(raw)
    presentations = {p[1:] for p in finalized if p is not None}
    assert (len(raw), len(presentations), len(survivors)) == (30, 15, 0)
    assert len(finalized) == 30 and merged == [[]]
    # the comparison itself does the same work
    inputs = bench_workloads().taylor_inputs(101)
    finalized.clear()
    assert pdo.terms_equal_taylor(inputs.derived, inputs.printed) is True
    assert len(finalized) == 30


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


def test_the_ledger_frontier_peaks_at_eight_in_its_first_job(monkeypatch):
    # the guard's limit sits far above what the ledger needs: its largest
    # frontier is 8 candidates, first met in I-1, and one less refuses it
    monkeypatch.setattr(terms, "_MAX_FRONTIER", 8)
    evaluate_labels(LEDGER)
    monkeypatch.setattr(terms, "_MAX_FRONTIER", 7)
    with pytest.raises(NormalizeError, match=(
            r"^I-1: canonical search space too large: 8 candidates")):
        evaluate_labels(LEDGER)


def test_normalize_is_idempotent_on_curvature_word():
    # a normal form is its own normal form: the block c_e ^ c_b keeps its
    # sorted order under the output's own labels
    t = Term(S_ONE, (fct("ric", "c", "b"), fct("u", "a"),
                     fct("ric", "e", "d")),
             (clifford.c("e"), clifford.c("b")))
    once = normalize([t])
    assert normalize(once) == once
