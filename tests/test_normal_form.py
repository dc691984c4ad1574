"""`normalize` is canonical: value-equal sums reach identical normal forms.

`equal_pairs` draws a random term sum and a copy with one value-preserving
identity applied: the Clifford relation at a random position of a word, a
relabelling of the dummies, a symmetry variant of a factor with its sign, a
delta inserted at a label, a first-Bianchi cyclic split of a Riemann
factor, or a coefficient split a = b + (a - b).  Both must normalize to
the same terms, and a normal form must be its own normal form.

The normal forms the workloads make are checked for the shape of the block
basis: at most one sorted block per family, and no block that a zero rule
of `terms` would remove.
"""

import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_canonical_search import bench_workloads, small_terms, variants

from wittenres import pdo, terms
from wittenres.residue import LEDGER, evaluate_labels
from wittenres.scalars import S_ONE, Scalar
from wittenres.terms import (KIND_ARITY, F, G, Term, gen_key, label_counts,
                             map_labels, normalize)

TERMS = small_terms(vectors=("u", "w", "v", "xi", "x"), max_word=5,
                    fams=("c", "h"))


def _fresh(t: Term, prefix: str) -> Term:
    """t with its dummies renamed apart from every other term's."""
    dummies = sorted(lab for lab, n in label_counts(t).items() if n == 2)
    return map_labels(t, {lab: f"{prefix}{k}"
                          for k, lab in enumerate(dummies)})


def _clifford_relation(t: Term, p: int) -> list[Term]:
    """g_p g_p+1 = -g_p+1 g_p, plus 2 B delta for one family, where
    B = -1 for C and +1 for CHAT."""
    w = t.word
    g, h = w[p], w[p + 1]
    out = [Term(-t.coeff, t.fac, w[:p] + (h, g) + w[p + 2:], t.norm)]
    if g.fam == h.fam:
        out.append(Term(t.coeff * Scalar.of(-2 if g.fam == "c" else 2),
                        t.fac + (F("delta", (g.idx, h.idx)),),
                        w[:p] + w[p + 2:], t.norm))
    return out


def _delta_insertion(t: Term, k: int, s: int) -> list[Term]:
    """The label at slot s of factor k (of the word's generator s when k
    is None) moved to a fresh label z, and delta(z, label) put beside
    it."""
    fac, word = t.fac, t.word
    if k is None:
        old = word[s].idx
        word = word[:s] + (word[s]._replace(idx="z_ins"),) + word[s + 1:]
    else:
        idx = list(fac[k].idx)
        old, idx[s] = idx[s], "z_ins"
        fac = fac[:k] + (F(fac[k].kind, tuple(idx)),) + fac[k + 1:]
    return [Term(t.coeff, fac + (F("delta", ("z_ins", old)),), word,
                 t.norm)]


def _bianchi_split(t: Term, k: int) -> list[Term]:
    """R_abcd = -R_acdb - R_adbc at factor k."""
    a, b, c, d = t.fac[k].idx
    return [Term(-t.coeff, t.fac[:k] + (F("riem", idx),) + t.fac[k + 1:],
                 t.word, t.norm)
            for idx in ((a, c, d, b), (a, d, b, c))]


@st.composite
def equal_pairs(draw):
    terms_ = [_fresh(t._replace(coeff=Scalar.of(draw(st.sampled_from(
        (-2, -1, 1, 3))))), f"t{n}_")
        for n, t in enumerate(draw(st.lists(TERMS, min_size=1,
                                             max_size=3)))]
    n = draw(st.integers(0, len(terms_) - 1))
    t = terms_[n]
    kinds = ["relabel", "split"]
    if len(t.word) > 1:
        kinds.append("clifford")
    if any(f.idx for f in t.fac):
        kinds.append("variant")
    if any(f.idx for f in t.fac) or t.word:
        kinds.append("delta")
    if any(f.kind == "riem" for f in t.fac):
        kinds.append("bianchi")
    kind = draw(st.sampled_from(kinds))
    if kind == "relabel":
        new = [_fresh(t, "r")]
    elif kind == "split":
        part = Scalar.of(draw(st.sampled_from((-3, 1, 2))))
        new = [t._replace(coeff=part), t._replace(coeff=t.coeff - part)]
    elif kind == "clifford":
        new = _clifford_relation(t, draw(st.integers(0, len(t.word) - 2)))
    elif kind == "variant":
        k = draw(st.sampled_from([k for k, f in enumerate(t.fac) if f.idx]))
        f, sign = draw(st.sampled_from(variants(t.fac[k])))
        new = [Term(t.coeff if sign == 1 else -t.coeff,
                    t.fac[:k] + (f,) + t.fac[k + 1:], t.word, t.norm)]
    elif kind == "delta":
        k = draw(st.sampled_from([k for k, f in enumerate(t.fac) if f.idx]
                                 + [None] * bool(t.word)))
        new = _delta_insertion(t, k, draw(st.integers(
            0, (len(t.word) if k is None else KIND_ARITY[t.fac[k].kind])
            - 1)))
    else:
        k = draw(st.sampled_from([k for k, f in enumerate(t.fac)
                                  if f.kind == "riem"]))
        new = _bianchi_split(t, k)
    copy = terms_[:n] + new + terms_[n + 1:]
    return kind, terms_, draw(st.permutations(copy))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(equal_pairs())
def test_value_equal_sums_have_one_normal_form(case):
    kind, ts, copy = case
    assert normalize(copy) == normalize(ts), kind


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(st.lists(small_terms(vectors=("u", "w", "v", "xi", "x"),
                            max_word=5, fams=("c", "h"), blocks=True),
                min_size=1, max_size=3))
def test_normalize_is_idempotent(ts):
    once = normalize(ts)
    assert normalize(once) == once


def _block_shape_problems(t: Term) -> list[str]:
    """What keeps t from the shape of a normal form of the block basis."""
    problems = []
    if not terms._expanded(t.word):
        problems.append("more than one block of a family")
    counts = label_counts(t)
    held = {i: (k, s) for k, f in enumerate(t.fac)
            for s, i in enumerate(f.idx) if counts.get(i) == 2}
    for fam in ("c", "h"):
        block = [g for g in t.word if g.fam == fam]
        keys = [gen_key(g) for g in block]
        if keys != sorted(keys):
            problems.append(f"unsorted {fam} block")
        labels = [g.idx for g in block]
        if len(set(labels)) < len(labels):
            problems.append(f"a label twice in the {fam} block")
        slots: dict[int, list[int]] = {}
        for i in labels:
            if i in held:
                slots.setdefault(held[i][0], []).append(held[i][1])
        one_slot = [t.fac[k].kind for k in slots
                    if KIND_ARITY[t.fac[k].kind] == 1]
        if len(set(one_slot)) < len(one_slot):
            problems.append(f"a symmetric pair in the {fam} block")
        for k, ss in slots.items():
            kind = t.fac[k].kind
            if kind in ("ric", "delta") and len(ss) == 2:
                problems.append(f"a symmetric pair in the {fam} block")
            if kind == "riem" and (len(ss) > 2 or len(ss) == 2 and sorted(
                    ss) not in ([0, 1], [2, 3])):
                problems.append(f"Riemann slots {ss} in the {fam} block")
    return problems


@pytest.fixture(scope="module")
def workload_normal_forms():
    """Every term `normalize` returns over one full ledger, over the
    taylor_diff comparisons of seeds 100-105, and over each side of those
    comparisons normalized on its own (the comparisons cancel almost
    everything before it reaches normalize)."""
    seen = []
    original = terms.normalize

    def recorded(ts, **kwargs):
        out = original(ts, **kwargs)
        seen.extend(out)
        return out
    patched = []
    for name, module in list(sys.modules.items()):
        if name.startswith("wittenres") and \
                getattr(module, "normalize", None) is original:
            patched.append(module)
            module.normalize = recorded
    try:
        evaluate_labels(LEDGER)
        workloads = bench_workloads()
        for seed in range(100, 106):
            inputs = workloads.taylor_inputs(seed)
            assert pdo.terms_equal_taylor(inputs.derived,
                                          inputs.printed) is True
            for side in (inputs.derived, inputs.printed):
                terms.normalize(side)
    finally:
        for module in patched:
            module.normalize = original
    return seen


def test_workload_normal_forms_have_the_block_shape(workload_normal_forms):
    assert len(workload_normal_forms) > 500
    for t in workload_normal_forms:
        assert _block_shape_problems(t) == [], t


def test_workload_normal_forms_are_fixed_points(workload_normal_forms):
    for t in set(workload_normal_forms):
        assert normalize([t]) == (t,), t


def test_block_shape_check_sees_each_fault():
    # the check above is not vacuous: each fault it names is found
    c = G("c", "a"), G("c", "b", True)
    riem = F("riem", ("a", "b", "p", "q"))
    faults = [
        Term(S_ONE, (F("u", ("a",)), F("w", ("b",))),
             (G("c", "a"), G("c", "b"))),
        Term(S_ONE, (F("u", ("a",)), F("w", ("b",))),
             (G("c", "b"), G("c", "a", True))),
        Term(S_ONE, (F("u", ("a",)), F("u", ("b",))), c),
        Term(S_ONE, (F("ric", ("a", "b")),), c),
        Term(S_ONE, (F("riem", ("a", "p", "b", "q")),), c),
        Term(S_ONE, (riem,), c + (G("c", "p", True),)),
    ]
    for t in faults:
        assert _block_shape_problems(t), t
    assert _block_shape_problems(Term(S_ONE, (riem,), c)) == []
