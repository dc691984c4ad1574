"""Shared exact term algebra.

A Term couples a Q(i)(m) coefficient with a multiset of indexed tensor
factors, an ordered word in the two Clifford generator families and a
power of |xi|.  Index labels are either concrete frame indices (int,
1-based) or symbolic labels (str).  A symbolic label occurring exactly twice
in a term is a dummy summed over 1..n; a label occurring once is free.
Labels starting with "_" are reserved for generated names.

normalize() rewrites a sum of terms to a canonical merged form:
  * deltas with a dummy slot are substituted away (delta(a,a) -> n = 2m),
  * Riemann/Ricci self-contractions reduce to Ricci / scalar curvature,
  * a contracted xi_a xi_a pair becomes |xi|^2; a contracted x_a x_a pair
    has no carrier and is kept as two x factors,
  * contracted field pairs fold into the atoms u_a w_a -> guw,
    u_a ric_ab w_b -> ricuw and v_a v_a -> vsq,
  * words are normal ordered (C family before CHAT, indices ascending,
    equal adjacent pairs contracted) with the anticommutator delta branches;
    two adjacent same-family dummies that both contract into the same
    symmetric monomial (xi_a xi_b c_a c_b, or the x analogue) tie in the
    order and are replaced by half their anticommutator: -delta(a,b) for
    C, +delta(a,b) for CHAT,
  * dummies are renamed canonically and monoterm tensor symmetries are
    resolved by building the lexicographically minimal presentation slot by
    slot, keeping only partial presentations with the minimal prefix (the
    double-coset idea of Manssur, Portugal & Svaiter, IJMPC 13 (2002), and
    of xPerm, CPC 179 (2008)); a term equal to its own negative is dropped
    as an antisymmetric zero, and a search whose frontier passes
    _MAX_FRONTIER partial presentations raises NormalizeError,
  * identical presentations are merged, zero coefficients dropped.

KIND_RANK orders a presentation's factors, and it orders each word
generator by the kind of the factor it contracts with (`_partner_keys`).
Any fixed order gives a canonical form, and the reports do not depend on
which one; the order sets only how much work normal ordering does.  Each
adjacent same-family pair out of order costs an anticommutator branch,
which is reduced and canonicalized on its own.  The vector fields rank
ahead of the curvature because the engine's words put them there:
`compose(A, B)` and the printed sigma(AB) display write c(u), c(w) and
chat(V) before the curvature generators.  With the fields first the
display holds 39 same-family inversions instead of 83 and reduces to 53
terms instead of 203.

normalize(terms, fold_fields=False) runs every rule but the three field
folds.  Each remaining rule is an identity pointwise in x, with u, w and v
read as functions, so its output has the input's value as a function of x
and may be x-differentiated in its place; the folds are the only rules
that turn a field pair into a constant atom, and a fold may only run after
the derivative (see `pdo.d_x_terms`).

The xi / x monomial dummies need no symmetrization pass.  Permuting them
while the monomial slots keep their labels is a relabelling of the dummies
plus a reorder of structurally equal xi (or x) factors; the canonical
search in `_finalize` maps both to the same presentation, and the partner
keys that order the word never read dummy names.

Each input term is reduced on its own, and its label counts travel with
it through `_reduce` instead of being computed again:
  * the label counts are computed once, when a term enters.  Every rule
    carries them, less the labels it contracts away: each factor rule
    (Riemann to Ricci, Ricci to scalar, the delta rule, the xi pair and
    the three field folds), a contracted word pair, and an anticommutator
    branch, which applies its delta at once (`_substitute_delta`, the one
    home of the delta rule),
  * the factors' structural keys and the partner keys of factor dummies
    are built in one place, `_factor_facts`, once for each term that
    meets no factor rule, just before its word is ordered; a term without
    a word needs no partner keys,
  * the word's partner keys are built once per word order: a swap carries
    the two swapped keys, unless one names a word position.
`_finalize` takes the reduced term with its counts and structural keys and
trusts its word order; a term with no index and no word is its own
presentation.

The stages that make deltas apply them before normalize sees the terms:
`contract_deltas` runs the delta rule on a term times a list of deltas,
carrying one set of label counts through them.  `clifford.trace` hands
over each pairing of a word with its deltas applied, and so do
`pdo.d_xi_terms` for xi_a -> delta(a, j) and `sphere.integrate_term` for
its cosphere pairings; normalize then has no delta of a dummy left to
substitute.

merge_presentations(terms) is `_finalize` alone on each term as written:
no factor rule runs and no word is reordered.  It sums equal presentations
and drops zeros, so terms equal up to dummy names, factor order and
symmetry variants cancel before normal ordering branches them.
`pdo.terms_equal_taylor` runs it on the difference of its two sides, where
most terms appear on both sides.  normalize does not run it: its other
callers (derivatives, products, traces) almost never hold two equal
presentations, and a merge ahead of every normalize call took the whole
ledger, evaluated in-process, from 16 to 22 ms (best of 12 on a 2-vCPU
VM).

normalize is not idempotent yet: a word generator is keyed by the raw slot
of its factor partner, and `_finalize` may then pick another symmetry
variant of that factor, so a second pass can reorder the word again.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .scalars import S_N, Scalar

Idx = int | str


class F(NamedTuple):
    kind: str
    idx: tuple[Idx, ...]


class G(NamedTuple):
    fam: str  # 'c' or 'h' (hat family)
    idx: Idx


class Term(NamedTuple):
    coeff: Scalar
    fac: tuple[F, ...]
    word: tuple[G, ...] = ()
    norm: tuple[int, int] = (0, 0)  # |xi| exponent: const + slope*m


class ContractViolation(Exception):
    """Malformed index structure (label used more than twice, etc.)."""


class NormalizeError(Exception):
    """Normalization could not complete."""


KIND_ARITY = {
    "scal": 0, "guw": 0, "ricuw": 0, "vsq": 0,
    "delta": 2, "ric": 2, "riem": 4,
    "u": 1, "w": 1, "v": 1,
    "du": 2, "dw": 2, "dv": 2,
    "xi": 1, "x": 1,
}
# the order of factors in a presentation and of word generators by their
# factor partner's kind: atoms, then the vector fields and their
# derivatives, which the engine's words put first, then curvature, delta
# and the xi / x monomials (see the module docstring)
KIND_RANK = {k: i for i, k in enumerate(
    ("scal", "guw", "ricuw", "vsq", "u", "w", "v", "du", "dw", "dv",
     "riem", "ric", "delta", "xi", "x"))}
ATOM_KINDS = ("scal", "guw", "ricuw", "vsq")
_MONOMIAL_RANKS = (KIND_RANK["xi"], KIND_RANK["x"])

# Monoterm symmetry variants: (slot permutation, sign).
_RIEM_VARIANTS = (
    ((0, 1, 2, 3), 1), ((1, 0, 2, 3), -1), ((0, 1, 3, 2), -1),
    ((1, 0, 3, 2), 1), ((2, 3, 0, 1), 1), ((3, 2, 0, 1), -1),
    ((2, 3, 1, 0), -1), ((3, 2, 1, 0), 1),
)
_SYM2_VARIANTS = (((0, 1), 1), ((1, 0), 1))
# kind -> (slot permutation, sign) per variant, the identity alone for a
# kind without monoterm symmetry
_VARIANTS = {kind: ((tuple(range(arity)), 1),)
             for kind, arity in KIND_ARITY.items()}
_VARIANTS.update(riem=_RIEM_VARIANTS, ric=_SYM2_VARIANTS,
                 delta=_SYM2_VARIANTS)
_DUMMY_CLASS = (2, 0, "")
_MAX_FRONTIER = 200000
# g_a g_b + g_b g_a = -2 delta(a,b) for the C family, +2 delta(a,b) for
# CHAT; keyed by family and by the sign the word's swaps have built up
_ANTICOMMUTATOR = {("c", 1): Scalar.of(-2), ("c", -1): Scalar.of(2),
                   ("h", 1): Scalar.of(2), ("h", -1): Scalar.of(-2)}
_DUMMY_NAMES = tuple(f"_d{k:02d}" for k in range(100))


def fct(kind: str, *idx: Idx) -> F:
    if len(idx) != KIND_ARITY[kind]:
        raise ValueError(f"{kind} takes {KIND_ARITY[kind]} indices, got {idx}")
    return F(kind, tuple(idx))


def idx_key(i: Idx):
    if isinstance(i, int):
        return (0, i, "")
    return (1, 0, i)


def gen_key(g: G):
    return (0 if g.fam == "c" else 1, idx_key(g.idx))


def factor_key(f: F):
    return (KIND_RANK[f.kind], tuple(idx_key(i) for i in f.idx))


def term_key(t: Term):
    return (tuple(factor_key(f) for f in t.fac),
            tuple(gen_key(g) for g in t.word), t.norm)


def label_counts(t: Term) -> dict[str, int]:
    counts: dict[str, int] = {}
    for f in t.fac:
        for i in f.idx:
            if isinstance(i, str):
                counts[i] = counts.get(i, 0) + 1
    for g in t.word:
        if isinstance(g.idx, str):
            counts[g.idx] = counts.get(g.idx, 0) + 1
    return counts


def map_labels(t: Term, sub: dict[str, Idx]) -> Term:
    if not sub:
        return t
    fac = tuple(F(f.kind, tuple([sub.get(i, i) for i in f.idx]))
                for f in t.fac)
    word = tuple(G(g.fam, sub.get(g.idx, g.idx)) for g in t.word)
    return Term(t.coeff, fac, word, t.norm)


def mul_terms(a: Term, b: Term) -> Term:
    """Product of two terms; dummies renamed apart, shared free labels kept
    (they become the contraction channels of the product)."""
    ca, cb = label_counts(a), label_counts(b)
    used = set(ca) | set(cb)
    fresh = 0

    def rename(counts):
        nonlocal fresh
        sub = {}
        for lab, c in counts.items():
            if c == 2:
                while f"_m{fresh}" in used:
                    fresh += 1
                sub[lab] = f"_m{fresh}"
                used.add(f"_m{fresh}")
                fresh += 1
            elif c > 2:
                raise ContractViolation(f"label {lab!r} occurs {c} times")
        return sub

    a = map_labels(a, rename(ca))
    b = map_labels(b, rename(cb))
    return Term(a.coeff * b.coeff, a.fac + b.fac, a.word + b.word,
                (a.norm[0] + b.norm[0], a.norm[1] + b.norm[1]))


# ---------------------------------------------------------------------------
# reduction rules


def _riem_pair_sign(p: int, q: int):
    """Reduction of a dummy pair inside one Riemann factor.

    Positions {0,2}->+Ric, {0,3}->-Ric, {1,2}->-Ric, {1,3}->+Ric on the two
    remaining slots; {0,1} and {2,3} vanish by antisymmetry.
    """
    pair = (p, q)
    if pair in ((0, 1), (2, 3)):
        return None
    sign = {(0, 2): 1, (0, 3): -1, (1, 2): -1, (1, 3): 1}[pair]
    rest = [s for s in range(4) if s not in pair]
    return sign, rest


def _without(counts, *labels):
    """The label counts less the given labels, which they hold."""
    out = counts.copy()
    for lab in labels:
        del out[lab]
    return out


def _contract_once(t: Term, counts, fold_fields: bool = True):
    """Apply one reduction rule. Returns None (no rule fired), 'zero',
    or the replacement Term with its label counts: `counts` less the
    labels the rule contracted away.  Without fold_fields the field-atom
    folds (u_a w_a -> guw, u_a ric_ab w_b -> ricuw, v_a v_a -> vsq) never
    fire."""
    for k, f in enumerate(t.fac):
        if f.kind == "riem":
            if f.idx[0] == f.idx[1] or f.idx[2] == f.idx[3]:
                return "zero"
            if len(set(f.idx)) == 4:
                continue  # no pair to contract
            for p in range(4):
                i = f.idx[p]
                if isinstance(i, str) and counts.get(i) == 2:
                    for q in range(p + 1, 4):
                        if f.idx[q] == i:
                            red = _riem_pair_sign(p, q)
                            if red is None:
                                return "zero"
                            sign, rest = red
                            nf = F("ric", (f.idx[rest[0]], f.idx[rest[1]]))
                            coeff = t.coeff if sign == 1 else -t.coeff
                            fac = t.fac[:k] + (nf,) + t.fac[k + 1:]
                            return (Term(coeff, fac, t.word, t.norm),
                                    _without(counts, i))
        elif f.kind == "ric":
            i = f.idx[0]
            if (f.idx[1] == i and isinstance(i, str)
                    and counts.get(i) == 2):
                fac = t.fac[:k] + (F("scal", ()),) + t.fac[k + 1:]
                return Term(t.coeff, fac, t.word, t.norm), _without(counts, i)
        elif f.kind == "delta":
            step = _substitute_delta(
                Term(t.coeff, t.fac[:k] + t.fac[k + 1:], t.word, t.norm),
                *f.idx, counts)
            if step is not None:
                return step
            # both slots free (or free/concrete): delta is kept
    # paired xi factors with one dummy label: sum_a xi_a^2 = |xi|^2
    # (a contracted x_a x_a pair has no carrier and stays as two factors)
    seen: dict[Idx, int] = {}
    for k, f in enumerate(t.fac):
        if f.kind == "xi":
            i = f.idx[0]
            if isinstance(i, str) and counts.get(i) == 2:
                if i in seen:
                    fac = tuple(ff for n, ff in enumerate(t.fac)
                                if n not in (seen[i], k))
                    return (Term(t.coeff, fac, t.word,
                                 (t.norm[0] + 2, t.norm[1])),
                            _without(counts, i))
                seen[i] = k
    if not fold_fields:
        return None
    # atom recognition on fully contracted pieces
    by_kind: dict[str, list[int]] = {}
    for k, f in enumerate(t.fac):
        by_kind.setdefault(f.kind, []).append(k)
    if "u" in by_kind and "w" in by_kind:
        for ku in by_kind["u"]:
            lu = t.fac[ku].idx[0]
            if not (isinstance(lu, str) and counts.get(lu) == 2):
                continue
            for kw in by_kind["w"]:
                if t.fac[kw].idx[0] == lu:
                    fac = tuple(ff for n, ff in enumerate(t.fac)
                                if n not in (ku, kw)) + (F("guw", ()),)
                    return (Term(t.coeff, fac, t.word, t.norm),
                            _without(counts, lu))
            for kr in by_kind.get("ric", ()):
                ric = t.fac[kr]
                if lu not in ric.idx:
                    continue
                other = ric.idx[1] if ric.idx[0] == lu else ric.idx[0]
                if not (isinstance(other, str) and counts.get(other) == 2):
                    continue
                for kw in by_kind["w"]:
                    if t.fac[kw].idx[0] == other:
                        fac = tuple(ff for n, ff in enumerate(t.fac)
                                    if n not in (ku, kw, kr)) + (F("ricuw", ()),)
                        return (Term(t.coeff, fac, t.word, t.norm),
                                _without(counts, lu, other))
    vs = by_kind.get("v", ())
    for a in range(len(vs)):
        la = t.fac[vs[a]].idx[0]
        if not (isinstance(la, str) and counts.get(la) == 2):
            continue
        for b in range(a + 1, len(vs)):
            if t.fac[vs[b]].idx[0] == la:
                fac = tuple(ff for n, ff in enumerate(t.fac)
                            if n not in (vs[a], vs[b])) + (F("vsq", ()),)
                return (Term(t.coeff, fac, t.word, t.norm),
                        _without(counts, la))
    return None


def _substitute_delta(rest: Term, i: Idx, j: Idx, counts):
    """The delta rule for rest * delta(i, j); `counts` are the label counts
    of the product.

    Returns "zero" for two distinct frame indices, None when the delta is
    kept (neither slot is a dummy), and otherwise the term with its label
    counts: delta(i, i) is 1 for a frame index and n for a dummy, and for
    i != j the dummy slot a (i before j) is renamed to the other slot in
    its one other occurrence, in a factor of rest or in its word.  The
    counts lose the contracted dummy.
    """
    if i == j:
        if isinstance(i, int):
            return rest, counts
        # same symbolic label: trace of the identity
        if counts.get(i) != 2:
            raise ContractViolation(
                f"delta({i},{i}) with label count {counts.get(i)}")
        return (Term(rest.coeff * S_N, rest.fac, rest.word, rest.norm),
                _without(counts, i))
    if isinstance(i, int) and isinstance(j, int):
        return "zero"
    for a, b in ((i, j), (j, i)):
        if isinstance(a, str) and counts.get(a) == 2:
            fac, word = rest.fac, rest.word
            for k, f in enumerate(fac):
                if a in f.idx:
                    f = F(f.kind, tuple([b if x == a else x for x in f.idx]))
                    fac = fac[:k] + (f,) + fac[k + 1:]
                    break
            else:
                word = tuple([G(g.fam, b) if g.idx == a else g for g in word])
            return Term(rest.coeff, fac, word, rest.norm), _without(counts, a)
    return None


def contract_deltas(t: Term, deltas: tuple[F, ...], counts) -> Term | None:
    """t times the delta factors, each applied by the delta rule
    (`_substitute_delta`), or None when one of them vanishes.

    `counts` are the label counts of the product, and each substitution
    carries them.  Each delta is applied with the pending ones still in
    the term, so a dummy whose other slot is in another delta is renamed
    there; a delta the rule keeps holds no dummy and is put back at the
    end.  `normalize` then has no delta of a dummy left to substitute.
    """
    cur = Term(t.coeff, t.fac + deltas, t.word, t.norm)
    kept = ()
    for _ in deltas:
        last = cur.fac[-1]
        rest = Term(cur.coeff, cur.fac[:-1], cur.word, cur.norm)
        step = _substitute_delta(rest, *last.idx, counts)
        if step == "zero":
            return None
        if step is None:
            cur, kept = rest, (last,) + kept
        else:
            cur, counts = step
    return Term(cur.coeff, cur.fac + kept, cur.word, cur.norm) if kept \
        else cur


def _factor_facts(t: Term, counts):
    """The factor side of the word sort keys.

    Returns each factor's structural key, and a map from every dummy that
    a factor holds to that generator's word key (kind rank, slot,
    structural key).  Both read only the factors and the label counts, so
    they hold while `_order_word` orders the word; this is the one place
    that builds them.  The map is read only for dummies paired with the
    word, which one factor holds, so a term without a word gets None.
    """
    skeys = [_structural_key(f, counts) for f in t.fac]
    if not t.word:
        return skeys, None
    fmap: dict[str, tuple] = {}
    for f, skey in zip(t.fac, skeys):
        rank = KIND_RANK[f.kind]
        for slot, i in enumerate(f.idx):
            if isinstance(i, str) and counts.get(i) == 2:
                fmap[i] = (2, (rank, slot), skey)
    return skeys, fmap


def _partner_keys(word, counts, fmap):
    """Intrinsic sort keys for the word generators.

    A generator's index is ordered by what it contracts against (a concrete
    frame index, a free label, a factor slot, or another word position),
    never by the arbitrary dummy name, so normal ordering is stable under
    relabeling and different derivation paths straighten to the same form.
    A pair inside the word is keyed by its first position, so a crossed
    pair is swapped until the partners meet and contract.  The factor slot
    keys come from `_factor_facts` and lead with the factor's KIND_RANK,
    so a generator contracted into a vector field sorts before one
    contracted into a curvature factor, as the engine's words have them.
    """
    first: dict[Idx, int] = {}
    for p, g in enumerate(word):
        first.setdefault(g.idx, p)
    keys = []
    for g in word:
        fam = 0 if g.fam == "c" else 1
        i = g.idx
        if isinstance(i, int):
            keys.append((fam, (0, (i,), ())))
        elif counts.get(i) == 1:
            keys.append((fam, (1, (0,), (i,))))
        elif i in fmap:
            keys.append((fam, fmap[i]))
        else:
            keys.append((fam, (3, (first[i],), ())))  # paired in the word
    return keys


def _order_word(t: Term, counts, facts, out, stack) -> None:
    """Normal order the word of a term the factor rules leave alone.

    The ordered term goes to `out` with its label counts and factor
    structural keys; every anticommutator branch goes to `stack` through
    `_delta_branch`.  Each step rewrites the first adjacent pair that is
    out of order, as one rule at a time would: a chat before a c swaps with
    a sign, an equal pair contracts (a dummy pair to -n for c, +n for
    chat), a monomial tie becomes half its anticommutator and ends the
    term, and a pair whose partner keys descend swaps with a sign and
    branches off its anticommutator delta.  A step at position p leaves
    the pairs before p - 1 as they were, so the scan resumes at p - 1.

    The sign of the swaps is kept as an int and applied once per emitted
    term.  The label counts travel through the loop, less the label of a
    contracted dummy pair, and the factor facts hold throughout, since no
    word rule touches a factor.  The partner keys travel with the swaps: a
    swap exchanges the two keys unless one of them names a word position
    (class 3), and a contraction deletes its two keys unless a class-3 key
    is left; then they are built again.
    """
    if not t.word:
        out.append((t, counts, facts[0]))
        return
    w = list(t.word)
    fmap = facts[1]
    keys = _partner_keys(w, counts, fmap)
    coeff, sign, p = t.coeff, 1, 0
    while p < len(w) - 1:
        g1, g2 = w[p], w[p + 1]
        if g1.fam != g2.fam:
            if g1.fam == "h":  # chat c -> -c chat
                w[p], w[p + 1] = g2, g1
                sign = -sign
                if keys[p][1][0] == 3 or keys[p + 1][1][0] == 3:
                    keys = _partner_keys(w, counts, fmap)
                else:
                    keys[p], keys[p + 1] = keys[p + 1], keys[p]
                p = max(p - 1, 0)
            else:
                p += 1
            continue
        if g1.idx == g2.idx:
            if g1.fam == "c":
                sign = -sign
            if isinstance(g1.idx, str):
                if counts.get(g1.idx) != 2:
                    raise ContractViolation(
                        f"word label {g1.idx!r} occurs {counts.get(g1.idx)} "
                        "times")
                coeff = coeff * S_N  # the dummy pair sums to n
                counts = _without(counts, g1.idx)
            del w[p:p + 2]
            del keys[p:p + 2]
            if any(key[1][0] == 3 for key in keys):
                keys = _partner_keys(w, counts, fmap)
            p = max(p - 1, 0)
            continue
        k1, k2 = keys[p], keys[p + 1]
        if k1 == k2 and k1[1][0] == 2 and k1[1][1][0] in _MONOMIAL_RANKS:
            # both dummies contract into one symmetric monomial (xi_a xi_b
            # or x_a x_b), so the pair equals half its anticommutator
            if g1.fam == "c":
                sign = -sign
            _delta_branch(coeff if sign > 0 else -coeff, t.fac,
                          tuple(w[:p] + w[p + 2:]), t.norm,
                          g1.idx, g2.idx, counts, stack)
            return
        if k1 > k2:
            _delta_branch(coeff * _ANTICOMMUTATOR[g1.fam, sign], t.fac,
                          tuple(w[:p] + w[p + 2:]), t.norm,
                          g1.idx, g2.idx, counts, stack)
            w[p], w[p + 1] = g2, g1
            sign = -sign
            if k1[1][0] == 3 or k2[1][0] == 3:
                keys = _partner_keys(w, counts, fmap)
            else:
                keys[p], keys[p + 1] = k2, k1
            p = max(p - 1, 0)
            continue
        p += 1
    out.append((Term(coeff if sign > 0 else -coeff, t.fac, tuple(w),
                     t.norm), counts, facts[0]))


def _delta_branch(coeff, fac, word, norm, i, j, counts, stack):
    """Push (term, counts) for coeff * fac * delta(i, j) * word, with the
    delta already applied by `_substitute_delta`.

    The term it branched from met no factor rule, and the delta is its
    last factor, so the delta rule is the first to fire.  A substitution
    drops the dummy's label from the counts; a kept delta (its labels are
    no dummies) holds the two labels the word gave up.
    """
    step = _substitute_delta(Term(coeff, fac, word, norm), i, j, counts)
    if step == "zero":
        return
    if step is None:
        stack.append((Term(coeff, fac + (F("delta", (i, j)),), word, norm),
                      counts))
        return
    stack.append(step)


def _checked_counts(t: Term) -> dict[str, int]:
    """The label counts of a term; a label used more than twice raises."""
    counts = label_counts(t)
    if any(c > 2 for c in counts.values()):
        bad = [la for la, c in counts.items() if c > 2]
        raise ContractViolation(f"labels {bad} occur more than twice")
    return counts


def _reduce(t: Term, fold_fields: bool = True
            ) -> list[tuple[Term, dict, list]]:
    """Rewrite a term until no rule applies; returns each reduced term with
    its label counts and its factors' structural keys.

    The rewrite stack holds (term, counts).  The label counts are computed
    for the input alone; every rule carries them, less the labels it
    contracts away: a factor rule (`_contract_once`), a contracted word
    pair, a substituted delta slot.  Every popped term goes through
    `_contract_once`, and one that meets no factor rule has its word
    ordered under the facts `_factor_facts` builds for it.
    """
    if t.coeff.is_zero():
        return []
    out = []
    stack = [(t, _checked_counts(t))]
    while stack:
        cur, counts = stack.pop()
        step = _contract_once(cur, counts, fold_fields)
        if step == "zero":
            continue
        if step is not None:
            stack.append(step)
            continue
        _order_word(cur, counts, _factor_facts(cur, counts), out, stack)
    return out


def _structural_key(f: F, counts):
    """Kind rank and slot classes (concrete index, free label, dummy),
    minimal over the symmetry variants, so the key does not depend on the
    slot order a factor arrived in."""
    cls = tuple([(0, i, "") if isinstance(i, int)
                 else (1, 0, i) if counts.get(i) == 1 else _DUMMY_CLASS
                 for i in f.idx])
    perms = _VARIANTS[f.kind]
    if len(perms) == 1 or cls.count(cls[0]) == len(cls):
        return (KIND_RANK[f.kind], cls)
    return (KIND_RANK[f.kind],
            min([tuple([cls[p] for p in perm]) for perm, _ in perms]))


def _dummy_names(count: int) -> tuple[str, ...]:
    """The canonical dummy names _d00, _d01, ..., enough for count."""
    if count <= len(_DUMMY_NAMES):
        return _DUMMY_NAMES
    return tuple(f"_d{k:02d}" for k in range(count))


def _finalize(t: Term, counts, skeys):
    """Canonical minimal presentation of a reduced term, or None when the
    term vanishes by antisymmetry.

    `counts` and `skeys` are the label counts and factor structural keys
    `_reduce` returned with the term.  The word is taken as `_reduce` left
    it: `_order_word` found it sorted under partner keys built from these
    same counts, and partner keys do not depend on dummy names, so renaming
    the dummies cannot unsort it.

    The factors are sorted into slots by structural key; a presentation
    fills each slot with a distinct factor of that slot's key, in one of its
    symmetry variants, and names dummies in first-seen order after the word
    dummies.  The canonical presentation is the one whose factor keys are
    lexicographically minimal.  It is built slot by slot: a frontier holds
    the partial presentations whose output so far equals the minimal
    prefix, and each slot keeps only the extensions with the minimal factor
    key, since names are assigned in traversal order and a larger prefix
    can never complete to the minimum.  Entries with the same chosen
    factors and dummy renaming have the same completions; if their signs
    differ, or the complete presentations coincide with opposite signs,
    the term equals its own negative and vanishes.

    Every index a presentation can hold (a frame index, a free label, a
    canonical dummy name) is ranked once in `idx_key` order, and a partial
    presentation maps each label it has placed to that rank, so a
    candidate's factor key is a list of ints.  It is compared with the
    slot minimum position by position and dropped at the first larger
    one.  A term with no index and no word is its own presentation, with
    its factors in slot order, and builds none of this.
    """
    if not t.word and not any(f.idx for f in t.fac):
        return Term(t.coeff, tuple([t.fac[k] for k in sorted(
            range(len(t.fac)), key=skeys.__getitem__)]), (), t.norm)
    dummies = {lab for lab, c in counts.items() if c == 2}
    names = _dummy_names(len(dummies))[:len(dummies)]
    held = {i for f in t.fac for i in f.idx}.difference(dummies)
    labels = {i for i in held if isinstance(i, str)}.union(names)
    # idx_key order: frame indices ascending, then labels as strings
    order = sorted(held.difference(labels)) + sorted(labels)
    rank = {i: r for r, i in enumerate(order)}
    name_rank = [rank[name] for name in names]
    sub = {i: rank[i] for i in held}
    # canonical names for word dummies come from the word scan alone
    word = []
    nw = 0
    for g in t.word:
        if g.idx in dummies:
            r = sub.get(g.idx)
            if r is None:
                r = sub[g.idx] = name_rank[nw]
                nw += 1
            g = G(g.fam, order[r])
        word.append(g)
    slots = sorted(range(len(t.fac)), key=skeys.__getitem__)
    groups: dict[tuple, list[int]] = {}
    for k in slots:
        groups.setdefault(skeys[k], []).append(k)
    # frontier: (chosen factor bitmask, dummies named so far) ->
    # (label -> rank, sign); every entry has output fac_out
    frontier = {(0, ()): (sub, 1)}
    fac_out = []
    for slot in slots:
        kind = t.fac[slot].kind
        group = groups[skeys[slot]]
        perms = _VARIANTS[kind]
        best = None
        cands = []
        for (used, named), (sub, sign) in frontier.items():
            base = nw + len(named)
            for k in group:
                if used >> k & 1:
                    continue
                idx = t.fac[k].idx
                vals = [sub.get(i) for i in idx]
                for perm, s in perms:
                    tied = best is not None
                    if tied and perm:
                        r = vals[perm[0]]
                        if (name_rank[base] if r is None else r) > best[0]:
                            continue
                    key = []
                    new = []
                    for n, pos in enumerate(perm):
                        r = vals[pos]
                        if r is None:
                            i = idx[pos]
                            if i in new:
                                r = name_rank[base + new.index(i)]
                            else:
                                r = name_rank[base + len(new)]
                                new.append(i)
                        if tied:
                            b = best[n]
                            if r > b:
                                break
                            tied = r == b
                        key.append(r)
                    else:
                        if not tied:
                            best, cands = key, []
                        cands.append((used | 1 << k, named + tuple(new), new,
                                      sub, sign * s))
            if len(cands) > _MAX_FRONTIER:
                raise NormalizeError(
                    f"canonical search space too large: {len(cands)} "
                    f"candidates for a {kind} slot, past the limit "
                    f"{_MAX_FRONTIER}, in a term with factors "
                    f"{' '.join(f.kind for f in t.fac)} and a word of "
                    f"length {len(t.word)}")
        fac_out.append(F(kind, tuple([order[r] for r in best])))
        frontier = {}
        for used, named, new, sub, sign in cands:
            prev = frontier.get((used, named))
            if prev is None:
                if new:
                    sub = dict(sub)
                    base = nw + len(named) - len(new)
                    for q, i in enumerate(new):
                        sub[i] = name_rank[base + q]
                frontier[used, named] = (sub, sign)
            elif prev[1] != sign:
                return None  # t = -t under a symmetry: antisymmetric zero
    signs = {sign for _, sign in frontier.values()}
    if len(signs) > 1:
        return None  # the minimum is reached with both signs
    coeff = t.coeff if signs == {1} else -t.coeff
    return Term(coeff, tuple(fac_out), tuple(word), t.norm)


def _merge(presentations: Iterable[Term | None]) -> dict[tuple, Scalar]:
    """Sum the coefficients of equal presentations, keyed by everything but
    the coefficient; a None (an antisymmetric zero) is skipped."""
    acc: dict[tuple, Scalar] = {}
    for out in presentations:
        if out is None:
            continue
        key = out[1:]
        prev = acc.get(key)
        acc[key] = out.coeff if prev is None else prev + out.coeff
    return acc


def merge_presentations(terms: Iterable[Term]) -> list[Term]:
    """Merge the terms that are equal as written, up to dummy names, factor
    order and monoterm symmetry variants.

    Each term gets its canonical presentation from `_finalize` as it
    stands: no factor rule runs and no word is reordered, so the word is
    only renamed.  Equal presentations are summed and zero coefficients
    dropped.  Every presentation has the value of its term, so the result
    has the value of the input; two terms this leaves apart still meet in
    `normalize`.
    """
    def presentation(t):
        counts = _checked_counts(t)
        return _finalize(t, counts,
                         [_structural_key(f, counts) for f in t.fac])
    acc = _merge(map(presentation, terms))
    return [Term(coeff, *key) for key, coeff in acc.items()
            if not coeff.is_zero()]


def normalize(terms: Iterable[Term], *,
              fold_fields: bool = True) -> tuple[Term, ...]:
    # term_key, which orders the output, is injective on presentations, so
    # it is built once per merged term
    acc = _merge(_finalize(*red) for t in terms
                 for red in _reduce(t, fold_fields))
    return tuple(sorted((Term(coeff, *key) for key, coeff in acc.items()
                         if not coeff.is_zero()), key=term_key))
