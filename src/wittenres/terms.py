"""Shared exact term algebra.

A Term couples a Q(i)(m) coefficient with a multiset of indexed tensor
factors, an ordered word in the two Clifford generator families, a power of
|xi|, and unit tokens for tr[id] and Vol(S^{n-1}).  Index labels are either
concrete frame indices (int, 1-based) or symbolic labels (str).  A symbolic
label occurring exactly twice in a term is a dummy summed over 1..n; a label
occurring once is free.  Labels starting with "_" are reserved for generated
names.

normalize() rewrites a sum of terms to a canonical merged form:
  * deltas with a dummy slot are substituted away (delta(a,a) -> n = 2m),
  * Riemann/Ricci self-contractions reduce to Ricci / scalar curvature,
  * a contracted xi_a xi_a pair becomes |xi|^2; a contracted x_a x_a pair
    has no carrier and is kept as two x factors,
  * words are normal ordered (C family before CHAT, indices ascending,
    equal adjacent pairs contracted) with the anticommutator delta branches;
    two adjacent same-family dummies that both contract into the same
    symmetric monomial (xi_a xi_b c_a c_b, or the x analogue) tie in the
    order and are replaced by half their anticommutator: -delta(a,b) for
    C, +delta(a,b) for CHAT,
  * xi / x monomial labels are symmetrized (the monomials are symmetric),
    except labels that pair with themselves inside the monomial; only a
    reduced term with at least two such dummies of one kind is averaged,
    and its copies are reduced again,
  * dummies are renamed canonically and monoterm tensor symmetries are
    resolved by building the lexicographically minimal presentation slot by
    slot, keeping only partial presentations with the minimal prefix (the
    double-coset idea of Manssur, Portugal & Svaiter, IJMPC 13 (2002), and
    of xPerm, CPC 179 (2008)); a term equal to its own negative is dropped
    as an antisymmetric zero, and a search whose frontier passes
    _MAX_FRONTIER partial presentations raises NormalizeError,
  * identical presentations are merged, zero coefficients dropped.

Each input term is reduced on its own.  The label counts and the factors'
structural keys travel with a term through `_reduce`: they are computed
when a term enters and after a factor rule fires, and kept across word
rewrites, which never change the factors of a reorder and never change the
labels' multiset except by dropping a contracted pair.  `_finalize` takes
the reduced term with those facts and trusts its word order.

normalize is not idempotent yet: a word generator is keyed by the raw slot
of its factor partner, and `_finalize` may then pick another symmetry
variant of that factor, so a second pass can reorder the word again.
"""

from __future__ import annotations

from itertools import chain, permutations, product
from operator import itemgetter
from typing import Iterable, NamedTuple

from .scalars import S_N, S_ONE, S_ZERO, Scalar

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
    trid: int = 0
    vol: int = 0


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
KIND_RANK = {k: i for i, k in enumerate(
    ("scal", "guw", "ricuw", "vsq", "riem", "ric", "delta",
     "u", "w", "v", "du", "dw", "dv", "xi", "x"))}
ATOM_KINDS = ("scal", "guw", "ricuw", "vsq")
_MONOMIAL_RANKS = (KIND_RANK["xi"], KIND_RANK["x"])

# Monoterm symmetry variants: (slot permutation, sign).
_RIEM_VARIANTS = (
    ((0, 1, 2, 3), 1), ((1, 0, 2, 3), -1), ((0, 1, 3, 2), -1),
    ((1, 0, 3, 2), 1), ((2, 3, 0, 1), 1), ((3, 2, 0, 1), -1),
    ((2, 3, 1, 0), -1), ((3, 2, 1, 0), 1),
)
_SYM2_VARIANTS = (((0, 1), 1), ((1, 0), 1))
# kind -> (slot getter, sign) per variant
_SYMMETRIES = {kind: tuple((itemgetter(*perm), s) for perm, s in variants)
               for kind, variants in (("riem", _RIEM_VARIANTS),
                                      ("ric", _SYM2_VARIANTS),
                                      ("delta", _SYM2_VARIANTS))}

_MAX_FRONTIER = 200000
# g_a g_b + g_b g_a = -2 delta(a,b) for the C family, +2 delta(a,b) for CHAT
_ANTICOMMUTATOR = {"c": Scalar.of(-2), "h": Scalar.of(2)}
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
            tuple(gen_key(g) for g in t.word),
            t.norm, t.trid, t.vol)


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
    fac = tuple(F(f.kind, tuple(sub.get(i, i) if isinstance(i, str) else i
                                for i in f.idx)) for f in t.fac)
    word = tuple(G(g.fam, sub.get(g.idx, g.idx) if isinstance(g.idx, str)
                   else g.idx) for g in t.word)
    return Term(t.coeff, fac, word, t.norm, t.trid, t.vol)


def free_labels(t: Term) -> set[str]:
    return {lab for lab, c in label_counts(t).items() if c == 1}


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
                (a.norm[0] + b.norm[0], a.norm[1] + b.norm[1]),
                a.trid + b.trid, a.vol + b.vol)


def mul_sums(aa: Iterable[Term], bb: Iterable[Term]) -> tuple[Term, ...]:
    bb = tuple(bb)
    return tuple(mul_terms(a, b) for a in aa for b in bb)


def scale(terms: Iterable[Term], s: Scalar) -> tuple[Term, ...]:
    return tuple(Term(t.coeff * s, t.fac, t.word, t.norm, t.trid, t.vol)
                 for t in terms)


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


def _contract_once(t: Term, counts):
    """Apply one reduction rule. Returns None (no rule fired), 'zero',
    or a replacement Term."""
    for k, f in enumerate(t.fac):
        if f.kind == "riem":
            if f.idx[0] == f.idx[1] or f.idx[2] == f.idx[3]:
                return "zero"
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
                            return Term(coeff, fac, t.word, t.norm,
                                        t.trid, t.vol)
        elif f.kind == "ric":
            i = f.idx[0]
            if (f.idx[1] == i and isinstance(i, str)
                    and counts.get(i) == 2):
                fac = t.fac[:k] + (F("scal", ()),) + t.fac[k + 1:]
                return Term(t.coeff, fac, t.word, t.norm, t.trid, t.vol)
        elif f.kind == "delta":
            i, j = f.idx
            rest = t.fac[:k] + t.fac[k + 1:]
            if isinstance(i, int) and isinstance(j, int):
                if i == j:
                    return Term(t.coeff, rest, t.word, t.norm, t.trid, t.vol)
                return "zero"
            if i == j:  # same symbolic label: trace of the identity
                if counts.get(i) != 2:
                    raise ContractViolation(
                        f"delta({i},{i}) with label count {counts.get(i)}")
                return Term(t.coeff * S_N, rest, t.word, t.norm,
                            t.trid, t.vol)
            for a, b in ((i, j), (j, i)):
                if isinstance(a, str) and counts.get(a) == 2:
                    out = map_labels(
                        Term(t.coeff, rest, t.word, t.norm, t.trid, t.vol),
                        {a: b})
                    return out
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
                    return Term(t.coeff, fac, t.word,
                                (t.norm[0] + 2, t.norm[1]), t.trid, t.vol)
                seen[i] = k
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
                    return Term(t.coeff, fac, t.word, t.norm, t.trid, t.vol)
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
                        return Term(t.coeff, fac, t.word, t.norm,
                                    t.trid, t.vol)
    vs = by_kind.get("v", ())
    for a in range(len(vs)):
        la = t.fac[vs[a]].idx[0]
        if not (isinstance(la, str) and counts.get(la) == 2):
            continue
        for b in range(a + 1, len(vs)):
            if t.fac[vs[b]].idx[0] == la:
                fac = tuple(ff for n, ff in enumerate(t.fac)
                            if n not in (vs[a], vs[b])) + (F("vsq", ()),)
                return Term(t.coeff, fac, t.word, t.norm, t.trid, t.vol)
    return None


def _factor_facts(t: Term, counts):
    """The factor side of the word sort keys.

    Returns each factor's structural key, and a map from every dummy that
    a factor holds to that generator's word key (kind rank, slot,
    structural key).  Both read only the factors and the label counts, so
    `_reduce` computes them once per factor set and keeps them across word
    reorders.
    """
    skeys = [_structural_key(f, counts) for f in t.fac]
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
    keys come from `_factor_facts`.
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


def _word_once(t: Term, counts, facts):
    """One word rewriting step toward normal order, or None if ordered.

    Returns the rewritten terms as (term, label counts, factor facts).  No
    branch changes the labels' multiset except a contracted equal pair,
    which drops its label, so the counts travel with every branch.  The
    factor facts travel with the branches that keep the factors (a
    reorder, a contracted equal pair) and are None where a delta factor
    was added.
    """
    w = t.word
    keys = _partner_keys(w, counts, facts[1])
    for p in range(len(w) - 1):
        g1, g2 = w[p], w[p + 1]
        if g1.fam == "h" and g2.fam == "c":
            nw = w[:p] + (g2, g1) + w[p + 2:]
            return [(Term(-t.coeff, t.fac, nw, t.norm, t.trid, t.vol),
                     counts, facts)]
        if g1.fam != g2.fam:
            continue
        if g1.idx == g2.idx:
            sign = -S_ONE if g1.fam == "c" else S_ONE
            coeff = t.coeff * sign
            left = counts
            if isinstance(g1.idx, str):
                if counts.get(g1.idx) != 2:
                    raise ContractViolation(
                        f"word label {g1.idx!r} occurs {counts.get(g1.idx)} "
                        "times")
                coeff = coeff * S_N  # the dummy pair sums to n
                left = {lab: c for lab, c in counts.items() if lab != g1.idx}
            nw = w[:p] + w[p + 2:]
            return [(Term(coeff, t.fac, nw, t.norm, t.trid, t.vol),
                     left, facts)]
        if keys[p] == keys[p + 1]:
            cls, part, _ = keys[p][1]
            if cls == 2 and part[0] in _MONOMIAL_RANKS:
                # both dummies contract into one symmetric monomial (xi_a xi_b
                # or x_a x_b), so the pair equals half its anticommutator
                sign = -S_ONE if g1.fam == "c" else S_ONE
                return [(Term(t.coeff * sign,
                              t.fac + (F("delta", (g1.idx, g2.idx)),),
                              w[:p] + w[p + 2:], t.norm, t.trid, t.vol),
                         counts, None)]
        if keys[p] > keys[p + 1]:
            swapped = w[:p] + (g2, g1) + w[p + 2:]
            contracted = w[:p] + w[p + 2:]
            return [
                (Term(-t.coeff, t.fac, swapped, t.norm, t.trid, t.vol),
                 counts, facts),
                (Term(t.coeff * _ANTICOMMUTATOR[g1.fam],
                      t.fac + (F("delta", (g1.idx, g2.idx)),),
                      contracted, t.norm, t.trid, t.vol), counts, None),
            ]
    return None


def _reduce(t: Term) -> list[tuple[Term, dict, list]]:
    """Rewrite a term until no rule applies; returns each reduced term with
    its label counts and its factors' structural keys.

    The facts travel with a term on the rewrite stack.  The label counts
    are computed fresh only for the input and for the output of a factor
    rule (`_contract_once`); the word rules keep the labels.  The factor
    facts are computed once per factor set: a word reorder or a contracted
    equal pair keeps the factors and the counts of their labels, and
    `_contract_once`, which reads nothing else, has already found nothing
    to do on them.
    """
    out = []
    stack = [(t, None, None)]
    while stack:
        cur, counts, facts = stack.pop()
        if cur.coeff.is_zero():
            continue
        if counts is None:
            counts = label_counts(cur)
            if any(c > 2 for c in counts.values()):
                bad = [la for la, c in counts.items() if c > 2]
                raise ContractViolation(f"labels {bad} occur more than twice")
        if facts is None:
            step = _contract_once(cur, counts)
            if step == "zero":
                continue
            if step is not None:
                stack.append((step, None, None))
                continue
            facts = _factor_facts(cur, counts)
        rewritten = _word_once(cur, counts, facts)
        if rewritten is None:
            out.append((cur, counts, facts[0]))
        else:
            stack.extend(rewritten)
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
    inv = Scalar.frac(1, len(perms))
    out = []
    for parts in perms:
        moved = map_labels(t, dict(zip(labs, chain.from_iterable(parts))))
        fac = list(moved.fac)
        for k in slots:
            fac[k] = t.fac[k]
        out.append(Term(t.coeff * inv, tuple(fac), moved.word,
                        t.norm, t.trid, t.vol))
    return out


def _variants(f: F):
    """The factor's monoterm symmetry variants, each with its sign."""
    perms = _SYMMETRIES.get(f.kind)
    if perms is None:
        return [(f, 1)]
    return [(F(f.kind, get(f.idx)), s) for get, s in perms]


def _structural_key(f: F, counts):
    """Kind rank and slot classes (concrete index, free label, dummy),
    minimal over the symmetry variants, so the key does not depend on the
    slot order a factor arrived in."""
    cls = []
    for i in f.idx:
        if isinstance(i, int):
            cls.append((0, i, ""))
        elif counts.get(i) == 1:
            cls.append((1, 0, i))
        else:
            cls.append((2, 0, ""))
    perms = _SYMMETRIES.get(f.kind)
    if perms is None:
        return (KIND_RANK[f.kind], tuple(cls))
    return (KIND_RANK[f.kind], min(get(cls) for get, _ in perms))


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
    it: `_word_once` found it sorted under partner keys built from these
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
    """
    dummies = {lab for lab, c in counts.items() if c == 2}
    names = _dummy_names(len(dummies))
    # canonical names for word dummies come from the word scan alone
    wmap: dict[str, str] = {}
    for g in t.word:
        if g.idx in dummies and g.idx not in wmap:
            wmap[g.idx] = names[len(wmap)]
    renamed_word = tuple(G(g.fam, wmap[g.idx]) if g.idx in dummies else g
                         for g in t.word)
    # idx_key of every index a presentation can hold
    ikey = {name: idx_key(name) for name in names[:len(dummies)]}
    for f in t.fac:
        for i in f.idx:
            if i not in dummies and i not in ikey:
                ikey[i] = idx_key(i)
    slots = sorted(range(len(t.fac)), key=skeys.__getitem__)
    groups = {}
    for k in slots:
        groups.setdefault(skeys[k], []).append(k)
    variant_lists = [[(vf.idx, s) for vf, s in _variants(f)] for f in t.fac]
    # frontier: (chosen factor bitmask, dummies named so far) ->
    # (label -> canonical name, sign); every entry has output fac_out
    frontier = {(0, ()): (wmap, 1)}
    fac_out = []
    for slot in slots:
        best = None
        cands = []
        group = groups[skeys[slot]]
        for (used, named), (sub, sign) in frontier.items():
            base = len(sub)
            for k in group:
                if used >> k & 1:
                    continue
                for vidx, s in variant_lists[k]:
                    new = []
                    nidx = []
                    for i in vidx:
                        if i in dummies:
                            name = sub.get(i)
                            if name is None:
                                if i not in new:
                                    new.append(i)
                                name = names[base + new.index(i)]
                            nidx.append(name)
                        else:
                            nidx.append(i)
                    key = tuple([ikey[i] for i in nidx])
                    if best is None or key < best:
                        best, best_idx, cands = key, nidx, []
                    elif key > best:
                        continue
                    cands.append((used | 1 << k, named + tuple(new), new,
                                  sub, sign * s))
            if len(cands) > _MAX_FRONTIER:
                raise NormalizeError("canonical search space too large")
        fac_out.append(F(t.fac[slot].kind, tuple(best_idx)))
        frontier = {}
        for used, named, new, sub, sign in cands:
            prev = frontier.get((used, named))
            if prev is None:
                if new:
                    sub = dict(sub)
                    for i in new:
                        sub[i] = names[len(sub)]
                frontier[used, named] = (sub, sign)
            elif prev[1] != sign:
                return None  # t = -t under a symmetry: antisymmetric zero
    signs = {sign for _, sign in frontier.values()}
    if len(signs) > 1:
        return None  # the minimum is reached with both signs
    coeff = t.coeff if signs == {1} else -t.coeff
    return Term(coeff, tuple(fac_out), renamed_word, t.norm, t.trid, t.vol)


def normalize(terms: Iterable[Term]) -> tuple[Term, ...]:
    acc: dict[tuple, tuple[Scalar, Term]] = {}
    for t in terms:
        for red in _reduce(t):
            groups = _monomial_groups(red[0], red[1])
            batch = ([x for s in _symmetrize(red[0], groups)
                      for x in _reduce(s)] if groups else (red,))
            for r, counts, skeys in batch:
                out = _finalize(r, counts, skeys)
                if out is None:
                    continue
                key = term_key(out)
                if key in acc:
                    acc[key] = (acc[key][0] + out.coeff, out)
                else:
                    acc[key] = (out.coeff, out)
    final = []
    for key in sorted(acc):
        coeff, proto = acc[key]
        if not coeff.is_zero():
            final.append(Term(coeff, proto.fac, proto.word, proto.norm,
                              proto.trid, proto.vol))
    return tuple(final)


def sums_equal(a: Iterable[Term], b: Iterable[Term]) -> bool:
    diff = list(a) + [Term(-t.coeff, t.fac, t.word, t.norm, t.trid, t.vol)
                      for t in b]
    return not normalize(diff)
