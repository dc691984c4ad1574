"""Shared exact term algebra.

A Term couples a Q[m] coefficient with a multiset of indexed tensor
factors, a word in the two Clifford generator families and a power of
|xi|.  Index labels are either concrete frame indices (int, 1-based) or
symbolic labels (str).  A symbolic label occurring exactly twice in a term
is a dummy summed over 1..n; a label occurring once is free.  Labels
starting with "_" are reserved for generated names.

A word is a product of blocks.  A generator whose `wedge` flag is set is
antisymmetrized with the one before it, in one block; a block is the
antisymmetrized product of its generators, the image of their exterior
product under Chevalley's quantization map (Berline, Getzler & Vergne,
*Heat Kernels and Dirac Operators*, ch. 3).  The constructors make every
generator its own block, so a word of them is the plain Clifford product.

Symbols are written in eta = i xi (Gilkey, *Invariance Theory, the Heat
Equation, and the Atiyah-Singer Index Theorem*, 1995): a factor of kind
"xi" is a component eta_a and a norm a power of |xi|, with |xi|^2 =
-eta_a eta_a, so every coefficient is rational.  Each rule this fixes is
stated where it acts: `operators.dirac_symbol`, `pdo.composition_summand`,
`pdo.d_xi_terms`, `_PAIR_FOLDS` and `sphere.integrate_term`.  The paper's
displays, printed in xi with i, are converted by `reference.eta_form`.

normalize() rewrites a sum of terms to a canonical merged form:
  * an input term's deltas are applied on entry (`contract_deltas`): one
    with a dummy slot is substituted away (delta(a,a) -> n = 2m),
  * Riemann/Ricci self-contractions reduce to Ricci / scalar curvature
    (`_RIEM_PAIR`),
  * contracted pairs of one-slot factors fold (`_PAIR_FOLDS`): xi_a xi_a
    -> -|xi|^2, u_a w_a -> guw, v_a v_a -> vsq; an x_a x_a pair has no
    carrier and is kept, and u_a ric_ab w_b folds to ricuw,
  * a word of more than one block per family is expanded by Wick's
    theorem (`wick`): a sum over the partial pairings of generators of one
    family from two different blocks, each pair contracting to -delta for
    C and +delta for CHAT, times the unpaired rest as one C block and one
    CHAT block, with the pairing's deltas applied (`paired_terms`), so no
    rule after the entry makes a delta that holds a dummy,
  * a block vanishes when it holds a label twice, two slots of a symmetric
    factor (ric, delta), two one-slot factors of one kind (two xi, two x,
    two v, ...) or three slots of one Riemann factor (first Bianchi,
    R_a[bcd] = 0); two slots of one Riemann factor that are not one of its
    antisymmetric pairs become half the pair form, since
    R_abcd - R_cbad = R_acbd (`_block_rules`),
  * dummies are renamed canonically and monoterm tensor symmetries are
    resolved by building the lexicographically minimal presentation slot by
    slot, keeping only partial presentations with the minimal prefix (the
    double-coset idea of Manssur, Portugal & Svaiter, IJMPC 13 (2002), and
    of xPerm, CPC 179 (2008)); each block is then sorted under the
    labelling with the sign of the sort, a term equal to its own negative
    is dropped as an antisymmetric zero, and a search whose frontier passes
    _MAX_FRONTIER partial presentations raises NormalizeError,
  * identical presentations are merged, and a Riemann factor with no two
    dummies in one block is settled by first Bianchi: the greatest
    presentation of its cyclic orbit is written through the others
    (`_first_bianchi`); zero coefficients are dropped.

The blocks of a normal form are a basis of the Clifford algebra over the
tensor coefficients, and the rules leave each coefficient in one form, so
equal values reach identical normal forms and a normal form is its own
normal form.  KIND_RANK orders the factors of a presentation; any fixed
order gives a canonical form.

The rules hold one precondition: no label occurs more than twice.  It is
checked where a term enters normalize, merge_presentations and
`_finalize`, and no rule breaks it.  Each rule finds a contraction by
finding both occurrences of a label, which are then all of them, so a
term's dummies are read off the term and no rule carries label counts.

The stages that make deltas apply them as they make them, through
`contract_deltas`: `clifford.trace` hands over each full pairing of a word
(`paired_terms`), `pdo.d_xi_terms` applies xi_a -> delta(a, j),
`pdo.d_x_terms` x_a -> delta(a, j) and `sphere.integrate_term` its
cosphere pairings.  None of these stages normalizes, so they chain: a
residue density integrates, traces and then normalizes once, and
normalize applies whatever deltas its input still holds on entry.

merge_presentations(terms) is `_finalize` alone on each term as written,
then `merge_equal`: no factor rule runs and no word is expanded, and terms
equal up to dummy names, factor order and symmetry variants cancel before
the expansion branches them.  `pdo.terms_equal_taylor` runs it on the
difference of its two sides, where most terms appear on both sides.  The
derivatives of `pdo` run `merge_equal` alone: a concrete power
differentiates into copies equal as written, and a search would merge
almost nothing more.  normalize does not run merge_presentations: its
callers almost never hold two equal presentations.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .scalars import S_N, S_ONE, Scalar

Idx = int | str


class F(NamedTuple):
    kind: str
    idx: tuple[Idx, ...]


class G(NamedTuple):
    fam: str  # 'c' or 'h' (hat family)
    idx: Idx
    wedge: bool = False  # in one block with the generator before it


class Term(NamedTuple):
    coeff: Scalar
    fac: tuple[F, ...]
    word: tuple[G, ...] = ()
    norm: tuple[int, int] = (0, 0)  # |xi| exponent: const + slope*m


class ContractViolation(Exception):
    """Malformed index structure (label used more than twice, etc.)."""


class NormalizeError(Exception):
    """Normalization could not complete."""


# every factor kind with its number of index slots, in the order of factors
# in a presentation: atoms, then the vector fields and their derivatives,
# then curvature, delta and the xi / x monomials
_KINDS = (("scal", 0), ("guw", 0), ("ricuw", 0), ("vsq", 0),
          ("u", 1), ("w", 1), ("v", 1), ("du", 2), ("dw", 2), ("dv", 2),
          ("riem", 4), ("ric", 2), ("delta", 2), ("xi", 1), ("x", 1))
KIND_ARITY = dict(_KINDS)
KIND_RANK = {kind: rank for rank, (kind, _) in enumerate(_KINDS)}

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
# two slots (p, q) of a Riemann factor -> the variant that brings them to
# slots 0 and 2, which the Ricci trace and the block rules' pair form read;
# the keys hold every pair but {0,1} and {2,3}, which vanish by
# antisymmetry before this is read
_RIEM_PAIR = {(perm[0], perm[2]): (perm, sign)
              for perm, sign in _RIEM_VARIANTS}
# a dummy joining two one-slot factors, by their kinds in factor order ->
# the atoms it folds to and its |xi| step; a step negates: eta.eta = -|xi|^2
_PAIR_FOLDS = {("xi", "xi"): ((), 2), ("v", "v"): ((F("vsq", ()),), 0),
               ("u", "w"): ((F("guw", ()),), 0),
               ("w", "u"): ((F("guw", ()),), 0)}
_DUMMY_CLASS = (2, 0, "")
_MAX_FRONTIER = 200000


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


def check_labels(t: Term) -> None:
    """Raise ContractViolation if a label of t occurs more than twice."""
    for label, n in label_counts(t).items():
        if n > 2:
            raise ContractViolation(f"label {label!r} occurs more than twice")


def map_labels(t: Term, sub: dict[str, Idx]) -> Term:
    if not sub:
        return t
    fac = tuple(F(f.kind, tuple([sub.get(i, i) for i in f.idx]))
                for f in t.fac)
    word = tuple(G(g.fam, sub.get(g.idx, g.idx), g.wedge) for g in t.word)
    return Term(t.coeff, fac, word, t.norm)


def mul_terms(a: Term, b: Term) -> Term:
    """Product of two terms; dummies renamed apart, shared free labels kept
    (they become the contraction channels of the product)."""
    ca, cb = label_counts(a), label_counts(b)
    used = set(ca) | set(cb)
    fresh = 0
    subs = []
    for counts in (ca, cb):
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
        subs.append(sub)
    a, b = map_labels(a, subs[0]), map_labels(b, subs[1])
    return Term(a.coeff * b.coeff, a.fac + b.fac, a.word + b.word,
                (a.norm[0] + b.norm[0], a.norm[1] + b.norm[1]))


# ---------------------------------------------------------------------------
# reduction rules


def _contract_once(t: Term):
    """Apply one reduction rule. Returns None (no rule fired), 'zero', or
    the replacement Term.  A symbolic label found twice is a dummy, since
    no label occurs more than twice."""
    rics = []
    for k, f in enumerate(t.fac):
        if f.kind == "riem":
            if f.idx[0] == f.idx[1] or f.idx[2] == f.idx[3]:
                return "zero"
            if len(set(f.idx)) == 4:
                continue  # no pair to contract
            for p in range(4):
                i = f.idx[p]
                if isinstance(i, str):
                    for q in range(p + 1, 4):
                        if f.idx[q] == i:
                            perm, sign = _RIEM_PAIR[p, q]
                            nf = F("ric", (f.idx[perm[1]], f.idx[perm[3]]))
                            coeff = t.coeff if sign == 1 else -t.coeff
                            fac = t.fac[:k] + (nf,) + t.fac[k + 1:]
                            return Term(coeff, fac, t.word, t.norm)
        elif f.kind == "ric":
            i = f.idx[0]
            if f.idx[1] == i and isinstance(i, str):
                fac = t.fac[:k] + (F("scal", ()),) + t.fac[k + 1:]
                return Term(t.coeff, fac, t.word, t.norm)
            rics.append(k)
    # one scan over the one-slot factors: a label held twice folds its pair
    # by _PAIR_FOLDS, and each keeps its first factor for the Ricci fold
    once: dict[Idx, int] = {}
    for k, f in enumerate(t.fac):
        if KIND_ARITY[f.kind] == 1 and isinstance(f.idx[0], str):
            i = f.idx[0]
            if i not in once:
                once[i] = k
                continue
            fold = _PAIR_FOLDS.get((t.fac[once[i]].kind, f.kind))
            if fold is not None:
                atoms, dn = fold
                fac = tuple(ff for n, ff in enumerate(t.fac)
                            if n not in (once[i], k)) + atoms
                return Term(-t.coeff if dn else t.coeff, fac, t.word,
                            (t.norm[0] + dn, t.norm[1]))
    # u_a ric_ab w_b -> ricuw, in either orientation of the Ricci factor
    for kr in rics:
        a, b = t.fac[kr].idx
        if a in once and b in once:
            if {t.fac[once[a]].kind, t.fac[once[b]].kind} == {"u", "w"}:
                fac = tuple(ff for n, ff in enumerate(t.fac)
                            if n not in (once[a], once[b], kr))
                return Term(t.coeff, fac + (F("ricuw", ()),), t.word, t.norm)
    return None


def contract_deltas(t: Term, deltas: tuple[F, ...]) -> Term | None:
    """t times the delta factors, each applied by the delta rule, or None
    when one of them vanishes: the one place a delta factor is applied.

    The product must hold no label more than twice.  Each delta is applied
    with the pending ones still in the term.  delta(i, j) of two distinct
    frame indices is zero; delta(i, i) is 1 for a frame index and n for a
    dummy, and raises ContractViolation when the rest holds i too.  For
    i != j, a slot a (i before j) that the rest holds, in a factor or else
    in the word, is a dummy and is renamed there to the other slot.  A
    delta with neither slot a dummy is kept and put back at the end.
    """
    cur = Term(t.coeff, t.fac + deltas, t.word, t.norm)
    kept = ()
    for _ in deltas:
        last, coeff, fac, word = cur.fac[-1], cur.coeff, cur.fac[:-1], cur.word
        i, j = last.idx
        if i == j:
            if isinstance(i, str):  # trace of the identity
                if (any(i in f.idx for f in fac)
                        or any(g.idx == i for g in word)):
                    raise ContractViolation(
                        f"delta({i},{i}) with a third use of {i}")
                coeff = coeff * S_N
        elif isinstance(i, int) and isinstance(j, int):
            return None
        else:
            for a, b in ((i, j), (j, i)):
                if not isinstance(a, str):
                    continue
                for k, f in enumerate(fac):
                    if a in f.idx:
                        f = F(f.kind, tuple([b if x == a else x
                                             for x in f.idx]))
                        fac = fac[:k] + (f,) + fac[k + 1:]
                        break
                else:
                    for p, g in enumerate(word):
                        if g.idx == a:
                            word = (word[:p] + (g._replace(idx=b),)
                                    + word[p + 1:])
                            break
                    else:
                        continue  # a is free: try the other slot
                break
            else:  # neither slot is a dummy
                kept = (last,) + kept
        cur = Term(coeff, fac, word, cur.norm)
    if kept:
        cur = Term(cur.coeff, cur.fac + kept, cur.word, cur.norm)
    return cur


# ---------------------------------------------------------------------------
# the exterior basis of the words


def wick(word: tuple[G, ...], full: bool = False):
    """The word in the block basis, by Wick's theorem: a list of
    (sign, deltas, rest), one per partial pairing of the generators.

    A pair joins two generators of one family from two different blocks
    (never two of one block) and contracts to half their anticommutator:
    -delta for C, +delta for CHAT, with the -1 kept in the int sign.  A
    pair of two distinct frame indices is left out, since its delta is
    zero.  The sign also holds that of the permutation that brings each
    pair together, which is (-1) to the number of generators still
    unpaired between its two ends, and that of moving the unpaired C
    generators ahead of the unpaired CHAT ones.  rest is those generators
    as one C block and one CHAT block, in word order; with full=True only
    the full pairings are listed, whose rest is empty.
    """
    blocks = []
    for g in word:
        blocks.append(len(blocks) if not blocks or not g.wedge
                      else blocks[-1])
    out = []

    def pair(todo, sign, deltas, cs, hs):
        if not todo:
            out.append((sign, deltas, cs + hs))
            return
        p, todo = todo[0], todo[1:]
        g = word[p]
        if not full and g.fam == "c":  # ahead of the CHATs before it
            pair(todo, -sign if len(hs) % 2 else sign, deltas,
                 cs + (G("c", g.idx, bool(cs)),), hs)
        elif not full:
            pair(todo, sign, deltas, cs, hs + (G("h", g.idx, bool(hs)),))
        for k, q in enumerate(todo):
            h = word[q]
            if (h.fam != g.fam or blocks[q] == blocks[p]
                    or isinstance(g.idx, int) and isinstance(h.idx, int)
                    and g.idx != h.idx):
                continue
            pair(todo[:k] + todo[k + 1:],
                 -sign if (k % 2) != (g.fam == "c") else sign,
                 deltas + (F("delta", (g.idx, h.idx)),), cs, hs)

    pair(tuple(range(len(word))), 1, (), (), ())
    return out


def _expanded(word: tuple[G, ...]) -> bool:
    """Whether the word is one C block and then one CHAT block, either of
    them possibly absent: the words `wick` leaves."""
    prev = None
    for g in word:
        if g.wedge != (g.fam == prev) or prev == "h" and g.fam == "c":
            return False
        prev = g.fam
    return True


def _block_rules(t: Term) -> Term | None:
    """The zero rules of the two blocks of an expanded term, or None when
    the term vanishes.

    A block is antisymmetric in its labels, so it vanishes with a label
    held twice, with two dummies into the slots of one symmetric factor
    (ric, delta) or into two one-slot factors of one kind, and with three
    dummies into one Riemann factor, whose antisymmetric part in three
    slots is zero by first Bianchi.  Two dummies into a Riemann factor
    that are not one of its antisymmetric slot pairs become half the pair
    form: R_abcd with a and c in one block is 1/2 R_acbd there.  The rule
    takes the variant of the factor with the two slots at 0 and 2 first,
    and it leaves the factor's other two slots a pair, so the other block
    finds them settled.
    """
    # a symbolic label of the word that a factor holds is a dummy
    held = {i: k for k, f in enumerate(t.fac) for i in f.idx
            if isinstance(i, str)}
    coeff, fac = t.coeff, list(t.fac)
    for fam in ("c", "h"):
        labels = [g.idx for g in t.word if g.fam == fam]
        if len(set(labels)) < len(labels):
            return None
        slots: dict[int, list[int]] = {}
        for i in labels:
            if i in held:
                k = held[i]
                slots.setdefault(k, []).append(fac[k].idx.index(i))
        one_slot = [fac[k].kind for k in slots
                    if KIND_ARITY[fac[k].kind] == 1]
        if len(set(one_slot)) < len(one_slot):
            return None
        for k, ss in slots.items():
            f = fac[k]
            if (len(ss) > 2 or len(ss) == 2
                    and _VARIANTS[f.kind] is _SYM2_VARIANTS):
                return None
            if f.kind == "riem" and (pq := tuple(sorted(ss))) in _RIEM_PAIR:
                p, q = pq
                perm, sign = _RIEM_PAIR[pq]
                fac[k] = F("riem", (f.idx[p], f.idx[q], f.idx[perm[1]],
                                    f.idx[perm[3]]))
                coeff = coeff * Scalar.of(sign, 2)
    return Term(coeff, tuple(fac), t.word, t.norm)


def paired_terms(t: Term, full: bool = False) -> list[Term]:
    """t with its word in the block basis (`wick`): one term per pairing
    that does not vanish, with the pairing's sign and its deltas applied
    (`contract_deltas`) and the unpaired rest as its word."""
    out = []
    for sign, deltas, rest in wick(t.word, full):
        paired = contract_deltas(
            Term(t.coeff if sign > 0 else -t.coeff, t.fac, rest, t.norm),
            deltas)
        if paired is not None:
            out.append(paired)
    return out


def _reduce(t: Term) -> list[Term]:
    """Rewrite a term until no rule applies; returns the reduced terms.

    The input is checked to hold no label more than twice, which no rule
    changes, and its deltas are applied on entry (`contract_deltas`).  A
    popped term that meets no factor rule (`_contract_once`) and holds
    more than one block of a family is expanded, and each pairing goes
    back on the stack (`paired_terms`).  A term with an expanded word goes
    through the block rules and out.  A zero term is not special-cased:
    it reduces like any other, and the merge drops its zero sum.
    """
    check_labels(t)
    deltas = tuple([f for f in t.fac if f.kind == "delta"])
    if deltas:
        t = contract_deltas(Term(t.coeff, tuple([
            f for f in t.fac if f.kind != "delta"]), t.word, t.norm), deltas)
        if t is None:
            return []
    out = []
    stack = [t]
    while stack:
        cur = stack.pop()
        step = _contract_once(cur)
        if step == "zero":
            continue
        if step is not None:
            stack.append(step)
            continue
        if not _expanded(cur.word):
            stack.extend(paired_terms(cur))
            continue
        cur = _block_rules(cur)
        if cur is not None:
            out.append(cur)
    return out


def _structural_key(f: F, dummies):
    """Kind rank and slot classes (concrete index, free label, dummy),
    minimal over the symmetry variants, so the key does not depend on the
    slot order a factor arrived in."""
    cls = tuple([(0, i, "") if isinstance(i, int)
                 else _DUMMY_CLASS if i in dummies else (1, 0, i)
                 for i in f.idx])
    perms = _VARIANTS[f.kind]
    if len(perms) == 1 or cls.count(cls[0]) == len(cls):
        return (KIND_RANK[f.kind], cls)
    return (KIND_RANK[f.kind],
            min([tuple([cls[p] for p in perm]) for perm, _ in perms]))


def _word_presentation(word, sub, spare):
    """The word under a labelling, as (family, rank) pairs, and the sign of
    sorting each block.

    `sub` maps each label a factor holds, and each frame index and free
    label, to its rank; a dummy held only by the word takes the next rank
    of `spare` where it first occurs.
    """
    extra: dict[Idx, int] = {}
    out, sign, block = [], 1, []
    for g in word + (None,):
        if block and (g is None or not g.wedge):
            for a in range(len(block)):
                for b in range(a + 1, len(block)):
                    if block[a] > block[b]:
                        sign = -sign
            out.extend(sorted(block))
            block = []
        if g is None:
            break
        r = sub.get(g.idx)
        if r is None:
            r = extra.get(g.idx)
            if r is None:
                r = extra[g.idx] = spare[len(extra)]
        block.append((g.fam, r))
    return tuple(out), sign


def _finalize(t: Term):
    """Canonical minimal presentation of a reduced term, or None when the
    term vanishes by antisymmetry.  Its labels are counted once: one used
    more than twice raises, and one used twice is a dummy.

    A block of one generator keeps its place in the word, so the dummies
    of those blocks are named first, in word order, with no search; the
    factors they reach are then ranked before the search, which keeps its
    frontier small (a raw word is all such blocks).  The factors are
    sorted into slots by structural key; a presentation fills each slot
    with a distinct factor of that slot's key, in one of its symmetry
    variants, and names its dummies in first-seen order.  The canonical
    presentation is the one whose factor keys are
    lexicographically minimal, and among those the one whose word is.  It
    is built slot by slot: a frontier holds the partial presentations whose
    output so far equals the minimal prefix, and each slot keeps only the
    extensions with the minimal factor key, since names are assigned in
    traversal order and a larger prefix can never complete to the minimum.
    Entries with the same chosen factors and dummy renaming have the same
    completions; if their signs differ, the term equals its own negative
    and vanishes.

    Each complete entry then presents the word: the dummies only the word
    holds take the names after the factors' in first-seen order, and each
    block is sorted with the sign of its sort (`_word_presentation`).  In
    a term from `_reduce` such a dummy joins its C block to its CHAT
    block, so which of them takes which name changes both sorts alike.
    The least word is taken; if it is reached with both signs, the term
    vanishes.

    Every index a presentation can hold (a frame index, a free label, a
    canonical dummy name) is ranked once, in the order of `idx_key`, and a
    partial presentation maps each label it has placed to that rank, so a
    candidate's factor key is a list of ints.  A candidate whose first
    position exceeds the slot minimum's is dropped; otherwise its whole
    key is built and compared with the minimum as a list.  A term with no
    index and no word is its own presentation, with its factors in slot
    order, and builds none of this.
    """
    counts: dict[Idx, int] = {}
    for f in t.fac:
        for i in f.idx:
            counts[i] = counts.get(i, 0) + 1
    for g in t.word:
        counts[g.idx] = counts.get(g.idx, 0) + 1
    dummies, held = set(), set()
    for i, c in counts.items():
        if c == 2 and isinstance(i, str):
            dummies.add(i)
        elif c < 3 or isinstance(i, int):
            held.add(i)
        else:
            raise ContractViolation(f"label {i!r} occurs more than twice")
    skeys = [_structural_key(f, dummies) for f in t.fac]
    slots = sorted(range(len(t.fac)), key=skeys.__getitem__)
    if not t.word and not any(f.idx for f in t.fac):
        return Term(t.coeff, tuple([t.fac[k] for k in slots]), (), t.norm)
    names = [f"_d{k:02d}" for k in range(len(dummies))]
    order = sorted(held.union(names), key=idx_key)
    rank = {i: r for r, i in enumerate(order)}
    name_rank = [rank[name] for name in names]
    sub = {i: rank[i] for i in held}
    nw = 0
    for p, g in enumerate(t.word):
        if (g.idx in dummies and g.idx not in sub and not g.wedge
                and (p + 1 == len(t.word) or not t.word[p + 1].wedge)):
            sub[g.idx] = name_rank[nw]
            nw += 1
    groups: dict[tuple, list[int]] = {}
    for k in slots:
        groups.setdefault(skeys[k], []).append(k)
    # frontier: (chosen factor bitmask, dummies named so far) ->
    # (label -> rank, sign); every entry has output fac_out
    frontier = {(0, ()): (sub, 1)}
    fac_out = []
    for slot in slots:
        kind = t.fac[slot].kind
        best = None
        cands = []
        for (used, named), (sub, sign) in frontier.items():
            base = nw + len(named)
            for k in groups[skeys[slot]]:
                if used >> k & 1:
                    continue
                idx = t.fac[k].idx
                vals = [sub.get(i) for i in idx]
                for perm, s in _VARIANTS[kind]:
                    if best is not None and perm:
                        r = vals[perm[0]]
                        if (name_rank[base] if r is None else r) > best[0]:
                            continue
                    key = []
                    new = []
                    for pos in perm:
                        r = vals[pos]
                        if r is None:
                            i = idx[pos]
                            if i not in new:
                                new.append(i)
                            r = name_rank[base + new.index(i)]
                        key.append(r)
                    if best is None or key < best:
                        best, cands = key, []
                    elif key > best:
                        continue
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
                    sub.update(zip(
                        new, name_rank[nw + len(named) - len(new):]))
                frontier[used, named] = (sub, sign)
            elif prev[1] != sign:
                return None  # t = -t under a symmetry: antisymmetric zero
    word_min, signs = None, set()
    for (_, named), (sub, sign) in frontier.items():
        word, wsign = _word_presentation(t.word, sub,
                                         name_rank[nw + len(named):])
        if word_min is None or word < word_min:
            word_min, signs = word, set()
        if word == word_min:
            signs.add(sign * wsign)
    if len(signs) > 1:
        return None  # the minimum is reached with both signs
    coeff = t.coeff if signs == {1} else -t.coeff
    return Term(coeff, tuple(fac_out),
                tuple(G(fam, order[r], g.wedge)
                      for (fam, r), g in zip(word_min, t.word)), t.norm)


def _first_bianchi(t: Term) -> list[Term]:
    """A presentation as presentations none of which is the greatest of its
    first-Bianchi relation.

    A Riemann factor with no two dummies in one block (the block rules
    settle the others) satisfies R_abcd = -R_acdb - R_adbc.  With the
    term's coefficient set to one, the two cyclic variants are finalized
    and equal presentations summed, which gives P = sum_K n_K P_K with
    integer n_K.  When P itself has the greatest presentation among those
    with n_K != 0, it is replaced by sum_K n_K P_K / (1 - n_P), each
    presentation smaller than P (a variant that vanishes by antisymmetry
    drops out; with 1 - n_P = 0 the relation does not hold P).  A term
    with one such factor is then final, since the relation of a smaller
    presentation of the orbit does not end in it; with more factors the
    new terms are rewritten in turn.  Every rewrite lowers the
    presentation, so the rewriting ends, and the choice reads only
    canonical presentations, so equal values end alike.
    """
    if all(f.kind != "riem" for f in t.fac):
        return [t]
    blocks = [{g.idx for g in t.word
               if g.fam == fam and isinstance(g.idx, str)}
              for fam in ("c", "h")]
    riems = [k for k, f in enumerate(t.fac) if f.kind == "riem"
             and all(len(b.intersection(f.idx)) < 2 for b in blocks)]
    if not riems:
        return [t]
    key = term_key(t)
    for k in riems:
        a, b, c, d = t.fac[k].idx
        rel: dict[tuple, int] = {}
        for idx in ((a, c, d, b), (a, d, b, c)):
            f = F("riem", idx)
            p = _finalize(Term(-S_ONE, t.fac[:k] + (f,) + t.fac[k + 1:],
                               t.word, t.norm))
            if p is not None:
                rel[p[1:]] = rel.get(p[1:], 0) + (1 if p.coeff == S_ONE
                                                  else -1)
        own = 1 - rel.pop(t[1:], 0)
        rest = {q: n for q, n in rel.items() if n}
        if own and all(term_key(Term(S_ONE, *q)) < key for q in rest):
            out = [Term(t.coeff * Scalar.of(n, own), *q)
                   for q, n in rest.items()]
            if len(riems) == 1:
                return out
            return [q for p in out for q in _first_bianchi(p)]
    return [t]


def merge_equal(terms: Iterable[Term | None]) -> list[Term]:
    """The terms with those equal in everything but the coefficient summed,
    in first-seen order; a None (an antisymmetric zero) is skipped and a
    zero sum dropped."""
    acc: dict[tuple, Scalar] = {}
    for t in terms:
        if t is not None:
            key = t[1:]
            prev = acc.get(key)
            acc[key] = t.coeff if prev is None else prev + t.coeff
    return [Term(coeff, *key) for key, coeff in acc.items()
            if not coeff.is_zero()]


def merge_presentations(terms: Iterable[Term]) -> list[Term]:
    """Merge the terms that are equal as written, up to dummy names, factor
    order and monoterm symmetry variants.

    Each term gets its canonical presentation from `_finalize` as it
    stands, which has its value: the word is only renamed and each of its
    blocks sorted.  Two terms this leaves apart still meet in `normalize`.
    """
    return merge_equal(_finalize(t) for t in terms)


def normalize(terms: Iterable[Term]) -> tuple[Term, ...]:
    merged = merge_equal(_finalize(red) for t in terms for red in _reduce(t))
    merged = merge_equal(p for t in merged for p in _first_bianchi(t))
    return tuple(sorted(merged, key=term_key))
