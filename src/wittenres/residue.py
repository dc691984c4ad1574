"""Noncommutative-residue densities and the labeled term ledger.

The density of Wres(P) at the base point is the cosphere integral of the
fiber trace of the order -2m symbol component.  Both are linear sums over
perfect pairings with their deltas applied, so they commute: cosphere
integration, trace, one canonical form, collection into atoms.  The
Einstein functional splits into Part I (the c(u)c(w) inverse-square-reduced
power) and Part II (the six composition summands of the A B inverse-power
product).  `LEDGER` is the whole ledger in report order, each label defined
once: a leaf label is one residue job (left and right symbol piece,
derivative order) and a total is the plain sum of the labels it lists, so
every labeled intermediate can be evaluated on its own and diffed against
stored reference values.  Either side of a job is a piece's `_BUILD` name,
or the key (name, class) for the piece's terms of one `_signature` class;
every sub-term split is such a class split, and the tests, not the run,
check each split against its whole pieces.  The pieces are plain values
built once each; the parametrix components are normalized when first read.
Every xi/x derivative pairing of two symbols goes through `pdo.compose` or
its `composition_summand`, and each job is one `composition_summand` of its
two sides with xmax=0, which cuts both to what reaches the origin: the only
origin cut here.  A value is what the report prints, {atom name: real
polynomial in m (`PolyM`)} in units of TrId*Vol with no zero atom, and
`evaluate_labels` returns a plain dict from label to value in ledger order;
its "metric" entry is the metric functional, exactly -g(u,w), and its
"einstein" entry the Einstein one.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from . import clifford, sphere
from .operators import (cu_cw_symbol, endomorphism, parametrix_symbols,
                        symbol_of_a, symbol_of_b)
from .pdo import (Component, TruncationError, compose, composition_summand,
                  order, x_degree)
from .scalars import PolyM
from .tensor import CollectError, canonicalize, collect
from .terms import (ContractViolation, NormalizeError, Term, check_labels,
                    normalize)


class ResidueError(Exception):
    """A density violated the residue contracts (free index, surviving
    derivative atom, a value that is not a polynomial in m)."""


def wres_density(terms: Sequence[Term]) -> dict[str, PolyM]:
    """Residue density of an order -2m, origin-evaluated term sum, in
    units of TrId*Vol: tr[id] times Vol(S^{2m-1}), as a dict from atom
    name to its real polynomial in m, with no zero atom.

    Pipeline: integration over the unit cosphere keeps the word and moves
    the xi labels into deltas (norm powers become one), in units of
    Vol / moment_denominator(k) for the largest xi-pair count k among the
    terms; the fiber trace sums the full pairings of each word; one
    `canonicalize` and the collection into invariant atoms follow; last,
    each atom's polynomial is divided by moment_denominator(k), exactly.
    ResidueError on a label held more than twice (`check_labels`:
    integration and trace trust it absent), leftover free indices,
    derivative atoms, or an atom whose division leaves a remainder (a
    density that is not polynomial in m); a NormalizeError of the
    canonical form passes through with its type.
    """
    k = 0
    try:
        for t in terms:
            if x_degree(t):
                raise ResidueError(f"term not evaluated at the origin: {t}")
            if order(t) != (0, -2):
                raise ResidueError(
                    f"term is not homogeneous of order -2m: {t}")
            check_labels(t)
            k = max(k, sum(1 for f in t.fac if f.kind == "xi") // 2)
        traced = clifford.trace(
            [u for t in terms for u in sphere.integrate_term(t, k)])
        value = collect(canonicalize(traced))
    except (ContractViolation, CollectError, ValueError) as exc:
        raise ResidueError(str(exc)) from exc
    den = sphere.moment_denominator(k)
    density = {}
    for atom, p in value.items():
        quot, rem = p.divmod(den)
        if rem:
            raise ResidueError(
                f"atom {atom!r}: density is not polynomial in m: "
                f"({p})/({den})")
        density[atom] = quot
    return density


class Leaf(NamedTuple):
    """One residue job: Wres of the alpha-th composition summand of a left
    and a right symbol piece (their plain product when alpha is 0).  Each
    side is a `_BUILD` name, or a key (name, class) for that piece's terms
    of one `_signature` class."""

    left: str | tuple[str, str]
    right: str | tuple[str, str]
    alpha: int = 0


class Total(NamedTuple):
    """The plain sum of the labels in children, which are defined before
    it."""

    children: tuple[str, ...]


# The whole ledger in report order: a leaf is one job, a total the plain
# sum of the labels before it that it lists.
# Part I: c(u) c(w) against the order -2m component of the reduced power.
# Its xi-contracted curvature lines (I-2, I-3) vanish already at the symbol
# level by first-slot antisymmetry, so those classes are empty.
# Part II: the A B product symbol against the full-power parametrix.  II-1
# is the order-zero product against |xi|^{-2m}, split by class.  At the
# origin sigma_0(AB) holds one term of each: the c-word and chat-word
# connection terms (riem60, riem42), which come from the first xi/x
# derivative pairing of sigma_1(A) with the connection words of sigma_0(B),
# and three from its chat(V) term: that pairing's dw and dv terms and the
# plain product c(u)ch(V)c(w)ch(V) (vv).  II-2 is the order-one product
# against the wholly x-linear component, II-3 the order-two product against
# the order -2m-2 component, II-4 the first derivative pairing with the
# order -2m-1 component, II-5 and II-6 the first and second pairings with
# the top one.
LEDGER: dict[str, Leaf | Total] = {
    "I-1": Leaf("cu_cw", ("par1_top", "ric")),
    "I-2": Leaf("cu_cw", ("par1_top", "riem20")),
    "I-3": Leaf("cu_cw", ("par1_top", "riem02")),
    "I-4": Leaf("cu_cw", ("par1_top", "riem22")),
    "I-5": Leaf("cu_cw", ("par1_top", "scal")),
    "I-6": Leaf("cu_cw", ("par1_top", "dv")),
    "I-7": Leaf("cu_cw", ("par1_top", "vv")),
    "S1": Total(("I-1", "I-2", "I-3", "I-4", "I-5", "I-6", "I-7")),
    "II-1-A": Leaf(("ab0", "riem60"), "par0_top"),
    "II-1-B": Leaf(("ab0", "riem42"), "par0_top"),
    "II-1-C": Leaf(("ab0", "dw"), "par0_top"),
    "II-1-D": Leaf(("ab0", "dv"), "par0_top"),
    "II-1-E": Leaf(("ab0", "vv"), "par0_top"),
    "II-1": Total(("II-1-A", "II-1-B", "II-1-C", "II-1-D", "II-1-E")),
    "II-2": Leaf("ab1", "par0_mid"),
    "II-3-A": Leaf("ab2", ("par0_low", "ric")),
    "II-3-B": Leaf("ab2", ("par0_low", "riem20")),
    "II-3-C": Leaf("ab2", ("par0_low", "riem02")),
    "II-3-D": Leaf("ab2", ("par0_low", "riem22")),
    "II-3-E": Leaf("ab2", ("par0_low", "scal")),
    "II-3-F": Leaf("ab2", ("par0_low", "dv")),
    "II-3-G": Leaf("ab2", ("par0_low", "vv")),
    "II-3": Total(("II-3-A", "II-3-B", "II-3-C", "II-3-D", "II-3-E",
                   "II-3-F", "II-3-G")),
    "II-4-A": Leaf("ab2", ("par0_mid", "ric"), 1),
    "II-4-B": Leaf("ab2", ("par0_mid", "riem20"), 1),
    "II-4-C": Leaf("ab2", ("par0_mid", "riem02"), 1),
    "II-4": Total(("II-4-A", "II-4-B", "II-4-C")),
    "II-5": Leaf("ab1", "par0_top", 1),
    "II-6": Leaf("ab2", "par0_top", 2),
    "S2": Total(("II-1", "II-2", "II-3", "II-4", "II-5", "II-6")),
    "metric": Leaf("cu_cw", "par0_top"),
    "einstein": Total(("S1", "S2")),
}

# piece -> the classes the table draws from it; a term of any other class
# would be lost, so splitting the piece refuses it
_CLASSES: dict[str, set[str]] = {}
for _row in LEDGER.values():
    if isinstance(_row, Leaf):
        for _key in (_row.left, _row.right):
            if isinstance(_key, tuple):
                _CLASSES.setdefault(_key[0], set()).add(_key[1])


def _signature(t: Term) -> str:
    """The class of a term, by its factor and word signature.  A term with
    both a dv and a dw factor has none."""
    kinds = {f.kind for f in t.fac}
    if {"dv", "dw"} <= kinds:
        return "?"
    if "ric" in kinds:
        return "ric"
    if "scal" in kinds:
        return "scal"
    if "dv" in kinds:
        return "dv"
    if "dw" in kinds:
        return "dw"
    if "vsq" in kinds or sum(1 for f in t.fac if f.kind == "v") == 2:
        return "vv"
    if "riem" in kinds:
        cs = sum(1 for g in t.word if g.fam == "c")
        hs = sum(1 for g in t.word if g.fam == "h")
        return f"riem{cs}{hs}"
    return "?"


def _normalized(comp: Component) -> Component:
    return Component(normalize(comp.terms), comp.xtrunc)


# how each piece is built from the others
_BUILD = {
    "endo": lambda p: endomorphism(),
    # the parametrix components are written out unnormalized; each one a
    # job reads is normalized here, once
    "par0": lambda p: parametrix_symbols(p["endo"], 0),
    # every job reads A B at the origin, so it is composed with xmax=0,
    # which drops the terms of A and B that cannot reach it
    "A": lambda p: symbol_of_a(),
    "B": lambda p: symbol_of_b(),
    "AB": lambda p: compose(p["A"], p["B"], [(2, 0), (1, 0), (0, 0)],
                            xmax=0),
    "cu_cw": lambda p: cu_cw_symbol(),
    "par0_top": lambda p: _normalized(p["par0"].comps[(0, -2)]),
    "par0_mid": lambda p: _normalized(p["par0"].comps[(-1, -2)]),
    "par0_low": lambda p: _normalized(p["par0"].comps[(-2, -2)]),
    "par1_top": lambda p: _normalized(
        parametrix_symbols(p["endo"], 1).comps[(0, -2)]),
    "ab0": lambda p: p["AB"].comps[(0, 0)],
    "ab1": lambda p: p["AB"].comps[(1, 0)],
    "ab2": lambda p: p["AB"].comps[(2, 0)],
}


class Pieces(dict):
    """The symbol pieces the jobs draw on, by name, each built at most once
    and only when a job asks for it.  The key (piece, class) is the piece
    cut down to one `_signature` class."""

    def __missing__(self, key):
        if isinstance(key, str):
            self[key] = _BUILD[key](self)
            return self[key]
        piece, _ = key
        comp = self[piece]
        split: dict[str, list[Term]] = {cls: [] for cls in _CLASSES[piece]}
        for t in comp.terms:
            cls = _signature(t)
            if cls not in split:
                raise ResidueError(f"unclassifiable term in {piece}: {t}")
            split[cls].append(t)
        for cls, terms in split.items():
            self[piece, cls] = Component(tuple(terms), comp.xtrunc)
        return self[key]


def _run(label: str, job: Leaf, pieces: Pieces) -> dict[str, PolyM]:
    """The job's value; a typed engine error on the way names the label and
    keeps its type."""
    try:
        terms, _ = composition_summand(pieces[job.left], pieces[job.right],
                                       job.alpha, xmax=0)
        return wres_density(terms)
    except (NormalizeError, TruncationError, ContractViolation,
            ResidueError) as exc:
        raise type(exc)(f"{label}: {exc}") from exc


def with_children(labels: Iterable[str]) -> list[str]:
    """The labels and every label they sum over, in table order."""
    found: set[str] = set()
    stack = list(labels)
    while stack:
        label = stack.pop()
        if label not in found:
            found.add(label)
            row = LEDGER[label]
            if isinstance(row, Total):
                stack.extend(row.children)
    return [label for label in LEDGER if label in found]


def evaluate_labels(labels: Iterable[str],
                    pieces: Pieces | None = None
                    ) -> dict[str, dict[str, PolyM]]:
    """Evaluate the labels and every label they sum over, as a dict from
    label to value in ledger order (the order of `with_children`).  A
    value maps atom name to its real polynomial in m, with no zero atom.

    The jobs share the symbol pieces in `pieces` (a fresh `Pieces` by
    default); a caller that passes its own can reuse the pieces
    afterwards.  A total adds its children's polynomials atom by atom and
    leaves out the atoms that cancel.
    """
    if pieces is None:
        pieces = Pieces()
    led: dict[str, dict[str, PolyM]] = {}
    for label in with_children(labels):
        row = LEDGER[label]
        if isinstance(row, Leaf):
            led[label] = _run(label, row, pieces)
            continue
        total: dict[str, PolyM] = {}
        for child in row.children:
            for atom, p in led[child].items():
                total[atom] = total[atom] + p if atom in total else p
        led[label] = {atom: p for atom, p in total.items() if p.c}
    return led


def part1_top_norm_exponent(par1_top: Component) -> tuple[int, int]:
    """Derived |xi| exponent on the curvature lines of the reduced-power
    order -2m component, the `par1_top` piece (homogeneity forces
    -2m-2)."""
    for t in par1_top.terms:
        if any(f.kind == "ric" for f in t.fac):
            return t.norm
    raise ResidueError("missing Ricci term in the reduced-power component")
