"""Noncommutative-residue densities and the labeled term ledger.

The density of Wres(P) at the base point is the cosphere integral of the
fiber trace of the order -2m symbol component: trace, then monomial
integration, then contraction and collection into invariant atoms.  The
Einstein functional splits into Part I (the c(u)c(w) inverse-square-reduced
power) and Part II (the six composition summands of the A B inverse-power
product).  `LEDGER` is the whole ledger in report order: each leaf label
names its job (left and right symbol piece, derivative order) and each
total lists the labels it sums, so every labeled intermediate can be
evaluated on its own and diffed against stored reference values.  Either
side of a job is a piece's `_BUILD` name, or the key (name, class) for the
piece's terms of one `_signature` class; every sub-term split is such a
class split, II-1's of sigma_0(AB) included.  Every xi/x derivative pairing
of two symbols goes through `pdo.compose` or its `composition_summand`,
and each job is one `composition_summand` of its two sides with xmax=0,
which cuts both to what reaches the origin: the only origin cut here.
`evaluate_labels` returns a plain dict from label to value in ledger
order; its "metric" entry is the metric functional, exactly -g(u,w) TrId
Vol, and its "einstein" entry the Einstein one.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from . import clifford, sphere
from .operators import (LaplaceData, build_laplace_data, cu_cw_symbol,
                        parametrix_symbols, parametrix_terms, symbol_of_a,
                        symbol_of_b)
from .pdo import (Component, TruncationError, compose, composition_summand,
                  order, x_degree)
from .tensor import CollectError, ScalarInvariantExpr, canonicalize, collect
from .terms import ContractViolation, NormalizeError, Term, normalize


class ResidueError(Exception):
    """A density violated the residue contracts (free index, imaginary
    part, surviving derivative atom)."""


def wres_density(terms: Sequence[Term]) -> ScalarInvariantExpr:
    """Residue density of an order -2m, origin-evaluated term sum, in
    units of TrId*Vol: tr[id] times Vol(S^{2m-1}).

    Pipeline: fiber trace, cosphere monomial integration on the unit
    sphere (norm powers become one), delta contraction and canonical form,
    collection into invariant atoms.  Hard errors on leftover free indices,
    derivative atoms, or imaginary parts.
    """
    for t in terms:
        if x_degree(t):
            raise ResidueError(f"term not evaluated at the origin: {t}")
        if order(t) != (0, -2):
            raise ResidueError(
                f"term is not homogeneous of order -2m: {t}")
    # the trace's normalization may move xi pairs into the norm; the
    # integration sets every norm power to one
    integrated = []
    for t in clifford.trace(terms):
        integrated.extend(sphere.integrate_term(t))
    try:
        return collect(canonicalize(integrated)).check_real()
    except (NormalizeError, ContractViolation, CollectError, TruncationError,
            ValueError) as exc:
        raise ResidueError(str(exc)) from exc


class Leaf(NamedTuple):
    """One residue job: Wres of the alpha-th composition summand of a left
    and a right symbol piece (their plain product when alpha is 0).  Each
    side is a `_BUILD` name, or a key (name, class) for that piece's terms
    of one `_signature` class."""

    left: str | tuple[str, str]
    right: str | tuple[str, str]
    alpha: int = 0


class Total(NamedTuple):
    """The sum of the labels in children; check, when set, is a job whose
    value the sum must equal."""

    children: tuple[str, ...]
    check: Leaf | None = None


# The whole ledger in report order; a total follows the labels it sums.
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
    "II-1": Total(("II-1-A", "II-1-B", "II-1-C", "II-1-D", "II-1-E"),
                  check=Leaf("ab0", "par0_top")),
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
    """The class of a term, by its factor and word signature."""
    kinds = {f.kind for f in t.fac}
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


def _par1_top(data: LaplaceData) -> Component:
    """The order -2m component of the reduced (-2m+2) power, the only one
    of that power a job reads, so the only one normalized."""
    terms, xtrunc = parametrix_terms(data, 1)[(0, -2)]
    return Component(normalize(terms), xtrunc)


# how each piece is built from the others
_BUILD = {
    "data": lambda p: build_laplace_data(),
    "par0": lambda p: parametrix_symbols(p["data"], 0),
    # every job reads A B at the origin, so it is composed with xmax=0,
    # which drops the terms of A and B that cannot reach it
    "A": lambda p: symbol_of_a(),
    "B": lambda p: symbol_of_b(),
    "AB": lambda p: compose(p["A"], p["B"], [(2, 0), (1, 0), (0, 0)],
                            xmax=0),
    "cu_cw": lambda p: cu_cw_symbol().comps[(0, 0)],
    "par0_top": lambda p: p["par0"].comps[(0, -2)],
    "par0_mid": lambda p: p["par0"].comps[(-1, -2)],
    "par0_low": lambda p: p["par0"].comps[(-2, -2)],
    "par1_top": lambda p: _par1_top(p["data"]),
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


def _run(label: str, job: Leaf, pieces: Pieces) -> ScalarInvariantExpr:
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
                    ) -> dict[str, ScalarInvariantExpr]:
    """Evaluate the labels and every label they sum over, as a dict from
    label to value in ledger order (the order of `with_children`).

    The jobs share the symbol pieces in `pieces` (a fresh `Pieces` by
    default); a caller that passes its own can reuse the pieces
    afterwards.  A total is the ScalarInvariantExpr sum of its children, and
    its check job, if any, must give the same value.
    """
    if pieces is None:
        pieces = Pieces()
    led: dict[str, ScalarInvariantExpr] = {}
    for label in with_children(labels):
        row = LEDGER[label]
        if isinstance(row, Leaf):
            led[label] = _run(label, row, pieces)
            continue
        total = ScalarInvariantExpr()
        for child in row.children:
            total = total + led[child]
        if (row.check
                and not (_run(label, row.check, pieces) - total).is_zero()):
            raise ResidueError(f"{label} sub-term split disagrees with "
                               f"{row.check.left} times {row.check.right}")
        led[label] = total
    return led


def part1_top_norm_exponent(par1_top: Component) -> tuple[int, int]:
    """Derived |xi| exponent on the curvature lines of the reduced-power
    order -2m component, the `par1_top` piece (homogeneity forces
    -2m-2)."""
    for t in par1_top.terms:
        if any(f.kind == "ric" for f in t.fac):
            return t.norm
    raise ResidueError("missing Ricci term in the reduced-power component")
