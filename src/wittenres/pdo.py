"""Homogeneous pseudodifferential symbol components in normal coordinates.

Orders are affine in the half-dimension symbol: (const, slope) stands for
const + slope*m, so a parametrix component sits at (c, -2) and a
differential operator's at (k, 0).  A component's terms are x-Taylor data
around the base point, and it records how many x-Taylor orders they are
exact to; requesting data beyond that raises TruncationError rather than
returning a silent zero.  A symbol is never replaced by its origin value:
a composition is cut to the origin by `composition_summand`'s xmax=0, and
any other term sum by `origin_terms`.
"""

from __future__ import annotations

from math import factorial
from typing import Iterable, NamedTuple

from .scalars import S_I, S_ONE, Scalar
from .terms import (F, Idx, NormalizeError, Term, contract_deltas,
                    label_counts, merge_presentations, mul_terms, normalize)

Order = tuple[int, int]


class TruncationError(Exception):
    """A composition asked for symbol data outside the stored truncation."""


class Component(NamedTuple):
    """A component's terms, exact up to x degree xtrunc (at least 0; None
    means exact)."""

    terms: tuple[Term, ...]
    xtrunc: int | None


class PDOSymbol:
    """Graded collection of homogeneous components.

    exact=True marks finite symbols (differential operators): any absent
    order is identically zero.  Otherwise absent orders above the top are
    zero and everything below the lowest stored order is unknown.
    """

    def __init__(self, comps: dict[Order, Component], exact: bool = False):
        self.comps = dict(comps)
        self.exact = exact
        for at, comp in self.comps.items():
            for t in comp.terms:
                if order(t) != at:
                    raise ValueError(f"term of homogeneity {order(t)} "
                                     f"stored at {at}: {t}")

    def component(self, order: Order) -> Component:
        if order in self.comps:
            return self.comps[order]
        if self.exact:
            return Component((), None)
        slopes = {o[1] for o in self.comps}
        if len(slopes) == 1:
            (slope,) = slopes
            top = max(o[0] for o in self.comps)
            if order[1] == slope and order[0] > top:
                return Component((), None)
        raise TruncationError(f"order {order} outside stored truncation "
                              f"{sorted(self.comps)}")


def order(t: Term) -> Order:
    """The order of a term: its |xi| exponent plus its number of xi
    factors."""
    return (t.norm[0] + sum(1 for f in t.fac if f.kind == "xi"), t.norm[1])


def x_degree(t: Term) -> int:
    """The number of x factors of a term."""
    return sum(1 for f in t.fac if f.kind == "x")


def origin_terms(terms: Iterable[Term]) -> list[Term]:
    """The terms that survive at the origin: those without an x factor."""
    return [t for t in terms if not x_degree(t)]


def d_xi_terms(terms: Iterable[Term], j: Idx) -> tuple[Term, ...]:
    """Termwise xi-derivative: xi_a -> delta(a,j), |xi|^p -> p xi_j |xi|^(p-2).

    Each delta is applied at once (`terms.contract_deltas`); a symbolic j
    is one more use of that label, so a term may hold it at most once, and
    then it is a dummy of the result.  Equal terms are merged as written
    (`terms.merge_presentations`): a power of one factor differentiates to
    one equal term per factor, so unmerged the a-th derivative of xi_1^k
    would hold k!/(k-a)! copies of one term.
    They are not normalized: normalizing would expand each Clifford
    product into its blocks, and the caller normalizes what it keeps.
    """
    out = []
    for t in terms:
        for k, f in enumerate(t.fac):
            if f.kind == "xi":
                rest = Term(t.coeff, t.fac[:k] + t.fac[k + 1:], t.word,
                            t.norm)
                dt = contract_deltas(rest, (F("delta", (f.idx[0], j)),))
                if dt is not None:
                    out.append(dt)
        if t.norm != (0, 0):
            p = Scalar.poly((t.norm[0], t.norm[1]))
            out.append(Term(t.coeff * p, t.fac + (F("xi", (j,)),), t.word,
                            (t.norm[0] - 2, t.norm[1])))
    return tuple(merge_presentations(out))


_DERIV = {"u": "du", "w": "dw", "v": "dv"}


def d_x_terms(terms: Iterable[Term], j: Idx, strict: bool = True,
              xmax: int | None = None) -> tuple[Term, ...]:
    """Termwise x-derivative.

    Coordinate factors differentiate to deltas, applied at once
    (`terms.contract_deltas`), with j as in `d_xi_terms`; vector-field
    components produce first-derivative atoms.  Curvature data is a Taylor
    coefficient at the base point and is constant, and so are the folded
    atoms `guw`, `ricuw` and `vsq`: a caller that differentiates again
    normalizes first where a contracted field pair should count as one of
    them (see `terms_equal_taylor`).  Second derivatives of vector fields
    are not representable and raise in strict mode; non-strict mode treats
    the derivative atoms as carried constants (used when diffing the Taylor
    sectors two symbols actually store).  Like `d_xi_terms`, it merges
    equal terms as written, so that a power x_1^k does not grow into
    factorially many copies of one term, and does not normalize.

    With xmax set, derivative terms with more than xmax x factors are
    dropped (every input term is still checked).
    """
    out = []
    for t in terms:
        deg = x_degree(t)
        for k, f in enumerate(t.fac):
            if f.kind == "x":
                if xmax is not None and deg - 1 > xmax:
                    continue
                rest = Term(t.coeff, t.fac[:k] + t.fac[k + 1:], t.word,
                            t.norm)
                dt = contract_deltas(rest, (F("delta", (f.idx[0], j)),))
                if dt is not None:
                    out.append(dt)
            elif f.kind in _DERIV:
                if xmax is None or deg <= xmax:
                    fac = (t.fac[:k] + (F(_DERIV[f.kind], (j, f.idx[0])),)
                           + t.fac[k + 1:])
                    out.append(Term(t.coeff, fac, t.word, t.norm))
            elif f.kind in ("du", "dw", "dv") and strict:
                raise NormalizeError(
                    f"d_x_terms: d/dx_{j} of {f.kind}"
                    f"({', '.join(map(str, f.idx))}) is a second "
                    "derivative of a vector field, which is not "
                    "representable")
    return tuple(merge_presentations(out))


def _xt_min(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _fresh_labels(term_lists, count: int) -> tuple[str, ...]:
    if not count:
        return ()
    used = set()
    for terms in term_lists:
        for t in terms:
            used.update(label_counts(t))
    out = []
    j = 0
    while len(out) < count:
        cand = f"_a{j}"
        if cand not in used:
            out.append(cand)
        j += 1
    return tuple(out)


# (-i)^a by a mod 4
_PHASE = (S_ONE, -S_I, -S_ONE, S_I)


def composition_summand(p: Component, q: Component, nalpha: int,
                        xmax: int | None = None
                        ) -> tuple[tuple[Term, ...], int | None]:
    """One block of the composition expansion:

        (-i)^a / a! * sum over a abstract slots of
        (d_xi^a p-terms) * (d_x^a q-terms).

    The multi-index sum collapses to an unrestricted sum over slot labels
    shared between the two halves.  The x-derivative side is built first:
    when it is empty, no xi-derivative is taken; otherwise p's are taken
    here, for this block alone.  A q whose stored x-Taylor order is below
    nalpha raises TruncationError, but only when the xi-derivative side
    does not vanish.

    It returns the block's terms and the x-degree they are exact to (None:
    exact), a vanishing block too: an empty x side is zero to the degree
    both factors are exact to (q's less nalpha), an empty xi side to p's.

    With xmax set, the terms of both factors that can only make products
    with more than xmax x factors are left out.  On the left those are
    the xi-derivative terms with more than xmax.  On the right they are,
    before the x-derivatives, those with more than nalpha + xmax, and after
    derivative k those with more than xmax + nalpha - k (`d_x_terms`' own
    cut).  An xi-derivative keeps every x factor, an x-derivative
    lowers the x-degree by at most one, and a product keeps every x factor
    of both sides.  So the cut is exact for a caller that keeps only terms
    of x-degree at most xmax, and the block is exact to that degree at
    most; with xmax=0 it is the block at the origin.
    """
    labels = _fresh_labels((p.terms, q.terms), nalpha)
    qx = None if q.xtrunc is None else q.xtrunc - nalpha
    right = None
    if qx is None or qx >= 0:
        right = q.terms
        if xmax is not None:
            right = [t for t in right if x_degree(t) <= nalpha + xmax]
        for k, lab in enumerate(labels, 1):
            right = d_x_terms(right, lab,
                              xmax=None if xmax is None else xmax + nalpha - k)
        if not right:
            return (), _xt_min(_xt_min(p.xtrunc, qx), xmax)
    left = p.terms
    for lab in labels:
        left = d_xi_terms(left, lab)
        if not left:
            return (), _xt_min(p.xtrunc, xmax)
    if right is None:
        raise TruncationError(
            f"{nalpha} x-derivative(s) exceed the stored x-Taylor order")
    if xmax is not None:
        left = [t for t in left if x_degree(t) <= xmax]
    if nalpha:
        # the prefactor goes on the left factor's terms, not on each product
        pref = _PHASE[nalpha % 4] * Scalar.of(1, factorial(nalpha))
        left = [Term(t.coeff * pref, t.fac, t.word, t.norm) for t in left]
    out = [mul_terms(a, b) for a in left for b in right]
    # left unnormalized: callers cut to the origin first (xmax=0 or
    # `origin_terms`), which is far cheaper than canonicalizing x-heavy
    # products that are about to vanish
    return tuple(out), _xt_min(_xt_min(p.xtrunc, qx), xmax)


def compose(P: PDOSymbol, Q: PDOSymbol, targets: Iterable[Order],
            xmax: int | None = None) -> PDOSymbol:
    """Symbol composition truncated to the requested orders.

    sigma(PQ) = sum_alpha (-i)^|a|/a! d_xi^a sigma(P) d_x^a sigma(Q), with
    |a| forced by homogeneity per component pair: for a left order p the
    right order is target - p + |a|, so |a| runs from 0 up to Q's top order
    at that slope, above which Q vanishes.  A missing order of either factor
    raises TruncationError: one of Q that a pair reaches, whether or not
    the xi-derivative side survives, and one of a truncated P that the
    alpha = 0 pairing with Q's top reaches.  A vanishing xi-derivative side
    only short-circuits the check of Q's x-Taylor order in
    `composition_summand`.  A component is exact to the least x-degree of
    the summands it runs, vanishing ones included.  With xmax set, the
    terms of both factors that can only make products with more than xmax
    x factors are left out (see `composition_summand`), and the components
    are exact to x-degree xmax at most.
    """
    comps: dict[Order, Component] = {}
    for target in targets:
        acc: list[Term] = []
        xt: int | None = None
        for p_ord in sorted(P.comps, reverse=True):
            slope = target[1] - p_ord[1]
            need = target[0] - p_ord[0]
            q_top = max((o[0] for o in Q.comps if o[1] == slope),
                        default=need)
            if not P.exact:
                # the alpha = 0 pairing with Q's top draws on this order
                P.component((target[0] - q_top, p_ord[1]))
            pcomp = P.comps[p_ord]
            if not pcomp.terms:
                continue
            for nalpha in range(q_top - need + 1):
                qcomp = Q.component((need + nalpha, slope))
                if not qcomp.terms:
                    continue
                terms, sxt = composition_summand(pcomp, qcomp, nalpha, xmax)
                acc.extend(terms)
                xt = _xt_min(xt, sxt)
        comps[target] = Component(tuple(acc), xt)
    return PDOSymbol(comps, exact=False)


def terms_equal_taylor(a: Iterable[Term], b: Iterable[Term]) -> bool:
    """Equality of two symbol term sums as the Taylor data they carry.

    Compares the origin values of the sums and of their x-derivatives up to
    order xorder = 2 against distinct free slot labels.  This is the
    faithful reading of x-truncated symbol data, and the free labels pin
    down factor sectors that pure relabeling cannot (two structurally
    identical curvature factors, say).

    One derivative chain runs on a - b.  normalize reduces each term on its
    own and merges equal presentations, so differentiating the difference
    equals differencing the derivatives.  The difference first goes
    through `merge_presentations`, which keeps the value of every term: a
    term written on both sides, up to dummy names, factor order and
    symmetry variants, cancels before any word is expanded (on the
    sigma_0(AB) display all 30 raw terms cancel).  Only its origin part is
    normalized before the first derivative, so u_a w_a folds into guw only
    after it.  Every derivative is normalized, which folds it, so its
    origin part is a normal form and is only tested for emptiness.
    Derivative k (from one) keeps only terms with at most xorder - k x
    factors, an exact cut: normalize keeps each term's x-degree and a
    derivative lowers it by at most one.
    """
    xorder = 2
    d = merge_presentations(
        tuple(a) + tuple(t._replace(coeff=-t.coeff) for t in b))
    if normalize(origin_terms(d)):
        return False
    # the derivative slots need labels fresh only against what is left
    lab = _fresh_labels((d,), xorder)
    for k in range(xorder):
        d = normalize(d_x_terms(d, lab[k], strict=False,
                                xmax=xorder - k - 1))
        if origin_terms(d):
            return False
    return True
