"""Homogeneous pseudodifferential symbol components in normal coordinates.

Orders are affine in the half-dimension symbol: (const, slope) stands for
const + slope*m, so a parametrix component sits at (c, -2) and a
differential operator's at (k, 0).  A component's terms are x-Taylor data
around the base point, exact to x-degree xtrunc.  A truncated symbol knows
only its stored orders; an exact one (a differential operator's) is zero
at every other order.  Data a symbol does not know, an order or an
x-degree, raises TruncationError rather than returning a silent zero.
Every bound is a number: xtrunc, and an x-degree cut xmax, is inf for
exact terms or no cut.  A symbol is never replaced by its origin value: a
composition is cut to the origin by `composition_summand`'s xmax=0, and
any other term sum by `origin_terms`.
"""

from __future__ import annotations

from math import factorial, inf
from typing import Iterable, NamedTuple

from .scalars import Scalar
from .terms import (F, Idx, NormalizeError, Term, contract_deltas,
                    label_counts, merge_equal, merge_presentations, mul_terms,
                    normalize)

Order = tuple[int, int]


class TruncationError(Exception):
    """A composition asked for symbol data outside the stored truncation."""


class Component(NamedTuple):
    """A component's terms and the x-degree xtrunc they are exact to, at
    least 0 (see the module docstring)."""

    terms: tuple[Term, ...]
    xtrunc: float


class PDOSymbol:
    """Graded collection of homogeneous components: a differential
    operator's symbol with exact=True, otherwise a truncated one (see the
    module docstring)."""

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
            return Component((), inf)
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


def _d_coordinate(out: list[Term], t: Term, k: int, j: Idx) -> None:
    """Append to out the derivative by j of t's one-slot factor k, an xi
    or an x: the factor goes and d y_a / d y_j = delta(a, j) is applied
    (`terms.contract_deltas`); nothing when that delta vanishes."""
    rest = Term(t.coeff, t.fac[:k] + t.fac[k + 1:], t.word, t.norm)
    dt = contract_deltas(rest, (F("delta", (t.fac[k].idx[0], j)),))
    if dt is not None:
        out.append(dt)


def d_xi_terms(terms: Iterable[Term], j: Idx) -> tuple[Term, ...]:
    """Termwise d/d eta_j (see `terms`): xi_a -> delta(a,j), and
    |xi|^p -> -p xi_j |xi|^(p-2), since |xi|^2 = -eta_a eta_a.

    Each delta is applied at once (`terms.contract_deltas`); a symbolic j
    is one more use of that label, so a term may hold it at most once, and
    then it is a dummy of the result.  Terms equal as written are summed
    (`terms.merge_equal`): a concrete power xi_1^k differentiates into k
    copies of one term as written, so unmerged its a-th derivative would
    hold k!/(k-a)! of them.  No canonical search runs and nothing is
    normalized, which would expand each Clifford product into its blocks:
    the caller normalizes what it keeps.
    """
    out = []
    for t in terms:
        for k, f in enumerate(t.fac):
            if f.kind == "xi":
                _d_coordinate(out, t, k, j)
        if t.norm != (0, 0):
            p = Scalar.poly((-t.norm[0], -t.norm[1]))
            out.append(Term(t.coeff * p, t.fac + (F("xi", (j,)),), t.word,
                            (t.norm[0] - 2, t.norm[1])))
    return tuple(merge_equal(out))


_DERIV = {"u": "du", "w": "dw", "v": "dv"}


def d_x_terms(terms: Iterable[Term], j: Idx, strict: bool = True,
              xmax: float = inf) -> tuple[Term, ...]:
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
    sectors two symbols actually store).  Like `d_xi_terms`, it sums the
    terms equal as written, x_1^k's k copies, and does not normalize.

    Derivative terms with more than xmax x factors are dropped (every
    input term is still checked).
    """
    out = []
    for t in terms:
        deg = x_degree(t)
        for k, f in enumerate(t.fac):
            if f.kind == "x":
                if deg - 1 <= xmax:
                    _d_coordinate(out, t, k, j)
            elif f.kind in _DERIV:
                if deg <= xmax:
                    fac = (t.fac[:k] + (F(_DERIV[f.kind], (j, f.idx[0])),)
                           + t.fac[k + 1:])
                    out.append(Term(t.coeff, fac, t.word, t.norm))
            elif f.kind in _DERIV.values() and strict:
                raise NormalizeError(
                    f"d_x_terms: d/dx_{j} of {f.kind}"
                    f"({', '.join(map(str, f.idx))}) is a second "
                    "derivative of a vector field, which is not "
                    "representable")
    return tuple(merge_equal(out))


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


def composition_summand(p: Component, q: Component, nalpha: int,
                        xmax: float = inf
                        ) -> tuple[tuple[Term, ...], float]:
    """One block of the composition expansion, in eta = i xi (see `terms`):

        1 / a! * sum over a abstract slots of
        (d_eta^a p-terms) * (d_x^a q-terms).

    The multi-index sum collapses to an unrestricted sum over slot labels
    shared between the two halves.  The x-derivative side is built first:
    when it is empty, no xi-derivative is taken; otherwise p's are taken
    here, for this block alone.  A q whose stored x-Taylor order is below
    nalpha raises TruncationError, but only when the xi-derivative side
    does not vanish.

    It returns the block's terms and the x-degree they are exact to (inf:
    exact), a vanishing block too: an empty x side is zero to the degree
    both factors are exact to (q's less nalpha), an empty xi side to p's.

    The terms of both factors that can only make products with more than
    xmax x factors are left out (xmax=inf: none).  On the left those are
    the xi-derivative terms with more than xmax.  On the right they are,
    before the x-derivatives, those with more than nalpha + xmax, and after
    derivative k those with more than xmax + nalpha - k (`d_x_terms`' own
    cut).  An xi-derivative keeps every x factor, an x-derivative lowers
    the x-degree by at most one, and a product keeps every x factor of
    both sides.  So the cut is exact for a caller that keeps only terms of
    x-degree at most xmax, and the block is exact to that degree at most;
    with xmax=0 it is the block at the origin.
    """
    labels = _fresh_labels((p.terms, q.terms), nalpha)
    qx = q.xtrunc - nalpha
    right = None
    if qx >= 0:
        right = [t for t in q.terms if x_degree(t) <= nalpha + xmax]
        for k, lab in enumerate(labels, 1):
            right = d_x_terms(right, lab, xmax=xmax + nalpha - k)
        if not right:
            return (), min(p.xtrunc, qx, xmax)
    left = p.terms
    for lab in labels:
        left = d_xi_terms(left, lab)
        if not left:
            return (), min(p.xtrunc, xmax)
    if right is None:
        raise TruncationError(
            f"{nalpha} x-derivative(s) exceed the stored x-Taylor order")
    left = [t for t in left if x_degree(t) <= xmax]
    if nalpha:
        # the prefactor goes on the left factor's terms, not on each product
        pref = Scalar.of(1, factorial(nalpha))
        left = [Term(t.coeff * pref, t.fac, t.word, t.norm) for t in left]
    out = [mul_terms(a, b) for a in left for b in right]
    # left unnormalized: callers cut to the origin first (xmax=0 or
    # `origin_terms`), which is far cheaper than canonicalizing x-heavy
    # products that are about to vanish
    return tuple(out), min(p.xtrunc, qx, xmax)


def compose(P: PDOSymbol, Q: PDOSymbol, targets: Iterable[Order],
            xmax: float = inf) -> PDOSymbol:
    """Symbol composition truncated to the requested orders.

    sigma(PQ) = sum_alpha 1/a! d_eta^a sigma(P) d_x^a sigma(Q), with
    |a| forced by homogeneity per component pair: for a left order p the
    right order is target - p + |a|, so |a| runs from 0 up to Q's top order
    at that slope, above which Q vanishes.  A missing order of either factor
    raises TruncationError: one of Q that a pair reaches, whether or not
    the xi-derivative side survives, and one of a truncated P that the
    alpha = 0 pairing with Q's top reaches.  A vanishing xi-derivative side
    only short-circuits the check of Q's x-Taylor order in
    `composition_summand`.  A component is exact to the least x-degree of
    the summands it runs, vanishing ones included.  The terms of both
    factors that can only make products with more than xmax x factors are
    left out (see `composition_summand`), and the components are exact to
    x-degree xmax at most.
    """
    comps: dict[Order, Component] = {}
    for target in targets:
        acc: list[Term] = []
        xt = inf
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
                xt = min(xt, sxt)
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
