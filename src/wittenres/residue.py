"""Noncommutative-residue densities and the labeled term ledger.

The density of Wres(P) at the base point is the cosphere integral of the
fiber trace of the order -2m symbol component: trace, then monomial
integration, then contraction and collection into invariant atoms.  The
Einstein functional splits into Part I (the c(u)c(w) inverse-square-reduced
power) and Part II (the six composition summands of the A B inverse-power
product); every labeled intermediate is evaluated separately so it can be
diffed against stored reference values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import clifford, sphere
from .operators import (build_laplace_data, cu_cw_symbol, order_zero_pieces,
                        parametrix_symbols, symbol_of_a, symbol_of_b)
from .pdo import Component, TruncationError, compose, composition_summand
from .tensor import CollectError, ScalarInvariantExpr, canonicalize, collect
from .terms import (ContractViolation, NormalizeError, Term, mul_sums,
                    normalize)

LEDGER_ORDER = (
    "I-1", "I-2", "I-3", "I-4", "I-5", "I-6", "I-7", "S1",
    "II-1-A", "II-1-B", "II-1-C", "II-1-D", "II-1-E", "II-1",
    "II-2",
    "II-3-A", "II-3-B", "II-3-C", "II-3-D", "II-3-E", "II-3-F", "II-3-G",
    "II-3",
    "II-4-A", "II-4-B", "II-4-C", "II-4",
    "II-5", "II-6", "S2",
    "metric", "einstein",
)


class ResidueError(Exception):
    """A density violated the residue contracts (free index, imaginary
    part, surviving derivative atom)."""


@dataclass
class TermLedger:
    """Ordered map from term label to its exact invariant-atom value."""

    entries: dict[str, ScalarInvariantExpr] = field(default_factory=dict)

    def __getitem__(self, label: str) -> ScalarInvariantExpr:
        return self.entries[label]

    def labels(self) -> list[str]:
        return [l for l in LEDGER_ORDER if l in self.entries]

    @property
    def s1(self):
        return self.entries["S1"]

    @property
    def s2(self):
        return self.entries["S2"]

    @property
    def metric(self):
        return self.entries["metric"]

    @property
    def einstein(self):
        return self.entries["einstein"]


def _drop_norm(terms) -> list[Term]:
    return [Term(t.coeff, t.fac, t.word, (0, 0), t.trid, t.vol)
            for t in terms]


def _origin(terms) -> list[Term]:
    return [t for t in terms if not any(f.kind == "x" for f in t.fac)]


def wres_density(terms, bianchi: bool = True) -> ScalarInvariantExpr:
    """Residue density of an order -2m, origin-evaluated term sum.

    Pipeline: fiber trace, cosphere monomial integration on the unit
    sphere (norm powers become one), delta contraction and canonical form,
    collection into invariant atoms.  Hard errors on leftover free indices,
    derivative atoms, or imaginary parts.
    """
    staged = []
    for t in terms:
        if any(f.kind == "x" for f in t.fac):
            raise ResidueError(f"term not evaluated at the origin: {t}")
        deg = sum(1 for f in t.fac if f.kind == "xi")
        if (t.norm[0] + deg, t.norm[1]) != (0, -2):
            raise ResidueError(
                f"term is not homogeneous of order -2m: {t}")
        staged.append(t)
    # on the unit cosphere every norm power is one; normalization may move
    # xi pairs into the norm, so norms are dropped after the trace
    traced = clifford.trace(staged)
    integrated = []
    for t in _drop_norm(traced):
        integrated.extend(sphere.integrate_term(t))
    try:
        return collect(canonicalize(integrated, bianchi=bianchi)).check_real()
    except (NormalizeError, ContractViolation, CollectError, TruncationError,
            ValueError) as exc:
        raise ResidueError(str(exc)) from exc


def compute_metric_functional(bianchi: bool = True,
                              with_field: bool = True) -> ScalarInvariantExpr:
    """Density of Wres(c(u) c(w) D^{-2m}): exactly -g(u,w) TrId Vol."""
    par = parametrix_symbols(build_laplace_data(with_field), 0)
    prod = mul_sums(cu_cw_symbol().comps[(0, 0)].terms,
                    par.comps[(0, -2)].terms)
    return wres_density(_origin(prod), bianchi=bianchi)


def _classify(terms, labels: dict[str, str], where: str):
    """Split parametrix-side terms into the labeled classes by their factor
    and word signature."""
    out = {lab: [] for lab in labels.values()}
    for t in terms:
        kinds = {f.kind for f in t.fac}
        cs = sum(1 for g in t.word if g.fam == "c")
        hs = sum(1 for g in t.word if g.fam == "h")
        if "ric" in kinds:
            sig = "ric"
        elif "scal" in kinds:
            sig = "scal"
        elif "dv" in kinds:
            sig = "dv"
        elif "dw" in kinds:
            sig = "dw"
        elif "vsq" in kinds or sum(1 for f in t.fac if f.kind == "v") == 2:
            sig = "vv"
        elif "riem" in kinds:
            sig = f"riem{cs}{hs}"
        else:
            sig = "?"
        if sig not in labels:
            raise ResidueError(f"unclassifiable term in {where}: {t}")
        out[labels[sig]].append(t)
    return out


def compute_einstein_functional(bianchi: bool = True,
                                with_field: bool = True) -> TermLedger:
    """Evaluate every labeled term of the Einstein functional and the
    totals; asserts the ledger's internal sum identities."""
    data = build_laplace_data(with_field)
    par0 = parametrix_symbols(data, 0)
    par1 = parametrix_symbols(data, 1)
    ab = compose(symbol_of_a(with_field), symbol_of_b(with_field),
                 [(2, 0), (1, 0), (0, 0)])
    uw = cu_cw_symbol().comps[(0, 0)].terms

    led = TermLedger()

    def wres(terms):
        return wres_density(terms, bianchi=bianchi)

    # Part I: c(u) c(w) times the order -2m component of the reduced power.
    # The xi-contracted curvature lines (I-2, I-3) vanish already at the
    # symbol level by first-slot antisymmetry, so those classes are empty.
    part1_classes = _classify(
        par1.comps[(0, -2)].terms,
        {"ric": "I-1", "riem20": "I-2", "riem02": "I-3", "riem22": "I-4",
         "scal": "I-5", "dv": "I-6", "vv": "I-7"},
        "part I")
    s1 = ScalarInvariantExpr.zero()
    for lab in ("I-1", "I-2", "I-3", "I-4", "I-5", "I-6", "I-7"):
        led.entries[lab] = wres(_origin(mul_sums(uw, part1_classes[lab])))
        s1 = s1 + led.entries[lab]
    led.entries["S1"] = s1

    sig0 = _origin(ab.comps[(0, 0)].terms)
    sig1 = ab.comps[(1, 0)].terms
    sig2 = ab.comps[(2, 0)].terms

    # II-1: order-zero product against |xi|^{-2m}.  The sub-terms are built
    # from the pieces of the factor symbols: the plain order-zero product
    # (only c(u)ch(V)c(w)ch(V) survives at the origin) plus the first
    # xi/x derivative pairing of sigma_1(A) against each piece of
    # sigma_0(B); the latter's vector piece splits by which field the
    # derivative hit.
    a_sym = symbol_of_a(with_field)
    s1a = a_sym.comps[(1, 0)]
    s0a = a_sym.comps[(0, 0)].terms
    s0b_pieces = order_zero_pieces("w", with_field)
    top0 = par0.comps[(0, -2)].terms

    conn_c, _ = composition_summand(
        s1a, Component(s0b_pieces["conn_c"], None), 1)
    conn_h, _ = composition_summand(
        s1a, Component(s0b_pieces["conn_h"], None), 1)
    dvec, _ = composition_summand(
        s1a, Component(s0b_pieces["vec"], None), 1)
    dvec = _origin(dvec)
    dw_part = [t for t in dvec if any(f.kind == "dw" for f in t.fac)]
    dv_part = [t for t in dvec if any(f.kind == "dv" for f in t.fac)]
    if len(dw_part) + len(dv_part) != len(dvec):
        raise ResidueError("vector-derivative split lost a term in II-1")
    plain = _origin(mul_sums(s0a, normalize(
        s0b_pieces["conn_c"] + s0b_pieces["conn_h"] + s0b_pieces["vec"])))
    ii1_classes = {
        "II-1-A": _origin(conn_c), "II-1-B": _origin(conn_h),
        "II-1-C": dw_part, "II-1-D": dv_part, "II-1-E": plain,
    }
    ii1 = ScalarInvariantExpr.zero()
    for lab in ("II-1-A", "II-1-B", "II-1-C", "II-1-D", "II-1-E"):
        led.entries[lab] = wres(_origin(mul_sums(ii1_classes[lab], top0)))
        ii1 = ii1 + led.entries[lab]
    led.entries["II-1"] = ii1
    composed = wres(_origin(mul_sums(sig0, top0)))
    if not (composed - ii1).is_zero():
        raise ResidueError("II-1 sub-term split disagrees with the composed "
                           "order-zero symbol")

    # II-2: order-one product against the wholly x-linear component
    led.entries["II-2"] = wres(
        _origin(mul_sums(sig1, par0.comps[(-1, -2)].terms)))

    # II-3: order-two product against the order -2m-2 component
    ii3_classes = _classify(
        par0.comps[(-2, -2)].terms,
        {"ric": "II-3-A", "riem20": "II-3-B", "riem02": "II-3-C",
         "riem22": "II-3-D", "scal": "II-3-E", "dv": "II-3-F",
         "vv": "II-3-G"},
        "II-3")
    ii3 = ScalarInvariantExpr.zero()
    for lab in ("II-3-A", "II-3-B", "II-3-C", "II-3-D", "II-3-E", "II-3-F",
                "II-3-G"):
        led.entries[lab] = wres(_origin(mul_sums(sig2, ii3_classes[lab])))
        ii3 = ii3 + led.entries[lab]
    led.entries["II-3"] = ii3

    # II-4: first xi/x derivative pairing with the order -2m-1 component
    ii4_classes = _classify(
        par0.comps[(-1, -2)].terms,
        {"ric": "II-4-A", "riem20": "II-4-B", "riem02": "II-4-C"},
        "II-4")
    ii4 = ScalarInvariantExpr.zero()
    for lab in ("II-4-A", "II-4-B", "II-4-C"):
        terms, _ = composition_summand(
            Component(tuple(sig2), None),
            Component(tuple(ii4_classes[lab]), 1), 1)
        led.entries[lab] = wres(_origin(terms))
        ii4 = ii4 + led.entries[lab]
    led.entries["II-4"] = ii4

    # II-5: first derivative pairing with the top component
    terms, _ = composition_summand(Component(tuple(sig1), None),
                                   par0.comps[(0, -2)], 1)
    led.entries["II-5"] = wres(_origin(terms))

    # II-6: second derivative pairing with the top component
    terms, _ = composition_summand(Component(tuple(sig2), None),
                                   par0.comps[(0, -2)], 2)
    led.entries["II-6"] = wres(_origin(terms))

    s2 = ScalarInvariantExpr.zero()
    for lab in ("II-1", "II-2", "II-3", "II-4", "II-5", "II-6"):
        s2 = s2 + led.entries[lab]
    led.entries["S2"] = s2

    led.entries["metric"] = compute_metric_functional(bianchi=bianchi,
                                                      with_field=with_field)
    led.entries["einstein"] = s1 + s2
    return led


def part2_compose_check(bianchi: bool = True) -> ScalarInvariantExpr:
    """Part II evaluated through the general composition machinery instead
    of the six explicit summands; must equal the ledger's S2."""
    data = build_laplace_data()
    par0 = parametrix_symbols(data, 0)
    ab = compose(symbol_of_a(), symbol_of_b(), [(2, 0), (1, 0), (0, 0)])
    full = compose(ab, par0, [(0, -2)])
    return wres_density(_origin(full.comps[(0, -2)].terms), bianchi=bianchi)


def part1_top_norm_exponent() -> tuple[int, int]:
    """Derived |xi| exponent on the curvature lines of the reduced-power
    order -2m component (homogeneity forces -2m-2)."""
    par1 = parametrix_symbols(build_laplace_data(), 1)
    for t in par1.comps[(0, -2)].terms:
        if any(f.kind == "ric" for f in t.fac):
            return t.norm
    raise ResidueError("missing Ricci term in the reduced-power component")
