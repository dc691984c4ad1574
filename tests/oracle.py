"""Independent ground truth and references for the test suite.

Explicit integer matrices for the two Clifford actions on the exterior
algebra of R^n, Gamma-function sphere integrals, and random exact tensor
assignments with the full Riemann symmetries, so the symbolic results can
be checked against an unrelated computation.  Below them are the symbolic
references only the tests compare against: the printed inverse-power
displays, Part II through the general composition, and the term-sum
equality and word helpers.  This module lives beside the tests and is
never imported by the package.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import numpy as np

from wittenres.clifford import c, chat
from wittenres.operators import (endomorphism, parametrix_symbols,
                                 symbol_of_a, symbol_of_b)
from wittenres.pdo import Component, PDOSymbol, compose, origin_terms
from wittenres.reference import eta_form
from wittenres.residue import wres_density
from wittenres.scalars import S_ONE, PolyM, Scalar
from wittenres.terms import Term, fct, normalize


class ExteriorRep:
    """Wedge/contraction matrices on the 2^n dimensional exterior algebra.

    Basis: subsets of {1..n} in lexicographic order of the sorted tuple.
    c_a = wedge_a - contract_a squares to -Id, chat_a = wedge_a + contract_a
    squares to +Id, and the families anticommute; the relations are verified
    at construction.
    """

    def __init__(self, n: int):
        if n % 2 or not (2 <= n <= 8):
            raise ValueError(f"need even n in 2..8, got {n}")
        self.n = n
        self.basis = [frozenset(s) for k in range(n + 1)
                      for s in combinations(range(1, n + 1), k)]
        self.pos = {s: i for i, s in enumerate(self.basis)}
        dim = 1 << n
        self.c = {}
        self.chat = {}
        for a in range(1, n + 1):
            wedge = np.zeros((dim, dim), dtype=np.int64)
            contr = np.zeros((dim, dim), dtype=np.int64)
            for i, s in enumerate(self.basis):
                sign = (-1) ** len([x for x in s if x < a])
                if a not in s:
                    wedge[self.pos[s | {a}], i] = sign
                else:
                    contr[self.pos[s - {a}], i] = sign
            self.c[a] = wedge - contr
            self.chat[a] = wedge + contr
        self._check_relations()

    def _check_relations(self):
        dim = 1 << self.n
        eye = np.eye(dim, dtype=np.int64)
        for a in range(1, self.n + 1):
            for b in range(a, self.n + 1):
                d = 2 * eye if a == b else 0 * eye
                assert np.array_equal(
                    self.c[a] @ self.c[b] + self.c[b] @ self.c[a], -d)
                assert np.array_equal(
                    self.chat[a] @ self.chat[b] + self.chat[b] @ self.chat[a],
                    d)
            for b in range(1, self.n + 1):
                z = self.c[a] @ self.chat[b] + self.chat[b] @ self.c[a]
                assert not z.any()

    def word_matrix(self, word) -> np.ndarray:
        dim = 1 << self.n
        m = np.eye(dim, dtype=np.int64)
        for g in word:
            if not isinstance(g.idx, int):
                raise ValueError("matrix representation needs concrete "
                                 "indices")
            m = m @ (self.c[g.idx] if g.fam == "c" else self.chat[g.idx])
        return m

    def word_trace(self, word) -> int:
        return int(np.trace(self.word_matrix(word)))


_reps: dict[int, ExteriorRep] = {}


def matrix_rep(n: int) -> ExteriorRep:
    if n not in _reps:
        _reps[n] = ExteriorRep(n)
    return _reps[n]


def _double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def sphere_integral_exact(exponents, n: int) -> Fraction:
    """Monomial integral over S^{n-1} as an exact multiple of the volume.

    Uses the closed Gamma form 2*prod Gamma((a_i+1)/2) / Gamma((sum a + n)/2);
    the pi powers cancel against Vol(S^{n-1}), leaving
    prod (a_i - 1)!! / prod_{j<k} (n + 2j) for even exponents and 0 otherwise.
    """
    exponents = list(exponents)
    if len(exponents) != n:
        raise ValueError(f"need {n} exponents, got {len(exponents)}")
    if any(e < 0 for e in exponents):
        raise ValueError("exponents must be non-negative")
    if any(e % 2 for e in exponents):
        return Fraction(0)
    k = sum(exponents) // 2
    num = 1
    for e in exponents:
        num *= _double_factorial(e - 1)
    den = 1
    for j in range(k):
        den *= n + 2 * j
    return Fraction(num, den)


def at_m(s: Scalar, m) -> Fraction:
    """An exact scalar at the half-dimension m, read off the int form and
    evaluated through `PolyM.evaluate`."""
    return PolyM([Fraction(x, s.den) for x in s.nums]).evaluate(m)


class TensorAssignment:
    """Random exact numeric tensors with the full Riemann symmetries."""

    def __init__(self, seed: int, n: int = 4):
        self.n = n
        rng = random.Random(seed)

        def rand():
            return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

        idxs = range(1, n + 1)
        raw = {(a, b, cc, d): rand() for a in idxs for b in idxs
               for cc in idxs for d in idxs}
        anti = {}
        for key in raw:
            a, b, cc, d = key
            anti[key] = (raw[(a, b, cc, d)] - raw[(b, a, cc, d)]
                         - raw[(a, b, d, cc)] + raw[(b, a, d, cc)]) / 4
        pair = {k: (anti[k] + anti[(k[2], k[3], k[0], k[1])]) / 2
                for k in anti}
        # remove the totally antisymmetric part: the cyclic sum over the
        # last three slots then vanishes (first Bianchi)
        self.riem = {}
        for key in pair:
            a, b, cc, d = key
            cyc = (pair[(a, b, cc, d)] + pair[(a, cc, d, b)]
                   + pair[(a, d, b, cc)]) / 3
            self.riem[key] = pair[key] - cyc
        self.ric = {(a, b): sum(self.riem[(l, a, l, b)] for l in idxs)
                    for a in idxs for b in idxs}
        self.scal = sum(self.ric[(a, a)] for a in idxs)
        self.vec = {f: {a: rand() for a in idxs} for f in ("u", "w", "v")}
        self.dvec = {f: {(a, b): rand() for a in idxs for b in idxs}
                     for f in ("u", "w", "v")}
        self.xi = {a: rand() for a in idxs}
        self.x = {a: rand() for a in idxs}

    def _factor_value(self, f, assign) -> Fraction:
        idx = tuple(assign.get(i, i) for i in f.idx)
        if f.kind == "delta":
            return Fraction(1 if idx[0] == idx[1] else 0)
        if f.kind == "riem":
            return self.riem[idx]
        if f.kind == "ric":
            return self.ric[idx]
        if f.kind == "scal":
            return self.scal
        if f.kind in ("u", "w", "v"):
            return self.vec[f.kind][idx[0]]
        if f.kind in ("du", "dw", "dv"):
            return self.dvec[f.kind[1]][idx]
        if f.kind == "xi":
            return self.xi[idx[0]]
        if f.kind == "x":
            return self.x[idx[0]]
        if f.kind == "guw":
            return sum(self.vec["u"][a] * self.vec["w"][a]
                       for a in range(1, self.n + 1))
        if f.kind == "ricuw":
            return sum(self.vec["u"][a] * self.ric[(a, b)] * self.vec["w"][b]
                       for a in range(1, self.n + 1)
                       for b in range(1, self.n + 1))
        if f.kind == "vsq":
            return sum(v * v for v in self.vec["v"].values())
        raise ValueError(f"no numeric value for factor kind {f.kind!r}")

    def evaluate(self, terms) -> Fraction:
        """Exact numeric value of a wordless term sum at m = n/2.  The xi
        values are those of eta = i xi, so |xi|^2 = -eta.eta."""
        m = Fraction(self.n, 2)
        xi_sq = -sum(v * v for v in self.xi.values())
        value = Fraction(0)
        for t in terms:
            if t.word:
                raise ValueError("numeric evaluation is for tensor terms")
            labels = sorted({i for f in t.fac for i in f.idx
                             if isinstance(i, str)})
            counts = {}
            for f in t.fac:
                for i in f.idx:
                    if isinstance(i, str):
                        counts[i] = counts.get(i, 0) + 1
            if any(counts[l] != 2 for l in labels):
                raise ValueError("numeric evaluation needs fully "
                                 "contracted terms")
            npow = t.norm[0] + t.norm[1] * m
            if npow.denominator != 1 or int(npow) % 2:
                raise ValueError("odd norm power has no rational value")
            nval = xi_sq ** (int(npow) // 2)
            total = Fraction(0)
            assign = dict.fromkeys(labels, 1)

            # sum the factor product over every assignment of the dummies
            def full(k):
                nonlocal total
                if k == len(labels):
                    prod = Fraction(1)
                    for f in t.fac:
                        prod *= self._factor_value(f, assign)
                        if prod == 0:
                            break
                    total += prod
                    return
                for v in range(1, self.n + 1):
                    assign[labels[k]] = v
                    full(k + 1)
            full(0)
            value += at_m(t.coeff, m) * nval * total
        return value


# ---------------------------------------------------------------------------
# symbolic references


def word_term(word) -> Term:
    """The Clifford word as a term with coefficient one."""
    return Term(S_ONE, (), tuple(word))


def sums_equal(a, b) -> bool:
    """Whether two term sums have the same value: their difference
    normalizes to nothing."""
    diff = list(a) + [Term(-t.coeff, t.fac, t.word, t.norm) for t in b]
    return not normalize(diff)


def value_sum(*values: dict[str, PolyM]) -> dict[str, PolyM]:
    """The atom-wise sum of ledger values ({atom: PolyM}), with the atoms
    that cancel left out."""
    acc: dict[str, PolyM] = {}
    for value in values:
        for atom, p in value.items():
            acc[atom] = acc.get(atom, PolyM()) + p
    return {atom: p for atom, p in acc.items() if p.c}


def part2_compose_check() -> dict[str, PolyM]:
    """Part II evaluated through the general composition machinery instead
    of the six explicit summands; must equal the ledger's S2."""
    par0 = parametrix_symbols(endomorphism(), 0)
    ab = compose(symbol_of_a(), symbol_of_b(), [(2, 0), (1, 0), (0, 0)])
    full = compose(ab, par0, [(0, -2)])
    return wres_density(origin_terms(full.comps[(0, -2)].terms))


def dirac_symbol() -> PDOSymbol:
    """The symbol of the deformed operator D_V in normal coordinates, with
    x-linear Taylor data, written out here rather than taken from the
    package: i c(xi) at order one, and at order zero the two connection
    words with the connection's x-linear curvature value, plus ch(V).  It
    is stated in xi and converted to eta = i xi by `reference.eta_form`."""
    top = eta_form([(1, S_ONE, (fct("xi", "a"),), (c("a"),))])
    zero = (
        Term(Scalar.of(1, 8), (fct("riem", "l", "p", "t", "s"), fct("x", "l")),
             (c("p"), c("s"), c("t"))),
        Term(Scalar.of(-1, 8),
             (fct("riem", "l", "p", "t", "s"), fct("x", "l")),
             (c("p"), chat("s"), chat("t"))),
        Term(S_ONE, (fct("v", "b"),), (chat("b"),)),
    )
    return PDOSymbol({(1, 0): Component(top, 1),
                      (0, 0): Component(zero, 1)}, exact=True)


def inverse_symbol_reference(power_offset: int) -> PDOSymbol:
    """The printed inverse-power symbol components for the deformed
    operator, each term transcribed as printed, in xi with its power of i,
    and converted to eta = i xi by `reference.eta_form`.

    power_offset 0 is the full-power display (three components);
    power_offset 1 is the reduced-power order -2m display, with the norm
    exponents corrected to the values homogeneity forces (the printed
    lines carry impossible exponents there; see the diagnostics).
    """
    if power_offset not in (0, 1):
        raise ValueError("power_offset must be 0 or 1")
    off = power_offset
    mt = Scalar.poly((-off, 1))             # effective half-dimension
    mt1 = Scalar.poly((1 - off, 1))
    base = 2 * off
    n_main = (base - 2, -2)
    n_low = (base - 4, -2)

    sig_top = Component(eta_form((
        (0, S_ONE, (fct("delta", "a", "b"), fct("xi", "a"), fct("xi", "b")),
         (), n_main),
        (0, Scalar.of(-1, 3) * mt,
         (fct("riem", "a", "j", "b", "k"), fct("x", "j"), fct("x", "k"),
          fct("xi", "a"), fct("xi", "b")), (), n_main),
    )), 2)
    sig_mid = Component(eta_form((
        (1, Scalar.of(-2, 3) * mt,
         (fct("ric", "a", "k"), fct("x", "k"), fct("xi", "a")), (), n_main),
        (1, Scalar.of(1, 4) * mt,
         (fct("riem", "b", "a", "t", "s"), fct("x", "b"), fct("xi", "a")),
         (c("s"), c("t")), n_main),
        (1, Scalar.of(-1, 4) * mt,
         (fct("riem", "b", "a", "t", "s"), fct("x", "b"), fct("xi", "a")),
         (chat("s"), chat("t")), n_main),
    )), 1)
    sig_low = Component(eta_form((
        (0, Scalar.of(1, 3) * mt * mt1,
         (fct("ric", "a", "b"), fct("xi", "a"), fct("xi", "b")), (), n_low),
        (0, Scalar.of(-1, 4) * mt * mt1,
         (fct("riem", "b", "a", "t", "s"), fct("xi", "a"), fct("xi", "b")),
         (c("s"), c("t")), n_low),
        (0, Scalar.of(1, 4) * mt * mt1,
         (fct("riem", "b", "a", "t", "s"), fct("xi", "a"), fct("xi", "b")),
         (chat("s"), chat("t")), n_low),
        (0, Scalar.of(-1, 8) * mt, (fct("riem", "i", "j", "k", "l"),),
         (chat("i"), chat("j"), c("k"), c("l")), n_main),
        (0, Scalar.of(-1, 4) * mt, (fct("scal"),), (), n_main),
        (0, -mt, (fct("dv", "i", "b"),), (c("i"), chat("b")), n_main),
        (0, -mt, (fct("vsq"),), (), n_main),
    )), 0)
    if power_offset == 0:
        comps = {(base, -2): sig_top, (base - 1, -2): sig_mid,
                 (base - 2, -2): sig_low}
    else:
        # only the order -2m display is printed for the reduced power
        comps = {(base - 2, -2): sig_low}
    return PDOSymbol(comps)
