import random
from math import factorial, inf

import pytest
from oracle import sums_equal

from wittenres import clifford as cl
from wittenres.operators import (cu_cw_symbol, dirac_symbol,
                                 endomorphism, parametrix_symbols,
                                 symbol_of_a, symbol_of_b)
from wittenres.pdo import (Component, PDOSymbol, TruncationError, compose,
                           composition_summand, d_x_terms, d_xi_terms,
                           origin_terms, terms_equal_taylor, x_degree)
from wittenres.scalars import S_ONE, Scalar
from wittenres.terms import F, NormalizeError, Term, fct, normalize


def test_d_xi_norm_power():
    # d_eta |xi|^-2 = 2 eta_j |xi|^-4, since |xi|^2 = -eta.eta: the xi form
    # d_xi |xi|^-2 = -2 xi_j |xi|^-4 with d_eta = -i d_xi and xi_j = -i eta_j
    t = Term(S_ONE, (), (), (-2, 0))
    (out,) = d_xi_terms([t], "j")
    assert out.norm == (-4, 0)
    assert out.fac == (F("xi", ("j",)),)
    assert out.coeff == Scalar.of(2)
    assert d_xi_terms([Term(S_ONE, (fct("scal"),))], "j") == ()


def test_d_xi_on_words():
    # d/dxi_j of c(u)c(xi)c(w)c(xi) gives the two replacement words
    t = Term(S_ONE,
             (fct("u", "r"), fct("xi", "f"), fct("w", "k"), fct("xi", "g")),
             (cl.c("r"), cl.c("f"), cl.c("k"), cl.c("g")))
    got = d_xi_terms([t], "j")
    want = [
        Term(S_ONE, (fct("u", "r"), fct("w", "k"), fct("xi", "g")),
             (cl.c("r"), cl.c("j"), cl.c("k"), cl.c("g"))),
        Term(S_ONE, (fct("u", "r"), fct("xi", "f"), fct("w", "k")),
             (cl.c("r"), cl.c("f"), cl.c("k"), cl.c("j"))),
    ]
    assert sums_equal(got, want)


def test_a_concrete_power_differentiates_to_one_term():
    # xi_1^k and x_1^k differentiate into k copies of one term as written,
    # which the derivatives sum; unmerged, the chain of k derivatives that
    # test_compose_sums_every_alpha_homogeneity_allows takes would build
    # k! copies
    for k in range(1, 11):
        for kind, d in (("xi", d_xi_terms), ("x", d_x_terms)):
            power = Term(S_ONE, (fct(kind, 1),) * k)
            assert d([power], 1) == (
                Term(Scalar.of(k), (fct(kind, 1),) * (k - 1)),)
            assert len(d([power], "j")) == 1


def test_d_x_produces_deltas_and_derivative_atoms():
    t = Term(S_ONE, (fct("ric", "a", "k"), fct("x", "k"), fct("xi", "a")))
    # x_k -> delta(k, j) contracts into ric(a, j); the output's dummies
    # carry canonical names, so compare by value
    out = d_x_terms([t], "j")
    assert sums_equal(out, [Term(S_ONE, (fct("ric", "a", "j"),
                                         fct("xi", "a")))])
    assert d_x_terms([Term(S_ONE, (fct("scal"),))], "j") == ()
    (dw,) = d_x_terms([Term(S_ONE, (fct("w", "g"),), (cl.c("g"),))], "j")
    assert any(f.kind == "dw" for f in dw.fac)
    with pytest.raises(NormalizeError):
        d_x_terms([Term(S_ONE, (fct("dw", "a", "b"),))], "j")


def test_d_x_strict_error_names_factor_and_label():
    t = Term(S_ONE, (fct("ric", "a", "b"), fct("du", 2, "b"), fct("x", "a")))
    with pytest.raises(NormalizeError, match=(
            r"^d_x_terms: d/dx_l of du\(2, b\) is a second derivative of a "
            r"vector field, which is not representable$")):
        d_x_terms([t], "l")


def test_d_xi_d_x_commute():
    rng = random.Random(7)
    for _ in range(40):
        facs = [fct("xi", "a"), fct("x", "b"), fct("ric", "a", "b")]
        rng.shuffle(facs)
        t = Term(Scalar.of(rng.randint(1, 4)), tuple(facs), (),
                 (-2 * rng.randint(0, 2), 0))
        ab = d_x_terms(d_xi_terms([t], "j"), "l")
        ba = d_xi_terms(d_x_terms([t], "l"), "j")
        assert sums_equal(ab, ba)


def _identity_symbol():
    return PDOSymbol({(0, 0): Component((Term(S_ONE, ()),), inf)},
                     exact=True)


def test_symbol_refuses_a_term_at_the_wrong_order():
    # xi_a |xi|^-2 is of order (-1, 0)
    t = Term(S_ONE, (fct("xi", "a"),), (), (-2, 0))
    assert PDOSymbol({(-1, 0): Component((t,), inf)}).comps
    with pytest.raises(ValueError, match=r"homogeneity \(-1, 0\) stored at "
                                         r"\(-2, 0\)"):
        PDOSymbol({(-2, 0): Component((t,), inf)})


def test_a_truncated_symbol_knows_only_its_stored_orders():
    # above its top, below its lowest order and at another slope alike;
    # an exact symbol is zero wherever it stores nothing
    par = parametrix_symbols(endomorphism(), 0)
    for order in ((1, -2), (-3, -2), (0, 0)):
        with pytest.raises(TruncationError, match=r"^order .* outside stored "
                                                  r"truncation "):
            par.component(order)
    assert dirac_symbol().component((2, 0)) == Component((), inf)


def test_compose_identity():
    par = parametrix_symbols(endomorphism(), 0)
    out = compose(par, _identity_symbol(), [(0, -2), (-1, -2), (-2, -2)])
    for order in out.comps:
        assert sums_equal(out.comps[order].terms, par.comps[order].terms)
    out = compose(_identity_symbol(), par, [(0, -2), (-1, -2), (-2, -2)])
    for order in out.comps:
        assert sums_equal(out.comps[order].terms, par.comps[order].terms)


def test_compose_truncation_error_is_explicit():
    par = parametrix_symbols(endomorphism(), 0)
    ab = compose(symbol_of_a(), symbol_of_b(), [(2, 0), (1, 0), (0, 0)])
    with pytest.raises(TruncationError):
        compose(ab, par, [(-1, -2)])  # needs the unknown order -2m-3


@pytest.mark.parametrize("k", range(1, 11))
def test_compose_sums_every_alpha_homogeneity_allows(k):
    # eta_1^k against x_1^k reaches the origin only through the alpha = k
    # summand: 1 / k! * k! * k!  (in xi, xi_1^k = (-i)^k eta_1^k gives
    # (-i)^k k!)
    xi = PDOSymbol({(k, 0): Component((Term(S_ONE, (fct("xi", 1),) * k),),
                                      inf)}, exact=True)
    x = PDOSymbol({(0, 0): Component((Term(S_ONE, (fct("x", 1),) * k),),
                                     inf)}, exact=True)
    got = normalize(origin_terms(compose(xi, x, [(0, 0)]).comps[(0, 0)]
                                 .terms))
    assert got == (Term(Scalar.of(factorial(k)), ()),)


@pytest.mark.parametrize("xmax", [0, 1])
def test_compose_xmax_keeps_every_term_up_to_that_x_degree(xmax):
    # the cut leaves out the terms of either factor whose products all
    # carry more than xmax x factors, so the terms of x-degree at most xmax
    # are unchanged
    targets = [(2, 0), (1, 0), (0, 0)]
    whole = compose(symbol_of_a(), symbol_of_b(), targets)
    cut = compose(symbol_of_a(), symbol_of_b(), targets, xmax=xmax)
    for order, comp in whole.comps.items():
        got = cut.comps[order]
        assert got.xtrunc <= xmax
        assert (normalize([t for t in got.terms if x_degree(t) <= xmax])
                == normalize([t for t in comp.terms if x_degree(t) <= xmax]))
    # A and B are x-linear, so only xmax = 0 leaves a term out
    assert (len(cut.comps[(0, 0)].terms), len(whole.comps[(0, 0)].terms)) \
        == ((5, 15) if xmax == 0 else (15, 15))


def test_compose_homogeneity_bookkeeping():
    ab = compose(symbol_of_a(), symbol_of_b(), [(2, 0), (1, 0), (0, 0)])
    for order, comp in ab.comps.items():
        for t in comp.terms:
            deg = sum(1 for f in t.fac if f.kind == "xi")
            assert (t.norm[0] + deg, t.norm[1]) == order


# |xi|^-2 survives every xi-derivative, so composing it with a component
# takes that component's x-derivatives for real
XI_SIDE = Component((Term(S_ONE, (), (), (-2, 0)),), inf)


def x_derivative_at_origin(comp, nalpha):
    terms, _ = composition_summand(XI_SIDE, comp, nalpha)
    return normalize(origin_terms(terms))


def test_evaluate_at_origin_ordering():
    par = parametrix_symbols(endomorphism(), 0)
    # differentiate then evaluate retains the linear Taylor coefficient
    at0 = x_derivative_at_origin(par.comps[(-1, -2)], 1)
    assert any(f.kind == "ric" for t in at0 for f in t.fac)
    # the x-linear component vanishes when evaluated directly
    assert origin_terms(par.comps[(-1, -2)].terms) == []


def test_evaluate_guards_truncation():
    par = parametrix_symbols(endomorphism(), 0)
    # the order -2m-2 component is exact only at x-degree zero, so its
    # value is gone after one x-derivative
    with pytest.raises(TruncationError):
        x_derivative_at_origin(par.comps[(-2, -2)], 1)
    # the top component carries x-Taylor data to degree two, no further
    assert x_derivative_at_origin(par.comps[(0, -2)], 2)
    with pytest.raises(TruncationError):
        x_derivative_at_origin(par.comps[(0, -2)], 3)


def test_first_order_symbols_keep_x_linear_data_only():
    for sym in (symbol_of_a(), symbol_of_b()):
        assert {c.xtrunc for c in sym.comps.values()} == {1}
        assert x_derivative_at_origin(sym.comps[(0, 0)], 1)
        with pytest.raises(TruncationError):
            x_derivative_at_origin(sym.comps[(0, 0)], 2)


def test_a_vanishing_summand_keeps_its_truncation_bound():
    # sigma_1(D_V) is exact only to x-degree one, so the alpha = 1 pairing
    # of sigma_1 with itself is empty only at the origin: its x side is
    # d_x of data known to degree one.  sigma_1(D_V o D_V) holds no
    # x-linear data, and asking for it must raise
    d = dirac_symbol()
    one, zero = d.comps[(1, 0)], d.comps[(0, 0)]
    assert composition_summand(one, one, 1) == ((), 0)
    # an empty xi side is zero as far as the left factor's data reaches
    assert composition_summand(zero, zero, 1) == ((), 1)
    square = compose(d, d, [(2, 0), (1, 0), (0, 0)])
    assert ({order: comp.xtrunc for order, comp in square.comps.items()}
            == {(2, 0): 1, (1, 0): 0, (0, 0): 0})
    with pytest.raises(TruncationError):
        x_derivative_at_origin(square.comps[(1, 0)], 1)


def test_associativity_random_symbols_concrete():
    rng = random.Random(31)
    n = 4

    def rand_symbol():
        # xi-polynomial symbols of a first-order differential operator
        comps = {}
        for order in (1, 0):
            terms = []
            for _ in range(rng.randint(1, 2)):
                fac = [fct("xi", rng.randint(1, n)) for _ in range(order)]
                if rng.random() < 0.5:
                    fac.append(fct("x", rng.randint(1, n)))
                word = tuple((cl.c if rng.random() < 0.5 else cl.chat)
                             (rng.randint(1, n))
                             for _ in range(rng.randint(0, 2)))
                terms.append(Term(Scalar.of(rng.randint(-2, 2)), tuple(fac),
                                  word, (0, 0)))
            comps[(order, 0)] = Component(normalize(terms), inf)
        return PDOSymbol(comps, exact=True)

    def as_exact(sym):
        # products of differential symbols are again polynomial: nothing
        # lives below the stored orders
        return PDOSymbol(sym.comps, exact=True)

    for _ in range(12):
        p, q, r = rand_symbol(), rand_symbol(), rand_symbol()
        inner = [(2, 0), (1, 0), (0, 0)]
        targets = [(2, 0), (1, 0), (0, 0)]
        left = compose(as_exact(compose(p, q, inner)), r, targets)
        right = compose(p, as_exact(compose(q, r, inner)), targets)
        for order in targets:
            assert terms_equal_taylor(left.comps[order].terms,
                                      right.comps[order].terms), order


def test_uw_symbol_shape():
    uw = cu_cw_symbol()
    assert uw.xtrunc == inf
    (t,) = uw.terms
    assert {f.kind for f in t.fac} == {"u", "w"} and t.norm == (0, 0)
