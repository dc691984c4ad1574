from math import inf

import oracle
import pytest
from oracle import at_m, inverse_symbol_reference, sums_equal

from wittenres import clifford as cl
from wittenres.operators import (cu_cw_symbol, dirac_symbol, endomorphism,
                                 parametrix_symbols, symbol_of_a,
                                 symbol_of_b, t_ab)
from wittenres.pdo import (Component, PDOSymbol, compose, origin_terms,
                           terms_equal_taylor)
from wittenres.reference import (DisplayParityError, ab_symbol_reference,
                                 eta_form)
from wittenres.residue import Pieces, wres_density
from wittenres.scalars import S_ONE, Scalar
from wittenres.tensor import canonicalize, collect
from wittenres.terms import Term, fct, mul_terms, normalize


def test_taylor_coefficient_antisymmetry():
    # T_ab + T_ba = 0 by the first-pair antisymmetry of the curvature
    both = list(t_ab("a", "b")) + list(t_ab("b", "a"))
    assert normalize(both) == ()
    # so the trace T_aa vanishes, and the parametrix has no T_aa term
    assert normalize(t_ab("a", "a")) == ()
    # and the instantiated coefficient tensors agree with that sign
    assign = oracle.TensorAssignment(3, 4)
    assert assign.riem[(2, 1, 4, 3)] == -assign.riem[(1, 2, 4, 3)]


def _mid_component_checks(frame):
    """Give sigma(D_V) the order-one frame term i frame R_akjl x_k x_l xi_j
    c_a, exact to x-degree 2 (in normal coordinates
    e_a = d_a + (1/6) R_akjl x^k x^l d_j, so frame = 1/6).  Whether the
    x-linear part of sigma_1(D_V o D_V) is then 2i T_ab x_b xi_a
    + (2/3) i Ric_ak x_k xi_a, and whether each parametrix's middle
    component is -mt times it at |xi|^(2 off - 2, -2).  Each term has one
    xi factor, so in eta = i xi it drops its i."""
    d = dirac_symbol()
    (top,) = d.comps[(1, 0)].terms
    bent = Term(frame, (fct("riem", "a", "k", "j", "l"), fct("x", "k"),
                        fct("x", "l"), fct("xi", "j")), (cl.c("a"),))
    d = PDOSymbol({(1, 0): Component((top, bent), 2),
                   (0, 0): d.comps[(0, 0)]}, exact=True)
    derived = normalize(compose(d, d, [(1, 0)], xmax=1).comps[(1, 0)].terms)
    endo = endomorphism()
    stated = [Term(t.coeff * Scalar.of(2),
                   t.fac + (fct("x", "b"), fct("xi", "a")), t.word)
              for t in t_ab("a", "b")]
    stated.append(Term(Scalar.of(2, 3), (fct("ric", "a", "k"),
                                         fct("x", "k"), fct("xi", "a"))))
    checks = [derived == normalize(stated)]
    for off in (0, 1):
        mid = parametrix_symbols(endo, off).comps[(2 * off - 1, -2)].terms
        mt = Scalar.poly((-off, 1))
        want = [Term(-mt * t.coeff, t.fac, t.word, (2 * off - 2, -2))
                for t in derived]
        checks.append(normalize(mid) == normalize(want))
    return checks


def test_connection_coefficient_and_middle_component_are_derived():
    # T_ab and the parametrix's order -2mt-1 component follow from sigma(D_V)
    # once its order-one part carries the frame's x^2 term; with the wrong
    # sign of that term, neither holds
    assert _mid_component_checks(Scalar.of(1, 6)) == [True, True, True]
    assert _mid_component_checks(Scalar.of(-1, 6)) == [False, False, False]


def test_endomorphism_scalar_piece():
    # the endomorphism is derived from sigma_0(D_V o D_V), whose
    # -1/8 R_abcd c_a c_b c_c c_d normalizes to Lichnerowicz's s/4
    scal_terms = [t for t in endomorphism() if not t.word]
    expr = collect(normalize(scal_terms))
    assert expr == {"s": Scalar.of(1, 4), "|V|^2": Scalar.of(1)}


def test_endomorphism_trace_self_consistency():
    # tr E = (s/4 + |V|^2) tr[id]: the curvature quartic and the mixed
    # derivative word die in the trace
    expr = collect(normalize(cl.trace(endomorphism())))
    assert set(expr) == {"s", "|V|^2"}


def test_parametrix_density_is_gilkey_a2_of_the_operator():
    # in normal coordinates the connection laplacian's order-zero symbol
    # vanishes at the origin, so there sigma_0(D_V^2) is the E of
    # D_V^2 = nabla^* nabla + E; the reduced power's residue density must
    # then be Gilkey's a_2 density (m - 1)(s/6 - tr E/tr id)
    sigma = oracle.dirac_symbol()
    square = compose(sigma, sigma, [(0, 0)]).comps[(0, 0)]
    tr_e = collect(canonicalize(cl.trace(origin_terms(square.terms))))
    assert tr_e == {"s": Scalar.of(1, 4), "|V|^2": Scalar.of(1)}
    a2 = oracle.value_sum({"s": Scalar.of(1, 6)},
                          {atom: -p for atom, p in tr_e.items()})
    m_minus_1 = Scalar.poly([-1, 1])
    want = {atom: m_minus_1 * p for atom, p in a2.items()}
    assert wres_density(origin_terms(Pieces()["par1_top"].terms)) == want


def test_left_identity_at_the_origin():
    # sigma(Delta) at the origin is |xi|^2 + E: the connection laplacian's
    # first- and zero-order symbols vanish there in normal coordinates.
    # The left factor is only xi-differentiated, so its origin value gives
    # the origin value of Delta o Delta^{-m} = Delta^{-m+1}, as normal
    # forms, at all three orders and symbolic m
    endo = endomorphism()
    laplace = PDOSymbol({(2, 0): Component((Term(S_ONE, (), (), (2, 0)),),
                                           inf),
                         (0, 0): Component(endo, inf)}, exact=True)
    orders = [(2, -2), (1, -2), (0, -2)]
    got = compose(laplace, parametrix_symbols(endo, 0), orders)
    want = parametrix_symbols(endo, 1)
    for order, count in zip(orders, (1, 0, 5)):
        lhs = normalize(origin_terms(got.comps[order].terms))
        rhs = normalize(origin_terms(want.comps[order].terms))
        assert len(rhs) == count, order
        assert lhs == rhs, order


def test_left_identity_residue_with_the_derived_operator():
    # with the derived sigma(D_V) o sigma(D_V) as the left factor, the
    # origin part of Delta o Delta^{-m} has the normal form of
    # Delta^{-m+1}'s at all three orders: at order -2m the
    # -1/8 R_abcd c_a c_b c_c c_d of the square is the s/4 of the
    # endomorphism.  And its residue is Wres(Delta^{-m+1}).  The package
    # states sigma(D_V) as the oracle transcribes it
    sigma, stated = oracle.dirac_symbol(), dirac_symbol()
    assert stated.comps.keys() == sigma.comps.keys() and all(
        sums_equal(stated.comps[order].terms, comp.terms)
        and stated.comps[order].xtrunc == comp.xtrunc
        for order, comp in sigma.comps.items())
    square = compose(sigma, sigma, [(2, 0), (1, 0), (0, 0)])
    endo = endomorphism()
    assert normalize(origin_terms(square.comps[(0, 0)].terms)) == endo
    orders = [(2, -2), (1, -2), (0, -2)]
    got = compose(square, parametrix_symbols(endo, 0), orders)
    want = parametrix_symbols(endo, 1)
    for order, count in zip(orders, (1, 0, 5)):
        rhs = normalize(origin_terms(want.comps[order].terms))
        assert len(rhs) == count, order
        assert normalize(origin_terms(got.comps[order].terms)) == rhs, order
    m_minus_1 = Scalar.poly([-1, 1])
    want = {"s": -m_minus_1 * Scalar.of(1, 12),
            "|V|^2": -m_minus_1}
    assert wres_density(origin_terms(got.comps[(0, -2)].terms)) == want


def test_parametrix_requires_known_power():
    with pytest.raises(ValueError):
        parametrix_symbols(endomorphism(), 2)


def test_parametrix_top_component():
    par = parametrix_symbols(endomorphism(), 0)
    ref = inverse_symbol_reference(0)
    assert sums_equal(par.comps[(0, -2)].terms, ref.comps[(0, -2)].terms)


def test_derived_inverse_symbols_match_printed_display():
    # substituting the deformation data into the generic components must
    # reproduce the printed deformation-specific display term for term
    endo = endomorphism()
    for off in (0, 1):
        eng = parametrix_symbols(endo, off)
        ref = inverse_symbol_reference(off)
        for order, comp in ref.comps.items():
            assert sums_equal(eng.comps[order].terms, comp.terms), \
                (off, order)


def test_order_zero_symbol_at_origin():
    a = origin_terms(symbol_of_a().comps[(0, 0)].terms)
    want = normalize([mul_terms(cl.c_vec("u", "r"), cl.chat_v("b"))])
    assert sums_equal(a, want)


def test_first_order_symbol():
    a = symbol_of_a()
    (t,) = a.comps[(1, 0)].terms
    assert {f.kind for f in t.fac} == {"u", "xi"}
    assert at_m(t.coeff, 2) == 1  # c(u) c(eta) = i c(u) c(xi)


def test_product_symbol_matches_printed_display():
    ab = compose(symbol_of_a(), symbol_of_b(), [(2, 0), (1, 0), (0, 0)])
    ref = ab_symbol_reference()
    for order in ((2, 0), (1, 0)):
        assert terms_equal_taylor(ab.comps[order].terms, ref[order]), order


def test_eta_form_converts_each_printed_power_of_i():
    # i^p t with k xi factors is i^(p-k) t in eta = i xi
    xi_a, xi_b = fct("xi", "a"), fct("xi", "b")
    printed = [(1, S_ONE, (xi_a,), (cl.c("a"),)),         # i c(xi)
               (0, S_ONE, (xi_a, xi_b), (), (-2, -2)),     # xi_a xi_b |xi|^..
               (2, Scalar.of(3), (), ()),                  # 3 i^2
               (3, Scalar.of(1, 2), (xi_a,), ()),          # i^3 xi_a / 2
               (-1, S_ONE, (xi_a,), ())]                   # xi_a / i
    assert eta_form(printed) == (
        Term(S_ONE, (xi_a,), (cl.c("a"),)),
        Term(-S_ONE, (xi_a, xi_b), (), (-2, -2)),
        Term(Scalar.of(-3), ()),
        Term(Scalar.of(-1, 2), (xi_a,)),
        Term(-S_ONE, (xi_a,)))


@pytest.mark.parametrize("power", [0, 2, -1])
def test_eta_form_refuses_a_power_of_i_of_the_wrong_parity(power):
    # c(xi) with an even power of i, or xi_a xi_b with an odd one, is
    # imaginary in eta: a typo in the display, named by the error
    xi = (fct("xi", "a"), fct("xi", "b"))[:1 + power % 2]
    bad = (power, Scalar.of(1, 8), xi, (cl.c("a"),))
    with pytest.raises(DisplayParityError) as exc:
        eta_form([(1, S_ONE, (fct("xi", "f"),), ()), bad])
    assert f"i^{power} with" in str(exc.value)
    assert str(Term(*bad[1:])) in str(exc.value)


def test_an_unconverted_display_fails_the_taylor_comparison():
    # the converted A B displays hold the derived symbol; the same
    # transcriptions read with every power of i dropped do not, at order
    # two, where c(u) c(xi) c(w) c(xi) is printed with -1, which is +1 in
    # eta
    ab = compose(symbol_of_a(), symbol_of_b(), [(2, 0)])
    (printed,) = ab_symbol_reference()[(2, 0)]
    assert terms_equal_taylor(ab.comps[(2, 0)].terms, (printed,))
    raw = printed._replace(coeff=-printed.coeff)
    assert not terms_equal_taylor(ab.comps[(2, 0)].terms, (raw,))


def test_product_symbol_order_zero_matches_printed_display_slow():
    # the order-zero display, including the connection quadratics and all
    # derivative atoms
    ab = compose(symbol_of_a(), symbol_of_b(), [(0, 0)])
    ref = ab_symbol_reference()
    assert terms_equal_taylor(ab.comps[(0, 0)].terms, ref[(0, 0)])


def test_cu_cw_symbol_is_multiplication_operator():
    uw = cu_cw_symbol()
    assert uw.xtrunc == inf
    (t,) = uw.terms
    assert {f.kind for f in t.fac} == {"u", "w"} and t.norm == (0, 0)
