import oracle
import pytest
from oracle import at_m, inverse_symbol_reference, sums_equal

from wittenres import clifford as cl
from wittenres.operators import (build_laplace_data, cu_cw_symbol,
                                 dirac_symbol, parametrix_symbols,
                                 symbol_of_a, symbol_of_b)
from wittenres.pdo import (Component, PDOSymbol, compose, origin_terms,
                           terms_equal_taylor)
from wittenres.reference import ab_symbol_reference
from wittenres.residue import Pieces, wres_density
from wittenres.scalars import S_ONE, Scalar
from wittenres.tensor import ScalarInvariantExpr, canonicalize, collect
from wittenres.terms import Term, mul_terms, normalize


def test_taylor_coefficient_antisymmetry():
    data = build_laplace_data()
    # T_ab + T_ba = 0 by the first-pair antisymmetry of the curvature
    both = list(data.t_ab("a", "b")) + list(data.t_ab("b", "a"))
    assert normalize(both) == ()
    # and the instantiated coefficient tensors agree with that sign
    assign = oracle.TensorAssignment(3, 4)
    assert assign.riem[(2, 1, 4, 3)] == -assign.riem[(1, 2, 4, 3)]


def test_endomorphism_scalar_piece():
    # the endomorphism is derived from sigma_0(D_V o D_V), whose
    # -1/8 R_abcd c_a c_b c_c c_d normalizes to Lichnerowicz's s/4
    data = build_laplace_data()
    scal_terms = [t for t in data.endo if not t.word]
    expr = collect(normalize(scal_terms))
    assert expr.coeff_lists() == {
        "s": [__import__("fractions").Fraction(1, 4)],
        "|V|^2": [__import__("fractions").Fraction(1)],
    }


def test_endomorphism_trace_self_consistency():
    # tr E = (s/4 + |V|^2) tr[id]: the curvature quartic and the mixed
    # derivative word die in the trace
    data = build_laplace_data()
    expr = collect(normalize(cl.trace(data.endo)))
    lists = expr.coeff_lists()
    assert set(lists) == {"s", "|V|^2"}


def test_parametrix_density_is_gilkey_a2_of_the_operator():
    # in normal coordinates the connection laplacian's order-zero symbol
    # vanishes at the origin, so there sigma_0(D_V^2) is the E of
    # D_V^2 = nabla^* nabla + E; the reduced power's residue density must
    # then be Gilkey's a_2 density (m - 1)(s/6 - tr E/tr id)
    sigma = oracle.dirac_symbol()
    square = compose(sigma, sigma, [(0, 0)]).comps[(0, 0)]
    tr_e = collect(canonicalize(cl.trace(origin_terms(square.terms))))
    assert tr_e == ScalarInvariantExpr({"s": Scalar.of(1, 4),
                                        "|V|^2": S_ONE})
    a2 = ScalarInvariantExpr({"s": Scalar.of(1, 6)}) - tr_e
    m_minus_1 = Scalar.poly((-1, 1))
    want = ScalarInvariantExpr({atom: m_minus_1 * coeff
                                for atom, coeff in a2.entries.items()})
    assert wres_density(origin_terms(Pieces()["par1_top"].terms)) == want


def test_left_identity_at_the_origin():
    # sigma(Delta) at the origin is |xi|^2 + E: the connection laplacian's
    # first- and zero-order symbols vanish there in normal coordinates.
    # The left factor is only xi-differentiated, so its origin value gives
    # the origin value of Delta o Delta^{-m} = Delta^{-m+1}, as normal
    # forms, at all three orders and symbolic m
    data = build_laplace_data()
    laplace = PDOSymbol({(2, 0): Component((Term(S_ONE, (), (), (2, 0)),),
                                           None),
                         (0, 0): Component(data.endo, None)}, exact=True)
    orders = [(2, -2), (1, -2), (0, -2)]
    got = compose(laplace, parametrix_symbols(data, 0), orders)
    want = parametrix_symbols(data, 1)
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
    data = build_laplace_data()
    assert normalize(origin_terms(square.comps[(0, 0)].terms)) == data.endo
    orders = [(2, -2), (1, -2), (0, -2)]
    got = compose(square, parametrix_symbols(data, 0), orders)
    want = parametrix_symbols(data, 1)
    for order, count in zip(orders, (1, 0, 5)):
        rhs = normalize(origin_terms(want.comps[order].terms))
        assert len(rhs) == count, order
        assert normalize(origin_terms(got.comps[order].terms)) == rhs, order
    m_minus_1 = Scalar.poly((-1, 1))
    want = ScalarInvariantExpr({"s": -m_minus_1 * Scalar.of(1, 12),
                                "|V|^2": -m_minus_1})
    assert wres_density(origin_terms(got.comps[(0, -2)].terms)) == want


def test_parametrix_requires_known_power():
    data = build_laplace_data()
    with pytest.raises(ValueError):
        parametrix_symbols(data, 2)


def test_parametrix_top_component():
    par = parametrix_symbols(build_laplace_data(), 0)
    ref = inverse_symbol_reference(0)
    assert sums_equal(par.comps[(0, -2)].terms, ref.comps[(0, -2)].terms)


def test_derived_inverse_symbols_match_printed_display():
    # substituting the deformation data into the generic components must
    # reproduce the printed deformation-specific display term for term
    data = build_laplace_data()
    for off in (0, 1):
        eng = parametrix_symbols(data, off)
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
    re, im = at_m(t.coeff, 2)
    assert re == 0 and im == 1  # i c(u) c(xi)


def test_product_symbol_matches_printed_display():
    ab = compose(symbol_of_a(), symbol_of_b(), [(2, 0), (1, 0), (0, 0)])
    ref = ab_symbol_reference()
    for order in ((2, 0), (1, 0)):
        assert terms_equal_taylor(ab.comps[order].terms, ref[order]), order


def test_product_symbol_order_zero_matches_printed_display_slow():
    # the order-zero display, including the connection quadratics and all
    # derivative atoms
    ab = compose(symbol_of_a(), symbol_of_b(), [(0, 0)])
    ref = ab_symbol_reference()
    assert terms_equal_taylor(ab.comps[(0, 0)].terms, ref[(0, 0)])


def test_cu_cw_symbol_is_multiplication_operator():
    uw = cu_cw_symbol()
    assert uw.exact and list(uw.comps) == [(0, 0)]
