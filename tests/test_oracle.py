from fractions import Fraction

import numpy as np
import oracle
import pytest


def test_relations_hold_at_construction():
    # the constructor asserts the full relation suite; n=2 spot checks
    rep = oracle.matrix_rep(2)
    eye = np.eye(4, dtype=np.int64)
    assert np.array_equal(rep.c[1] @ rep.c[1], -eye)
    assert np.array_equal(rep.chat[1] @ rep.chat[1], eye)


def test_identity_trace_and_mixed_product():
    rep = oracle.matrix_rep(4)
    assert int(np.trace(np.eye(16, dtype=np.int64))) == 16
    assert rep.word_trace(()) == 16
    from wittenres.clifford import c, chat
    assert rep.word_trace((c(1), chat(1))) == 0


def test_matrix_rep_rejects_bad_dimension():
    with pytest.raises(ValueError):
        oracle.matrix_rep(3)
    with pytest.raises(ValueError):
        oracle.matrix_rep(10)


def test_sphere_integral_exact_values():
    assert oracle.sphere_integral_exact((2, 0, 0, 0), 4) == Fraction(1, 4)
    assert oracle.sphere_integral_exact((4, 0, 0, 0), 4) == Fraction(1, 8)
    assert oracle.sphere_integral_exact((1, 1, 0, 0), 4) == 0
    with pytest.raises(ValueError):
        oracle.sphere_integral_exact((2, 0), 4)


def test_instantiation_has_riemann_symmetries():
    a = oracle.TensorAssignment(1, 4)
    idx = range(1, 5)
    assert a.riem[(1, 1, 2, 3)] == 0
    found = False
    for i in idx:
        for j in idx:
            for k in idx:
                for l in idx:
                    r = a.riem[(i, j, k, l)]
                    assert r == -a.riem[(j, i, k, l)]
                    assert r == -a.riem[(i, j, l, k)]
                    assert r == a.riem[(k, l, i, j)]
                    cyc = (r + a.riem[(i, k, l, j)] + a.riem[(i, l, j, k)])
                    assert cyc == 0
                    found = found or r != 0
    assert found  # non-degenerate sample
    # contraction conventions baked into the instantiation
    for i in idx:
        for j in idx:
            assert a.ric[(i, j)] == sum(a.riem[(l, i, l, j)] for l in idx)
    assert a.scal == sum(a.ric[(i, i)] for i in idx)


def test_evaluate_requires_contracted_wordless_terms():
    from wittenres.scalars import S_ONE
    from wittenres.terms import Term, fct
    a = oracle.TensorAssignment(2, 4)
    with pytest.raises(ValueError):
        a.evaluate([Term(S_ONE, (fct("u", "a"),))])  # free index
