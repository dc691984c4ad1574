import random
from fractions import Fraction

import oracle
import pytest
from oracle import at_m, sums_equal, word_term

from wittenres import clifford as cl
from wittenres.scalars import S_ONE, Scalar
from wittenres.terms import (ContractViolation, F, G, Term, fct, mul_terms,
                             normalize, wick)


def one(terms):
    assert len(terms) == 1, terms
    return terms[0]


def test_multiply_concatenates_without_reduction():
    a = word_term((cl.c(1),))
    assert mul_terms(a, a).word == (cl.c(1), cl.c(1))
    # identity times p is p
    p = word_term((cl.c(1), cl.chat(2)))
    assert mul_terms(word_term(()), p).word == p.word
    mixed = mul_terms(word_term((cl.c(1),)), word_term((cl.chat(2),)))
    assert mixed.word == (cl.c(1), cl.chat(2))


def test_normal_order_contractions():
    t = one(normalize([word_term((cl.c(1), cl.c(1)))]))
    assert t.word == () and t.coeff == Scalar.of(-1)
    t = one(normalize([word_term((cl.chat(1), cl.chat(1)))]))
    assert t.word == () and t.coeff == Scalar.of(1)
    t = one(normalize([word_term((cl.chat(2), cl.c(1)))]))
    assert t.word == (cl.c(1), cl.chat(2)) and t.coeff == Scalar.of(-1)


def test_normal_order_idempotent():
    rng = random.Random(11)
    for _ in range(120):
        word = tuple((cl.c if rng.random() < 0.5 else cl.chat)
                     (rng.randint(1, 4)) for _ in range(rng.randint(0, 6)))
        once = normalize([word_term(word)])
        again = normalize(once)
        assert once == again


def scalar_part(word):
    """The scalar part of a word: its full pairings as (sign, deltas)."""
    return tuple((sign, deltas) for sign, deltas, _ in wick(word, full=True))


def test_scalar_part_examples():
    # (sign, deltas) pairs, the sign an int
    assert scalar_part((cl.c("a"), cl.c("b"))) == (
        (-1, (F("delta", ("a", "b")),)),)
    assert scalar_part((cl.c("a"), cl.c("b"), cl.c("c"))) == ()
    assert scalar_part(()) == ((1, ()),)
    # the quartic expansion: d_rj d_fp - d_rf d_jp + d_rp d_jf
    got = scalar_part((cl.c("r"), cl.c("j"), cl.c("f"), cl.c("p")))
    assert all(type(sign) is int for sign, _ in got)
    want = [
        Term(S_ONE, (fct("delta", "r", "j"), fct("delta", "f", "p"))),
        Term(Scalar.of(-1), (fct("delta", "r", "f"), fct("delta", "j", "p"))),
        Term(S_ONE, (fct("delta", "r", "p"), fct("delta", "j", "f"))),
    ]
    assert sums_equal([Term(Scalar.of(sign), fac) for sign, fac in got],
                      want)
    # pairs of distinct concrete indices are left out as they are built
    got = scalar_part((cl.c(1), cl.c(2), cl.c("a"), cl.c(1)))
    assert got == ((1, (fct("delta", 1, 1), fct("delta", 2, "a"))),)
    # two generators of one block never pair, so a block has no scalar part
    assert scalar_part((cl.c("a"), G("c", "b", True))) == ()


def test_scalar_part_hat_family_sign():
    # +delta for the hat family
    assert scalar_part((cl.chat("a"), cl.chat("b"))) == (
        (1, (F("delta", ("a", "b")),)),)


def test_scalar_part_never_pairs_across_families():
    # a c and a chat anticommute, so they never pair
    assert scalar_part((cl.c(1), cl.chat(1))) == ()
    # c_a chat_b c_c chat_d = -c_a c_c chat_b chat_d = +delta_ac delta_bd
    assert scalar_part((cl.c("a"), cl.chat("b"), cl.c("c"),
                        cl.chat("d"))) == (
        (1, (fct("delta", "a", "c"), fct("delta", "b", "d"))),)


def test_trace_basic_values():
    # tr[c(u)c(w)] = -g(u,w) tr[id]
    t = one(cl.trace([mul_terms(cl.c_vec("u", "r"), cl.c_vec("w", "k"))]))
    assert t.fac == (F("guw", ()),) and t.coeff == Scalar.of(-1)
    assert cl.trace([word_term((cl.c(1), cl.chat(1)))]) == ()
    ident = one(cl.trace([word_term(())]))
    assert ident.coeff == S_ONE
    # with m substituted, tr[id] = 2^(2m) is applied by the caller: 16 at m=2
    re, im = at_m(ident.coeff, 2)
    assert re * 2 ** 4 == 16 and im == 0


def test_trace_odd_family_count_vanishes():
    assert cl.trace([word_term((cl.c(1), cl.c(2), cl.c(3)))]) == ()
    assert cl.trace([word_term((cl.c(1), cl.c(2), cl.chat(1)))]) == ()


def test_trace_six_c_generators_against_curvature():
    # (1/8) R_jpts tr[c(u)c_j c(w)c_p c_s c_t] = (1/4 s g - 1/2 Ric) tr[id]
    base = Term(Scalar.of(1, 8),
                (fct("riem", "j", "p", "t", "s"), fct("u", "r"),
                 fct("w", "k")),
                (cl.c("r"), cl.c("j"), cl.c("k"), cl.c("p"), cl.c("s"),
                 cl.c("t")))
    got = {(t.fac, str(t.coeff)) for t in cl.trace([base])}
    want = {
        ((F("scal", ()), F("guw", ())), "1/4"),
        ((F("ricuw", ()),), "-1/2"),
    }
    assert got == want


def test_trace_matches_matrix_oracle_randomized():
    rng = random.Random(23)
    for n in (4, 6):
        rep = oracle.matrix_rep(n)
        for _ in range(120):
            word = tuple((cl.c if rng.random() < 0.5 else cl.chat)
                         (rng.randint(1, n))
                         for _ in range(rng.randint(0, 8)))
            sym = cl.trace([word_term(word)])
            if not sym:
                val = Fraction(0)
            else:
                re, im = at_m(one(sym).coeff, Fraction(n, 2))
                assert im == 0
                val = re * 2 ** n
            assert val == rep.word_trace(word)


def test_concrete_trace_matches_matrix_oracle():
    rng = random.Random(31)
    for n in (4, 6):
        rep = oracle.matrix_rep(n)
        for _ in range(300):
            word = tuple((cl.c if rng.random() < 0.5 else cl.chat)
                         (rng.randint(1, n))
                         for _ in range(rng.randint(0, 8)))
            assert cl.concrete_trace(word) * 2 ** n == rep.word_trace(word)


def test_concrete_trace_rejects_symbolic_indices():
    with pytest.raises(ContractViolation):
        cl.concrete_trace((cl.c(1), cl.c("a")))


def test_trace_cyclicity_via_matrix_oracle():
    rng = random.Random(5)
    n = 4
    rep = oracle.matrix_rep(n)
    for _ in range(40):
        def rand_poly():
            out = []
            for _ in range(rng.randint(1, 3)):
                word = tuple((cl.c if rng.random() < 0.5 else cl.chat)
                             (rng.randint(1, n))
                             for _ in range(rng.randint(0, 4)))
                out.append(Term(Scalar.of(rng.randint(-3, 3)), (), word))
            return tuple(out)

        p, q = rand_poly(), rand_poly()

        def tr_val(terms):
            total = Fraction(0)
            for t in cl.trace(terms):
                re, im = at_m(t.coeff, Fraction(n, 2))
                assert im == 0
                total += re * 2 ** n
            return total

        pq = tr_val([mul_terms(a, b) for a in p for b in q])
        qp = tr_val([mul_terms(b, a) for a in p for b in q])
        assert pq == qp
        # and both agree with the matrix trace
        mat = sum(int(at_m(a.coeff, 2)[0]) * int(at_m(b.coeff, 2)[0])
                  * rep.word_trace(a.word + b.word)
                  for a in p for b in q)
        assert pq == mat
