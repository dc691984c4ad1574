import pytest
from oracle import sums_equal

from wittenres import clifford as cl
from wittenres.scalars import S_ONE, Scalar
from wittenres.terms import (ContractViolation, G, Term, contract_deltas,
                             fct, label_counts, mul_terms, normalize)


def test_mul_renames_dummies_apart():
    a = Term(S_ONE, (fct("u", "a"), fct("xi", "a")))
    b = Term(S_ONE, (fct("w", "a"), fct("xi", "a")))
    out = mul_terms(a, b)
    counts = label_counts(out)
    assert all(c == 2 for c in counts.values())
    assert len(counts) == 2  # the two pairs stayed distinct


def test_mul_preserves_shared_free_channel():
    a = Term(S_ONE, (fct("xi", "j"),))
    b = Term(S_ONE, (fct("x", "j"),))
    out = mul_terms(a, b)
    assert label_counts(out) == {"j": 2}


def test_label_used_three_times_is_rejected():
    bad = Term(S_ONE, (fct("u", "a"), fct("w", "a"), fct("xi", "a")))
    with pytest.raises(ContractViolation):
        normalize([bad])


def test_xi_pair_becomes_norm_square():
    t = Term(S_ONE, (fct("xi", "a"), fct("xi", "a")), (), (-2, -2))
    (out,) = normalize([t])
    assert out.fac == () and out.norm == (0, -2)


def test_word_dummy_pair_sums_to_dimension():
    t = Term(S_ONE, (fct("delta", "f", "g"),),
             (cl.c("f"), cl.c("g")))
    (out,) = normalize([t])
    assert out.word == ()
    assert out.coeff == Scalar.poly((0, -2))  # -n


def test_symmetric_monomial_coefficient_antisymmetry_cancels():
    # xi_a xi_b c_a c_b reduces to -|xi|^2 regardless of presentation
    t1 = Term(S_ONE, (fct("xi", "a"), fct("xi", "b")),
              (cl.c("a"), cl.c("b")))
    t2 = Term(S_ONE, (fct("xi", "q"), fct("xi", "p")),
              (cl.c("q"), cl.c("p")))
    n1, n2 = normalize([t1]), normalize([t2])
    assert n1 == n2
    assert n1 == (Term(Scalar.of(-1), (), (), (2, 0)),)
    # the hat family anticommutes to +2 delta: xi_a xi_b chat_a chat_b
    t3 = Term(S_ONE, (fct("xi", "a"), fct("xi", "b")),
              (cl.chat("a"), cl.chat("b")))
    assert normalize([t3]) == (Term(S_ONE, (), (), (2, 0)),)


def test_one_slot_field_pair_ties_like_a_monomial():
    # chat(V)^2 = |V|^2: the block chat_a ^ chat_b of v_a v_b chat_a chat_b
    # holds a symmetric pair and vanishes, and the pairing gives v_a v_a
    vv = Term(S_ONE, (fct("v", "a"), fct("v", "b")),
              (cl.chat("a"), cl.chat("b")))
    assert normalize([vv]) == (Term(S_ONE, (fct("vsq"),)),)
    # so does u_a u_b c_a c_b, to -u_a u_a for the C family
    uu = Term(S_ONE, (fct("u", "a"), fct("u", "b")), (cl.c("a"), cl.c("b")))
    assert normalize([uu]) == (
        Term(-S_ONE, (fct("u", "_d00"), fct("u", "_d00"))),)
    # u_a w_b is no symmetric pair, so its block stays beside the pairing:
    # c(u) c(w) = c(u) ^ c(w) - g(u,w)
    uw = Term(S_ONE, (fct("u", "a"), fct("w", "b")), (cl.c("a"), cl.c("b")))
    assert normalize([uw]) == (
        Term(-S_ONE, (fct("guw"),)),
        Term(S_ONE, (fct("u", "_d00"), fct("w", "_d01")),
             (G("c", "_d00"), G("c", "_d01", True))))


def test_contract_deltas_keeps_a_delta_of_two_free_labels():
    # delta(a, b) renames the dummy a; delta(f, g) holds no dummy, so it is
    # put back, after the factors
    t = Term(S_ONE, (fct("u", "a"),))
    deltas = (fct("delta", "f", "g"), fct("delta", "a", "b"))
    assert contract_deltas(t, deltas) == Term(
        S_ONE, (fct("u", "b"), fct("delta", "f", "g")))


def test_self_delta_of_a_label_used_three_times_is_rejected():
    # delta(a, a) against a third use of a is no trace of the identity,
    # whether the third use is in a factor or in the word
    deltas = (fct("delta", "a", "a"),)
    for t in (Term(S_ONE, (fct("u", "a"),)),
              Term(S_ONE, (), (cl.c("a"),))):
        with pytest.raises(ContractViolation, match="third use of a"):
            contract_deltas(t, deltas)


def test_word_internal_tie_contracts_inner_pair():
    # c_a c_b c_b c_a: both dummies pair inside the word; the inner and then
    # the outer pair each sum to -n (to +n for chat)
    n_sq = Scalar.poly((0, 0, 4))  # n = 2m
    for gen in (cl.c, cl.chat):
        t = Term(S_ONE, (), (gen("a"), gen("b"), gen("b"), gen("a")))
        assert normalize([t]) == (Term(n_sq, ()),)
    # crossed pairs c_a c_b c_a c_b: one anticommutator brings the partners
    # together, -n^2 + 2n for either family
    crossed = Scalar.poly((0, 4, -4))
    for gen in (cl.c, cl.chat):
        t = Term(S_ONE, (), (gen("a"), gen("b"), gen("a"), gen("b")))
        assert normalize([t]) == (Term(crossed, ()),)


def test_canonical_form_is_label_independent():
    # same value entered with scrambled dummy names straightens identically
    t1 = Term(S_ONE,
              (fct("u", "r"), fct("xi", "f"), fct("w", "k"), fct("xi", "g")),
              (cl.c("r"), cl.c("f"), cl.c("k"), cl.c("g")))
    t2 = Term(S_ONE,
              (fct("u", "z"), fct("xi", "a"), fct("w", "b"), fct("xi", "c")),
              (cl.c("z"), cl.c("a"), cl.c("b"), cl.c("c")))
    assert normalize([t1]) == normalize([t2])
    neg = Term(-t2.coeff, t2.fac, t2.word)
    assert sums_equal([t1], [t2]) and normalize([t1, neg]) == ()


def test_antisymmetric_zero_detection():
    # a Riemann factor symmetrically contracted on its first pair vanishes
    t = Term(S_ONE, (fct("riem", "a", "b", "t", "t2"), fct("xi", "a"),
                     fct("xi", "b"), fct("u", "t"), fct("w", "t2")))
    assert normalize([t]) == ()


def test_curvature_quartic_is_a_quarter_of_the_scalar_curvature():
    # -1/8 R_abcd c_a c_b c_c c_d = s/4: its block of four Riemann slots
    # vanishes by first Bianchi, and so does every block of two slots of
    # one Riemann pair, so only the double pairings (a,c)(b,d) and
    # (a,d)(b,c) are left, and each gives s/8
    word = (cl.c("a"), cl.c("b"), cl.c("c"), cl.c("d"))
    quartic = Term(Scalar.of(-1, 8), (fct("riem", "a", "b", "c", "d"),),
                   word)
    assert normalize([quartic]) == normalize(
        [Term(Scalar.of(1, 4), (fct("scal"),))])
