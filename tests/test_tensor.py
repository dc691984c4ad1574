import itertools
import random
from fractions import Fraction

import oracle
import pytest

from wittenres import tensor
from wittenres.scalars import S_ONE, Scalar
from wittenres.tensor import CollectError, canonicalize, collect
from wittenres.terms import F, G, Term, fct, normalize


def T(coeff, *facs):
    return Term(Scalar.of(coeff) if not isinstance(coeff, Scalar) else coeff,
                tuple(facs))


def test_contract_deltas_trace_gives_dimension():
    (out,) = normalize([T(1, fct("delta", "a", "a"))])
    assert out.fac == ()
    assert out.coeff == Scalar.poly((0, 2))  # n = 2m


def test_contract_deltas_substitution():
    (out,) = normalize([T(1, fct("delta", "a", "b"), fct("ric", "b", "c"))])
    assert out.fac == (fct("ric", "a", "c"),)
    # u_a w_b delta_ab collapses to the g(u,w) atom after canonicalization
    got = canonicalize([T(1, fct("delta", "a", "b"), fct("u", "a"),
                          fct("w", "b"))])
    assert len(got) == 1 and got[0].fac == (F("guw", ()),)


def test_contract_deltas_concrete():
    assert normalize([T(1, fct("delta", 1, 2))]) == ()
    (out,) = normalize([T(1, fct("delta", 3, 3))])
    assert out.fac == ()


def test_canonicalize_riemann_contractions():
    assert canonicalize([T(1, fct("riem", "a", "a", "t", "s"))]) == ()
    got = canonicalize([T(1, fct("riem", "l", "a", "l", "b"), fct("u", "a"),
                          fct("w", "b"))])
    assert [t.fac for t in got] == [(F("ricuw", ()),)]
    got = canonicalize([T(1, fct("riem", "j", "p", "j", "p"))])
    assert [t.fac for t in got] == [(F("scal", ()),)]
    assert str(got[0].coeff) == "1"


def test_canonicalize_idempotent_and_odd():
    rng = random.Random(3)
    kinds = ["riem", "ric", "delta", "u", "w", "v", "xi"]
    for _ in range(150):
        labs = ["a", "b", "c", "d"]
        facs = []
        pool = labs * 2
        rng.shuffle(pool)
        while len(pool) >= 2:
            kind = rng.choice(kinds)
            need = {"riem": 4, "ric": 2, "delta": 2}.get(kind, 1)
            if need > len(pool):
                need = 1
                kind = "u"
            facs.append(F(kind, tuple(pool[:need])))
            del pool[:need]
        t = Term(Scalar.of(rng.randint(1, 5)), tuple(facs))
        once = canonicalize([t])
        again = canonicalize(once)
        assert once == again
        neg = canonicalize([Term(-t.coeff, t.fac)])
        assert normalize(list(once) + list(neg)) == ()


def test_canonicalize_value_preserved_random_instantiation():
    rng = random.Random(17)
    n = 4
    assign = oracle.TensorAssignment(99, n)
    labs = ["a", "b", "c", "d", "e"]
    done = 0
    trials = 0
    while done < 500 and trials < 4000:
        trials += 1
        pool = []
        for lab in labs[:rng.randint(1, 4)]:
            pool += [lab, lab]
        rng.shuffle(pool)
        facs = []
        ok = True
        while pool:
            kind = rng.choice(["riem", "ric", "delta", "u", "w", "v",
                               "xi", "x", "dw", "dv"])
            need = {"riem": 4, "ric": 2, "delta": 2, "dw": 2, "dv": 2}.get(
                kind, 1)
            if need > len(pool):
                continue
            facs.append(F(kind, tuple(pool[:need])))
            del pool[:need]
        t = Term(Scalar.of(rng.randint(-5, 5), rng.randint(1, 3)),
                 tuple(facs))
        try:
            before = assign.evaluate([t])
            after = assign.evaluate(canonicalize([t]))
        except ValueError:
            continue
        assert before == after, t
        # normalize alone, without the Bianchi pass, preserves it too
        assert assign.evaluate(normalize([t])) == before
        done += 1
    assert done == 500


def test_first_bianchi_pass_kills_cyclic_sum():
    free = [
        T(1, fct("riem", "a", "b", "c", "d")),
        T(1, fct("riem", "a", "c", "d", "b")),
        T(1, fct("riem", "a", "d", "b", "c")),
    ]
    assert canonicalize(free) == ()
    # first Bianchi is a rule of normalize: the greatest presentation of a
    # cyclic orbit is replaced by the other two
    assert normalize(free) == ()
    assert tensor.bianchi_pass(free) == ()
    # inside one block, three slots of a Riemann factor vanish: R_a[bcd] = 0
    word = (G("c", "b"), G("c", "c", True), G("c", "d", True))
    assert normalize([Term(S_ONE, (fct("riem", "a", "b", "c", "d"),),
                           word)]) == ()
    # and two slots that are no antisymmetric pair are half the pair form
    pair = (G("c", "a"), G("c", "c", True))
    assert normalize([Term(S_ONE, (fct("riem", "a", "b", "c", "d"),),
                           pair)]) == normalize(
        [Term(Scalar.of(1, 2), (fct("riem", "a", "c", "b", "d"),), pair)])
    # which rests on R_abcd - R_cbad = R_acbd
    assign = oracle.TensorAssignment(5, 4)
    riem = assign.riem
    for a, b, c, d in itertools.product(range(1, 5), repeat=4):
        assert riem[a, b, c, d] - riem[c, b, a, d] == riem[a, c, b, d]
    # the rewrite preserves values on contracted input
    t = T(1, fct("riem", "a", "b", "c", "d"), fct("u", "a"), fct("xi", "b"),
          fct("w", "c"), fct("xi", "d"))
    assert assign.evaluate(canonicalize([t])) == assign.evaluate([t])


def test_collect_invariants():
    e = collect(canonicalize([
        T(Scalar.of(1, 4), fct("scal"), fct("guw")),
        T(Scalar.of(-1, 2), fct("ricuw")),
        T(1, fct("vsq"), fct("guw")),
    ]))
    assert e == {
        "g(u,w)*s": Scalar.of(1, 4),
        "Ric(u,w)": Scalar.of(-1, 2),
        "g(u,w)*|V|^2": Scalar.of(1),
    }
    assert collect([]) == {}
    x = T(1, fct("guw"))
    y = T(-1, fct("guw"))
    assert collect(normalize([x, y])) == {}


def test_collect_rejects_leftovers():
    with pytest.raises(CollectError):
        collect([T(1, fct("ric", "a", "b"))])  # free indices survive
    with pytest.raises(CollectError):
        collect([T(1, fct("dw", "a", "a"))])  # derivative atom survives


def test_collect_rejects_a_leftover_norm_power():
    # g(u,w) |xi|^2 has no atom of its own: kept apart, it would print under
    # the plain atom's name and one of the two entries would be lost
    with pytest.raises(CollectError):
        collect([T(1, fct("guw")),
                 Term(Scalar.of(5), (fct("guw"),), (), (2, 0))])


def test_expr_algebra():
    # terms that cancel leave no atom behind, not a zero one
    got = collect([T(1, fct("guw")), T(Scalar.poly((0, 2)), fct("ricuw")),
                   T(-1, fct("guw")), T(Scalar.of(1, 3), fct("ricuw"))])
    assert got == {"Ric(u,w)": Scalar.poly([Fraction(1, 3), 2])}
    assert got["Ric(u,w)"].evaluate(2) == Fraction(13, 3)
