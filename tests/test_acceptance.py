"""Acceptance suite: every criterion is exact (integer/rational equality);
each test prints one pass/fail line."""

import itertools
import random
import time
from fractions import Fraction

import oracle
import pytest
from oracle import TensorAssignment, at_m
from test_sphere import evaluated

from wittenres import clifford as cl
from wittenres import reference, sphere
from wittenres.operators import endomorphism, parametrix_symbols
from wittenres.residue import (LEDGER, Pieces, evaluate_labels,
                               part1_top_norm_exponent)
from wittenres.scalars import Scalar
from wittenres.terms import normalize

FR = Fraction


def P(*coeffs):
    """The polynomial in m with these ascending coefficients."""
    return Scalar.poly(coeffs)


def report(num, name, ok):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


@pytest.fixture(scope="module")
def ledger():
    return evaluate_labels(LEDGER)


@pytest.fixture(scope="module")
def ref():
    return reference.load_reference()


def test_criterion_1_metric_functional():
    t0 = time.time()
    expr = evaluate_labels(["metric"])["metric"]
    elapsed = time.time() - t0
    exact = expr == {"g(u,w)": P(-1)}
    # with the units substituted at m = 2: -2^{2m} * 2 pi^m / Gamma(m)
    vol_rat, vol_pi = sphere.vol_sphere_value(2)
    subst = expr["g(u,w)"].evaluate(2) * 2 ** 4 * vol_rat
    report(1, "metric functional -g(u,w)*TrId*Vol in "
              f"{elapsed:.2f}s", exact and subst == -32 and vol_pi == 2
           and elapsed < 1.0)


def test_criterion_2_einstein_functional():
    t0 = time.time()
    led = evaluate_labels(LEDGER)
    elapsed = time.time() - t0
    ok = led["einstein"] == {
        "g(u,w)*s": P(FR(1, 12)),
        "Ric(u,w)": P(FR(-1, 6)),
        "g(u,w)*|V|^2": P(1),
    }
    ok = ok and led["einstein"] == oracle.value_sum(led["S1"], led["S2"])
    report(2, f"einstein functional total in {elapsed:.1f}s",
           ok and elapsed < 120.0)


def test_criterion_3_part_one_ledger(ledger):
    want = {
        "I-1": {"g(u,w)*s": P(FR(1, 6), FR(-1, 6))},
        "I-2": {}, "I-3": {}, "I-4": {}, "I-6": {},
        "I-5": {"g(u,w)*s": P(FR(-1, 4), FR(1, 4))},
        "I-7": {"g(u,w)*|V|^2": P(-1, 1)},
        "S1": {"g(u,w)*s": P(FR(-1, 12), FR(1, 12)),
               "g(u,w)*|V|^2": P(-1, 1)},
    }
    ok = all(ledger[lab] == exp for lab, exp in want.items())
    report(3, "part I ledger", ok)


def test_criterion_4_part_two_ledger(ledger):
    want = {
        "II-1": {"g(u,w)*s": P(FR(1, 4)), "Ric(u,w)": P(FR(-1, 2)),
                 "g(u,w)*|V|^2": P(1)},
        "II-2": {},
        "II-3": {"g(u,w)*s": P(FR(1, 4), FR(-1, 12)),
                 "Ric(u,w)": P(FR(-1, 3)),
                 "g(u,w)*|V|^2": P(1, -1)},
        "II-4": {"g(u,w)*s": P(FR(-2, 3)), "Ric(u,w)": P(FR(4, 3))},
        "II-5": {},
        "II-6": {"g(u,w)*s": P(FR(1, 3)), "Ric(u,w)": P(FR(-2, 3))},
        "S2": {"g(u,w)*s": P(FR(1, 6), FR(-1, 12)),
               "Ric(u,w)": P(FR(-1, 6)),
               "g(u,w)*|V|^2": P(2, -1)},
    }
    ok = all(ledger[lab] == exp for lab, exp in want.items())
    report(4, "part II ledger", ok)


def test_criterion_5_symbol_derivation():
    t0 = time.time()
    eng = parametrix_symbols(endomorphism(), 0)
    tra = oracle.inverse_symbol_reference(0)
    ok = all(oracle.sums_equal(eng.comps[o].terms, comp.terms)
             for o, comp in tra.comps.items())
    elapsed = time.time() - t0
    report(5, f"inverse-symbol derivation term-for-term in {elapsed:.1f}s",
           ok and elapsed < 10.0)


def test_criterion_6_trace_oracle():
    rng = random.Random(2024)
    checked = 0
    ok = True
    for n in (4, 6):
        rep = oracle.matrix_rep(n)
        for _ in range(500):
            word = tuple((cl.c if rng.random() < 0.5 else cl.chat)
                         (rng.randint(1, n))
                         for _ in range(rng.randint(0, 8)))
            sym = normalize(cl.trace([oracle.word_term(word)]))
            ok = ok and len(sym) <= 1
            if sym:
                val = at_m(sym[0].coeff, FR(n, 2)) * 2 ** n
            else:
                val = FR(0)
            ok = ok and val == rep.word_trace(word)
            checked += 1
    report(6, f"{checked} random traces equal the matrix oracle",
           ok and checked == 1000)


def test_criterion_7_sphere_oracle():
    ok = True
    checked = 0
    for n in (4, 6, 8):
        for deg in range(0, 9):
            for exps in itertools.combinations_with_replacement(
                    range(n), deg):
                vec = [0] * n
                for slot in exps:
                    vec[slot] += 1
                indices = []
                for slot, e in enumerate(vec, start=1):
                    indices.extend([slot] * e)
                # pairs of two distinct concrete indices are never built
                assert all(a == b for pairing in sphere.pairings(indices)
                           for a, b in pairing)
                got = FR(0)
                for value, t in evaluated(indices, n):
                    # each delta, of equal concrete indices, is one
                    assert t.fac == ()
                    got += value
                ok = ok and got == oracle.sphere_integral_exact(vec, n)
                checked += 1
    report(7, f"{checked} sphere monomials equal the Gamma oracle", ok)


def test_criterion_8_typo_detection(ledger, ref):
    tables, printed = reference.validate_reference(ref)
    status = reference.compare_entry(ledger["II-3-E"], tables, "II-3-E")
    value_ok = ledger["II-3-E"] == {"g(u,w)*s": P(FR(1, 4), FR(-1, 4))}
    total_ok = reference.compare_entry(ledger["II-3"], tables, "II-3") == \
        reference.MATCH
    derived = part1_top_norm_exponent(Pieces()["par1_top"])
    exp_ok = derived == (-2, -2) and printed == (-4, -2) and \
        derived != printed
    report(8, "typo detection (II-3-E status, norm exponent)",
           status == reference.PAPER_TYPO and value_ok and total_ok
           and exp_ok)


def test_criterion_9_degeneracies(ledger):
    # V enters only through |V|^2 atoms: without them the Einstein value
    # is the Hodge density, and the V-only labels hold nothing else
    hodge = {atom: p for atom, p in ledger["einstein"].items()
             if "|V|^2" not in atom} == {
        "g(u,w)*s": P(FR(1, 12)), "Ric(u,w)": P(FR(-1, 6)),
    } and all(list(ledger[lab]) == ["g(u,w)*|V|^2"]
              for lab in ("I-7", "II-1-E", "II-3-G"))
    assign = TensorAssignment(77, 4)
    u = assign.vec["u"]
    assign.vec["w"] = {1: u[2], 2: -u[1], 3: u[4], 4: -u[3]}
    guw = sum(assign.vec["u"][a] * assign.vec["w"][a] for a in range(1, 5))
    ortho = guw == 0
    # every coefficient is a real polynomial in m by its type
    real = all(isinstance(c, Scalar)
               for lab in ledger
               for c in ledger[lab].values())
    report(9, "degeneracies (V=0 Hodge density, orthogonal fields, reality)",
           hodge and ortho and real)
