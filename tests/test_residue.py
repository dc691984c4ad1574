from fractions import Fraction

import pytest
from oracle import TensorAssignment, part2_compose_check, value_sum

from wittenres.operators import (cu_cw_symbol, endomorphism,
                                 parametrix_symbols, symbol_of_a, symbol_of_b)
from wittenres.pdo import (Component, PDOSymbol, TruncationError, compose,
                           origin_terms)
from wittenres import clifford, operators, pdo, residue, tensor, terms
from wittenres.reference import load_reference
from wittenres.residue import (LEDGER, Leaf, Pieces, ResidueError, Total,
                               evaluate_labels, part1_top_norm_exponent,
                               wres_density)
from wittenres.scalars import S_ONE, PolyM, Scalar
from wittenres.tensor import canonicalize, collect
from wittenres.terms import (ContractViolation, NormalizeError, Term, fct,
                             mul_terms, normalize)

FR = Fraction


def P(*coeffs):
    """The polynomial in m with these ascending coefficients."""
    return PolyM(coeffs)


def test_metric_functional_exact():
    expr = evaluate_labels(["metric"])["metric"]
    assert expr == {"g(u,w)": P(-1)}


def test_wres_density_zero_and_guards():
    assert wres_density([]) == {}
    with pytest.raises(ResidueError):
        wres_density([Term(S_ONE, (fct("x", "j"), fct("xi", "j")), (),
                           (-1, -2))])
    with pytest.raises(ResidueError):  # wrong homogeneity
        wres_density([Term(S_ONE, (), (), (-1, -2))])
    with pytest.raises(ResidueError):  # surviving derivative atom
        wres_density([Term(S_ONE, (fct("dw", "a", "a"),), (), (0, -2))])


def test_wres_density_refuses_a_density_that_is_not_polynomial():
    # xi_1 xi_1 |xi|^(-2m-2) integrates to 1/(2m), which has no place in a
    # ledger of polynomials in m
    with pytest.raises(ResidueError, match="not polynomial"):
        wres_density([Term(S_ONE, (fct("xi", 1), fct("xi", 1)), (),
                           (-2, -2))])
    # the error names the atom that carries it
    with pytest.raises(ResidueError, match="atom 's': .*not polynomial"):
        wres_density([Term(S_ONE, (fct("scal"), fct("xi", 1), fct("xi", 1)),
                           (), (-2, -2))])


def test_wres_density_of_mixed_xi_degrees_is_the_sum_of_its_parts():
    # every ledger job holds one xi degree; here 3 s, m Ric(xi, xi) and
    # m(m+1) s |xi|^4 share one density, the first two weighted by the
    # moment factors they lack: 3 s + m s/n + m(m+1) s, with n = 2m.  In
    # eta = i xi the middle term is -m Ric(eta, eta)
    m = Scalar.poly((0, 1))
    terms = [
        Term(Scalar.of(3), (fct("scal"),), (), (0, -2)),
        Term(-m, (fct("ric", "a", "b"), fct("xi", "a"), fct("xi", "b")), (),
             (-2, -2)),
        Term(m * Scalar.poly((1, 1)),
             (fct("scal"), *(fct("xi", i) for i in "aabb")), (), (-4, -2)),
    ]
    parts = value_sum(*(wres_density([t]) for t in terms))
    assert wres_density(terms) == parts == {"s": P(FR(7, 2), 1, 1)}


def test_wres_density_refuses_a_label_held_three_times():
    # integration and the fiber trace trust that no label occurs more than
    # twice; unchecked, this term's density would come out as zero
    t = Term(S_ONE, (fct("u", "a"), fct("w", "a")),
             (clifford.c("a"), clifford.c("b"), clifford.chat("b")), (0, -2))
    with pytest.raises(ContractViolation):
        normalize([t])
    with pytest.raises(ResidueError,
                       match="label 'a' occurs more than twice"):
        wres_density([t])


def test_wres_density_reproduces_order_zero_block():
    # sigma_0(AB) sigma_{-2m} at the origin integrates to
    # s g/4 - Ric/2 + |V|^2 g
    led = evaluate_labels(LEDGER)
    assert led["II-1"] == {
        "g(u,w)*s": P(FR(1, 4)),
        "Ric(u,w)": P(FR(-1, 2)),
        "g(u,w)*|V|^2": P(1),
    }
    assert led["II-2"] == {}


@pytest.fixture(scope="module")
def ledger():
    return evaluate_labels(LEDGER)


def test_part_one_ledger(ledger):
    assert ledger["I-1"] == {"g(u,w)*s": P(FR(1, 6), FR(-1, 6))}
    for lab in ("I-2", "I-3", "I-4", "I-6"):
        assert ledger[lab] == {}, lab
    assert ledger["I-5"] == {"g(u,w)*s": P(FR(-1, 4), FR(1, 4))}
    assert ledger["I-7"] == {"g(u,w)*|V|^2": P(-1, 1)}
    assert ledger["S1"] == {
        "g(u,w)*s": P(FR(-1, 12), FR(1, 12)),
        "g(u,w)*|V|^2": P(-1, 1),
    }


def test_part_two_ledger(ledger):
    assert ledger["II-3"] == {
        "g(u,w)*s": P(FR(1, 4), FR(-1, 12)),
        "Ric(u,w)": P(FR(-1, 3)),
        "g(u,w)*|V|^2": P(1, -1),
    }
    assert ledger["II-5"] == {}
    assert ledger["II-6"] == {
        "g(u,w)*s": P(FR(1, 3)), "Ric(u,w)": P(FR(-2, 3)),
    }
    assert ledger["II-4"] == {
        "g(u,w)*s": P(FR(-2, 3)), "Ric(u,w)": P(FR(4, 3)),
    }
    assert ledger["S2"] == {
        "g(u,w)*s": P(FR(1, 6), FR(-1, 12)),
        "Ric(u,w)": P(FR(-1, 6)),
        "g(u,w)*|V|^2": P(2, -1),
    }


def test_totals_close_independent_of_m(ledger):
    assert ledger["einstein"] == value_sum(ledger["S1"], ledger["S2"])
    assert ledger["einstein"] == {
        "g(u,w)*s": P(FR(1, 12)),
        "Ric(u,w)": P(FR(-1, 6)),
        "g(u,w)*|V|^2": P(1),
    }


def test_table_labels_follow_the_reference_ledger():
    # the reference stores every label once, in report order
    assert list(LEDGER) == list(load_reference()["values"])


def test_each_total_is_the_sum_of_its_children(ledger):
    order = list(LEDGER)
    for label, row in LEDGER.items():
        if isinstance(row, Total):
            for child in row.children:
                assert order.index(child) < order.index(label)
            assert value_sum(*(ledger[child] for child in row.children)) \
                == ledger[label], label


def test_a_total_leaves_out_an_atom_that_cancels(monkeypatch):
    values = {"I-1": {"g(u,w)*s": P(1, 2), "Ric(u,w)": P(1)},
              "I-5": {"g(u,w)*s": P(-1, -2)}}
    monkeypatch.setattr(residue, "_run",
                        lambda label, job, pieces: values.get(label, {}))
    assert evaluate_labels(["S1"])["S1"] == {"Ric(u,w)": P(1)}


def test_selected_labels_match_the_full_ledger(ledger):
    led = evaluate_labels(["II-4-B", "II-1"])
    assert list(led) == ["II-1-A", "II-1-B", "II-1-C", "II-1-D",
                         "II-1-E", "II-1", "II-4-B"]
    for lab in led:
        assert led[lab] == ledger[lab], lab


def _piece(key):
    return key[0] if isinstance(key, tuple) else key


def test_each_class_split_sums_to_the_job_of_its_whole_pieces(ledger):
    # the leaves of one split share their pieces and alpha; each group is
    # the children of one total, and its sum is the one job of the unsplit
    # pieces, so no class is lost or counted twice
    groups = {}
    for label, row in LEDGER.items():
        if isinstance(row, Leaf) and (isinstance(row.left, tuple)
                                      or isinstance(row.right, tuple)):
            key = (_piece(row.left), _piece(row.right), row.alpha)
            groups.setdefault(key, []).append(label)
    assert groups == {
        ("cu_cw", "par1_top", 0): list(LEDGER["S1"].children),
        ("ab0", "par0_top", 0): list(LEDGER["II-1"].children),
        ("ab2", "par0_low", 0): list(LEDGER["II-3"].children),
        ("ab2", "par0_mid", 1): list(LEDGER["II-4"].children),
    }
    pieces = Pieces()
    for (left, right, alpha), labels in groups.items():
        terms, _ = pdo.composition_summand(pieces[left], pieces[right],
                                           alpha, xmax=0)
        assert value_sum(*(ledger[label] for label in labels)) \
            == wres_density(terms), labels


def test_part_one_is_the_smeared_gilkey_a2(ledger):
    # Wres(c(u)c(w) Delta^{-m+1}) is (m - 1) times the a_2 density smeared
    # with c(u)c(w), tr(c(u)c(w)(s/6 - E))/tr id (Branson & Gilkey, Comm.
    # PDE 15 (1990); Gilkey (1995) section 4.8), for every m
    (cu_cw,) = cu_cw_symbol().terms
    a2 = [Term(Scalar.of(1, 6), (fct("scal"),))]
    a2 += [t._replace(coeff=-t.coeff) for t in endomorphism()]
    smeared = collect(canonicalize(clifford.trace(
        [mul_terms(cu_cw, t) for t in a2])))
    assert smeared == {"g(u,w)*s": P(FR(1, 12)), "g(u,w)*|V|^2": P(1)}
    m_minus_1 = P(-1, 1)
    assert ledger["S1"] == {atom: m_minus_1 * p
                            for atom, p in smeared.items()}


def test_residue_error_names_its_label(monkeypatch):
    # an order -1 multiplication operator makes the metric density's
    # product of the wrong homogeneity
    wrong = Component((Term(S_ONE, (), (), (-1, 0)),), None)
    monkeypatch.setitem(residue._BUILD, "cu_cw", lambda p: wrong)
    with pytest.raises(ResidueError, match=r"^metric: term is not "
                                            r"homogeneous of order -2m"):
        evaluate_labels(["metric"])


def test_class_split_refuses_an_unused_class(monkeypatch):
    monkeypatch.setitem(residue._CLASSES, "par1_top", {"ric", "scal"})
    with pytest.raises(ResidueError, match="unclassifiable term"):
        evaluate_labels(["I-1"])
    # a left-side key: sigma_0(AB)'s plain product (class vv) must not be
    # lost either
    monkeypatch.setitem(residue._CLASSES, "ab0",
                        residue._CLASSES["ab0"] - {"vv"})
    with pytest.raises(ResidueError, match="unclassifiable term"):
        evaluate_labels(["II-1-C"])


def test_class_split_refuses_a_term_with_both_field_derivatives(
        monkeypatch):
    # ab0 has a dv and a dw class; a term with both factors is in neither,
    # so the order in which `_signature` tests them cannot decide its class
    both = Term(S_ONE, (fct("dv", "a", "b"), fct("dw", "a", "b")), (),
                (0, 0))
    monkeypatch.setitem(residue._BUILD, "ab0",
                        lambda p: Component((both,), 0))
    with pytest.raises(ResidueError, match="unclassifiable term in ab0"):
        evaluate_labels(["II-1-C"])


def test_engine_errors_name_their_label_and_keep_their_type(monkeypatch):
    # a middle parametrix component without its x-linear data cannot give
    # II-4's first x-derivative
    monkeypatch.setitem(
        residue._BUILD, "par0_mid",
        lambda p: p["par0"].comps[(-1, -2)]._replace(xtrunc=0))
    with pytest.raises(TruncationError, match=r"^II-4-A: "):
        evaluate_labels(["II-4-A"])


def test_a_normalize_error_of_the_density_keeps_its_type(monkeypatch):
    def refuse(terms):
        raise NormalizeError("x")
    monkeypatch.setattr(residue, "canonicalize", refuse)
    with pytest.raises(NormalizeError, match=r"^metric: x"):
        evaluate_labels(["metric"])


# the number of terms each job hands to wres_density; a change to how the
# pieces are built must not move work between jobs unnoticed.  The x- and
# xi-derivatives merge only terms equal as written, so II-6's two
# x-derivatives of par0_top's R x x term keep two terms that are equal up
# to dummy names and the Riemann pair symmetry, and its normalize merges
# them
JOB_TERMS = {
    "I-1": 1, "I-2": 0, "I-3": 0, "I-4": 1, "I-5": 1, "I-6": 1, "I-7": 1,
    "II-1-A": 1, "II-1-B": 1, "II-1-C": 1, "II-1-D": 1, "II-1-E": 1,
    "II-2": 0,
    "II-3-A": 1, "II-3-B": 0, "II-3-C": 0, "II-3-D": 1, "II-3-E": 1,
    "II-3-F": 1, "II-3-G": 1,
    "II-4-A": 2, "II-4-B": 2, "II-4-C": 2,
    "II-5": 0, "II-6": 4, "metric": 1,
}


def test_each_job_hands_wres_density_its_pinned_terms(monkeypatch):
    counts = {}
    running = []
    run, density = residue._run, residue.wres_density

    def counted_run(label, job, pieces):
        running.append(label)
        try:
            return run(label, job, pieces)
        finally:
            running.pop()

    def counted_density(terms):
        counts[running[-1]] = counts.get(running[-1], 0) + len(terms)
        return density(terms)
    monkeypatch.setattr(residue, "_run", counted_run)
    monkeypatch.setattr(residue, "wres_density", counted_density)
    evaluate_labels(LEDGER)
    assert counts == JOB_TERMS


def test_a_full_run_runs_one_job_per_leaf(record_calls):
    # a total is a plain sum, so a label defined a second time, as a job
    # beside its children, would show as one more density than leaves
    calls = record_calls("wres_density", residue)
    evaluate_labels(LEDGER)
    leaves = [row for row in LEDGER.values() if isinstance(row, Leaf)]
    assert len(calls) == len(leaves) == 26


def test_every_leaf_key_names_a_built_piece():
    for label, job in _jobs():
        for key in (job.left, job.right):
            assert _piece(key) in residue._BUILD, (label, key)


def test_the_full_ledger_builds_every_piece():
    # a `_BUILD` entry no job reaches is dead code the name-based lint
    # cannot see
    pieces = Pieces()
    evaluate_labels(LEDGER, pieces)
    assert set(residue._BUILD) <= set(pieces)


def _jobs():
    """Every job of the ledger, by label."""
    return [(label, row) for label, row in LEDGER.items()
            if isinstance(row, Leaf)]


def test_every_job_is_one_summand_cut_to_the_origin(monkeypatch, ledger):
    # each job hands its two sides to composition_summand with xmax=0
    calls = []
    summand = residue.composition_summand

    def recorded(p, q, nalpha, xmax=None):
        calls.append(xmax)
        return summand(p, q, nalpha, xmax)
    monkeypatch.setattr(residue, "composition_summand", recorded)
    assert evaluate_labels(LEDGER) == ledger
    assert calls == [0] * len(_jobs())


def _in_jobs(monkeypatch, name, wrap):
    """Patch `pdo.<name>` with `wrap(original, nalpha)` while a ledger job's
    composition_summand runs, the job's alpha passed as nalpha."""
    summand, original = residue.composition_summand, getattr(pdo, name)
    current = []

    def job_summand(p, q, nalpha, xmax=None):
        current.append(nalpha)
        try:
            return summand(p, q, nalpha, xmax)
        finally:
            current.pop()

    def patched(*args, **kwargs):
        if current:
            return wrap(original, current[-1])(*args, **kwargs)
        return original(*args, **kwargs)
    monkeypatch.setattr(residue, "composition_summand", job_summand)
    monkeypatch.setattr(pdo, name, patched)


def test_leaf_jobs_compose_only_origin_terms(monkeypatch, ledger):
    # xi-derivatives and products keep every x factor, so a left term with
    # one cannot reach the origin and no job multiplies it
    lefts = []

    def wrap(mul, nalpha):
        def recorded(a, b):
            lefts.append(a)
            return mul(a, b)
        return recorded
    _in_jobs(monkeypatch, "mul_terms", wrap)
    assert evaluate_labels(LEDGER) == ledger
    assert lefts
    assert [t for t in lefts if any(f.kind == "x" for f in t.fac)] == []


def test_alpha_jobs_cut_the_right_factor(monkeypatch, ledger):
    # a right term with more x factors than the job's x-derivatives remove
    # cannot reach the origin: II-5 leaves out par0_top's R x x xi xi term
    # before differentiating it
    rights = {}

    def wrap(d_x, nalpha):
        def recorded(terms, j, strict=True, xmax=None):
            if xmax == nalpha - 1:  # the first x-derivative of the job
                rights.setdefault(nalpha, []).extend(terms)
            return d_x(terms, j, strict, xmax)
        return recorded
    _in_jobs(monkeypatch, "d_x_terms", wrap)
    assert evaluate_labels(LEDGER) == ledger
    assert set(rights) == {1, 2}
    for nalpha, terms in rights.items():
        assert max(pdo.x_degree(t) for t in terms) <= nalpha
    rxx = [t for t in Pieces()["par0_top"].terms if pdo.x_degree(t) == 2]
    assert rxx and all(any(f.kind == "riem" for f in t.fac) for t in rxx)
    assert not [t for t in rights[1] if t in rxx]


def test_a_cut_summand_is_the_origin_of_the_whole_one():
    # cutting both factors inside the summand keeps every origin term of
    # the uncut summand, for every job of the ledger
    pieces = Pieces()
    for label, job in _jobs():
        left, right = pieces[job.left], pieces[job.right]
        cut, _ = pdo.composition_summand(left, right, job.alpha, xmax=0)
        whole, _ = pdo.composition_summand(left, right, job.alpha)
        assert normalize(cut) == normalize(origin_terms(whole)), label


def test_compose_path_agrees_with_summand_path(ledger):
    assert part2_compose_check() == ledger["S2"]


def test_associativity_through_the_residue(ledger):
    # group the product the other way: A (B D^{-2m}) instead of (A B) D^{-2m}
    par0 = parametrix_symbols(endomorphism(), 0)
    bp = compose(symbol_of_b(), par0, [(1, -2), (0, -2), (-1, -2)])
    full = compose(symbol_of_a(), bp, [(0, -2)])
    terms = [t for t in full.comps[(0, -2)].terms
             if not any(f.kind == "x" for f in t.fac)]
    assert wres_density(terms) == ledger["S2"]


def test_norm_exponent_is_derived():
    assert part1_top_norm_exponent(Pieces()["par1_top"]) == (-2, -2)


def test_field_free_run_gives_hodge_density(ledger):
    # V enters the ledger only through |V|^2 atoms, so the rest of the
    # Einstein value is the plain de Rham-Hodge density
    hodge = {atom: p for atom, p in ledger["einstein"].items()
             if "|V|^2" not in atom}
    assert hodge == {"g(u,w)*s": P(FR(1, 12)), "Ric(u,w)": P(FR(-1, 6))}
    for lab in ("I-7", "II-1-E", "II-3-G"):
        assert list(ledger[lab]) == ["g(u,w)*|V|^2"], lab


def test_ledger_never_enters_the_bianchi_pass(ledger, monkeypatch):
    # first Bianchi is a rule of normalize, and no sum a job canonicalizes
    # keeps a Riemann factor for it to act on
    seen = []
    canonicalize = residue.canonicalize

    def recorded(terms):
        out = canonicalize(terms)
        seen.extend(out)
        return out
    monkeypatch.setattr(residue, "canonicalize", recorded)
    led = evaluate_labels(LEDGER)
    assert seen
    assert not any(f.kind == "riem" for t in seen for f in t.fac)
    for lab in ledger:
        assert led[lab] == ledger[lab], lab


def test_orthogonal_fields_kill_metric_atoms(ledger):
    assign = TensorAssignment(21, 4)
    u = assign.vec["u"]
    assign.vec["w"] = {1: u[2], 2: -u[1], 3: u[4], 4: -u[3]}
    guw = sum(assign.vec["u"][a] * assign.vec["w"][a] for a in range(1, 5))
    assert guw == 0
    vals = {}
    for atom, coeff in ledger["einstein"].items():
        factor = {"g(u,w)*s": assign.scal * guw,
                  "g(u,w)*|V|^2": guw,
                  "Ric(u,w)": sum(assign.vec["u"][a] * assign.ric[(a, b)]
                                  * assign.vec["w"][b]
                                  for a in range(1, 5)
                                  for b in range(1, 5))}[atom]
        vals[atom] = coeff.evaluate(2) * factor
    assert vals["g(u,w)*s"] == 0 and vals["g(u,w)*|V|^2"] == 0


def test_everything_is_real(ledger):
    # every coefficient is a nonzero real polynomial in m: the report path
    # holds PolyM values, and a Scalar has no imaginary part
    # (test_scalars.test_scalar_has_no_imaginary_half)
    for lab in ledger:
        for coeff in ledger[lab].values():
            assert isinstance(coeff, PolyM) and coeff.c, lab


def test_ab_pieces_are_composed_from_the_origin_terms_of_a(monkeypatch,
                                                           record_calls):
    """A B is composed with xmax=0, which cuts both factors to what reaches
    the origin: a left term with an x factor keeps it through
    xi-derivatives and products, and so does a right term whose
    x-derivatives keep one.  The cut leaves every origin term as it was,
    in 9 products.  Each class of sigma_0(AB) that II-1 reads is sigma(A)
    composed with one term of sigma_0(B): the c-word and chat-word
    connection terms give riem60 and riem42, the chat(V) term dw, dv and
    vv."""
    pieces = Pieces()
    for name in ("A", "B"):
        pieces[name]
    products = record_calls("mul_terms", pdo)
    pieces["AB"]
    assert len(products) == 9
    monkeypatch.undo()
    whole = compose(symbol_of_a(), symbol_of_b(), [(2, 0), (1, 0), (0, 0)])
    for order, comp in whole.comps.items():
        assert (normalize(origin_terms(pieces["AB"].comps[order].terms))
                == normalize(origin_terms(comp.terms))), order
    b0 = symbol_of_b().comps[(0, 0)].terms
    for t, classes in zip(b0, (("riem60",), ("riem42",),
                               ("dw", "dv", "vv"))):
        sym = PDOSymbol({(0, 0): Component((t,), 1)}, exact=True)
        comp = compose(symbol_of_a(), sym, [(0, 0)]).comps[(0, 0)]
        split = [u for cls in classes for u in pieces["ab0", cls].terms]
        assert (normalize(split)
                == normalize(origin_terms(comp.terms))), classes


def test_ab_keeps_only_the_terms_that_reach_the_origin():
    # A B is composed with xmax=0, which cuts both factors, so no product
    # carries an x factor: sigma_0(AB) holds 5 origin terms
    ab = Pieces()["AB"]
    for comp in ab.comps.values():
        assert origin_terms(comp.terms) == list(comp.terms)
        assert comp.xtrunc == 0
    assert len(ab.comps[(0, 0)].terms) == 5


def test_each_summand_takes_its_own_xi_derivatives(record_calls):
    """Every composition summand differentiates its left piece itself: the
    full ledger takes 13 xi-derivatives.  Three derive the endomorphism
    from sigma_0(D_V o D_V): sigma_1(D_V)'s first for alpha 1, and its
    first and second for alpha 2; the second is empty, and is taken
    because sigma_1(D_V) is exact only to x-degree one, so the x side of
    that block is unknown.  Five compose A B: sigma_1(A)'s first three
    times and its second once, and sigma_0(A)'s first, which is empty.
    Five are jobs: sigma_2(AB)'s first for each of II-4-A, B and C, and
    its first and second for II-6.  II-5 takes none: the x side is built
    first, and its right side's x-derivative is empty at the origin."""
    calls = record_calls("d_xi_terms", pdo)
    evaluate_labels(LEDGER)
    assert len(calls) == 13


def test_the_derivatives_run_no_canonical_search(record_calls):
    """A composition summand's x- and xi-derivatives sum only the terms
    equal as written (`terms.merge_equal`), so no canonical presentation
    is built before the density normalizes: not for the ledger's A B
    pieces at alpha 1 and 2, nor for an x-derivative of par0_mid.  The
    pieces are built first, since building one normalizes it."""
    pieces = Pieces()
    jobs = [(pieces[left], pieces[right], alpha)
            for left in ("ab1", "ab2")
            for right, alpha in (("par0_mid", 1), ("par0_top", 2))]
    finalized = record_calls("_finalize", terms)
    sizes = [len(pdo.composition_summand(p, q, alpha, xmax=0)[0])
             for p, q, alpha in jobs]
    assert len(pdo.d_x_terms(pieces["par0_mid"].terms, "_j")) == 3
    assert finalized == []
    assert sizes == [9, 0, 6, 4]


def test_a_full_run_composes_two_symbols(record_calls):
    """A full run composes D_V with itself, for the endomorphism, and A
    with B; every job is one summand of two pieces.  The summands are the
    4 of sigma_0(D_V o D_V), the 8 of A B and the 26 jobs, one per
    leaf."""
    composed = record_calls("compose", operators, residue)
    summands = record_calls("composition_summand", pdo, residue)
    evaluate_labels(LEDGER)
    assert (len(composed), len(summands)) == (2, 38)


def test_each_job_normalizes_once(record_calls):
    """A full run normalizes the endomorphism (operators) and the four
    parametrix components the jobs read, par0_top, par0_mid, par0_low and
    par1_top (residue), once each, and each of the 26 jobs once, in
    `tensor.canonicalize`: the fiber trace hands its pairings over as they
    are."""
    assert not hasattr(clifford, "normalize")
    calls = {module.__name__.rsplit(".", 1)[1]:
             record_calls("normalize", module)
             for module in (operators, pdo, residue, tensor)}
    evaluate_labels(LEDGER)
    assert {name: len(c) for name, c in calls.items()} == {
        "operators": 1, "pdo": 0, "residue": 4, "tensor": 26}
