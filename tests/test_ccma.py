import collections
import functools
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from curvemul import bounds, ccma, gf, linalg
from curvemul.gf import FieldTower, prime_field, canonical_extension, find_irreducible
from curvemul.function_field import (curve_search, best_stat_curves, BudgetExceededError,
                                     EllipticCurve, ProjectiveLine)
from invariants import symmetric_rank_reference, tensor_reference


def schoolbook_formula(q, n):
    """n(n+1)/2-term symmetric schoolbook decomposition, any characteristic:
    terms (e_i*, e_i^2 - sum_(j != i) e_i e_j) and ((e_i + e_j)*, e_i e_j)."""
    tower = FieldTower.canonical(q, n)
    Fq, E = tower.base_field, tower.ext_field
    basis = [E.element(tuple(Fq.one_index if k == i else 0 for k in range(n))) for i in range(n)]
    terms = []
    for i in range(n):
        c = basis[i] * basis[i]
        for j in range(n):
            if j != i:
                c = c - basis[i] * basis[j]
        form = tuple(Fq.one_index if k == i else 0 for k in range(n))
        terms.append((form, E.value_of(c.index)))
    for i in range(n):
        for j in range(i + 1, n):
            form = tuple(Fq.one_index if k in (i, j) else 0 for k in range(n))
            terms.append((form, E.value_of((basis[i] * basis[j]).index)))
    return ccma.SymmetricBilinearFormula(tower, terms, {"method": "manual"})


def test_schoolbook_formula_passes_verify():
    for q, n in ((2, 2), (2, 3), (3, 2), (4, 2)):
        f = schoolbook_formula(q, n)
        assert f.rank == n * (n + 1) // 2
        assert ccma.verify(f, "exhaustive").passed


def test_construct_case1_small():
    f = ccma.construct_case1(4, 2)
    assert f.rank == 3
    rep = ccma.verify(f, "exhaustive")
    assert rep.passed and rep.pairs_checked == 256


def test_construct_case1_q2_n2_avoids_rational_support():
    f = ccma.construct_case1(2, 2)
    assert f.rank == 3
    assert ccma.verify(f, "exhaustive").passed
    # all three rational places had to stay available for evaluation
    assert len(f.provenance["degree1_places"]) == 3


def test_construct_case1_hypothesis_error():
    with pytest.raises(ccma.HypothesisError):
        ccma.construct_case1(2, 3)  # N1 = 3 <= 2n-2 = 4


def test_construct_case1_elliptic_rank_2n():
    F4 = canonical_extension(prime_field(2), 2)
    curve = curve_search(F4, 9)[0].curve
    f = ccma.construct_case1(4, 4, curve)
    assert f.rank == 8
    rep = ccma.verify(f, "exhaustive")
    assert rep.passed and rep.pairs_checked == 65536
    assert f.provenance["genus"] == 1 and f.provenance["method"] == "theorem2-case1"


def test_construct_case3_rank6():
    f = ccma.construct_case3(2, 3)
    assert f.rank == 6
    assert len(f.provenance["degree1_places"]) == 3
    assert len(f.provenance["degree2_places"]) == 1
    rep = ccma.verify(f, "exhaustive")
    assert rep.passed and rep.pairs_checked == 64 == 2 ** (2 * 3)


def test_construct_case3_degenerates_to_case1():
    f = ccma.construct_case3(2, 2)
    assert f.rank == 3
    assert not f.provenance["degree2_places"]


def test_construct_case3_hypothesis_error():
    with pytest.raises(ccma.HypothesisError):
        ccma.construct_case3(2, 5)  # N1 + 2 N2 = 5 <= 2n - 2 = 8


def test_theorem_bound_postcondition():
    # ranks never exceed the case bounds
    for q, n, curve, case, bound in (
            (2, 2, None, 1, 3), (3, 2, None, 1, 3), (4, 3, None, 1, 5),
            (2, 3, None, 3, 9), (4, 4, None, 3, 12), (3, 3, None, 3, 9)):
        builder = ccma.construct_case1 if case == 1 else ccma.construct_case3
        f = builder(q, n, curve)
        assert f.rank <= bound


def corrupt_constant(f):
    """f with one coordinate of its first constant shifted by one."""
    E = f.tower.ext_field
    bad_c = list(f.terms[0][1])
    bad_c[0] = E.base.add(bad_c[0], E.base.one_index)
    terms = ((f.terms[0][0], tuple(bad_c)),) + f.terms[1:]
    return ccma.SymmetricBilinearFormula(f.tower, terms, f.provenance)


def corrupt_off_diagonal(f):
    """f plus three terms that cancel on every e_j*e_j but add c on e_0*e_1."""
    Fq, n = f.tower.base_field, f.tower.n
    c = f.terms[0][1]
    minus_c = tuple(Fq.neg(v) for v in c)

    def form(*support):
        return tuple(Fq.one_index if i in support else 0 for i in range(n))

    extra = ((form(0, 1), c), (form(0), minus_c), (form(1), minus_c))
    return ccma.SymmetricBilinearFormula(f.tower, f.terms + extra, f.provenance)


@pytest.mark.parametrize("mode", ["exhaustive", "tensor"])
def test_verify_detects_corruption(mode):
    corrupted = corrupt_constant(ccma.construct_case1(2, 2))
    E = corrupted.tower.ext_field
    rep = ccma.verify(corrupted, mode)
    assert not rep.passed and rep.first_failure is not None
    ix, iy = rep.first_failure
    x, y = E.from_index(ix), E.from_index(iy)
    assert corrupted.apply(x, y) != x * y  # the witness is concrete


def test_verify_refuses_exhaustive_on_large_fields():
    f = ccma.construct_case1(16, 3)
    with pytest.raises(ValueError):
        ccma.verify(f, "exhaustive")


def test_verify_sampled_deterministic():
    f = ccma.construct_case1(16, 3)
    a = ccma.verify(f, "sampled", pairs=500, seed=42)
    b = ccma.verify(f, "sampled", pairs=500, seed=42)
    assert a.passed and b.passed and a.seed == b.seed == 42


def test_bad_seed_refused_before_construction(monkeypatch):
    # the constructors and compose check the seed on entry, not after the
    # formula is built and handed to verify
    def never(*args, **kwargs):
        pytest.fail("construction work started for a bad seed")

    outer, inner = ccma.construct_case1(2, 2), ccma.construct_case1(4, 2)
    monkeypatch.setattr(ccma, "_attempt", never)
    monkeypatch.setattr(gf, "roots", never)
    for seed in (-3, None, True):
        for build in (lambda: ccma.construct_case1(4, 3, seed=seed),
                      lambda: ccma.construct_case3(3, 5, seed=seed),
                      lambda: ccma.compose(outer, inner, seed=seed)):
            with pytest.raises(ValueError, match="seed must be a non-negative int"):
                build()


def test_verify_rejects_seeds_that_do_not_replay():
    # random.Random(-3) draws what Random(3) draws, and Random(None) reads
    # the OS, so neither seed in a report would name the pairs checked
    f = ccma.construct_case1(4, 2)
    for seed in (-3, None, True, 1.0, "3"):
        for mode in ("sampled", "tensor"):
            with pytest.raises(ValueError, match="seed"):
                ccma.verify(f, mode, pairs=10, seed=seed)
    assert ccma.verify(f, "sampled", pairs=10, seed=3).seed == 3


def _sampled_reference(formula, pairs, seed):
    """The sampled scan written with the public API: apply against x * y."""
    E = formula.tower.ext_field
    rng = random.Random(seed)
    for k in range(pairs):
        ix, iy = rng.randrange(E.size), rng.randrange(E.size)
        x, y = E.from_index(ix), E.from_index(iy)
        if formula.apply(x, y) != x * y:
            return False, k + 1, (ix, iy)
    return True, pairs, None


@pytest.mark.parametrize("size", [1, 2, 3, 7, 3 ** 10, 2 ** 20, 16 ** 9, 256 ** 9])
def test_sampled_draws_are_randrange(size):
    # the sampled scan names its pairs by seed; if a Python release changes
    # randrange, this fails instead of silently changing which pairs they are
    for seed in range(6):
        draw, rng = ccma._below(random.Random(seed), size), random.Random(seed)
        assert [draw() for _ in range(200)] == [rng.randrange(size) for _ in range(200)]


def _with_extra_term(f, form_index):
    """f plus the term (e_k*, 1) for k = form_index: wrong on a fraction of pairs."""
    Fq, E, n = f.tower.base_field, f.tower.ext_field, f.tower.n
    form = tuple(Fq.one_index if i == form_index else 0 for i in range(n))
    return ccma.SymmetricBilinearFormula(
        f.tower, f.terms + ((form, E.value_of(E.one_index)),), f.provenance)


# A wrong term makes an error ell(x) ell(y) c, nonzero on (1 - 1/q)^2 of the
# pairs, so small q and several seeds put first failures beyond pair 1.  The
# odd cases read the forms 120 times, in four-digit chunks over F_3 and over
# F_9 (F_(9^3) has a short last chunk) and one wide digit per chunk for the
# prime q = 251; test_gf checks the readers' other layouts.  The characteristic-2
# cases are checked on bit planes over F_q of 1 bit (F_2), 2 (F_(4^9)),
# 4 (F_16) and 8 bits (F_(256^3), and F_(256^9), whose 72-bit indices fill
# lanes wider than 64 bits).  Blocks of 1 and 3 pairs put the first failures
# in later blocks.
@pytest.mark.parametrize("make", [
    lambda: _with_extra_term(schoolbook_formula(2, 9), 8),
    lambda: _with_extra_term(schoolbook_formula(3, 6), 2),
    lambda: corrupt_off_diagonal(ccma.construct_case1(16, 3)),
    lambda: ccma.construct_case1(16, 3),
    lambda: _with_extra_term(ccma.construct_case1(9, 3), 2),
    lambda: _with_extra_term(schoolbook_formula(2, 20), 19),
    lambda: _with_extra_term(ccma.construct_case1(16, 5), 4),
    lambda: ccma.construct_case1(251, 2),
    lambda: _with_extra_term(ccma.construct_case1(251, 2), 1),
    lambda: _with_extra_term(schoolbook_formula(4, 9), 8),
    lambda: _with_extra_term(schoolbook_formula(256, 3), 2),
    lambda: schoolbook_formula(256, 9),
    lambda: _with_extra_term(schoolbook_formula(256, 9), 8),
], ids=["schoolbook-2-9", "schoolbook-3-6", "off-diagonal-16-3", "case1-16-3",
        "extra-9-3", "schoolbook-2-20", "extra-16-5", "case1-251-2", "extra-251-2",
        "extra-4-9", "extra-256-3", "schoolbook-256-9", "extra-256-9"])
def test_sampled_report_matches_apply_reference(make, monkeypatch):
    f = make()
    assert f.tower.ext_field.size > ccma.EXHAUSTIVE_LIMIT
    for seed in range(8):
        expected = _sampled_reference(f, 60, seed)
        for block in (ccma.BLOCK, 1, 3):
            monkeypatch.setattr(ccma, "BLOCK", block)
            rep = ccma.verify(f, "sampled", pairs=60, seed=seed)
            assert (rep.passed, rep.pairs_checked, rep.first_failure) == expected
            assert rep.seed == seed
        monkeypatch.undo()


@pytest.mark.parametrize("make", [
    lambda: ccma.construct_case1(16, 3),
    lambda: corrupt_off_diagonal(ccma.construct_case1(16, 3)),
    lambda: schoolbook_formula(2, 9),
], ids=["case1-16-3", "off-diagonal-16-3", "schoolbook-2-9"])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_sampled_report_at_block_boundaries(make, offset):
    # pair counts on either side of one full block
    f, pairs = make(), ccma.BLOCK + offset
    rep = ccma.verify(f, "sampled", pairs=pairs, seed=5)
    assert (rep.passed, rep.pairs_checked, rep.first_failure) == _sampled_reference(f, pairs, 5)


@pytest.mark.parametrize("make", [
    lambda: ccma.construct_case1(9, 3),
    lambda: _with_extra_term(ccma.construct_case1(9, 3), 2),
], ids=["case1-9-3", "extra-9-3"])
def test_odd_sampled_scan_reads_none_of_the_fields_index_ops(make, monkeypatch):
    """The odd sampled scan is a cross-check independent of E's index ops:
    its left-hand side reads F_q's mul and the images of the constants, and
    its right-hand side is E.direct_mul, vmul on coefficient tuples.  With
    E's add, sub and vadd gone it returns the same report."""
    f = make()
    want = repr(ccma.verify(f, "sampled", pairs=300, seed=4))
    E = f.tower.ext_field
    for name in ("add", "sub", "vadd"):
        monkeypatch.setitem(vars(E), name, None)
    assert repr(ccma.verify(f, "sampled", pairs=300, seed=4)) == want


@pytest.mark.parametrize("q,n,case", [(3, 2, 3), (2, 3, 3), (9, 3, 1), (16, 3, 1)])
def test_formula_without_terms_fails_every_mode(q, n, case):
    # a formula file may list no terms; it multiplies every pair to 0, so
    # each mode reports the first pair (x, y) with x*y != 0, and none raises
    f = (ccma.construct_case1 if case == 1 else ccma.construct_case3)(q, n)
    data = ccma.formula_to_dict(f)
    data["terms"], data["rank"] = [], 0
    empty = ccma.formula_from_dict(data)
    E = empty.tower.ext_field
    for mode in ("tensor", "auto"):
        rep = ccma.verify(empty, mode, pairs=10)
        assert not rep.passed and rep.mode == ccma.verify_mode(E.size, mode, 10)
        x, y = rep.first_failure
        assert E.mul(x, y) != 0


def test_sampled_rejects_nonpositive_pairs():
    small, large = ccma.construct_case1(2, 2), ccma.construct_case1(16, 3)
    for pairs in (0, -5):
        with pytest.raises(ValueError):
            ccma.verify(small, "sampled", pairs=pairs)
        with pytest.raises(ValueError):
            ccma.verify(large, "auto", pairs=pairs)  # auto resolves to sampled here
    assert ccma.verify(small, "auto", pairs=0).mode == "exhaustive"


def test_apply_multiplies():
    f = ccma.construct_case1(4, 2)
    E = f.tower.ext_field
    for x in E:
        for y in E:
            assert f.apply(x, y) == x * y


def test_compose_rank_multiplies():
    outer = ccma.construct_case1(2, 2)
    inner = ccma.construct_case1(4, 2)
    comp = ccma.compose(outer, inner)
    assert comp.rank == outer.rank * inner.rank == 9
    assert comp.tower.q == 2 and comp.tower.n == 4
    rep = ccma.verify(comp, "exhaustive")
    assert rep.passed and rep.pairs_checked == 256


def test_compose_char3():
    comp = ccma.compose(ccma.construct_case1(3, 2), ccma.construct_case1(9, 2))
    assert comp.rank == 9 and comp.tower.q == 3 and comp.tower.n == 4
    assert ccma.verify(comp, "sampled", pairs=1500, seed=0).passed


def test_compose_identity_inner():
    outer = ccma.construct_case1(2, 2)
    F4 = canonical_extension(prime_field(2), 2)
    ident_tower = FieldTower(2, find_irreducible(prime_field(2), 2),
                             find_irreducible(F4, 1))
    comp = ccma.compose(outer, ccma.identity_formula(ident_tower))
    assert comp.rank == outer.rank
    assert ccma.verify(comp, "exhaustive").passed


def test_compose_tower_mismatch():
    inner = ccma.construct_case1(4, 2)
    with pytest.raises(ccma.TowerMismatchError):
        ccma.compose(inner, inner)


def test_brute_force_rank(monkeypatch):
    # the search eliminates on one incremental echelon, without a solve per set
    monkeypatch.setattr(linalg, "solve", None)
    assert ccma.brute_force_symmetric_rank(2, 2, 4) == 3
    assert ccma.brute_force_symmetric_rank(3, 2, 4) == 3
    assert ccma.brute_force_symmetric_rank(2, 1, 1) == 1
    assert ccma.brute_force_symmetric_rank(2, 2, 2) is None  # certified >= 3


def test_brute_force_certifies_mu2_3():
    # rank 5 is impossible for F8/F2, so the constructed rank 6 is optimal
    assert ccma.brute_force_symmetric_rank(2, 3, 5) is None
    assert ccma.construct_case3(2, 3).rank == 6


def test_brute_force_rejects_max_rank_below_one():
    for max_rank in (0, -1):
        with pytest.raises(ValueError):
            ccma.brute_force_symmetric_rank(2, 2, max_rank)


def test_brute_force_budget_guard():
    with pytest.raises(BudgetExceededError):
        ccma.brute_force_symmetric_rank(2, 3, 6)


def test_brute_force_never_exceeds_constructed_rank():
    for q, n in ((2, 2), (3, 2), (4, 2)):
        constructed = ccma.construct_case1(q, n).rank
        assert ccma.brute_force_symmetric_rank(q, n, 4) <= constructed


def _admitted_ranks():
    """(q, n, max_rank) for q <= 9 and 2 <= n <= 4, with every max_rank from
    1 up to the largest that the budget guard admits."""
    cases = []
    for q in (2, 3, 4, 5, 7, 8, 9):
        for n in (2, 3, 4):
            nforms, units = (q ** n - 1) // (q - 1), q ** n - 1
            cases += [(q, n, r) for r in range(1, 10) if (nforms * units) ** r <= 10 ** 9]
    return cases


@pytest.mark.parametrize("q,n,max_rank", _admitted_ranks())
def test_rank_search_matches_reference(q, n, max_rank):
    """The search with both cuts returns what the search over every set of
    projective forms returns, on every instance the guard admits."""
    assert ccma.brute_force_symmetric_rank(q, n, max_rank) == symmetric_rank_reference(q, n, max_rank)


def test_budget_guard_bounds_the_admitted_ranks():
    """The guard is the old search's size, so it refuses the max_rank just
    past each admitted range, although the search could answer it."""
    top = {}
    for q, n, r in _admitted_ranks():
        top[q, n] = max(top.get((q, n), 0), r)
    assert len(_admitted_ranks()) == 58
    for (q, n), r in top.items():
        with pytest.raises(BudgetExceededError):
            ccma.brute_force_symmetric_rank(q, n, r + 1)
    with pytest.raises(BudgetExceededError):
        ccma.brute_force_symmetric_rank(2, 2, 99)


@pytest.mark.parametrize("q,n", sorted({(q, n) for q, n, _ in _admitted_ranks()}))
def test_first_form_orbit_covers_every_projective_form(q, n):
    """The search puts its first form l0 in every set because l -> l o m_a,
    m_a(x) = a*x, acts regularly on nonzero forms: over a in F_(q^n)^*, the
    forms l0 o m_a are distinct, and normalised they are every projective
    form.  l0 is the form of index 1, the coordinate of e_0."""
    tower = FieldTower.canonical(q, n)
    Fq, E = tower.base_field, tower.ext_field
    # (l0 o m_a)(e_j) is coordinate 0 of a*e_j, and e_j has index q^j
    orbit = {tuple(E.mul(a, q ** j) % q for j in range(n)) for a in range(1, E.size)}
    assert len(orbit) == E.size - 1 and (0,) * n not in orbit

    def normalised(f):
        inv = Fq.inv(next(filter(None, f)))
        return tuple(Fq.mul(inv, x) for x in f)
    forms = {f for f in (tuple(gf._raw_from_int(Fq, i, n)) for i in range(1, E.size))
             if next(filter(None, f)) == Fq.one_index}
    assert {normalised(f) for f in orbit} == forms


def test_rank_search_past_the_guard():
    """Without the guard the search finds mu_sym_2(3) = 6, the rank floor,
    attained by the degree-2-place construction."""
    assert ccma._rank_search(FieldTower.canonical(2, 3), 6) == 6
    assert bounds.rank_floor(2, 3) == 6 == ccma.construct_case3(2, 3).rank


def test_quadratic_formula_fixed_per_q():
    a = ccma.quadratic_formula(2)
    b = ccma.quadratic_formula(2)
    assert a is b and a.rank == 3


def test_save_load_round_trip(tmp_path):
    for f in (ccma.construct_case1(4, 2), ccma.construct_case3(2, 3),
              ccma.compose(ccma.construct_case1(2, 2), ccma.construct_case1(4, 2))):
        path = tmp_path / "formula.json"
        ccma.save_formula(f, path)
        g = ccma.load_formula(path)
        assert g == f
        assert g.terms == f.terms and g.tower == f.tower


def test_load_rejects_corrupted_file(tmp_path):
    f = ccma.construct_case1(2, 2)
    path = tmp_path / "formula.json"
    ccma.save_formula(f, path)
    data = json.loads(path.read_text())
    data["rank"] = 99
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError):
        ccma.load_formula(path)
    data["rank"] = 3
    data["terms"][0]["x_star"] = [0]
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError):
        ccma.load_formula(path)


def test_construction_determinism():
    a = ccma.construct_case3(2, 3)
    b = ccma.construct_case3(2, 3)
    assert a == b


def test_construct_requires_degree_2():
    with pytest.raises(ValueError):
        ccma.construct_case1(2, 1)


def test_compose_chains_three_levels():
    # (F4/F2) o (F16/F4), then o (F256/F16): rank 27 formula for F256/F2
    step1 = ccma.compose(ccma.construct_case1(2, 2), ccma.construct_case1(4, 2))
    inner16 = ccma.construct_case1(16, 2)
    assert inner16.tower.base_field is step1.tower.ext_field
    step2 = ccma.compose(step1, inner16)
    assert step2.rank == 27 and step2.tower.q == 2 and step2.tower.n == 8
    rep = ccma.verify(step2, "exhaustive")
    assert rep.passed and rep.pairs_checked == 65536


def test_compose_above_2_20():
    # compose finds its roots by trace splitting, not by scanning C, so it
    # reaches F_(2^20) and F_(2^24); the scan of F_(2^20) it replaced took
    # about 24 s on 2 vCPUs with Python 3.11
    step1 = ccma.compose(ccma.construct_case1(2, 2), ccma.construct_case1(4, 2))
    inner5 = ccma.construct_case1(16, 5)
    start = time.perf_counter()
    f20 = ccma.compose(step1, inner5)
    assert time.perf_counter() - start < 1.0
    assert f20.rank == 81 and f20.tower.ext_field.size == 2 ** 20
    f24 = ccma.compose(step1, ccma.construct_case1(16, 6))
    assert f24.rank == 99 and f24.tower.ext_field.size == 2 ** 24
    rep = ccma.verify(f24, "tensor")
    assert rep.passed and rep.mode == "tensor" and rep.pairs_checked == 24 * 25 // 2



def test_genus1_odd_q_above_2_20():
    # fibers are solved by square roots, not read from a table of F_(9^7),
    # so genus-1 place search reaches 9^7 > 2^20; N1 = 16 > 2n
    F9 = canonical_extension(prime_field(3), 2)
    entry = curve_search(F9, 16)[0]
    assert entry.n1 == 16
    f = ccma.construct_case1(9, 7, entry.curve)
    assert f.rank == 14 and f.tower.ext_field.size == 9 ** 7 > 1 << 20
    rep = ccma.verify(f, "tensor")
    assert rep.passed and rep.mode == "tensor"

@pytest.mark.parametrize("mode", ["exhaustive", "tensor"])
def test_verify_detects_xstar_corruption(mode):
    f = ccma.construct_case1(3, 2)
    Fq = f.tower.base_field
    xs = list(f.terms[0][0])
    xs[0] = Fq.add(xs[0], Fq.one_index)
    terms = ((tuple(xs), f.terms[0][1]),) + f.terms[1:]
    corrupted = ccma.SymmetricBilinearFormula(f.tower, terms, f.provenance)
    assert not ccma.verify(corrupted, mode).passed


def _elliptic_4_4():
    F4 = canonical_extension(prime_field(2), 2)
    return ccma.construct_case1(4, 4, curve_search(F4, 9)[0].curve)


def _elliptic_3_3():
    from curvemul.function_field import best_stat_curves
    return ccma.construct_case1(3, 3, best_stat_curves(prime_field(3))[0].curve)


def _identity_composed():
    F4 = canonical_extension(prime_field(2), 2)
    ident_tower = FieldTower(2, find_irreducible(prime_field(2), 2), find_irreducible(F4, 1))
    return ccma.compose(ccma.construct_case1(2, 2), ccma.identity_formula(ident_tower))


def _three_levels():
    step1 = ccma.compose(ccma.construct_case1(2, 2), ccma.construct_case1(4, 2))
    return ccma.compose(step1, ccma.construct_case1(16, 2))


SMALL_FORMULAS = {
    "schoolbook-2-3": lambda: schoolbook_formula(2, 3),
    "schoolbook-4-2": lambda: schoolbook_formula(4, 2),
    "case1-2-2": lambda: ccma.construct_case1(2, 2),
    "case1-3-2": lambda: ccma.construct_case1(3, 2),
    "case1-4-3": lambda: ccma.construct_case1(4, 3),
    "case1-16-2": lambda: ccma.construct_case1(16, 2),
    "case1-9-2": lambda: ccma.construct_case1(9, 2),
    "case3-2-3": lambda: ccma.construct_case3(2, 3),
    "case3-3-3": lambda: ccma.construct_case3(3, 3),
    "case3-4-4": lambda: ccma.construct_case3(4, 4),
    "elliptic-4-4": _elliptic_4_4,
    "elliptic-3-3": _elliptic_3_3,
    "compose-2-4": lambda: ccma.compose(ccma.construct_case1(2, 2), ccma.construct_case1(4, 2)),
    "compose-3-4": lambda: ccma.compose(ccma.construct_case1(3, 2), ccma.construct_case1(9, 2)),
    "compose-identity": _identity_composed,
    "compose-2-8": _three_levels,
}


@pytest.mark.parametrize("name", sorted(SMALL_FORMULAS))
def test_tensor_agrees_with_exhaustive(name):
    # the basis-pair proof and the full sweep must give the same verdict, on
    # every q^n <= 256 formula and on two corrupted copies of it
    f = SMALL_FORMULAS[name]()
    assert f.tower.ext_field.size <= ccma.EXHAUSTIVE_LIMIT
    for g, expected in ((f, True), (corrupt_constant(f), False),
                        (corrupt_off_diagonal(f), False)):
        tensor = ccma.verify(g, "tensor")
        assert tensor.passed is ccma.verify(g, "exhaustive").passed is expected
        n = g.tower.n
        assert tensor.pairs_checked <= n * (n + 1) // 2


def _golden_formula(name):
    return ccma.load_formula(os.path.join(os.path.dirname(__file__), "golden", name))


def _composed_2_12():
    return ccma.compose(ccma.compose(ccma.construct_case1(2, 2), ccma.construct_case1(4, 2)),
                        ccma.construct_case1(16, 3))


TENSOR_FORMULAS = {
    "case1-16-3": lambda: ccma.construct_case1(16, 3),
    "case1-16-5": lambda: ccma.construct_case1(16, 5),
    "case1-9-3": lambda: ccma.construct_case1(9, 3),
    "case1-9-4": lambda: ccma.construct_case1(9, 4),
    "case1-251-2": lambda: ccma.construct_case1(251, 2),
    "elliptic-4-4": _elliptic_4_4,
    "elliptic-9-7": lambda: _golden_formula("formula_9_7_n1_16_case1.json"),
    "compose-2-8": _three_levels,
    "compose-2-12": _composed_2_12,
    "compose-3-8": lambda: ccma.compose(ccma.construct_case1(3, 2), ccma.construct_case1(9, 4)),
    # p > 256: one digit per F_p coordinate, and the widest packed slots
    "file-257-3": lambda: ccma.formula_from_dict(
        ccma.formula_to_dict(ccma.construct_case1(257, 3))),
}


def _single_corruptions(f, rng, count):
    """count copies of f, each with one coefficient of one term (a form
    coordinate or a constant coordinate) moved to another element of F_q."""
    Fq = f.tower.base_field
    for _ in range(count):
        t = rng.randrange(f.rank)
        xs, c = map(list, f.terms[t])
        part = rng.choice((xs, c))
        i = rng.randrange(len(part))
        part[i] = Fq.add(part[i], 1 + rng.randrange(Fq.size - 1))
        terms = f.terms[:t] + ((xs, c),) + f.terms[t + 1:]
        yield ccma.SymmetricBilinearFormula(f.tower, terms, f.provenance)


@pytest.mark.parametrize("name", sorted(TENSOR_FORMULAS))
def test_tensor_proof_matches_tuple_reference(name):
    # the proof on index digits reports what the tuple check reports: the
    # verdict, the row-major pair count and the failing basis pair, on the
    # formula and on seeded single-coefficient corruptions of it
    f = TENSOR_FORMULAS[name]()
    failures = 0
    for g in itertools.chain([f], _single_corruptions(f, random.Random(name), 12)):
        rep = ccma.verify(g, "tensor")
        assert (rep.passed, rep.pairs_checked, rep.first_failure) == tensor_reference(g)
        failures += not rep.passed
    assert ccma.verify(f, "tensor").passed and failures >= 6


@pytest.mark.parametrize("q, n", [(2, 7), (3, 5), (257, 3), (16, 5), (4, 6), (9, 4), (49, 3)])
def test_power_indices_are_powers_of_t_mod_the_modulus(q, n):
    # Complete over the 2n - 1 powers t^(j+k) that the tensor proof reads,
    # on one-level (F_q prime) and two-level towers in both characteristics.
    # The proof relies on one structural fact: an index of E = F_q[t]/(f) is
    # the base-q number of its coefficients, so t^m is the unit q^m for
    # m < n, and E._red_rows[m - n] is t^m mod f above that.
    E = FieldTower.canonical(q, n).ext_field
    Fq = E.base
    want = []
    for m in range(2 * n - 1):
        rem = gf._pdivmod(Fq, [0] * m + [Fq.one_index], list(E.modulus))[1]
        want.append(E.index_of(tuple(rem) + (0,) * (n - len(rem))))
    assert ccma._power_indices(E) == want


def test_tensor_proof_makes_no_tuple_products(monkeypatch):
    # the right-hand side is read from the reduction rows, not multiplied
    formulas = [_composed_2_12(), ccma.construct_case1(9, 4), ccma.construct_case1(257, 3)]
    monkeypatch.setattr(gf.ExtensionField, "vmul", None)  # a call raises TypeError
    for f in formulas:
        assert ccma.verify(f, "tensor").passed


def test_compose_makes_no_tuple_products(monkeypatch):
    # the embedding rows are read from E's index products: the composed
    # tower to F_(2^12) is the formula compose built when it multiplied
    # coefficient tuples by vmul, whose SHA-256 is recorded here
    def refuse(*args):
        raise AssertionError("vmul called")
    monkeypatch.setattr(gf.ExtensionField, "vmul", refuse)
    text = json.dumps(ccma.formula_to_dict(_composed_2_12()), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "d8f815e8aab6b7379e5d7121613728ba35dbebe5ab5e4ca88f43004d26aea46c")


def test_brute_force_reads_the_power_indices(monkeypatch):
    # the brute-force oracle's right-hand side is the proof's, not vmul's
    monkeypatch.setattr(gf.ExtensionField, "vmul", None)
    assert ccma.brute_force_symmetric_rank(2, 2, 3) == 3
    assert ccma.brute_force_symmetric_rank(3, 2, 2) is None


def _exhaustive_reference(formula):
    """The exhaustive sweep written with the public API, in row-major order."""
    E = formula.tower.ext_field
    for ix in range(E.size):
        x = E.from_index(ix)
        for iy in range(E.size):
            y = E.from_index(iy)
            if formula.apply(x, y) != x * y:
                return False, ix * E.size + iy + 1, (ix, iy)
    return True, E.size ** 2, None


@pytest.mark.parametrize("name", [
    "case1-2-2", "case3-2-3", "schoolbook-4-2", "case1-4-3", "case1-16-2",
    "case1-3-2", "case3-3-3", "compose-3-4", "case1-9-2"])
def test_exhaustive_report_matches_apply_reference(name):
    # the sweep must report the first failing pair of the plain row-major
    # loop, over F_2, F_4, F_16, F_3 and F_9 bases, on the failing copies and
    # on the clean formula; in characteristic 2 all q^(2n) pairs are one
    # bit-sliced pass, whose lowest failing lane names the pair (at (16, 2)
    # the extra term first fails in row 16, past lane 4096)
    f = SMALL_FORMULAS[name]()
    for g in (f, corrupt_constant(f), corrupt_off_diagonal(f), _with_extra_term(f, f.tower.n - 1)):
        rep = ccma.verify(g, "exhaustive")
        assert (rep.passed, rep.pairs_checked, rep.first_failure) == _exhaustive_reference(g)


def test_char2_scans_make_no_field_products(monkeypatch):
    # both scans compare against gf.sliced_product on bit planes, never
    # against the field's own index product
    cases = ((_elliptic_4_4(), "exhaustive"), (ccma.construct_case1(16, 5), "sampled"),
             (ccma.construct_case3(2, 3), "exhaustive"), (schoolbook_formula(2, 9), "sampled"))
    for f, mode in cases:
        E = f.tower.ext_field
        monkeypatch.setattr(E, "mul", None)
        monkeypatch.setattr(E, "direct_mul", None)
        rep = ccma.verify(f, mode, pairs=3000)
        assert rep.passed and rep.mode == mode
        monkeypatch.undo()


def test_construct_raises_on_corrupted_formula(monkeypatch):
    original = ccma._attempt

    def attempt(*args):
        formula, achieved = original(*args)
        return (formula and corrupt_constant(formula)), achieved

    monkeypatch.setattr(ccma, "_attempt", attempt)
    with pytest.raises(ccma.VerificationError):
        ccma.construct_case1(2, 2)


OPTIMIZED_SCRIPT = """
import sys
from curvemul import ccma
original = ccma._attempt

def attempt(*args):
    formula, achieved = original(*args)
    if formula is not None:
        (xs, c), rest = formula.terms[0], formula.terms[1:]
        Fq = formula.tower.base_field
        bad = (Fq.add(c[0], Fq.one_index),) + tuple(c[1:])
        formula = ccma.SymmetricBilinearFormula(formula.tower, ((xs, bad),) + rest, {})
    return formula, achieved

ccma._attempt = attempt
try:
    ccma.construct_case1(2, 2)
except ccma.VerificationError:
    sys.exit(0)
sys.exit(5)
"""


def test_construct_postcondition_survives_optimize():
    # the postcondition is not an assert, so python -O keeps it
    src = os.path.dirname(os.path.dirname(ccma.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


FEW_OPS_SCRIPT = """
from curvemul import ccma
f = ccma.construct_case1(16, 4)
E = f.tower.ext_field
print(E.size, f.rank, E._log is None)
"""


def test_construct_16_4_leaves_f65536_tables_unbuilt():
    # evaluation at the degree-4 place does a few dozen index ops in F_65536,
    # fewer than the field's size, so the tables are never built; a fresh
    # interpreter, because fields are interned across tests
    src = os.path.dirname(os.path.dirname(ccma.__file__))
    done = subprocess.run([sys.executable, "-c", FEW_OPS_SCRIPT],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["65536", "7", "True"]


SPARE_Q_SCRIPT = """
import sys
from curvemul import ccma, gf
f = ccma.construct_case1(16, 4)
F16 = f.tower.base_field
print(gf._irreducible_replay(F16, 4)._seen == [f.tower.ext_poly.coeffs])
print(f == ccma.load_formula(sys.argv[1]))
"""


def test_construct_16_4_searches_no_spare_q_places():
    # the place of the tower's modulus serves as Q, so the shared degree-4
    # stream over F_16 holds only that polynomial, and the formula is the
    # pinned one; a fresh interpreter, because the stream is process-global
    src = os.path.dirname(os.path.dirname(ccma.__file__))
    golden = os.path.join(os.path.dirname(__file__), "golden", "formula_16_4_g0_case1.json")
    done = subprocess.run([sys.executable, "-c", SPARE_Q_SCRIPT, golden],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "True"]


def test_construct_on_a_curve_without_places_of_degree_n():
    # y^2 + y = x^3 is maximal over F_4: #E(F_16) = #E(F_4), so no degree-2 place
    E = EllipticCurve(canonical_extension(prime_field(2), 2), 0, 0, 1, 0, 0)
    with pytest.raises(ccma.ConstructionError, match="^the curve has no degree-2 place$"):
        ccma.construct_case1(4, 2, E)


def test_construct_counts_degree_n_places_from_n1(monkeypatch):
    # N1 = 9 decides that no degree-2 place exists: no fiber over F_16 is
    # scanned once the rational places are known
    E = EllipticCurve(canonical_extension(prime_field(2), 2), 0, 0, 1, 0, 0)
    assert len(E.rational_places()) == 9

    def no_scan(self, d):
        raise AssertionError("scanned the degree-%d places" % d)
    monkeypatch.setattr(EllipticCurve, "_place_scan", no_scan)
    with pytest.raises(ccma.ConstructionError, match="^the curve has no degree-2 place$"):
        ccma.construct_case1(4, 2, E)


@pytest.mark.parametrize("q", [2, 4, 9])
def test_candidate_divisors_are_distinct_and_of_the_target_degree(q):
    F = gf.canonical_field(q)
    for curve in [ProjectiveLine(F)] + [entry.curve for entry in best_stat_curves(F)]:
        for target in range(1, 7):
            ds = list(ccma._candidate_divisors(curve, target))
            assert len(set(ds)) == len(ds), (curve, target)
            assert all(D.degree == target for D in ds), (curve, target)


RETEST_SCRIPT = """
import collections
import itertools
from curvemul import ccma, gf
tested = collections.Counter()
is_irreducible_raw = gf.is_irreducible_raw


def counting(F, coeffs):
    if F.size == 16 and len(coeffs) == 5:
        tested[tuple(coeffs)] += 1
    return is_irreducible_raw(F, coeffs)


gf.is_irreducible_raw = counting
steps = []
for step in (lambda: ccma.construct_case1(16, 4), lambda: ccma.construct_case1(16, 5),
             lambda: list(itertools.islice(gf.irreducibles(gf.canonical_field(16), 4), 6))):
    step()
    steps.append(set(tested))
    tested.clear()
again = sum(len(a & b) for a, b in itertools.combinations(steps, 2))
print(*map(len, steps), again)
"""


def test_construct_16_5_after_16_4_retests_no_degree_4_candidate():
    # (16, 4) finds its degree-4 modulus in the shared stream of degree-4
    # places; (16, 5) pulls its first divisor's place, the same modulus, from
    # that stream and tests nothing; six places pulled afterwards test new
    # candidates, and no candidate is tested twice
    src = os.path.dirname(os.path.dirname(ccma.__file__))
    done = subprocess.run([sys.executable, "-c", RETEST_SCRIPT],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    first, second, third, again = map(int, done.stdout.split())
    assert first > 0 and second == 0 and third > 0 and again == 0


def test_construct_builds_each_space_once_per_divisor(monkeypatch):
    # case 3 on y^2 + y = x^3 over F_2 at n = 3 tries several Q against a
    # divisor, past the checks that let an attempt build L(2D)
    F2 = prime_field(2)
    plain = ccma.construct_case3(2, 3, EllipticCurve(F2, 0, 0, 1, 0, 0))
    built, tried = [], []
    riemann_roch, attempt = EllipticCurve.riemann_roch, ccma._attempt

    def counting_rr(self, D):
        built.append((self, D))
        return riemann_roch(self, D)

    def counting_attempt(tower, curve, case, D, *rest):
        tried.append(D)
        return attempt(tower, curve, case, D, *rest)
    monkeypatch.setattr(EllipticCurve, "riemann_roch", counting_rr)
    monkeypatch.setattr(ccma, "_attempt", counting_attempt)
    f = ccma.construct_case3(2, 3, EllipticCurve(F2, 0, 0, 1, 0, 0))
    assert f == plain
    assert max(collections.Counter(tried).values()) > 1
    assert any((curve, 2 * D) in built for curve, D in built)
    assert len(built) == len(set(built))


def test_compose_raises_on_corrupted_inner():
    inner = ccma.construct_case1(4, 2)
    with pytest.raises(ccma.VerificationError):
        ccma.compose(ccma.construct_case1(2, 2), corrupt_constant(inner))


def test_elliptic_construction_beats_bound_q3_n3():
    # on the N1=7 curve the theorem guarantees rank <= 2n+g-1 = 7; the
    # interpolation drops a zero term and lands on 6 (= 2n, eps(3) = 2 puts
    # n = 3 just outside the certified-exact window)
    from curvemul.function_field import best_stat_curves
    F3 = prime_field(3)
    entry = best_stat_curves(F3)[0]
    assert entry.n1 == 7
    f = ccma.construct_case1(3, 3, entry.curve)
    assert f.rank == 6 <= 7
    assert ccma.verify(f, "exhaustive").passed


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 1 << 21) | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=4),
    max_leaves=10)

@functools.cache
def _valid_dicts():
    return tuple(ccma.formula_to_dict(ccma.construct_case1(q, 2)) for q in (3, 4))


@st.composite
def formula_documents(draw):
    """Arbitrary JSON, or a valid formula file with one field replaced or removed."""
    if draw(st.booleans()):
        return draw(JSON_VALUES)
    doc = json.loads(json.dumps(draw(st.sampled_from(_valid_dicts()))))
    holder = draw(st.sampled_from([doc, doc["terms"][0], doc["ext_poly"], doc["terms"][0]["x_star"]]))
    key = draw(st.sampled_from(sorted(holder) if isinstance(holder, dict)
                               else range(len(holder))))
    if isinstance(holder, dict) and draw(st.booleans()):
        del holder[key]
    else:
        holder[key] = draw(JSON_VALUES)
    return doc


@settings(max_examples=300, deadline=None)
@given(formula_documents())
def test_formula_from_dict_fuzz(doc):
    # malformed formula files are rejected with ValueError or KeyError only,
    # which the CLI maps to exit 3
    try:
        f = ccma.formula_from_dict(doc)
    except (ValueError, KeyError):
        return
    assert f.rank == doc["rank"]
