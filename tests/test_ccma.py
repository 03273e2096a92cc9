import functools
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from curvemul import ccma, gf
from curvemul.gf import FieldTower, prime_field, canonical_extension, find_irreducible
from curvemul.function_field import curve_search, BudgetExceededError


def schoolbook_formula(q, n):
    """n(n+1)/2-term symmetric schoolbook decomposition, any characteristic:
    terms (e_i*, e_i^2 - sum_(j != i) e_i e_j) and ((e_i + e_j)*, e_i e_j)."""
    tower = FieldTower.canonical(q, n)
    Fq, E = tower.base_field, tower.ext_field
    basis = [E.from_index(0) for _ in range(n)]
    for i in range(n):
        basis[i] = gf.FieldElement(E, tuple(Fq.one_index if k == i else 0 for k in range(n)))
    terms = []
    for i in range(n):
        c = basis[i] * basis[i]
        for j in range(n):
            if j != i:
                c = c - basis[i] * basis[j]
        form = tuple(Fq.one_index if k == i else 0 for k in range(n))
        terms.append((form, c.val))
    for i in range(n):
        for j in range(i + 1, n):
            form = tuple(Fq.one_index if k in (i, j) else 0 for k in range(n))
            terms.append((form, (basis[i] * basis[j]).val))
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


def _with_extra_term(f, form_index):
    """f plus the term (e_k*, 1) for k = form_index: wrong on a fraction of pairs."""
    Fq, E, n = f.tower.base_field, f.tower.ext_field, f.tower.n
    form = tuple(Fq.one_index if i == form_index else 0 for i in range(n))
    return ccma.SymmetricBilinearFormula(
        f.tower, f.terms + ((form, E.value_of(E.one_index)),), f.provenance)


@pytest.mark.parametrize("make", [
    lambda: _with_extra_term(schoolbook_formula(2, 9), 8),
    lambda: _with_extra_term(schoolbook_formula(3, 6), 2),
    lambda: corrupt_off_diagonal(ccma.construct_case1(16, 3)),
    lambda: ccma.construct_case1(16, 3),
], ids=["schoolbook-2-9", "schoolbook-3-6", "off-diagonal-16-3", "case1-16-3"])
def test_sampled_report_matches_apply_reference(make):
    f = make()
    assert f.tower.ext_field.size > ccma.EXHAUSTIVE_LIMIT
    for seed in range(8):
        rep = ccma.verify(f, "sampled", pairs=60, seed=seed)
        assert (rep.passed, rep.pairs_checked, rep.first_failure) == \
            _sampled_reference(f, 60, seed)
        assert rep.seed == seed


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


def test_brute_force_rank():
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
