"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime and asserting the stated tolerance and budget.

Run standalone (python tests/test_acceptance.py) or under pytest; the
standalone runner prints the per-criterion lines unconditionally.
"""

import random
import time
from fractions import Fraction

from curvemul import bounds, ccma, gf
from curvemul.gf import prime_field, canonical_extension, factor_prime_power
from curvemul.function_field import ProjectiveLine, EllipticCurve, curve_search

from invariants import (check_field_axioms, check_fermat, check_place_partition,
                        check_hasse, check_rr_random, check_principality_agreement,
                        check_eval_ring_hom, count_irreducibles, necklace_count)


class _Timer:
    def __init__(self, name, budget):
        self.name = name
        self.budget = budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print("ACCEPTANCE %s: %s (%.2fs, budget %.0fs)" % (self.name, status, dt, self.budget))
        if exc_type is None:
            assert dt < self.budget, "%s exceeded its runtime budget: %.2fs" % (self.name, dt)
        return False


def test_criterion_1_table_reproduction():
    """compare-table emits the published 12 entries exactly, 2 decimals."""
    with _Timer("1 (comparison table)", 5.0):
        rows, crossover = bounds.comparison_table()
        assert [r.q for r in rows] == [5, 7, 8, 9, 11, 13]
        assert [bounds.round2(r.cor_iv8) for r in rows] == \
            ["4.80", "3.82", "3.74", "3.68", "3.62", "3.59"]
        assert [bounds.round2(r.prop3) for r in rows] == \
            ["6.00", "4.50", "4.20", "4.00", "3.75", "3.60"]
        text = bounds.render_comparison_table()
        assert text.splitlines()[1:7] == [
            "5,4.80,6.00,cor_iv8", "7,3.82,4.50,cor_iv8", "8,3.74,4.20,cor_iv8",
            "9,3.68,4.00,cor_iv8", "11,3.62,3.75,cor_iv8", "13,3.59,3.60,cor_iv8"]
        assert crossover["prop3_sharper_from_15"]


def test_criterion_2_optimal_small_constructions():
    """q=16: every n <= 9 gives a verified genus-0 formula of rank 2n-1."""
    with _Timer("2 (q=16 optimal ranks)", 60.0):
        tower1 = gf.FieldTower.canonical(16, 1)
        f1 = ccma.identity_formula(tower1)
        assert f1.rank == 1 and ccma.verify(f1, "exhaustive").passed
        for n in range(2, 10):
            f = ccma.construct_case1(16, n)
            assert f.rank == 2 * n - 1, (n, f.rank)
            assert 2 * n <= 16 + 2  # inside the exactness range n <= q/2 + 1
            mode = "exhaustive" if 16 ** n <= 256 else "sampled"
            rep = ccma.verify(f, mode, pairs=10 ** 4, seed=0)
            assert rep.passed
            assert rep.pairs_checked == (256 * 256 if mode == "exhaustive" else 10 ** 4)


def test_criterion_3_elliptic_shokrollahi():
    """q=4, n=4 on an N1=9 catalog curve: verified rank 8 = 2n = exact_small."""
    with _Timer("3 (elliptic rank 2n)", 120.0):
        F4 = canonical_extension(prime_field(2), 2)
        entry = curve_search(F4, 9)[0]
        assert entry.n1 == 9
        f = ccma.construct_case1(4, 4, entry.curve)
        assert f.rank == 8
        rep = ccma.verify(f, "exhaustive")
        assert rep.passed and rep.pairs_checked == 65536
        assert bounds.exact_small(4, 4) == 8 == f.rank


def test_criterion_4_degree2_place_construction():
    """q=2, n=3: verified rank 6 via one degree-2 place costing 3.

    Exhaustive means all q^(2n) = 64 ordered pairs: F_8 has 8 elements, so
    64 is the entire product grid."""
    with _Timer("4 (degree-2 place)", 10.0):
        f = ccma.construct_case3(2, 3)
        assert f.rank == 6
        assert len(f.provenance["degree1_places"]) == 3
        assert len(f.provenance["degree2_places"]) == 1  # one place, three terms
        rep = ccma.verify(f, "exhaustive")
        assert rep.passed and rep.pairs_checked == 2 ** (2 * 3) == 64


def test_criterion_5_brute_force_agreement():
    """brute rank (2,2) and (3,2) are both 3 = mu_sym(2), matching the
    constructed formulas."""
    with _Timer("5 (brute-force oracle)", 300.0):
        for q in (2, 3):
            b = ccma.brute_force_symmetric_rank(q, 2, 4)
            assert b == 3
            f = ccma.construct_case1(q, 2)
            assert f.rank == b
            assert ccma.verify(f, "exhaustive").passed


def test_criterion_6_composition():
    """rank-3 x rank-3 composition gives a verified rank-9 formula for
    F16/F2; best_bound(2,4) <= 9 with a composition certificate."""
    with _Timer("6 (composition)", 5.0):
        outer = ccma.construct_case1(2, 2)
        inner = ccma.construct_case1(4, 2)
        comp = ccma.compose(outer, inner)
        assert comp.rank == 9
        assert ccma.verify(comp, "exhaustive").passed
        cert = bounds.best_bound(2, 4)
        assert cert.value <= 9 and cert.method == "composition"
        assert [(c.q, c.n) for c in cert.children] == [(2, 2), (4, 2)]
        assert cert.value == cert.children[0].value * cert.children[1].value


def test_criterion_7_asymptotic_formulas():
    """Exact rational values of the asymptotic records: M_sym bound 3 at
    q=25, m_sym bound 4 at q=16, the 3(1+1/(q-3)) spot values, and the
    square>=25 record 2(1+1/(sqrt(q)-3)) = 3 at q=25."""
    with _Timer("7 (asymptotic formulas)", 1.0):
        recs25 = {(r.source, r.quantity): r.value for r in bounds.asymptotic_bounds(25)}
        assert recs25[("Prop2", "M_sym")] == Fraction(3)
        assert recs25[("Thm-square>=25", "m_sym")] == 2 * (1 + Fraction(1, 5 - 3)) == 3
        recs16 = {(r.source, r.quantity): r.value for r in bounds.asymptotic_bounds(16)}
        assert recs16[("Cor1", "m_sym")] == Fraction(4)
        for q in (4, 5, 7):
            recs = {r.source: r.value for r in bounds.asymptotic_bounds(q)
                    if r.quantity == "m_sym"}
            assert recs["Cor2"] == 3 * (1 + Fraction(1, q - 3))


def test_criterion_8_property_suites():
    """The module invariants: lower-bound floor, exactness consistency,
    Hasse-Weil, Riemann-Roch dimensions, principality agreement, field
    axioms, and the decay-bound comparison."""
    with _Timer("8 (property suites)", 600.0):
        rng = random.Random(20260810)

        # gf invariants
        for F in (prime_field(2), prime_field(3), canonical_extension(prime_field(2), 2),
                  canonical_extension(prime_field(2), 3), canonical_extension(prime_field(3), 2),
                  canonical_extension(prime_field(2), 4), canonical_extension(prime_field(5), 2),
                  canonical_extension(canonical_extension(prime_field(2), 2), 4)):
            check_field_axioms(F, rng, triples=1000)
            check_fermat(F)
        for q in (2, 3, 4):
            F = canonical_extension(prime_field(factor_prime_power(q)[0]),
                                    factor_prime_power(q)[1])
            for d in range(1, 7):
                assert count_irreducibles(F, d) == necklace_count(q, d)
        assert gf.find_irreducible(prime_field(2), 4) == gf.find_irreducible(prime_field(2), 4)

        # function-field invariants
        F2, F3 = prime_field(2), prime_field(3)
        F4 = canonical_extension(F2, 2)
        line = ProjectiveLine(F2)
        E2 = EllipticCurve(F2, 0, 0, 1, 0, 0)
        E4 = EllipticCurve(F4, 0, 0, 1, 0, 0)
        E3 = EllipticCurve(F3, 0, 0, 0, 1, 0)
        for curve in (line, ProjectiveLine(F3), E2, E4, E3):
            check_place_partition(curve, 4)
        for q in (2, 3, 4, 5, 8, 9):
            p, s = factor_prime_power(q)
            F = canonical_extension(prime_field(p), s)
            check_hasse(curve_search(F, 0), q)
        check_rr_random(line, rng, trials=12)
        check_rr_random(E2, rng, trials=12)
        check_rr_random(E4, rng, trials=8)
        check_rr_random(E3, rng, trials=8)
        check_principality_agreement(E2, rng, trials=100)
        check_principality_agreement(E3, rng, trials=100)
        check_eval_ring_hom(line, rng, trials=25)
        check_eval_ring_hom(E2, rng, trials=25)

        # bounds invariants: 2n-1 floor and exactness consistency
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49, 64):
            n = 1
            while q ** (n + 1) <= (1 << 16):
                n += 1
                cert = bounds.best_bound(q, n, construct=False)
                assert cert.value >= 2 * n - 1, (q, n)
                es = bounds.exact_small(q, n)
                if es is not None:
                    assert cert.value == es, (q, n)

        # constructed ranks never beat certified theorem values
        f = ccma.construct_case1(4, 4, E4)
        cases = dict(bounds.theorem2_bounds(4, 4, {"g": 1, "n1": 9, "n2": 0,
                                                   "nonspecial_available": True}))
        assert f.rank <= cases[1]

        # Eq7 is the 4t-1 specialization of Eq5; derived mu keeps Eq5 >= Eq7
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32):
            for t in (1, 2, 3, 4):
                qt = q ** t
                if qt - 5 <= 0 or q ** (2 * t) > (1 << 16):
                    continue
                mu = bounds.best_bound(q, 2 * t, construct=False).value
                eq5 = Fraction(mu * (qt - 1), t * (qt - 5))
                eq7 = Fraction((4 * t - 1) * (qt - 1), t * (qt - 5))
                assert eq5 >= eq7, (q, t)

        # table output is bit-stable
        assert bounds.render_comparison_table() == bounds.render_comparison_table()


def run_all():
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion"):
            try:
                fn()
            except Exception as e:  # report every criterion even on failure
                failures += 1
                print("  -> %s" % (e,))
    return failures


if __name__ == "__main__":
    raise SystemExit(run_all())
