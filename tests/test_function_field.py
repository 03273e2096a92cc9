import os
import random
import subprocess
import sys

import pytest

from curvemul import function_field, gf
from curvemul.gf import prime_field, canonical_extension
from curvemul.function_field import (ProjectiveLine, EllipticCurve, Divisor, Place,
                                     place_divisor, curve_search, best_stat_curves,
                                     catalog_rows, hasse_weil_max, solve_quadratic,
                                     degree_n_place_exists, BudgetExceededError,
                                     PoleEvaluationError)

from invariants import (check_place_partition, check_hasse, check_rr_random,
                        check_principality_agreement, check_eval_ring_hom,
                        weil_counts_from_n1, verify_rr_basis)

F2 = prime_field(2)
F3 = prime_field(3)
F4 = canonical_extension(F2, 2)

LINE2 = ProjectiveLine(F2)
E_SS = EllipticCurve(F2, 0, 0, 1, 0, 0)        # y^2 + y = x^3, supersingular
E_SS4 = EllipticCurve(F4, 0, 0, 1, 0, 0)       # its base change, maximal over F4


# --- places -----------------------------------------------------------------

def test_genus0_place_counts():
    assert len(LINE2.places(1)) == 3                      # x, x+1, infinity
    assert len(LINE2.places(2)) == 1                      # x^2+x+1
    for q, F in ((3, F3), (4, F4)):
        line = ProjectiveLine(F)
        assert len(line.places(1)) == q + 1
        assert len(line.places(2)) == (q * q - q) // 2


def test_genus1_place_counts():
    pls = E_SS.places(1)
    assert [p.kind for p in pls] == ["origin", "affine", "affine"]
    assert E_SS.point_count(1) == 3
    assert E_SS4.point_count(1) == 9 == hasse_weil_max(4)
    assert len(E_SS4.places(1)) == 9
    # degree-2 count = (#E(F_(q^2)) - #E(F_q)) / 2
    assert len(E_SS.places(2)) == (E_SS.point_count(2) - 3) // 2
    assert len(E_SS4.places(2)) == (E_SS4.point_count(2) - 9) // 2 == 0


def test_point_count_vs_weil_recursion():
    for E in (E_SS, E_SS4, EllipticCurve(F3, 0, 0, 0, 1, 0)):
        q = E.field.size
        counts = weil_counts_from_n1(q, E.point_count(1), 4)
        for k in range(1, 5):
            if q ** k > (1 << 16):
                break
            assert E.point_count(k) == counts[k - 1], (E, k)


def test_place_partition_identity():
    check_place_partition(LINE2, 4)
    check_place_partition(ProjectiveLine(F3), 4)
    check_place_partition(E_SS, 4)
    check_place_partition(E_SS4, 4)


def test_hasse_weil_bound_on_point_counts():
    import math
    for k in (1, 2, 3):
        q = 2 ** k
        assert abs(E_SS.point_count(k) - (q + 1)) <= math.isqrt(4 * q)


def test_budget_guard():
    with pytest.raises(BudgetExceededError):
        E_SS.point_count(25)


def test_fiber_solver_matches_curve_equation():
    rng = random.Random(3)
    for E in (E_SS4, EllipticCurve(prime_field(5), 0, 0, 0, 1, 1)):
        R = E.field
        a1, a2, a3, a4, a6 = E._coeffs_in(R)
        for x in range(R.size):
            ys = E.fiber(R, x)
            assert len(ys) == len(set(ys))
            for y in ys:
                lhs = R.add(R.mul(y, y), R.mul(y, R.add(R.mul(a1, x), a3)))
                x2 = R.mul(x, x)
                rhs = R.add(R.add(R.mul(x2, x), R.mul(a2, x2)), R.add(R.mul(a4, x), a6))
                assert lhs == rhs


# --- Riemann-Roch -----------------------------------------------------------

def test_rr_genus0_poles_at_infinity():
    B = LINE2.riemann_roch(Divisor({LINE2.infinite_place: 3}))
    assert B.dimension == 4
    assert [f.num.degree for f in B.functions] == [0, 1, 2, 3]
    assert all(f.den.degree == 0 for f in B.functions)
    verify_rr_basis(LINE2, B)


def test_rr_genus1_four_O():
    for E in (E_SS, E_SS4, EllipticCurve(F3, 0, 1, 0, 0, 2)):
        B = E.riemann_roch(Divisor({E.origin_place: 4}))
        assert B.dimension == 4
        # pole orders at O are exactly {0, 2, 3, 4}: 1, x, y, x^2
        orders = sorted(-f.ord_at(E.origin_place) for f in B.functions)
        assert orders == [0, 2, 3, 4]
        verify_rr_basis(E, B)


def test_rr_genus1_vanishing_constraint():
    P = next(p for p in E_SS.places(1) if p.kind == "affine")
    D = Divisor({E_SS.origin_place: 2, P: -1})
    B = E_SS.riemann_roch(D)
    assert B.dimension == 1
    f = B.functions[0]
    assert f.ord_at(P) >= 1


def test_rr_dim_zero_cases():
    line = LINE2
    B = line.riemann_roch(Divisor({line.infinite_place: -1}))
    assert B.dimension == 0
    P = next(p for p in E_SS.places(1) if p.kind == "affine")
    assert E_SS.riemann_roch(place_divisor(P) - place_divisor(E_SS.origin_place)).dimension == 0


def test_rr_random_divisors():
    rng = random.Random(77)
    check_rr_random(LINE2, rng, trials=15)
    check_rr_random(E_SS, rng, trials=15)
    check_rr_random(E_SS4, rng, trials=10)


# --- evaluation -------------------------------------------------------------

def test_eval_constant_and_residue():
    one = LINE2.riemann_roch(Divisor({})).functions[0]
    for pl in LINE2.places(1) + LINE2.places(2):
        assert one.eval_at(pl) == one.eval_at(pl).field.one()
    B = LINE2.riemann_roch(Divisor({LINE2.infinite_place: 1}))
    x_fn = B.functions[1]
    pl2 = LINE2.places(2)[0]
    v = x_fn.eval_at(pl2)
    assert v.field is F4 and v.val == (0, 1)  # class of x -> generator of F4


def test_eval_affine_and_origin():
    B = E_SS.riemann_roch(Divisor({E_SS.origin_place: 4}))
    one, x_fn, y_fn = B.functions[0], B.functions[1], B.functions[2]
    for p in E_SS.places(1):
        if p.kind == "affine":
            assert x_fn.eval_at(p).index == p.data[0]
            assert y_fn.eval_at(p).index == p.data[1]
    with pytest.raises(PoleEvaluationError):
        x_fn.eval_at(E_SS.origin_place)
    assert one.eval_at(E_SS.origin_place) == F2.one()


def test_eval_ring_homomorphism():
    rng = random.Random(5)
    check_eval_ring_hom(LINE2, rng, trials=25)
    check_eval_ring_hom(E_SS, rng, trials=25)


def test_eval_at_degree2_place_genus1():
    E = E_SS
    pl = E.places(2)[0]
    B = E.riemann_roch(Divisor({E.origin_place: 4}))
    x_fn, y_fn = B.functions[1], B.functions[2]
    # evaluation is the representative's coordinates in the residue field
    assert x_fn.eval_at(pl).index == pl.data[0]
    assert y_fn.eval_at(pl).index == pl.data[1]


# --- divisor classes --------------------------------------------------------

def test_principality_basics():
    O = E_SS.origin_place
    aff = [p for p in E_SS.places(1) if p.kind == "affine"]
    assert E_SS.divisor_class_is_principal(Divisor({}))
    assert not E_SS.divisor_class_is_principal(place_divisor(aff[0]) - place_divisor(O))
    P, Q = aff
    R = E_SS.add_points(F2, P.data, Q.data)
    D = place_divisor(P) + place_divisor(Q) - 2 * place_divisor(O)
    if R is not None:
        D = place_divisor(P) + place_divisor(Q) - place_divisor(Place(E_SS, 1, "affine", R)) \
            - place_divisor(O)
    assert E_SS.divisor_class_is_principal(D)


def test_principality_agreement_with_linear_algebra():
    rng = random.Random(99)
    check_principality_agreement(E_SS, rng, trials=100)
    check_principality_agreement(EllipticCurve(F3, 0, 0, 0, 1, 0), rng, trials=100)


def test_group_law_against_rr():
    # P + Q - (P#Q) - O is principal for every pair of rational points
    E = E_SS4
    aff = [p for p in E.places(1) if p.kind == "affine"]
    O = E.origin_place
    for P in aff[:4]:
        for Q in aff[:4]:
            S = E.add_points(E.field, P.data, Q.data)
            D = place_divisor(P) + place_divisor(Q) - 2 * place_divisor(O)
            if S is not None:
                D = (place_divisor(P) + place_divisor(Q)
                     - place_divisor(Place(E, 1, "affine", S)) - place_divisor(O))
            assert E.divisor_class_is_principal(D)
            assert E.riemann_roch(D).dimension == 1


# --- nonspecial divisors ----------------------------------------------------

def test_nonspecial_divisors():
    D0 = LINE2.find_nonspecial_divisor()
    assert D0.degree == -1 and LINE2.riemann_roch(D0).dimension == 0
    D1 = E_SS.find_nonspecial_divisor()
    assert D1.degree == 0 and E_SS.riemann_roch(D1).dimension == 0


def test_nonspecial_single_point_curve_has_none():
    # With E(F_q) = {O}, Pic^0 is trivial, so every degree-0 divisor is
    # principal and no nonspecial divisor of degree g-1 = 0 exists; the
    # degree-2-place fallback must fail honestly.
    from curvemul.function_field import UnsupportedDivisorError
    E = EllipticCurve(F2, 0, 0, 1, 1, 1)  # y^2 + y = x^3 + x + 1: only O rational
    assert E.point_count(1) == 1
    for p in E.places(2):
        D = place_divisor(p) - 2 * place_divisor(E.origin_place)
        assert E.divisor_class_is_principal(D)
        assert E.riemann_roch(D).dimension == 1
    with pytest.raises(UnsupportedDivisorError):
        E.find_nonspecial_divisor()


# --- catalog ----------------------------------------------------------------

def test_curve_search_q2():
    entries = curve_search(F2, 5)
    assert entries and entries[0].n1 == 5 == hasse_weil_max(2)
    assert curve_search(F2, 6) == []
    # sorted by N1 descending then coefficients
    all_entries = curve_search(F2, 0)
    key = [(-e.n1, e.curve.a) for e in all_entries]
    assert key == sorted(key)


def test_curve_search_q4_contains_maximal():
    entries = curve_search(F4, 9)
    assert any(e.curve.a == (0, 0, 1, 0, 0) for e in entries)
    assert all(e.n1 == 9 for e in entries)


def test_catalog_verified_against_hasse():
    for q, F in ((2, F2), (3, F3), (4, F4)):
        check_hasse(curve_search(F, 0), q)


def test_best_stat_curves():
    entries = best_stat_curves(F4)
    assert max(e.n1 for e in entries) == 9
    assert max(e.n1 + 2 * e.n2 for e in entries) == 25  # (q+1)^2 over F16


def test_catalog_rows_format():
    rows = catalog_rows(curve_search(F2, 5))
    assert rows[0].startswith("2,2,") and rows[0].endswith(",1,5,0")


def test_degree_n_place_certificates():
    assert degree_n_place_exists(LINE2, 7)
    # y^2+y = x^3 over F2 has #E(F16) = #E(F4) = 9: no degree-4 place at all
    assert not degree_n_place_exists(E_SS, 4)
    assert degree_n_place_exists(E_SS, 3)
    # its base change over F4 does have degree-4 places
    assert degree_n_place_exists(E_SS4, 4)
    # q=2: E with N1=5 has no degree-2 place iff counts say so
    E5 = curve_search(F2, 5)[0].curve
    n2 = (E5.point_count(2) - E5.point_count(1)) // 2
    assert degree_n_place_exists(E5, 2) == (n2 > 0)


def test_quadratic_solver_all_chars():
    rng = random.Random(1)
    for F in (F2, F3, F4, prime_field(5), canonical_extension(F3, 2)):
        for _ in range(50):
            a = rng.randrange(F.size)
            b = rng.randrange(F.size)
            ys = solve_quadratic(F, a, b)
            assert len(ys) == len(set(ys)) <= 2
            for y in ys:
                assert F.add(F.mul(y, y), F.mul(a, y)) == b
            # completeness: no solutions outside the returned set
            brute = [y for y in range(F.size)
                     if F.add(F.mul(y, y), F.mul(a, y)) == b]
            assert sorted(ys) == brute


# --- local expansion machinery, exercised through principal divisors --------

def test_principal_divisors_have_degree_zero():
    # div(x - c) and div(y - c) summed over all places of degree <= 3
    # (zeros live at degree <= deg(fiber) places, poles at the origin)
    from curvemul.gf import Polynomial, prime_field
    from curvemul.function_field import CurveFunction
    F5 = prime_field(5)
    curves = [E_SS, EllipticCurve(F3, 0, 0, 0, 1, 0),
              EllipticCurve(F3, 0, 1, 0, 0, 2), EllipticCurve(F5, 0, 0, 0, 1, 1)]
    for E in curves:
        F = E.field
        x = Polynomial(F, [0, 1])
        for c in range(F.size):
            const = Polynomial(F, [F.from_index(c)])
            for f in (CurveFunction(E, x - const, Polynomial(F, []), Polynomial(F, [1])),
                      CurveFunction(E, -const, Polynomial(F, [1]), Polynomial(F, [1]))):
                total = 0
                for d in (1, 2, 3):
                    for pl in E.places(d):
                        o = f.ord_at(pl)
                        if o is not None:
                            total += d * o
                assert total == 0, (E.a, c, total)


def test_eval_at_removable_singularity():
    # (m * x)/m and (m * y)/m look singular on the places over m's roots but
    # are regular there; evaluation must resolve them through expansions
    from curvemul.gf import Polynomial, prime_field
    from curvemul.function_field import CurveFunction
    F5 = prime_field(5)
    for E in (E_SS, EllipticCurve(F3, 0, 0, 0, 1, 0), EllipticCurve(F5, 0, 0, 0, 1, 1)):
        F = E.field
        x = Polynomial(F, [0, 1])
        for pl in E.places(1) + E.places(2):
            if pl.kind == "origin":
                continue
            m = E._norm_poly(pl)
            fx = CurveFunction(E, m * x, Polynomial(F, []), m)
            fy = CurveFunction(E, Polynomial(F, []), m, m)
            assert fx.eval_at(pl).index == pl.data[0]
            assert fy.eval_at(pl).index == pl.data[1]


def test_flip_place_involution():
    for E in (E_SS, E_SS4, EllipticCurve(F3, 0, 0, 0, 1, 0)):
        for d in (1, 2, 3):
            for pl in E.places(d):
                if pl.kind == "origin":
                    continue
                fl = E.flip_place(pl)
                assert fl.degree == pl.degree
                assert E.flip_place(fl) == pl


PLACE_COUNT_SCRIPT = """
import sys
from curvemul import function_field, gf
curve = function_field.EllipticCurve(gf.prime_field(2), 0, 0, 1, 0, 0)
try:
    function_field._place_count(curve, 2, {1: 3, 2: 4})
except gf.PostconditionError:
    sys.exit(0)
sys.exit(5)
"""


def test_place_count_inconsistent_counts_raise():
    # N2 - N1 = 1 points of degree 2 cannot form whole places
    with pytest.raises(gf.PostconditionError):
        function_field._place_count(E_SS, 2, {1: 3, 2: 4})
    assert function_field._place_count(E_SS, 2, {1: 3, 2: 5}) == 1
    # the check is not an assert, so python -O keeps it
    src = os.path.dirname(os.path.dirname(gf.__file__))
    done = subprocess.run([sys.executable, "-O", "-c", PLACE_COUNT_SCRIPT],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
