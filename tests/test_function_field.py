import itertools
import os
import random
import subprocess
import sys
import time

import pytest

from curvemul import function_field, gf
from curvemul.gf import Polynomial, prime_field, canonical_extension, embed
from curvemul.function_field import (ProjectiveLine, EllipticCurve, Divisor, Place,
                                     RationalFunction, CurveFunction,
                                     place_divisor, curve_search, best_stat_curves,
                                     catalog_rows, hasse_weil_max, solve_quadratic,
                                     degree_n_place_count, weil_count,
                                     BudgetExceededError, PoleEvaluationError)

from invariants import (check_place_partition, check_hasse, check_rr_random,
                        check_principality_agreement, check_eval_ring_hom,
                        verify_rr_basis, branch_reference, poly_on_series,
                        oracle_ord, oracle_eval, weierstrass_family, nonsingular_curves,
                        sweep_reference, best_stat_reference)

F2 = prime_field(2)
F3 = prime_field(3)
F4 = canonical_extension(F2, 2)

LINE2 = ProjectiveLine(F2)
E_SS = EllipticCurve(F2, 0, 0, 1, 0, 0)        # y^2 + y = x^3, supersingular
E_SS4 = EllipticCurve(F4, 0, 0, 1, 0, 0)       # its base change, maximal over F4


# --- places -----------------------------------------------------------------

def test_elliptic_places_scan_each_fiber_once(monkeypatch):
    # one scan per degree is kept on the curve: a second places(d), and the
    # rational places, solve no fiber
    E = EllipticCurve(F4, 0, 0, 1, 1, 0)
    solved = []
    fiber = EllipticCurve.fiber

    def counting(self, R, x):
        solved.append((R, x))
        return fiber(self, R, x)
    monkeypatch.setattr(EllipticCurve, "fiber", counting)
    first = {d: E.places(d) for d in (1, 2, 3)}
    assert len(solved) == len(set(solved)) == 4 + 16 + 64
    assert {d: E.places(d) for d in (1, 2, 3)} == first
    assert E.rational_places() == first[1] and next(E.iter_places(2)) == first[2][0]
    assert len(solved) == 4 + 16 + 64


def test_genus0_residue_roots_shared_between_lines(monkeypatch):
    # the residue identification of a place is memoised per (field, place
    # polynomial), not per line: _construct makes a fresh line on every call
    F16 = canonical_extension(F4, 2)
    raw = list(itertools.islice(gf.irreducibles(F16, 4), 2))[1]  # not the modulus
    function_field._place_root.cache_clear()
    calls, roots = [], gf.roots

    def counting(R, f):
        calls.append(f)
        return roots(R, f)
    monkeypatch.setattr(gf, "roots", counting)
    x = RationalFunction(F16, Polynomial(F16, [0, 1]), Polynomial(F16, [1]))
    a, b = ProjectiveLine(F16), ProjectiveLine(F16)
    values = [x.eval_at(Place(line, 4, "poly", raw)) for line in (a, b)]
    assert values[0] == values[1] and calls == [raw]


def test_genus0_place_counts():
    assert len(LINE2.places(1)) == 3                      # x, x+1, infinity
    assert len(LINE2.places(2)) == 1                      # x^2+x+1
    for q, F in ((3, F3), (4, F4)):
        line = ProjectiveLine(F)
        assert len(line.places(1)) == q + 1
        assert len(line.places(2)) == (q * q - q) // 2


def test_line_point_count_enumerates_nothing():
    assert ProjectiveLine(F2).point_count(25) == 2 ** 25 + 1


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
        n1 = E.point_count(1)
        for k in range(1, 5):
            if q ** k > (1 << 16):
                break
            assert E.point_count(k) == weil_count(q, n1, k), (E, k)
    # every curve of the F2, F3 and F4 sweeps: the character sums over
    # F_(q^k) against the zeta function, and the catalog's N2 with it
    for q, F in ((2, F2), (3, F3), (4, F4)):
        for e in curve_search(F, 0):
            counts = [e.curve.point_count(k) for k in (1, 2, 3)]
            assert [weil_count(q, counts[0], k) for k in (1, 2, 3)] == counts, e
            assert e.n1 == counts[0] and e.n2 == (counts[1] - counts[0]) // 2, e


def _sweep_curves(F, step=1):
    """Every step-th nonsingular curve of F's Weierstrass family."""
    return list(nonsingular_curves(F, list(weierstrass_family(F))[::step]))


def _clear_point_count_memos():
    function_field._char_sum.cache_clear()
    function_field._odd_row.cache_clear()
    function_field._trace_columns.cache_clear()


def _assert_point_count_memos_within(q, fields):
    # at most q^3 character sums, q^2 rows (one per (b2, b4)) and q^2 trace
    # column sets per field counted over
    assert function_field._char_sum.cache_info().currsize <= fields * q ** 3
    assert function_field._odd_row.cache_info().currsize <= fields * q ** 2
    assert function_field._trace_columns.cache_info().currsize <= fields * q ** 2


@pytest.mark.parametrize("q", [3, 5, 7, 9, 25])
def test_odd_row_is_char_sum_where_nonsingular(q):
    # every (b2, b4, b6): the curve y^2 = x^3 + (b2/4) x^2 + (b4/2) x + b6/4
    # has exactly these invariants; its row entry is 0 where its
    # discriminant vanishes and 1 + q + the character sum elsewhere
    F = gf.canonical_field(q)
    half, quarter = F.inv(2), F.inv(4 % F.char)
    _clear_point_count_memos()
    for b2, b4 in itertools.product(range(q), repeat=2):
        row = function_field._odd_row(F, b2, b4)
        assert len(row) == q
        for b6 in range(q):
            E = function_field._curve(F, (0, F.mul(quarter, b2), 0, F.mul(half, b4),
                                          F.mul(quarter, b6)))
            assert E.b_invariants()[:3] == (b2, b4, b6)
            if E.discriminant() == 0:
                assert row[b6] == 0, (q, b2, b4, b6)
            else:
                assert row[b6] == 1 + q + function_field._char_sum(F, b2, b4, b6), (q, b2, b4, b6)
    _assert_point_count_memos_within(q, 1)


def test_odd_sweep_reads_rows_only(monkeypatch):
    # the p = 3 normal form gives every tuple a new (b2, b4, b6): the sweep
    # takes N1 from at most q^2 rows and makes no character-sum call
    F = gf.canonical_field(27)
    _clear_point_count_memos()

    def refused(*args):
        raise AssertionError("_char_sum called by the sweep")
    monkeypatch.setattr(function_field, "_char_sum", refused)
    assert len(curve_search(F, 0)) == 18954
    assert function_field._odd_row.cache_info().currsize == 27 ** 2


def test_point_count_matches_enumeration():
    # the character sums against the enumerative oracle `points`: every
    # curve of the full sweeps at k = 1, and at k = 2 for q <= 4
    for p, d in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3)):
        F = canonical_extension(prime_field(p), d)
        R2 = canonical_extension(F, 2)
        _clear_point_count_memos()
        for E in _sweep_curves(F):
            assert E.point_count(1) == 1 + len(E.points(F)), E
            if F.size <= 4:
                assert E.point_count(2) == 1 + len(E.points(R2)), E
        _assert_point_count_memos_within(F.size, 2 if F.size <= 4 else 1)  # R2 counts too


def _invariants_reference(F, a):
    """(b2, b4, b6, b8) and the discriminant by the full Weierstrass
    expressions, every constant multiplied in."""
    add, sub, mul, p = F.add, F.sub, F.mul, F.char
    a1, a2, a3, a4, a6 = a
    a11, a33 = mul(a1, a1), mul(a3, a3)
    b2 = add(a11, mul(4 % p, a2))
    b4 = add(mul(2 % p, a4), mul(a1, a3))
    b6 = add(a33, mul(4 % p, a6))
    b8 = sub(add(add(mul(a11, a6), mul(4 % p, mul(a2, a6))), mul(a2, a33)),
             add(mul(a1, mul(a3, a4)), mul(a4, a4)))
    disc = sub(mul(9 % p, mul(b2, mul(b4, b6))),
               add(add(mul(mul(b2, b2), b8), mul(8 % p, mul(b4, mul(b4, b4)))),
                   mul(27 % p, mul(b6, b6))))
    return (b2, b4, b6, b8), disc


def test_invariants_match_full_expressions():
    # every tuple of the full sweeps, singular ones included: skipping the
    # constants that vanish or are 1 mod p changes no value
    for p, d in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3)):
        F = canonical_extension(prime_field(p), d)
        for a in weierstrass_family(F):
            E = object.__new__(EllipticCurve)
            E.field, E.a = F, a
            assert (E.b_invariants(), E.discriminant()) == _invariants_reference(F, a), (F, a)


@pytest.mark.parametrize("p,d", [(3, 2), (2, 4), (5, 2), (3, 3), (2, 5), (7, 2), (2, 6)])
def test_point_count_matches_enumeration_normal_forms(p, d):
    # F_9, F_16, F_25, F_27, F_32, F_49 and F_64: a deterministic spread of
    # about 40 curves of each normal-form family
    F = canonical_extension(prime_field(p), d)
    family = list(weierstrass_family(F))
    curves = _sweep_curves(F, max(1, len(family) // 40))
    assert len(curves) >= 30
    _clear_point_count_memos()
    for E in curves:
        assert E.point_count(1) == 1 + len(E.points(F)), E
    _assert_point_count_memos_within(F.size, 1)


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
        a1, a2, a3, a4, a6 = E.a
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
        orders = sorted(-oracle_ord(E, f, E.origin_place) for f in B.functions)
        assert orders == [0, 2, 3, 4]
        verify_rr_basis(E, B)


def test_rr_genus1_vanishing_constraint():
    P = next(p for p in E_SS.places(1) if p.kind == "affine")
    D = Divisor({E_SS.origin_place: 2, P: -1})
    B = E_SS.riemann_roch(D)
    assert B.dimension == 1
    f = B.functions[0]
    assert oracle_ord(E_SS, f, P) >= 1


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
        assert one.eval_at(pl) == pl.residue_field.one_index
    B = LINE2.riemann_roch(Divisor({LINE2.infinite_place: 1}))
    x_fn = B.functions[1]
    pl2 = LINE2.places(2)[0]
    v = x_fn.eval_at(pl2)
    assert pl2.residue_field is F4 and F4.value_of(v) == (0, 1)  # class of x -> generator of F4


def test_eval_affine_and_origin():
    B = E_SS.riemann_roch(Divisor({E_SS.origin_place: 4}))
    one, x_fn, y_fn = B.functions[0], B.functions[1], B.functions[2]
    for p in E_SS.places(1):
        if p.kind == "affine":
            assert x_fn.eval_at(p) == p.data[0]
            assert y_fn.eval_at(p) == p.data[1]
    with pytest.raises(PoleEvaluationError):
        x_fn.eval_at(E_SS.origin_place)
    assert one.eval_at(E_SS.origin_place) == F2.one_index


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
    assert x_fn.eval_at(pl) == pl.data[0]
    assert y_fn.eval_at(pl) == pl.data[1]


# --- local data: congruences over F_q[x] against the series oracle ---------

# y^2 + y = x^3 over F_2 and F_4 (never ramified: 2y + a3 = 1), the first
# catalogue curve over F_3 and over F_5, whose 2-torsion places of degree
# <= 3 are ramified over the x-line and take y - y0 as the local parameter,
# and the supersingular y^2 = x^3 + x over F_3, which has places of each kind
BRANCH_CURVES = {"E_SS": E_SS, "E_SS4": E_SS4,
                 "F3": curve_search(F3, 0)[0].curve,
                 "F5": curve_search(prime_field(5), 0)[0].curve,
                 "F3_ss": EllipticCurve(F3, 0, 0, 0, 1, 0)}
# the place kinds of degree <= 3: E_SS4 is maximal over F_4, so it has no
# degree-2 places, and a place of odd degree is never its own flip; the
# maximal catalogue curves over F_3 and F_5 have none either
BRANCH_KINDS = {"E_SS": {"generic", "own flip"}, "E_SS4": {"generic"},
                "F3": {"generic", "ramified"}, "F5": {"generic", "ramified"},
                "F3_ss": {"generic", "own flip", "ramified"}}


def _fresh_curve(name):
    """A new curve object, so that nothing of it is memoised yet."""
    E = BRANCH_CURVES[name]
    return EllipticCurve(E.field, *E.a)


def _affine_places(E):
    return [pl for d in (1, 2, 3) for pl in E.places(d) if pl.kind == "affine"]


def _kind(E, pl):
    _, v0, ramified = E._local(pl)
    return "own flip" if v0 is None else "ramified" if ramified else "generic"


def _value(evaluate, *args):
    try:
        return evaluate(*args)
    except PoleEvaluationError:
        return "pole"


@pytest.mark.parametrize("name", sorted(BRANCH_CURVES))
def test_branches_solve_the_curve_and_match_the_reference(name):
    # every affine place of degree <= 3: V solves the curve mod pi^e and is
    # the oracle's branch; Riemann-Roch bases around the place pass
    # verify_rr_basis; eval_at agrees with the series oracle on the L(4O)
    # basis and its products f, and on (m f)/m and f/m, where m is the
    # place's norm polynomial, so that the denominator vanishes there
    E = _fresh_curve(name)
    F = E.field
    h, f = E._hf()
    basis = E.riemann_roch(Divisor({E.origin_place: 4})).functions
    funcs = list(basis) + [g * k for g, k in itertools.combinations_with_replacement(basis, 2)]
    kinds = set()
    for pl in _affine_places(E):
        kind, (pi, v0, _) = _kind(E, pl), E._local(pl)
        kinds.add(kind)
        R = pl.residue_field
        assert pi.degree == (pl.degree if v0 is not None else pl.degree // 2)
        assert _horner(pi.coeffs, F, R.from_index(pl.data[0])) == 0
        if v0 is not None:
            assert v0.degree < pl.degree and v0(R.from_index(pl.data[0])).index == pl.data[1]
        if kind == "generic":
            e = 7
            V = E._branch(pl, e)
            assert ((V * V + h * V - f) % pi ** e).is_zero(), pl
            xs, ys = branch_reference(E, pl, e)  # t = x - x0
            assert poly_on_series(R, V.coeffs, xs).coeffs == ys.coeffs, pl
        O, flip = E.origin_place, E.flip_place(pl)
        for D in ({pl: 1}, {pl: 2, O: -1}, {pl: -1, O: 3 + pl.degree}, {flip: 1, pl: -1, O: 2}):
            verify_rr_basis(E, E.riemann_roch(Divisor(D)))  # odd and even e at pl
        m = E._norm_poly(pl)
        for g in funcs:
            for k in (g, CurveFunction(E, g.anum * m, g.bnum * m, m),
                      CurveFunction(E, g.anum, g.bnum, m)):
                assert (_value(k.eval_at, pl) == _value(oracle_eval, E, k, pl)), (pl, k.anum)
    assert kinds == BRANCH_KINDS[name]


@pytest.mark.parametrize("name", sorted(BRANCH_CURVES))
def test_branch_memo_order_does_not_matter(name):
    # the per-place local data and the branches it seeds are the same
    # whichever order places and precisions are asked for in; V mod pi^5
    # from a lift to pi^30 is the lift to pi^5
    up, down = _fresh_curve(name), _fresh_curve(name)
    ups, downs = _affine_places(up), _affine_places(down)[::-1]
    local_up = [up._local(p) for p in ups]
    local_down = [down._local(p) for p in downs][::-1]
    assert local_up == local_down
    for p_up, p_down in zip(ups, downs[::-1]):
        if _kind(up, p_up) == "generic":
            pi = up._local(p_up)[0]
            short_first = [up._branch(p_up, 5), up._branch(p_up, 30)]
            long_first = [down._branch(p_down, 30), down._branch(p_down, 5)][::-1]
            assert short_first == long_first, p_up
            assert short_first[1] % pi ** 5 == short_first[0], p_up


def _horner(coeffs, F, x):
    """The polynomial with F-index coefficients at x, with FieldElement
    arithmetic: the public path, kept apart from eval_at's index ops."""
    acc = x.field.zero()
    for c in reversed(coeffs):
        acc = acc * x + embed(F.from_index(c), x.field)
    return acc


def _random_poly(F, rng, degree):
    """A polynomial of exactly this degree with seeded coefficients."""
    return Polynomial(F, [F.from_index(rng.randrange(F.size)) for _ in range(degree)]
                      + [F.from_index(rng.randrange(1, F.size))])


@pytest.mark.parametrize("F", [F3, F4], ids=["F3", "F4"])
def test_eval_at_matches_field_element_reference_genus0(F):
    line = ProjectiveLine(F)
    rng = random.Random(F.size)
    places = line.places(2) + line.places(3)
    assert sum(pl.data != pl.residue_field.modulus for pl in places) > 2  # roots scanned
    checked = 0
    for pl in places:
        R = pl.residue_field
        if pl.data == R.modulus:
            rho = R.from_index(F.size)  # the generator t
            assert R.value_of(F.size) == (0, F.one_index) + (0,) * (R.deg - 2)
        else:
            rho = next(x for x in R if not _horner(pl.data, F, x))  # smallest root
        for _ in range(8):
            num, den = _random_poly(F, rng, rng.randrange(4)), _random_poly(F, rng, rng.randrange(4))
            den_v = _horner(den.coeffs, F, rho)
            if den_v:
                ref = _horner(num.coeffs, F, rho) / den_v
                assert RationalFunction(F, num, den).eval_at(pl) == ref.index, (pl, num, den)
                checked += 1
    assert checked > 5 * len(places)


@pytest.mark.parametrize("E,degrees", [(E_SS, (2, 3)), (E_SS4, (3,))], ids=["E_SS", "E_SS4"])
def test_eval_at_matches_field_element_reference_genus1(E, degrees):
    # E_SS4 is maximal over F4, so #E(F16) = #E(F4) and it has no degree-2
    # places; its degree-3 places (residue field F64) stand in for them
    F = E.field
    rng = random.Random(E.field.size)
    places = [pl for d in degrees for pl in E.places(d)]
    assert places
    checked = 0
    for pl in places:
        R = pl.residue_field
        xe, ye = R.from_index(pl.data[0]), R.from_index(pl.data[1])
        for _ in range(8):
            anum, bnum, den = (_random_poly(F, rng, rng.randrange(4)) for _ in range(3))
            den_v = _horner(den.coeffs, F, xe)
            if den_v:
                ref = (_horner(anum.coeffs, F, xe) + _horner(bnum.coeffs, F, xe) * ye) / den_v
                assert CurveFunction(E, anum, bnum, den).eval_at(pl) == ref.index, pl
                checked += 1
    assert checked > 5 * len(places)


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


def test_best_stat_curves_are_two_distinct_curves():
    # the CLI tries both catalogue curves in turn and relies on this: no
    # field below the catalogue limit has one curve that is both optima
    for q in range(2, function_field.CATALOG_Q_LIMIT + 1):
        try:
            F = gf.canonical_field(q)
        except ValueError:
            continue  # not a prime power
        a, b = best_stat_curves(F)
        assert a.curve is not b.curve and a.curve.a != b.curve.a, q


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49])
def test_sweep_matches_one_curve_at_a_time(q):
    # the per-prefix discriminant and N1 against the public constructor and
    # point_count on every tuple of the full sweeps (q <= 8) and of the
    # normal-form families: the same N1, no singular tuple, the family's order
    F = gf.canonical_field(q)
    reference = list(sweep_reference(F))
    assert list(function_field._sweep(F)) == reference
    entries = curve_search(F, 0)
    assert [(e.curve.a, e.n1) for e in entries] == sorted(reference, key=lambda t: (-t[1], t[0]))
    assert all(e.curve.discriminant() != 0 for e in entries)


def test_sweep_matches_one_curve_at_a_time_spread_64():
    # the whole ordinary family (its a6 = 0 tuples are singular) and a seeded
    # spread of the supersingular one; the sweep keeps the family's order
    F = gf.canonical_field(64)
    swept = dict(function_field._sweep(F))
    family = list(weierstrass_family(F))
    position = {c: i for i, c in enumerate(family)}
    order = [position[c] for c in swept]
    assert order == sorted(order)
    sample = family[:64 * 64] + random.Random(64).sample(family[64 * 64:], 2000)
    reference = dict(sweep_reference(F, sample))
    assert len(reference) == len(sample) - 64
    assert {c: swept.get(c) for c in sample} == {c: reference.get(c) for c in sample}


def test_best_stat_curves_match_one_curve_at_a_time():
    for q in range(2, function_field.CATALOG_Q_LIMIT + 1):
        try:
            F = gf.canonical_field(q)
        except ValueError:
            continue  # not a prime power
        entries = best_stat_curves(F)
        assert [(e.curve.a, e.n1) for e in entries] == best_stat_reference(F), q
        assert all(e.curve.discriminant() != 0 for e in entries), q


def test_weierstrass_coefficients_are_indices_or_elements():
    assert EllipticCurve(F4, 0, 0, F4.element(1), 0, 0).a == (0, 0, 1, 0, 0)
    for bad in (True, False, 4, -1, 1.0, "1"):
        with pytest.raises(ValueError, match="bad Weierstrass coefficient"):
            EllipticCurve(F4, 0, 0, bad, 0, 0)


def test_catalog_entries_build_curves_on_first_use():
    """An entry holds its field, coefficient indices and N1, and builds its
    curve once, on first .curve use; the export reads no curve.  The per-N1
    buckets come out in coefficient order also in characteristic 2 above
    q = 8, where the sweep runs the two normal forms one after the other."""
    F16 = gf.canonical_field(16)
    entries = curve_search(F16, 0)
    assert [(-e.n1, e.a) for e in entries] == sorted((-e.n1, e.a) for e in entries)
    catalog_rows(entries)
    assert all(e._curve is None for e in entries)
    e = entries[0]
    assert e.curve is e.curve and e.curve.field is F16 and e.curve.a == e.a


def test_catalog_rows_format():
    rows = catalog_rows(curve_search(F2, 5))
    assert rows[0].startswith("2,2,") and rows[0].endswith(",1,5,0")


def test_degree_n_place_certificates():
    def count(curve, n):
        return degree_n_place_count(curve.field.size, curve.point_count(1), n)
    # y^2+y = x^3 over F2 has #E(F16) = #E(F4) = 9: no degree-4 place at all
    assert count(E_SS, 4) == 0
    assert count(E_SS, 3) > 0
    # its base change over F4 does have degree-4 places
    assert count(E_SS4, 4) > 0
    # q=2: E with N1=5 has as many degree-2 places as its counts say
    E5 = curve_search(F2, 5)[0].curve
    n2 = (E5.point_count(2) - E5.point_count(1)) // 2
    assert count(E5, 2) == n2
    # counted from N1 alone, so no point budget: 4^11 = 2^22
    assert count(E_SS4, 11) > 0
    for curve in (E_SS, E_SS4, E5):
        q = curve.field.size
        n = 1
        while q ** n <= (1 << 12):
            assert count(curve, n) == len(curve.places(n)), (curve, n)
            n += 1


def test_place_count_over_the_divisors_of_n():
    # against the linear recurrence s_k = t s_(k-1) - q s_(k-2) and Moebius
    # inversion over every d < n, for every n <= 64, across the Hasse range
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25):
        top = hasse_weil_max(q)
        for n1 in sorted({2 * q + 2 - top, 2 * q + 3 - top, q + 1, top - 1, top}):
            t = q + 1 - n1
            s = [2, t]
            for _ in range(64):
                s.append(t * s[-1] - q * s[-2])
            places = [0]
            for d in range(1, 65):
                total = q ** d + 1 - s[d] - sum(e * places[e] for e in range(1, d) if d % e == 0)
                places.append(total // d)
                assert weil_count(q, n1, d) == q ** d + 1 - s[d], (q, n1, d)
                assert degree_n_place_count(q, n1, d) == places[d], (q, n1, d)
    # only the 36 divisors of 10^5 are counted, each by O(log d) products
    start = time.perf_counter()
    assert degree_n_place_count(2, 5, 100000) > 0
    assert time.perf_counter() - start < 0.1


def test_quadratic_solver_all_chars():
    # every right-hand side b, for every a (a spread of a over F_(16^2)),
    # against the solutions found by trying every y
    F16 = canonical_extension(F4, 2)
    for F in (F2, F3, F4, prime_field(5), canonical_extension(F3, 2), F16,
              canonical_extension(F16, 2), canonical_extension(prime_field(5), 2),
              canonical_extension(prime_field(7), 2)):
        for a in range(0, F.size, max(1, F.size // 16)):
            brute = {}
            for y in range(F.size):
                brute.setdefault(F.add(F.mul(y, y), F.mul(a, y)), []).append(y)
            for b in range(F.size):
                assert solve_quadratic(F, a, b) == brute.get(b, []), (F, a, b)


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
                        o = oracle_ord(E, f, pl)
                        if o is not None:
                            total += d * o
                assert total == 0, (E.a, c, total)


def test_eval_at_removable_singularity():
    # (m * x)/m and (m * y)/m look singular on the places over m's roots but
    # are regular there; evaluation must divide the numerator by m exactly
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
            assert fx.eval_at(pl) == pl.data[0]
            assert fy.eval_at(pl) == pl.data[1]


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
try:
    function_field._place_count(2, {1: 3, 2: 4})
except gf.PostconditionError:
    sys.exit(0)
sys.exit(5)
"""


def test_place_count_inconsistent_counts_raise():
    # N2 - N1 = 1 points of degree 2 cannot form whole places
    with pytest.raises(gf.PostconditionError):
        function_field._place_count(2, {1: 3, 2: 4})
    assert function_field._place_count(2, {1: 3, 2: 5}) == 1
    # the check is not an assert, so python -O keeps it
    src = os.path.dirname(os.path.dirname(gf.__file__))
    done = subprocess.run([sys.executable, "-O", "-c", PLACE_COUNT_SCRIPT],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
