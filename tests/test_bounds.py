import math
import types
from fractions import Fraction

import pytest

from curvemul import bounds, ccma
from curvemul.function_field import best_stat_curves
from curvemul.gf import canonical_field, factor_prime_power, PostconditionError


def _prime_powers(limit):
    out = []
    for q in range(2, limit + 1):
        try:
            factor_prime_power(q)
            out.append(q)
        except ValueError:
            pass
    return out


def test_epsilon():
    assert bounds.epsilon(9) == 6
    assert bounds.epsilon(5) == 4
    assert bounds.epsilon(2) == 1
    assert bounds.epsilon(4) == 4
    assert bounds.epsilon(7) == 5
    assert bounds.epsilon(8) == 5
    assert bounds.epsilon(13) == 7
    # brute-force oracle: largest k <= 2 sqrt(q) with gcd(k, q) = 1
    for q in _prime_powers(64):
        r = math.isqrt(q)
        if r * r == q:
            assert bounds.epsilon(q) == 2 * r
        else:
            best = max(k for k in range(1, math.isqrt(4 * q) + 1) if math.gcd(k, q) == 1)
            assert bounds.epsilon(q) == best


def test_exact_small():
    assert bounds.exact_small(4, 3) == 5
    assert bounds.exact_small(5, 4) == 8
    assert bounds.exact_small(2, 5) is None
    assert bounds.exact_small(2, 1) == 1
    assert bounds.exact_small(2, 2) == 3     # mu_sym(2) = 3 for any q
    assert bounds.exact_small(3, 2) == 3
    assert bounds.exact_small(13, 8) == 16   # Shokrollahi range


def test_sufficient_place_condition_exact():
    # float oracle away from boundaries, plus exact boundary cases
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25):
        for n in range(2, 8):
            for g in (0, 1, 2, 5):
                exact = bounds.sufficient_place_condition(q, n, g)
                approx = 2 * g + 1 <= q ** ((n - 1) / 2) * (math.sqrt(q) - 1) + 1e-9
                approx_strict = 2 * g + 1 <= q ** ((n - 1) / 2) * (math.sqrt(q) - 1) - 1e-9
                if approx == approx_strict:  # not near the boundary
                    assert exact == approx, (q, n, g)
    # exact boundary: q=4, n=3, g=...: 4(2-1)=4 >= 2g+1 iff g <= 1.5
    assert bounds.sufficient_place_condition(4, 3, 1)      # 3 <= 4
    assert not bounds.sufficient_place_condition(4, 3, 2)  # 5 > 4


def test_theorem2_bounds_cases():
    r = bounds.theorem2_bounds(4, 4, {"g": 1, "n1": 9, "n2": 0, "nonspecial_available": True})
    assert (1, 8) in r
    r = bounds.theorem2_bounds(2, 3, {"g": 0, "n1": 3, "n2": 1, "nonspecial_available": True})
    assert (3, 9) in r and (1, 7) not in r
    assert bounds.theorem2_bounds(2, 5, {"g": 0, "n1": 3, "n2": 1,
                                         "nonspecial_available": True}) == []
    # case 2 requires the nonspecial divisor; real curve so the degree-n
    # place is certified constructively (the sufficient condition fails here)
    from curvemul.gf import prime_field
    from curvemul.function_field import EllipticCurve
    E = EllipticCurve(prime_field(2), 0, 0, 1, 0, 0)
    stats = {"g": 1, "n1": 3, "n2": 3, "nonspecial_available": True}
    with_ns = bounds.theorem2_bounds(2, 3, stats, curve=E)
    stats_no = dict(stats, nonspecial_available=False)
    without = bounds.theorem2_bounds(2, 3, stats_no, curve=E)
    assert (2, 12) in with_ns and all(case != 2 for case, _ in without)


def test_witness_degree():
    assert bounds.witness_degree(100, 20, Fraction(1, 10)) == 28
    assert bounds.witness_degree(9, 1, 0) == 3
    g = 7
    eps = Fraction(1, 3)
    n1 = 2 * g * (1 + eps)
    assert bounds.witness_degree(n1, g, eps) == 0


def test_drinfeld_vladut():
    assert bounds.drinfeld_vladut(16) == (3, True)
    assert bounds.drinfeld_vladut(4) == (1, True)
    v, attained = bounds.drinfeld_vladut(7)
    assert not attained and abs(v - (math.sqrt(7) - 1)) < 1e-12


def test_best_bound_examples():
    c = bounds.best_bound(2, 2)
    assert c.value == 3 and c.method == "winograd-exact"
    c = bounds.best_bound(2, 4)
    assert c.value <= 9 and c.method == "composition"
    assert [(ch.q, ch.n, ch.value) for ch in c.children] == [(2, 2, 3), (4, 2, 3)]
    c = bounds.best_bound(4, 4)
    assert c.value == 8 == bounds.exact_small(4, 4)


def test_best_bound_memo_key_resolves_defaults():
    # one memo entry per (q, n, depth, construct) once "auto" is resolved,
    # however the arguments are spelled
    c = bounds.best_bound(2, 5)
    assert bounds.best_bound(2, 5, 2) is c
    assert bounds.best_bound(2, 5, depth=2, construct="auto") is c
    assert bounds.best_bound(2, 5, construct=True) is c
    assert bounds.best_bound(2, 5, construct=False) is not c


def test_best_bound_constructed_certificate():
    c = bounds.best_bound(2, 3)
    assert c.value == 6 and c.method == "constructed-formula"
    assert c.formula is not None and c.formula.rank == 6
    assert ccma.verify(c.formula, "exhaustive").passed


def test_best_bound_floor_and_exact_consistency():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25):
        n = 1
        while q ** (n + 1) <= (1 << 16):
            n += 1
            for construct in (False, True) if q ** n <= bounds.CONSTRUCT_SIZE_LIMIT else (False,):
                cert = bounds.best_bound(q, n, construct=construct)
                assert cert.value >= bounds.rank_floor(q, n), (q, n, cert)
                es = bounds.exact_small(q, n)
                if es is not None:
                    assert cert.value == es, (q, n)
    # the floor against the brute-force oracle: attained at (2, 2) and (3, 2),
    # and no formula of rank 5 at (2, 3), where 2n > q + 2 raises it to 6
    assert ccma.brute_force_symmetric_rank(2, 2, 4) == bounds.rank_floor(2, 2) == 3
    assert ccma.brute_force_symmetric_rank(3, 2, 4) == bounds.rank_floor(3, 2) == 3
    assert bounds.rank_floor(2, 3) == 6 and ccma.brute_force_symmetric_rank(2, 3, 5) is None


@pytest.fixture
def fresh_bounds():
    bounds._best_bound.cache_clear()
    yield
    bounds._best_bound.cache_clear()


@pytest.fixture
def builds(monkeypatch, fresh_bounds):
    """(builder, q, n, curve coefficients) of every ccma builder call."""
    calls = []
    for name in ("construct_case1", "construct_case3"):
        def counted(q, n, curve=None, *args, _build=getattr(ccma, name), _name=name, **kw):
            calls.append((_name, q, n, None if curve is None else curve.a))
            return _build(q, n, curve, *args, **kw)
        monkeypatch.setattr(ccma, name, counted)
    return calls


def test_best_bound_builds_only_formulas_that_can_win(builds):
    # theorem2-case1 already sits at the floor 6 and wins ties: nothing is built
    c = bounds.best_bound(3, 3, 3)
    assert (c.value, c.method) == (6, "theorem2-case1") and builds == []
    # the genus-0 case-3 formula reaches the floor; the rank-9 genus-1 one is skipped
    c = bounds.best_bound(2, 3, 3)
    assert (c.value, c.method) == (6, "constructed-formula")
    assert ("construct_case3", 2, 3, (0, 0, 1, 0, 0)) not in builds
    assert c.details["provenance"] == ccma.construct_case3(2, 3).provenance
    assert c.details["provenance"]["genus"] == 0
    # above the floor every builder runs on the line and on every catalogue curve
    curves = [None] + [e.curve.a for e in best_stat_curves(canonical_field(3))]
    for n, value in ((4, 9), (5, 12)):
        assert bounds.best_bound(3, n, 3).value == value
        assert [b for b in builds if b[1:3] == (3, n)] == [
            (name, 3, n, a) for name in ("construct_case1", "construct_case3") for a in curves]


def test_best_bound_below_rank_floor_raises(monkeypatch, fresh_bounds):
    # a verified formula below a proven lower bound means a broken verifier
    fake = types.SimpleNamespace(rank=2 * 3 - 2, provenance={})
    monkeypatch.setattr(ccma, "construct_case1", lambda q, n, curve=None: fake)
    with pytest.raises(PostconditionError):
        bounds.best_bound(2, 3, 3)
    with pytest.raises(PostconditionError):
        bounds.BoundCertificate(4, 4, 7, "theorem2-case1")


def test_exact_small_never_beaten_by_other_methods():
    # where the exact value is known, every other in-scope method is >= it
    for q, n in ((2, 2), (3, 2), (4, 2), (4, 3), (5, 4), (7, 4), (9, 4), (13, 8)):
        es = bounds.exact_small(q, n)
        stats0 = {"g": 0, "n1": q + 1, "n2": (q * q - q) // 2, "nonspecial_available": True}
        for _, v in bounds.theorem2_bounds(q, n, stats0):
            assert v >= es
        assert n * (n + 1) // 2 >= es
        for a in range(2, n):
            if n % a == 0 and q ** a <= (1 << 16):
                comp = (bounds.best_bound(q, a, construct=False).value
                        * bounds.best_bound(q ** a, n // a, construct=False).value)
                assert comp >= es


def test_theorem2_witnessed_by_construction():
    # whenever a formula is actually built on the same curve, its rank is
    # bounded by the certificate value
    from curvemul.gf import prime_field, canonical_extension
    from curvemul.function_field import curve_search
    F4 = canonical_extension(prime_field(2), 2)
    entry = curve_search(F4, 9)[0]
    vals = dict(bounds.theorem2_bounds(4, 4, {"g": 1, "n1": entry.n1, "n2": entry.n2,
                                              "nonspecial_available": True},
                                       curve=entry.curve))
    f = ccma.construct_case1(4, 4, entry.curve)
    assert f.rank <= vals[1]
    f23 = ccma.construct_case3(2, 3)
    vals23 = dict(bounds.theorem2_bounds(2, 3, {"g": 0, "n1": 3, "n2": 1,
                                                "nonspecial_available": True}))
    assert f23.rank <= vals23[3]


def test_asymptotic_records():
    recs = {(r.source, r.quantity): r.value for r in bounds.asymptotic_bounds(25)}
    assert recs[("Prop2", "M_sym")] == 3
    assert recs[("Cor1", "m_sym")] == 3
    assert recs[("Thm-square>=25", "m_sym")] == 2 * (1 + Fraction(1, 2)) == 3
    recs16 = {(r.source, r.quantity): r.value for r in bounds.asymptotic_bounds(16)}
    assert recs16[("Cor1", "m_sym")] == 4
    assert recs16[("Prop1", "m_sym")] == 4
    assert ("Thm-square>=25", "m_sym") not in recs16       # square but < 25
    assert ("Prop3", "M_sym") not in recs16                # even exponent
    for q in (4, 5, 7):
        rr = {r.source: r.value for r in bounds.asymptotic_bounds(q) if r.quantity == "m_sym"}
        assert rr["Cor2"] == 3 * (1 + Fraction(1, q - 3))
    r7 = {r.source: r.value for r in bounds.asymptotic_bounds(7)}
    assert r7["Prop3"] == Fraction(9, 2)
    # no m-records below their preconditions
    assert all(r.source != "Cor2" for r in bounds.asymptotic_bounds(3))
    assert all(r.source != "Prop3" for r in bounds.asymptotic_bounds(4))  # q >= 5


def test_asymptotic_values_finite_positive():
    for q in (4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 49, 64):
        for r in bounds.asymptotic_bounds(q):
            assert r.value > 0


def test_cacr_bounds():
    r5 = {r.source: r for r in bounds.cacr_bounds(5, 2)}
    assert r5["Eq5"].value == Fraction(24, 5)  # 8 * 24 / (2 * 20) = 4.8
    assert r5["Eq5"].params["mu"] == 8
    r7 = {r.source: r for r in bounds.cacr_bounds(7, 2)}
    assert r7["Eq5"].value == Fraction(42, 11)
    r16 = {r.source: r for r in bounds.cacr_bounds(16, 1)}
    assert r16["Eq7"].value == Fraction(45, 11)
    # known reference point: Eq6 at q=4, t=4 rounds to 3.56
    r44 = {r.source: r for r in bounds.cacr_bounds(4, 4)}
    assert bounds.round2(r44["Eq6"].value) == "3.56"
    # guard: q^t - 5 <= 0 suppresses the rational family
    r51 = {r.source: r for r in bounds.cacr_bounds(5, 1)}
    assert "Eq5" not in r51 and "Eq5-suppressed" in r51
    # Thm6 floating point at >= 15 significant digits
    r81 = {r.source: r for r in bounds.cacr_bounds(8, 1)}
    v = r81["Thm6-even"].value
    expected = 3 * (8 - 1) / (1 * (8 - 2 - math.log(2) / math.log(8)))
    assert abs(v - expected) < 1e-14 * abs(expected)


def test_eq7_equals_eq5_with_floor_mu():
    # Eq7 is Eq5 specialized at mu = 4t-1; with derived mu values Eq5 >= Eq7
    for q in _prime_powers(32):
        for t in (1, 2, 3, 4):
            if q ** t - 5 <= 0:
                continue
            qt = q ** t
            eq7 = Fraction((4 * t - 1) * (qt - 1), t * (qt - 5))
            eq5_floor = Fraction((4 * t - 1) * (qt - 1), t * (qt - 5))
            assert eq7 == eq5_floor
            if q ** (2 * t) <= (1 << 16):
                mu = bounds.best_bound(q, 2 * t, construct=False).value
                eq5 = Fraction(mu * (qt - 1), t * (qt - 5))
                assert eq5 >= eq7, (q, t)


def test_comparison_table_matches_paper():
    rows, crossover = bounds.comparison_table()
    assert [r.q for r in rows] == [5, 7, 8, 9, 11, 13]
    assert [bounds.round2(r.cor_iv8) for r in rows] == \
        ["4.80", "3.82", "3.74", "3.68", "3.62", "3.59"]
    assert [bounds.round2(r.prop3) for r in rows] == \
        ["6.00", "4.50", "4.20", "4.00", "3.75", "3.60"]
    assert all(r.winner == "cor_iv8" for r in rows)
    assert crossover["prop3_at_15"] == Fraction(7, 2)
    assert crossover["prop3_sharper_from_15"]
    # which (t, mu) pair achieves each minimum: q=5 uses mu(4)=8, others mu(4)=7
    assert rows[0].t_used == 2 and rows[0].mu_used == 8
    assert all(r.t_used == 2 and r.mu_used == 7 for r in rows[1:])


def test_comparison_table_bit_stable():
    a = bounds.render_comparison_table()
    b = bounds.render_comparison_table()
    assert a == b
    assert a.splitlines()[0] == "q,cor_iv8,prop3,winner"


def test_round2_half_up():
    assert bounds.round2(Fraction(479, 100)) == "4.79"
    assert bounds.round2(Fraction(4795, 1000)) == "4.80"  # tie rounds up
    assert bounds.round2(Fraction(42, 11)) == "3.82"
    assert bounds.round2(3) == "3.00"


def test_composition_certificate_invariant():
    with pytest.raises(ccma.VerificationError):
        bounds.BoundCertificate(2, 4, 10, "composition",
                                children=(bounds.best_bound(2, 2), bounds.best_bound(4, 2)))


def test_best_bound_depth_zero_disables_composition():
    cert = bounds.best_bound(2, 4, depth=0, construct=False)
    assert cert.method != "composition"
    assert cert.value >= bounds.best_bound(2, 4).value


def test_best_bound_depth_cap():
    with pytest.raises(ValueError):
        bounds.best_bound(2, 4, depth=4)
