import random

import pytest

from curvemul import gf
from curvemul.gf import (FieldTower, Polynomial, prime_field, extension,
                         canonical_extension, find_irreducible, embed, lift,
                         decode_element, LevelMismatchError, NotInSubfieldError)

from invariants import check_field_axioms, check_fermat

F2 = prime_field(2)
F3 = prime_field(3)
F4 = canonical_extension(F2, 2)
F8 = canonical_extension(F2, 3)
F9 = canonical_extension(F3, 2)
F16 = canonical_extension(F4, 2)


def test_find_irreducible_small_cases():
    assert find_irreducible(F2, 2).coeffs == (1, 1, 1)        # t^2+t+1
    assert find_irreducible(F2, 3).coeffs == (1, 1, 0, 1)     # t^3+t+1, lex-first
    assert find_irreducible(F3, 2).coeffs == (1, 0, 1)        # t^2+1, -1 a non-residue


def test_find_irreducible_deterministic():
    a = find_irreducible(F4, 3)
    b = find_irreducible(F4, 3)
    assert a == b and a.coeffs == b.coeffs


def test_find_irreducible_lex_first():
    # nothing smaller by encoding is irreducible
    t = find_irreducible(F2, 3)
    enc = sum(c * 2 ** i for i, c in enumerate(t.coeffs[:-1]))
    for k in range(enc):
        cand = gf._raw_from_int(F2, k, 3) + [1]
        assert not gf.is_irreducible_raw(F2, cand)


def test_f4_multiplication_forced_by_modulus():
    t = F4.from_index(2)
    assert t * t == t + 1


def test_inverse_axiom_exhaustive():
    for F in (F4, F8, F9):
        for a in F:
            if a:
                assert a * a.inverse() == F.one()


def test_zero_inverse_raises():
    with pytest.raises(ZeroDivisionError):
        F8.zero().inverse()


def test_frobenius_orbit_f8():
    t = F8.from_index(2)
    assert t.frobenius() == t ** 2
    assert t.frobenius(3) == t
    # orbit enumerated exhaustively: length divides 3
    for x in F8:
        orbit = {x}
        y = x.frobenius()
        while y != x:
            orbit.add(y)
            y = y.frobenius()
        assert len(orbit) in (1, 3)


def test_level_mismatch():
    with pytest.raises(LevelMismatchError):
        F4.from_index(1) + F8.from_index(1)


def test_embed_and_lift():
    one = F4.one()
    assert embed(one, F16) == F16.one()
    for a in F4:
        for b in F4:
            assert embed(a + b, F16) == embed(a, F16) + embed(b, F16)
            assert embed(a * b, F16) == embed(a, F16) * embed(b, F16)
    for a in F4:
        e = embed(a, F16)
        assert e ** 4 == e               # lands in the Frobenius fixed field
        assert lift(e) == a


def test_lift_outside_subfield():
    gen = F16.from_index(4)  # the generator of F16 over F4
    with pytest.raises(NotInSubfieldError):
        lift(gen)


def test_axioms_random_sweep():
    rng = random.Random(20240801)
    for F in (F2, F3, F4, F8, F9, F16,
              canonical_extension(prime_field(5), 2),
              canonical_extension(F2, 8),
              canonical_extension(prime_field(5), 4),   # 625
              canonical_extension(F4, 4)):              # 256
        check_field_axioms(F, rng, triples=1000)


def test_fermat_exhaustive():
    for F in (F2, F3, F4, F8, F9, F16, canonical_extension(prime_field(7), 2),
              canonical_extension(F4, 4)):
        check_fermat(F)


def test_irreducible_counts_necklace():
    for q, F, dmax in ((2, F2, 6), (3, F3, 6), (4, F4, 6), (8, F8, 4), (9, F9, 3), (16, F16, 3)):
        for d in range(1, dmax + 1):
            assert gf.count_irreducibles(F, d) == gf.necklace_count(q, d), (q, d)


def test_find_irreducible_pinned_higher_degrees():
    # lex-first moduli of canonical towers; formula files and tower keys
    # depend on them, so no change of irreducibility test may move them
    F16_canonical = canonical_extension(F2, 4)
    assert find_irreducible(F16_canonical, 4).coeffs == (4, 2, 1, 0, 1)
    assert find_irreducible(F16_canonical, 5).coeffs == (2, 0, 0, 0, 0, 1)
    assert find_irreducible(F16_canonical, 6).coeffs == (13, 2, 1, 0, 0, 0, 1)
    assert find_irreducible(F9, 5).coeffs == (4, 1, 0, 0, 0, 1)
    assert find_irreducible(F9, 6).coeffs == (4, 0, 1, 0, 0, 0, 1)


def test_polynomial_arithmetic():
    x = Polynomial(F4, [0, 1])
    p = (x + 1) * (x + F4.from_index(2))
    q, r = divmod(p, x + 1)
    assert r.is_zero() and q == x + F4.from_index(2)
    assert p.gcd(x + 1).degree == 1
    assert p(F4.from_index(3)) == (F4.from_index(3) + 1) * (F4.from_index(3) + F4.from_index(2))


def test_polynomial_eval_in_extension():
    pi = find_irreducible(F2, 2)
    root = next(x for x in F4 if not pi(x))
    assert pi(root) == F4.zero()
    assert root.val == (0, 1)  # the canonical generator is its first root


def test_element_encoding_round_trip():
    for F in (F2, F4, F16):
        for x in F:
            assert decode_element(F, x.encode()) == x
            assert F.from_index(x.index) == x


def test_scalar_and_coercion():
    assert F4.scalar(3).index == 1  # 3 mod 2
    assert F9.scalar(4) == F9.one() + F9.one() + F9.one() + F9.one()
    assert F4.from_index(2) * 1 == F4.from_index(2)


def test_tower_construction_and_validation():
    tw = FieldTower.canonical(4, 4)
    assert tw.q == 4 and tw.n == 4 and tw.ext_field.size == 256
    with pytest.raises(ValueError):
        FieldTower(4, None, find_irreducible(F2, 2))  # 4 is not prime
    with pytest.raises(ValueError):
        FieldTower(2, Polynomial(F2, [1, 0, 1]), find_irreducible(F4, 2))  # t^2+1 reducible


def test_tower_equality_and_serialization():
    a = FieldTower.canonical(4, 2)
    b = FieldTower.canonical(4, 2)
    assert a == b and hash(a) == hash(b)
    assert a.base_poly.encode() == [1, 1, 1]


def test_interning():
    assert canonical_extension(F2, 2) is F4
    assert extension(F2, (1, 1, 1)) is F4


def _check_index_ops(E, pairs):
    """E's index ops against the value ops on the given index pairs, and its
    unary ops on every element."""
    val, idx = E.value_of, E.index_of
    for i, j in pairs:
        a, b = val(i), val(j)
        assert E.mul(i, j) == idx(E.vmul(a, b)), (E, i, j)
        assert E.add(i, j) == idx(E.vadd(a, b)), (E, i, j)
        assert E.sub(i, j) == idx(E.vsub(a, b)), (E, i, j)
    for i in range(E.size):
        assert E.neg(i) == idx(E.vneg(val(i))), (E, i)
        if i:
            assert E.inv(i) == idx(E.vinv(val(i))), (E, i)


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (2, 4), (5, 2), (7, 2), (3, 5), (2, 8),
                                 (16, 2), (9, 2)])
def test_table_ops_match_value_ops_on_every_pair(q, n):
    E = FieldTower.canonical(q, n).ext_field
    _check_index_ops(E, ((i, j) for i in range(E.size) for j in range(E.size)))
    assert E._log is not None  # answered from the exp/log tables


def test_table_ops_match_value_ops_f512_every_element():
    E = FieldTower.canonical(2, 9).ext_field
    rng = random.Random(5)
    _check_index_ops(E, [(i, rng.randrange(E.size)) for i in range(E.size) for _ in range(8)])
    assert E._log is not None


@pytest.mark.parametrize("q,n", [(3, 6), (16, 3)])
def test_table_ops_match_value_ops_sampled(q, n):
    E = FieldTower.canonical(q, n).ext_field
    rng = random.Random(7)
    _check_index_ops(E, [(rng.randrange(E.size), rng.randrange(E.size)) for _ in range(20000)])
    assert E._log is not None


def test_no_tables_above_limit():
    E = FieldTower.canonical(2, 17).ext_field
    assert E.size > gf.TABLE_LIMIT
    x, y = 12345, 67890
    assert E.mul(x, y) == E.index_of(E.vmul(E.value_of(x), E.value_of(y)))
    assert E.mul(E.inv(x), x) == E.one_index
    assert E._log is None
