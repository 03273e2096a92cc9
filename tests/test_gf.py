import doctest
import random

import pytest

from curvemul import gf
from curvemul.gf import (FieldTower, Polynomial, prime_field, extension,
                         canonical_extension, find_irreducible, embed, lift,
                         LevelMismatchError, NotInSubfieldError)

from invariants import (check_field_axioms, check_fermat, count_irreducibles, irreducible_list,
                        necklace_count)

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


@pytest.mark.parametrize("F", [F2, F3, F4, F9], ids=["F2", "F3", "F4", "F9"])
@pytest.mark.parametrize("d", [2, 3])
def test_index_identity_across_levels(F, d):
    # an element keeps its index in the canonical extension, and exactly the
    # indices below |F| lift back
    R = canonical_extension(F, d)
    for c in range(F.size):
        assert embed(F.from_index(c), R).index == c
    for i in range(R.size):
        if i < F.size:
            assert lift(R.from_index(i)).index == i
        else:
            with pytest.raises(NotInSubfieldError):
                lift(R.from_index(i))


def test_polynomial_call_on_extension_elements():
    f = Polynomial(F4, [F4.from_index(2), F4.from_index(3), 1])
    for x in F16:
        ref = F16.zero()
        for c in reversed(f.coeffs):
            ref = ref * x + embed(F4.from_index(c), F16)
        assert f(x) == ref
    with pytest.raises(LevelMismatchError):
        f(canonical_extension(F2, 4).from_index(3))  # F_16 over F_2, not over F_4


def _uninterned(q, n):
    """A copy of the canonical F_(q^n) on which no index op has run yet."""
    canonical = FieldTower.canonical(q, n).ext_field
    return gf.ExtensionField(canonical.base, canonical.modulus)


@pytest.mark.parametrize("q,n", [(3, 5), (2, 8)])
def test_tables_deferred_until_size_ops(q, n):
    E = _uninterned(q, n)
    val, idx = E.value_of, E.index_of
    rng = random.Random(q)
    direct = E.direct_mul()  # reads and counts none of E's own tables
    assert all(direct(i, i + 1) == idx(E.vmul(val(i), val(i + 1))) for i in range(E.size - 1))
    assert E._log is None and E._untabled == 0
    ops = [(E.mul, E.vmul), (lambda i, j: E.inv(i), lambda a, b: E.vinv(a))]
    if E.char != 2:  # characteristic 2 adds and negates without tables
        ops += [(E.add, E.vadd), (lambda i, j: E.neg(i), lambda a, b: E.vneg(a))]
    for k in range(E.size // 4 + 50):  # the first size // 4 ops run without tables
        op, vop = ops[k % len(ops)]
        i, j = rng.randrange(1, E.size), rng.randrange(1, E.size)  # zero skips the tables
        assert op(i, j) == idx(vop(val(i), val(j))), (k, i, j)
        assert (E._log is None) == (k < E.size // 4), k


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
            assert count_irreducibles(F, d) == necklace_count(q, d), (q, d)


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


def test_polynomial_power_rejects_negative_exponents():
    x = Polynomial(F4, [0, 1])
    p = x + F4.from_index(2)
    assert p ** 0 == Polynomial(F4, [1])
    assert p ** 3 == p * p * p
    with pytest.raises(ValueError):
        p ** -1  # used to square the base forever


def test_polynomial_equals_int_as_constant_mod_p():
    # an int k is the constant polynomial k mod p, as FieldElement == k is
    # the index k mod p
    x = Polynomial(F4, [0, 1])
    assert Polynomial(F4, [1]) == 1 and F4.one() == 1
    assert Polynomial(F4, [1]) == 3 and Polynomial(F4, [1]) == -1
    assert Polynomial(F4, []) == 0 and Polynomial(F4, []) == 2
    assert Polynomial(F9, [2]) == 5 and Polynomial(F9, [2]) != 1
    t = Polynomial(F4, [F4.from_index(2)])
    assert t != 0 and t != 2 and t != 1  # the element of index 2 is no integer's image
    assert x != 0 and x != 1 and (x + 1) ** 0 == 1
    assert Polynomial(F4, [1]) != "1" and Polynomial(F4, [1]) != Polynomial(F2, [1])


def test_polynomial_eval_in_extension():
    pi = find_irreducible(F2, 2)
    root = next(x for x in F4 if not pi(x))
    assert pi(root) == F4.zero()
    assert F4.value_of(root.index) == (0, 1)  # the canonical generator is its first root


def test_element_encoding_round_trip():
    for F in (F2, F4, F16):
        for x in F:
            assert F.from_index(x.index) == x


def test_irreducibles_stream_matches_enumeration():
    # the memoised stream lists every monic irreducible in encoding order,
    # whether a caller pulled part of it first or not
    next(gf.irreducibles(F9, 3))
    for F, d in ((F2, 1), (F2, 5), (F3, 3), (F4, 3), (F9, 2), (F9, 3), (F16, 2)):
        want = irreducible_list(F, d)
        assert list(gf.irreducibles(F, d)) == want, (F, d)
        assert list(gf.irreducibles(F, d)) == want
        assert find_irreducible(F, d).coeffs == want[0]
    with pytest.raises(ValueError):
        gf.irreducibles(F2, 0)


def test_replay_pulls_each_item_once_and_replays_in_order():
    pulled = []

    def source():
        for k in range(4):
            pulled.append(k)
            yield k
    r = gf.Replay(source())
    a, b = iter(r), iter(r)
    assert (next(a), next(a), next(b)) == (0, 1, 0) and pulled == [0, 1]
    assert list(r) == [0, 1, 2, 3] and pulled == [0, 1, 2, 3]
    assert (list(a), list(b)) == ([2, 3], [1, 2, 3])


def test_replay_fails_loudly_after_its_source_raised():
    # a source that raised is over: every later pull past the items it gave
    # raises, chained from its error, rather than end the stream short
    def source():
        yield 0
        yield 1
        raise KeyError("third item")
    r = gf.Replay(source())
    with pytest.raises(KeyError):
        list(r)
    for _ in range(2):
        it = iter(r)
        assert (next(it), next(it)) == (0, 1)
        with pytest.raises(RuntimeError) as failed:
            next(it)
        assert isinstance(failed.value.__cause__, KeyError)


def test_interrupted_irreducible_scan_never_lists_fewer(monkeypatch):
    F = gf.PrimeField(3)  # not interned: a fresh key of the process-wide memo
    tested, is_irreducible_raw = [], gf.is_irreducible_raw

    def interrupted(field, cand):
        tested.append(cand)
        if len(tested) == 2:  # the root sieve leaves 3 full tests at degree 2
            raise KeyboardInterrupt
        return is_irreducible_raw(field, cand)
    monkeypatch.setattr(gf, "is_irreducible_raw", interrupted)
    with pytest.raises(KeyboardInterrupt):
        list(gf.irreducibles(F, 2))
    monkeypatch.undo()
    want = irreducible_list(F, 2)
    assert len(want) == 3
    try:
        listed = list(gf.irreducibles(F, 2))
    except RuntimeError:
        return
    assert listed == want


def test_char2_kernel_matches_generic_rabin(monkeypatch):
    # the exp/log kernel and the generic helpers run the same steps, so they
    # agree on every candidate; seeded random monic candidates, with their
    # products of two lower-degree ones to reach every early exit
    rng = random.Random(17)
    fields = (F2, F4, F16, canonical_extension(F2, 8))
    cases = []
    for F in fields:
        if F.base is not None:
            F.log_tables()
        assert gf._char2_logs(F) is not None
        for d in range(2, 9):
            for _ in range(24):
                cases.append((F, [rng.randrange(F.size) for _ in range(d)] + [1]))
            for e in (1, d // 2):
                a = [rng.randrange(F.size) for _ in range(e)] + [1]
                b = [rng.randrange(F.size) for _ in range(d - e)] + [1]
                cases.append((F, gf._pmul(F, a, b)))
    ran, rabin_char2 = [], gf._rabin_char2
    monkeypatch.setattr(gf, "_rabin_char2", lambda *a: ran.append(a) or rabin_char2(*a))
    kernel = [gf.is_irreducible_raw(F, c) for F, c in cases]
    assert len(ran) == len(cases)  # no silent fallback to the generic helpers
    monkeypatch.setattr(gf, "_char2_logs", lambda F: None)
    assert [gf.is_irreducible_raw(F, c) for F, c in cases] == kernel
    assert 50 < sum(kernel) < len(cases) - 200


def test_char2_kernel_never_builds_tables():
    # ExtensionField.__init__ validates moduli through is_irreducible_raw, so
    # asking for the kernel's tables must not build them
    F = gf.ExtensionField(F2, (1, 1, 0, 0, 1))  # F_16, not interned: no ops yet
    assert gf._char2_logs(F) is None and F._log is None
    F.log_tables()
    assert gf._char2_logs(F) == (F._exp, F._log)
    assert gf._char2_logs(canonical_extension(prime_field(2), 9)) is None  # above 256
    assert gf._char2_logs(F9) is None


def test_sieved_stream_matches_product_sieve():
    # fresh, uninterned fields: each stream is scanned here, from its first
    # candidate, through the root sieve and Rabin's test
    fields = ((gf.ExtensionField(F2, (1, 1, 1)), 4), (gf.ExtensionField(F2, (1, 1, 0, 1)), 4),
              (gf.PrimeField(3), 3), (gf.ExtensionField(F3, (1, 0, 1)), 3))
    for F, dmax in fields:
        for d in range(1, dmax + 1):
            assert list(gf.irreducibles(F, d)) == irreducible_list(F, d), (F, d)


def test_find_irreducible_pinned_wide_fields():
    # recorded before the root sieve and the characteristic-2 kernel existed;
    # the first irreducibles sit behind 32802 and 66056 candidates
    assert find_irreducible(canonical_extension(F2, 5), 8).coeffs == (2, 1, 0, 1, 0, 0, 0, 0, 1)
    assert find_irreducible(canonical_extension(F2, 8), 4).coeffs == (8, 2, 1, 0, 1)


def test_int_equality_does_not_share_keys():
    # an element or a constant polynomial equals the int k as the constant
    # k mod p, but hashes apart from it: the two must not share a key space
    one, poly = F4.one(), Polynomial(F4, [1])
    assert one == 1 and one == 3 and poly == 1 and F9.scalar(4) == 1
    assert one not in {1} and poly not in {1}
    result = doctest.testmod(gf)
    if result.failed or not result.attempted:  # not an assert: CI also runs under -O
        pytest.fail("gf doctests: %s" % (result,))


def test_scalar_and_coercion():
    assert F4.scalar(3).index == 1  # 3 mod 2
    assert F9.scalar(4) == F9.one() + F9.one() + F9.one() + F9.one()
    assert F4.from_index(2) * 1 == F4.from_index(2)


def test_tower_construction_and_validation():
    tw = FieldTower.canonical(4, 4)
    assert tw.q == 4 and tw.n == 4 and tw.ext_field.size == 256
    with pytest.raises(ValueError):
        FieldTower(4, None, find_irreducible(F2, 2))  # 4 is not prime
    with pytest.raises(ValueError, match="^base_poly must be monic irreducible$"):
        FieldTower(2, Polynomial(F2, [1, 0, 1]), find_irreducible(F4, 2))  # t^2+1 reducible
    with pytest.raises(ValueError, match="^ext_poly must be monic irreducible$"):
        FieldTower(2, (1, 1, 1), (2, 0, 1))  # t^2+2 has the root 3 in F4
    with pytest.raises(ValueError, match="^ext_poly must be monic irreducible$"):
        FieldTower(2, None, (1, 1, 1, 1))    # monic, but t^3+t^2+t+1 = (t+1)^3
    with pytest.raises(ValueError, match="^ext_poly must be monic irreducible$"):
        FieldTower(2, (1, 1, 1), (1, 2))     # not monic
    with pytest.raises(LevelMismatchError):
        FieldTower(2, (1, 1, 1), find_irreducible(F2, 2))  # ext_poly over GF(p), not GF(q)


def test_tower_equality_and_serialization():
    a = FieldTower.canonical(4, 2)
    b = FieldTower.canonical(4, 2)
    assert a == b and hash(a) == hash(b)
    assert FieldTower(*a.key()) == a


@pytest.mark.parametrize("q,n", [(4, 2), (16, 3), (9, 2), (2, 5), (3, 4)])
def test_tower_key_round_trip(q, n):
    # a key holds element indices, and a raw sequence is read as indices
    t = FieldTower.canonical(q, n)
    assert FieldTower(*t.key()) == t
    assert FieldTower(*t.key()).ext_field is t.ext_field


def test_raw_moduli_must_be_element_indices():
    # 5 is no index of F4, -1 is none either (not 1 or 3 mod p), and JSON
    # writes a bool as true/false
    for modulus in ((5, 0, 1), (-1, 1, 1), (True, 1, 1)):
        with pytest.raises(ValueError, match="element indices"):
            extension(F4, modulus)
        with pytest.raises(ValueError, match="^ext_poly must be monic irreducible$"):
            FieldTower(2, (1, 1, 1), modulus)
    with pytest.raises(ValueError):
        extension(F2, [1, 1.0, 1])


def test_interning():
    assert canonical_extension(F2, 2) is F4
    assert extension(F2, (1, 1, 1)) is F4


def _check_index_ops(E, pairs):
    """E's index ops and direct_mul (in characteristic 2 the kernel on
    indices) against the value ops on the given index pairs, and its unary
    ops on every element."""
    val, idx, direct = E.value_of, E.index_of, E.direct_mul()
    for i, j in pairs:
        a, b = val(i), val(j)
        assert E.mul(i, j) == direct(i, j) == idx(E.vmul(a, b)), (E, i, j)
        assert E.add(i, j) == idx(E.vadd(a, b)), (E, i, j)
        assert E.sub(i, j) == idx(E.vsub(a, b)), (E, i, j)
    for i in range(E.size):
        assert E.neg(i) == idx(E.vneg(val(i))), (E, i)
        if i:
            assert E.inv(i) == idx(E.vinv(val(i))), (E, i)


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (2, 4), (5, 2), (7, 2), (3, 5), (2, 8),
                                 (16, 2), (9, 2), (2, 3), (2, 5), (2, 6), (2, 7), (4, 2),
                                 (4, 3), (4, 4), (8, 2)])
def test_table_ops_match_value_ops_on_every_pair(q, n):
    E = FieldTower.canonical(q, n).ext_field
    _check_index_ops(E, ((i, j) for i in range(E.size) for j in range(E.size)))
    assert E._log is not None  # answered from the exp/log tables


def test_table_ops_match_value_ops_f512_every_element():
    # every element against 8 seeded partners in each characteristic-2 field
    # of 2^9 and 2^10 elements, over F_2, F_4, F_8 and F_32
    for q, n in [(2, 9), (8, 3), (2, 10), (4, 5), (32, 2)]:
        E = FieldTower.canonical(q, n).ext_field
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
    # E.mul is direct_mul here: the kernel on index digits of 1, 2, 4 and 8
    # bits in characteristic 2, vmul on values for F_(3^11)
    for q, n in [(2, 17), (16, 5), (2, 20), (4, 9), (256, 3), (3, 11)]:
        E = FieldTower.canonical(q, n).ext_field
        assert E.size > gf.TABLE_LIMIT
        x, y = 12345, 67890
        assert E.mul(x, y) == E.index_of(E.vmul(E.value_of(x), E.value_of(y)))
        assert E.mul(E.inv(x), x) == E.one_index
        rng = random.Random(q * n)
        pairs = [(rng.randrange(E.size), rng.randrange(E.size)) for _ in range(500)]
        pairs += [(0, y), (y, 0), (E.size - 1, E.size - 1)]
        direct = E.direct_mul()
        for i, j in pairs:
            want = E.index_of(E.vmul(E.value_of(i), E.value_of(j)))
            assert E.mul(i, j) == direct(i, j) == want, (E, i, j)
        assert E._log is None


def test_untabled_char2_products_run_on_the_kernel(monkeypatch):
    # below TABLE_LIMIT too, a characteristic-2 field multiplies on index
    # digits until its own tables exist, never through vmul on values
    E = _uninterned(2, 12)
    vmul, rng = E.vmul, random.Random(12)
    monkeypatch.setattr(E, "vmul", None)  # a call raises TypeError
    for _ in range(E.size // 4):
        i, j = rng.randrange(1, E.size), rng.randrange(1, E.size)
        assert E.mul(i, j) == E.index_of(vmul(E.value_of(i), E.value_of(j))), (i, j)
    assert E._log is None


@pytest.mark.parametrize("q,n,pairs", [(16, 5, 5625), (2, 20, 400), (16, 3, 2025), (2, 8, 64)])
def test_char2_kernel_on_every_single_digit_pair(q, n, pairs):
    """_char2_product against vmul on every pair (a t^u, b t^v) of elements
    with one nonzero digit.  The proof rests on one fact: the kernel's
    product of i and j is the XOR, over the pairs of nonzero digits a_u of i
    and b_v of j, of its products of a_u t^u and b_v t^v (one table entry
    each).  The product in E is F_2-bilinear and XOR is E's addition, so
    agreement on these pairs proves the kernel equal to vmul everywhere.
    The fact itself is checked on seeded pairs, which cross-check too."""
    E = FieldTower.canonical(q, n).ext_field
    B = E.base.size
    product = gf._char2_product(E, *E.base.log_tables())
    val, idx = E.value_of, E.index_of
    singles = [a * B ** u for u in range(E.deg) for a in range(1, B)]
    assert len(singles) ** 2 == pairs
    for i in singles:
        a = val(i)
        for j in singles:
            assert product(i, j) == idx(E.vmul(a, val(j))), (E, i, j)

    def digits(i):  # the single-digit summands a_u t^u of i
        return [i // B ** u % B * B ** u for u in range(E.deg) if i // B ** u % B]
    rng = random.Random(q * n)
    for _ in range(100):
        i, j = rng.randrange(E.size), rng.randrange(E.size)
        acc = 0
        for x in digits(i):
            for y in digits(j):
                acc ^= product(x, y)
        assert product(i, j) == acc == idx(E.vmul(val(i), val(j))), (E, i, j)


@pytest.mark.parametrize("make", [
    lambda: _uninterned(2, 8), lambda: _uninterned(2, 12), lambda: _uninterned(16, 3),
    lambda: _uninterned(3, 5), lambda: _uninterned(7, 2), lambda: _uninterned(5, 4),
    lambda: _uninterned(9, 4), lambda: _uninterned(4, 4),
    lambda: gf.ExtensionField(F16, canonical_extension(F16, 3).modulus),
], ids=["2-8", "2-12", "16-3", "3-5", "7-2", "5-4", "9-4", "4-4", "F2-F4-F16-3"])
def test_tables_match_the_tuple_chain(make):
    # _exp, _log and _zech of a fresh table field, walked by the F_p-linear
    # map x -> g*x, against the chain of powers by vmul from the smallest
    # primitive element, which is the smallest index whose powers reach 1
    # only after size - 1 steps.  The build makes no chain of products: only
    # the primitive search's powers (at most 2 log2(size) products per prime
    # factor of size - 1 and candidate) and the images of the degree units.
    E, calls = make(), 0
    direct = E.direct_mul()

    def counted(i, j):
        nonlocal calls
        calls += 1
        return direct(i, j)
    E._direct = counted
    exp, log = E.log_tables()
    m, one = E.size - 1, E.value_of(E.one_index)
    for g in range(1, E.size):
        powers, v = [one], E.value_of(g)
        while v != one:
            powers.append(v)
            v = E.vmul(v, powers[1])
        if len(powers) == m:
            break
    assert calls <= E.degree + g * len(gf._prime_factors(m)) * 2 * m.bit_length(), (E, calls)
    want_log = [0] * E.size
    for k, v in enumerate(powers):
        want_log[E.index_of(v)] = k
    assert list(exp) == [E.index_of(v) for v in powers] * 2
    assert list(log) == want_log
    if E.char == 2:
        assert E._zech is None
    else:
        assert list(E._zech) == [want_log[E.index_of(E.vadd(v, one))] for v in powers]


def test_table_builds_make_no_tuple_products(monkeypatch):
    # every level of a characteristic-2 tower, made fresh, builds its tables
    # on the kernel over its base's tables, never through vmul
    def refuse(*args):
        raise AssertionError("vmul called")
    for q, n in [(16, 3), (4, 4), (2, 12)]:
        tower = FieldTower.canonical(q, n)
        want = tower.ext_field.log_tables()
        with monkeypatch.context() as patch:
            patch.setattr(gf.ExtensionField, "vmul", refuse)
            base = tower.prime_field
            if tower.base_poly is not None:
                base = gf.ExtensionField(base, tower.base_field.modulus)
            E = gf.ExtensionField(base, tower.ext_field.modulus)
            assert E.log_tables() == want and base.log_tables() is not None


def _lanes_of(planes, count):
    """The integers whose bit j is lane k of plane j, for k < count."""
    return [sum((plane >> k & 1) << j for j, plane in enumerate(planes)) for k in range(count)]


def test_bit_planes_transpose_lanes():
    # lanes of 1, 3 and 9 bytes (72-bit values), little-endian whatever the
    # host's byte order; planes may be asked for in any order
    rng = random.Random(3)
    for width, count in ((1, 1), (1, 7), (3, 100), (9, 33)):
        values = [rng.getrandbits(8 * width) for _ in range(count)]
        lanes = b"".join(v.to_bytes(width, "little") for v in values)
        assert _lanes_of(gf.bit_planes(lanes, width, range(8 * width)), count) == values
        top = gf.bit_planes(lanes, width, [8 * width - 1])[0]
        assert top == sum((v >> (8 * width - 1)) << k for k, v in enumerate(values))
    assert gf.bit_planes(b"\x01\x00\x80", 1, [0, 7]) == [1, 4]


@pytest.mark.parametrize("q,n", [(2, 1), (2, 9), (4, 3), (16, 2), (16, 5), (8, 4), (256, 3),
                                 (256, 9), (2, 20)])
def test_sliced_product_matches_vmul(q, n):
    # lane by lane against the value product, over F_2, F_4, F_8, F_16 and
    # F_256 bases; F_q itself over F_2 as well
    E = FieldTower.canonical(q, n).ext_field
    rng = random.Random(q + n)
    count = 200
    xs = [rng.randrange(E.size) for _ in range(count)] + [0, E.size - 1]
    ys = [rng.randrange(E.size) for _ in range(count)] + [E.size - 1, E.size - 1]
    for F, a, b in ((E, xs, ys), (E.base, [x % q for x in xs], [y % q for y in ys])):
        if isinstance(F, gf.PrimeField):
            continue
        bits = F.degree
        plane = lambda vals, j: sum((v >> j & 1) << k for k, v in enumerate(vals))
        X = [plane(a, j) for j in range(bits)]
        Y = [plane(b, j) for j in range(bits)]
        got = _lanes_of(gf.sliced_product(F)(X, Y), len(a))
        assert got == [F.index_of(F.vmul(F.value_of(i), F.value_of(j))) for i, j in zip(a, b)], F


@pytest.mark.parametrize("q,n", [(2, 8), (2, 16), (16, 4), (256, 2), (4, 5)])
def test_sliced_product_on_every_bit_basis_pair(q, n):
    """sliced_product against vmul on every pair of one-bit elements, all in
    one block of lanes.  The proof rests on two facts: the product touches
    planes only by AND and XOR, so lane k of the output depends on lane k
    of X and Y alone; and each lane's product is F_2-bilinear in the bits
    of x and y.  The product in E is F_2-bilinear too, so agreement on the
    pairs (2^a, 2^b) proves sliced_product equal to vmul on every lane of
    every block, the 65536 lanes of an exhaustive scan included.
    Bilinearity itself is checked on seeded planes, which cross-check too."""
    E = FieldTower.canonical(q, n).ext_field  # flat over F_2 for q = 2
    bits, rng = E.degree, random.Random(q * n)
    product = gf.sliced_product(E)
    X = [sum(1 << a * bits + b for b in range(bits)) for a in range(bits)]  # lane a*bits + b
    Y = [sum(1 << a * bits + b for a in range(bits)) for b in range(bits)]  # holds (2^a, 2^b)
    want = [E.index_of(E.vmul(E.value_of(1 << a), E.value_of(1 << b)))
            for a in range(bits) for b in range(bits)]
    assert _lanes_of(product(X, Y), bits * bits) == want, E
    lanes = 64
    X, X2, Y = ([rng.getrandbits(lanes) for _ in range(bits)] for _ in range(3))
    both = [x ^ x2 for x, x2 in zip(X, X2)]
    assert product(both, Y) == [u ^ v for u, v in zip(product(X, Y), product(X2, Y))]
    assert product(X, Y) == product(Y, X)


def test_sliced_product_rejects_other_fields():
    for F in (FieldTower.canonical(3, 2).ext_field, canonical_extension(F16, 2)):
        with pytest.raises(ValueError):
            gf.sliced_product(F)


def _roots_by_scan(F, f):
    return [x for x in range(F.size) if not gf._peval(F, f, x)]


# (p, n, m): F_(p^n)'s modulus over F_p, and F_(p^(nm))'s modulus over F_(p^n)
# mapped into F_(p^(nm)) as compose maps it.  The first four are the
# benchmark's towers: 9 = (2,2)o(4,2), 27 = 9o(16,2), 45 = 9o(16,3) and
# 21 = (3,2)o(9,4).
ROOT_CASES = [(2, 2, 2), (2, 4, 2), (2, 4, 3), (3, 2, 4),
              (2, 2, 3), (2, 3, 2), (2, 2, 4), (2, 2, 5), (2, 5, 2), (2, 2, 6),
              (2, 6, 2), (2, 3, 4), (2, 3, 3), (3, 2, 2), (3, 2, 3), (3, 3, 2),
              (3, 4, 2), (5, 2, 2), (5, 2, 3), (5, 3, 2), (7, 2, 2), (11, 2, 2),
              (13, 2, 2)]


@pytest.mark.parametrize("p,n,m", ROOT_CASES)
def test_roots_match_scan_on_composition_moduli(p, n, m):
    E = FieldTower.canonical(p, n).ext_field
    C = FieldTower.canonical(p, n * m).ext_field
    outer = list(E.modulus)
    scan = _roots_by_scan(C, outer)
    assert len(scan) == n and gf.roots(C, outer) == scan
    # compose's iota: E's value v (F_p coefficients in t) goes to v(rho)
    rho = scan[0]
    inner = [gf._peval(C, E.value_of(c), rho) for c in find_irreducible(E, m).coeffs]
    scan = _roots_by_scan(C, inner)
    assert len(scan) == m and gf.roots(C, inner) == scan


@pytest.mark.parametrize("F", [F2, F3, F4, prime_field(5), F9], ids=repr)
@pytest.mark.parametrize("d", [2, 3])
def test_roots_match_scan_on_place_polynomials(F, d):
    # every monic irreducible of degree d, i.e. every genus-0 place of
    # degree d, in its residue field
    R = canonical_extension(F, d)
    count = 0
    for k in range(F.size ** d):
        f = gf._raw_from_int(F, k, d) + [F.one_index]
        if gf.is_irreducible_raw(F, f):
            scan = _roots_by_scan(R, f)
            assert len(scan) == d and gf.roots(R, f) == scan, (F, f)
            count += 1
    assert count == necklace_count(F.size, d)


def test_roots_small_degrees_and_rejects():
    assert gf.roots(F16, [5, 1]) == [5]
    assert gf.roots(F16, [1]) == []
    prod = gf._pmul(F16, gf._pmul(F16, [3, 1], [7, 1]), [12, 1])
    assert gf.roots(F16, prod) == [3, 7, 12]
    with pytest.raises(ValueError):
        gf.roots(F16, gf._pmul(F16, [3, 1], [3, 1]))  # repeated root
    with pytest.raises(ValueError):
        gf.roots(F4, list(find_irreducible(F4, 2).coeffs))  # no root in F4
    with pytest.raises(ValueError):
        gf.roots(F4, gf._pmul(F4, [2, 1], list(find_irreducible(F4, 3).coeffs)))


@pytest.mark.parametrize("q,n", [(3, 2), (5, 2), (7, 2), (2, 4)])
def test_sub_is_add_of_neg_on_every_pair(q, n):
    # in odd characteristic the first `size` ops of the copy run on values,
    # the rest on its tables; characteristic 2 subtracts by XOR
    E = _uninterned(q, n)
    for i in range(E.size):
        for j in range(E.size):
            assert E.sub(i, j) == E.add(i, E.neg(j)), (E, i, j)
    assert (E._log is not None) == (E.char != 2)


@pytest.mark.parametrize("q,n", [(3, 11), (7, 6), (2, 17)])
def test_sub_is_add_of_neg_above_table_limit(q, n):
    E = FieldTower.canonical(q, n).ext_field
    assert E.size > gf.TABLE_LIMIT
    rng = random.Random(q + n)
    pairs = [(rng.randrange(E.size), rng.randrange(E.size)) for _ in range(300)]
    for i, j in pairs + [(0, 5), (5, 0), (5, 5)]:
        assert E.sub(i, j) == E.add(i, E.neg(j)), (E, i, j)
    assert E._log is None


def _squares_by_scan(F):
    roots = {}
    for r in range(F.size):
        roots.setdefault(F.mul(r, r), []).append(r)
    return roots


@pytest.mark.parametrize("F", [F3, prime_field(13), prime_field(17), prime_field(257),
                               F9, canonical_extension(prime_field(5), 2),
                               canonical_extension(prime_field(7), 2)], ids=repr)
def test_sqrt_and_character_match_scan(F):
    # every element; p = 13, 17 and 257 put 2^2, 2^4 and 2^8 into p - 1,
    # so Tonelli-Shanks runs more than one round
    roots = _squares_by_scan(F)
    chi = gf.quadratic_character(F)
    for z in range(F.size):
        r = gf.sqrt(F, z)
        if z in roots:
            assert r in roots[z], (F, z)
            assert chi(z) == (1 if z else 0), (F, z)
        else:
            assert r is None and chi(z) == -1, (F, z)


def test_sqrt_before_tables_and_above_limit():
    # Tonelli-Shanks on a table field before it has its tables, and above
    # TABLE_LIMIT, checked by squaring; non-squares are r^2 times the
    # smallest non-square
    rng = random.Random(11)
    for F in (_uninterned(7, 2), FieldTower.canonical(3, 11).ext_field,
              FieldTower.canonical(7, 6).ext_field, FieldTower.canonical(9, 7).ext_field):
        chi = gf.quadratic_character(F)
        c = gf._nonsquare(F)
        assert chi(c) == -1 and all(chi(z) == 1 for z in range(1, c))
        for _ in range(20):
            r = rng.randrange(1, F.size)
            s = gf.sqrt(F, F.mul(r, r))
            assert s in (r, F.neg(r)), (F, r)
            assert gf.sqrt(F, F.mul(F.mul(r, r), c)) is None, (F, r)
            assert chi(F.mul(r, r)) == 1 and chi(F.mul(F.mul(r, r), c)) == -1, (F, r)
    with pytest.raises(ValueError):
        gf.sqrt(F4, 2)
    with pytest.raises(ValueError):
        gf.quadratic_character(F16)


def _element_test_field(kind, q, n):
    if kind == "untabled":
        return _uninterned(q, n)
    E = FieldTower.canonical(q, n).ext_field
    if kind == "table":
        E.log_tables()
    return E


def _vpow(E, a, e):
    """a^e on values by right-to-left square-and-multiply over vmul, an
    order of products unlike pow_'s."""
    if e < 0:
        a, e = E.vinv(a), -e
    r = E.value_of(E.one_index)
    while e:
        if e & 1:
            r = E.vmul(r, a)
        a = E.vmul(a, a)
        e >>= 1
    return r


@pytest.mark.parametrize("kind,q,n", [("table", 16, 2), ("table", 3, 5),
                                      ("untabled", 16, 3), ("untabled", 3, 8),
                                      ("above", 16, 5), ("above", 3, 11)])
def test_field_element_ops_match_value_ops(kind, q, n):
    # FieldElement runs on the index ops; the tuple value ops are the reference
    E = _element_test_field(kind, q, n)
    val, idx = E.value_of, E.index_of
    rng = random.Random(q * n)
    for _ in range(25):
        i, j = rng.randrange(E.size), rng.randrange(1, E.size)
        x, y = E.from_index(i), E.from_index(j)
        a, b = val(i), val(j)
        e = rng.randrange(-E.size, E.size)
        assert (x + y).index == idx(E.vadd(a, b))
        assert (x - y).index == idx(E.vsub(a, b))
        assert (x * y).index == idx(E.vmul(a, b))
        assert (x / y).index == idx(E.vmul(a, E.vinv(b)))
        assert (y ** e).index == idx(_vpow(E, b, e))
        assert y.inverse().index == idx(E.vinv(b))
        assert y.frobenius().index == idx(_vpow(E, b, E.char))
        assert y.frobenius(2).index == idx(_vpow(E, b, E.char ** 2))
        assert (-x).index == idx(E.vneg(a))
        # an int operand is the index k mod p, on either side
        k, s = rng.randrange(-9, 9), E.scalar(rng.randrange(-9, 9))
        assert (k + x).index == (x + k).index == idx(E.vadd(a, val(k % E.char)))
        assert (k - y).index == idx(E.vsub(val(k % E.char), b))
        assert (k * x).index == idx(E.vmul(val(k % E.char), a))
        assert (s.index / y).index == idx(E.vmul(val(s.index), E.vinv(b)))
        assert (x ** 0).index == E.one_index
    if kind == "untabled":
        assert E._log is None  # every op above ran on the untabled path
    zero = E.zero()
    for divide in (lambda: E.one() / zero, lambda: E.one() / 0, lambda: 1 / zero,
                   zero.inverse, lambda: zero ** -1):
        with pytest.raises(ZeroDivisionError, match="^inverse of zero$"):
            divide()


def test_field_element_holds_field_and_index():
    x = F16.from_index(7)
    assert gf.FieldElement.__slots__ == ("field", "index")
    assert (x.field, x.index) == (F16, 7) and repr(x) == "GF(16)(7)"
    assert F16.element((3, 1)).index == 7 and F16.element(5).index == 1
    with pytest.raises(TypeError, match="field.element"):
        gf.FieldElement(F16, (3, 1))  # a raw value, not an index
    for i in (-1, 16):
        with pytest.raises(ValueError, match="^index out of range$"):
            gf.FieldElement(F16, i)
    with pytest.raises(AttributeError):
        x.index = 3
    assert F9.from_index(1) == 4 and F9.from_index(2) == -1 and F9.from_index(3) != 3  # 3 is t
    # elements of different fields are unequal and do not mix
    assert F4.one() != F16.one() and not F4.one() == F16.one()
    assert _uninterned(4, 2).from_index(5) != F16.from_index(5)
    for op in ("__add__", "__sub__", "__mul__", "__truediv__"):
        with pytest.raises(LevelMismatchError):
            getattr(F4.one(), op)(F16.one())
    assert x.__add__("1") is NotImplemented and x.__eq__(None) is NotImplemented


def test_embed_lift_and_encoding_keep_the_index_at_every_level():
    top = canonical_extension(F16, 5)  # F2 -> F4 -> F16 -> F_(16^5), above TABLE_LIMIT
    levels = [F2, F4, F16, top]
    rng = random.Random(11)
    for F, R in zip(levels, levels[1:] + [None]):
        for i in [0, 1, F.size - 1] + [rng.randrange(F.size) for _ in range(20)]:
            x = F.from_index(i)
            assert embed(x, F) == x
            if R is not None:
                assert embed(x, R).index == i and lift(embed(x, R)) == x
            if F.base is not None:
                assert x.coeffs == tuple(F.base.from_index(c) for c in F.value_of(i))
                if i >= F.base.size:
                    with pytest.raises(NotInSubfieldError):
                        lift(x)
    with pytest.raises(NotInSubfieldError):
        lift(F2.one())
    with pytest.raises(LevelMismatchError):
        embed(F4.one(), top)  # top is over F16, not F4


# ---------------------------------------------------------------------------
# F_p-linear digit readers
# ---------------------------------------------------------------------------

def _digit_sum(p, a, units):
    """sum_j a_j units[j] over the base-p digits a_j of a, taken one digit
    at a time: an XOR when p = 2, an integer sum otherwise."""
    acc, j = 0, 0
    while a:
        a, d = divmod(a, p)
        acc = acc ^ d * units[j] if p == 2 else acc + d * units[j]
        j += 1
    return acc


def _image_digits(p, i, images, width):
    """The index of the F_p-linear image of i, output digit by output digit:
    digit r is sum_j a_j (digit r of images[j]) mod p."""
    a = gf._raw_from_int(prime_field(p), i, len(images))
    cols = [gf._raw_from_int(prime_field(p), v, width) for v in images]
    return sum(sum(aj * col[r] for aj, col in zip(a, cols)) % p * p ** r for r in range(width))


@pytest.mark.parametrize("p", [2, 3, 5, 257])
def test_digit_table_entries_are_digit_sums(p):
    """Every entry, for zero to three units (two for p = 257), against the
    sum taken digit by digit.  The units are 40-bit ints, so a carry
    between packed fields would show."""
    rng = random.Random(p)
    for length in range(4 if p < 257 else 3):
        units = [rng.getrandbits(40) for _ in range(length)]
        table = gf.digit_table(p, units)
        assert len(table) == p ** length
        assert all(entry == _digit_sum(p, a, units) for a, entry in enumerate(table))


@pytest.mark.parametrize("p", [2, 3, 5, 257])
@pytest.mark.parametrize("reads", [1, 15, 256])
@pytest.mark.parametrize("length", [1, 3, 8, 13])
def test_linear_reader_is_the_linear_map_of_its_images(p, reads, length):
    """The proof rests on linearity: read adds (or XORs) one digit_table
    entry per chunk, and every entry is a digit sum of the units' images
    (checked in full above), so read is F_p-linear, and a linear map is
    fixed by its values on the units.  Table entries plus read(p^j) =
    images[j] for every unit therefore prove read equal to the map.  The
    seeded inputs, and the input with every digit p - 1 against an image
    with every digit p - 1, cross-check the chunking and the slot width,
    and the identity map, whose largest image is a power of p, the count
    of output digits.
    The lengths give one chunk, several chunks and a short last chunk for
    the chunk sizes that reads 1, 15 and 256 allow."""
    width, rng = 5, random.Random(p * 1000 + reads * 20 + length)
    top = p ** width - 1  # every output digit p - 1: the largest slot sums
    images = [top] + [rng.randrange(p ** width) for _ in range(length - 2)] + [0][:length - 1]
    read = gf.linear_reader(p, images, reads)
    assert [read(p ** j) for j in range(length)] == images
    inputs = [0, p ** length - 1] + [rng.randrange(p ** length) for _ in range(30)]
    assert [read(i) for i in inputs] == [_image_digits(p, i, images, width) for i in inputs]
    identity = gf.linear_reader(p, [p ** j for j in range(length)], reads)  # top image p^j
    assert [identity(i) for i in inputs] == inputs


def test_prime_tests_match_brute_force():
    def reference(n):  # (p, s) with n = p^s, else None
        p = next((d for d in range(2, n + 1) if n % d == 0), None)
        s = 0
        while p and n % p == 0:
            n, s = n // p, s + 1
        return (p, s) if p and n == 1 else None
    for n in list(range(-4, 1 << 12)) + [65537, 3 ** 10, 2 ** 16]:
        expected = reference(n)
        assert gf.is_prime(n) == (expected is not None and expected[1] == 1), n
        if expected is None:
            with pytest.raises(ValueError, match="^not a prime power: %d$" % n):
                gf.factor_prime_power(n)
        else:
            assert gf.factor_prime_power(n) == expected, n


@pytest.mark.parametrize("F", [F3, F4, F9])
def test_powers_match_repeated_multiplication(F):
    rng = random.Random(F.size)
    for _ in range(5):
        a = gf._ptrim([rng.randrange(F.size) for _ in range(rng.randrange(1, 6))])
        m = [rng.randrange(F.size) for _ in range(rng.randrange(2, 5))] + [rng.randrange(1, F.size)]
        P = Polynomial._from_raw(F, a)
        power, residue = Polynomial(F, [1]), [F.one_index]
        for e in range(10):
            assert P ** e == power, (a, e)
            if e:
                assert gf._ppowmod(F, a, e, m) == residue, (a, m, e)
            power = power * P
            residue = gf._pmod(F, gf._pmul(F, residue, a), m)
