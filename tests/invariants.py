"""Shared property checks and independent oracles used across the test suite.

The oracles here deliberately avoid the code paths they certify: dimensions
come from the Riemann-Roch formula, point counts are cross-checked through
the Weil trace recursion, and independence is established by evaluation-
matrix rank rather than by the kernel construction that produced the basis.
"""

import math

from curvemul import linalg
from curvemul.function_field import Divisor, PoleEvaluationError


# Matrix helpers only the tests need; the library itself solves and reduces.

def mat_vec(field, m, v):
    add, mul = field.add, field.mul
    out = []
    for row in m:
        acc = 0
        for a, b in zip(row, v):
            if a and b:
                acc = add(acc, mul(a, b))
        out.append(acc)
    return out


def mat_mul(field, a, b):
    add, mul = field.add, field.mul
    cols = list(zip(*b)) if b else []
    out = []
    for row in a:
        orow = []
        for col in cols:
            acc = 0
            for x, y in zip(row, col):
                if x and y:
                    acc = add(acc, mul(x, y))
            orow.append(acc)
        out.append(orow)
    return out


def rank(field, rows):
    return len(linalg.rref(field, rows)[1])


def check_field_axioms(field, rng, triples=1000):
    size = field.size
    for _ in range(triples):
        a = field.from_index(rng.randrange(size))
        b = field.from_index(rng.randrange(size))
        c = field.from_index(rng.randrange(size))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a
    return triples


def check_fermat(field):
    """x^|F| == x for every element (exhaustive)."""
    for x in field:
        assert x ** field.size == x
    return field.size


def weil_counts_from_n1(q, n1, kmax):
    """#E(F_(q^k)) for k <= kmax from #E(F_q) via the trace recursion
    s_k = a*s_(k-1) - q*s_(k-2); an oracle independent of enumeration."""
    a = q + 1 - n1
    s = [2, a]
    for _ in range(2, kmax + 1):
        s.append(a * s[-1] - q * s[-2])
    return [q ** k + 1 - s[k] for k in range(1, kmax + 1)]


def check_place_partition(curve, kmax=4):
    """sum over d | k of d * (#places of degree d) == #points over F_(q^k)."""
    q = curve.field.size
    place_counts = {}
    for d in range(1, kmax + 1):
        if q ** d > (1 << 16):
            kmax = d - 1
            break
        place_counts[d] = len(curve.places(d))
    for k in range(1, kmax + 1):
        total = sum(d * place_counts[d] for d in range(1, k + 1) if k % d == 0)
        assert total == curve.point_count(k), (k, total)
    return kmax


def check_hasse(entries, q):
    bound = math.isqrt(4 * q)
    for e in entries:
        assert abs(e.n1 - (q + 1)) <= bound, (e.curve.a, e.n1)
        n1_sq = e.n1 + 2 * e.n2
        assert abs(n1_sq - (q * q + 1)) <= math.isqrt(4 * q * q), (e.curve.a, n1_sq)
    return len(entries)


def random_divisor(curve, rng, degree_range=(-2, 5), parts=3):
    places = []
    for d in (1, 2, 3):
        places.extend(curve.places(d))
    D = Divisor({})
    for _ in range(parts):
        pl = places[rng.randrange(len(places))]
        mult = rng.choice([-2, -1, 1, 1, 2])
        D = D + Divisor({pl: mult})
    return D


def verify_rr_basis(curve, basis):
    """The three RRBasis invariants: pole orders bounded by D, linear
    independence by evaluation rank, and the dimension formula."""
    D = basis.divisor
    g = curve.genus
    if D.degree > 2 * g - 2:
        assert basis.dimension == D.degree - g + 1, (basis.dimension, D.degree)
    check_places = set(D.support())
    if g == 1:
        for p, m in D.items():
            if m > 0 and p.kind == "affine":
                check_places.add(curve.flip_place(p))
        check_places.add(curve.origin_place)
    else:
        check_places.add(curve.infinite_place)
    for f in basis.functions:
        for pl in check_places:
            o = f.ord_at(pl)
            assert o is None or o >= -D.get(pl), (pl, o, D.get(pl))
    if basis.dimension:
        _check_independent(curve, basis)
    return True


def _check_independent(curve, basis):
    Fq = curve.field
    space = linalg.RowSpace(Fq, basis.dimension)
    rank = 0
    for d in (1, 2, 3, 4, 5, 6):
        if Fq.size ** d > (1 << 16):
            break
        for pl in curve.places(d):
            try:
                vals = [f.eval_at(pl) for f in basis.functions]
            except PoleEvaluationError:
                continue
            for c in range(d):
                col = [v.index if d == 1 else v.val[c] for v in vals]
                if space.add(col):
                    rank += 1
            if rank == basis.dimension:
                return
    raise AssertionError("basis functions are not independent by evaluation")


def check_rr_random(curve, rng, trials=20):
    for _ in range(trials):
        D = random_divisor(curve, rng)
        basis = curve.riemann_roch(D)
        verify_rr_basis(curve, basis)
    return trials


def check_principality_agreement(curve, rng, trials=100):
    """Group-law principality vs the linear-algebra pattern l(D) in {0, 1}
    for random degree-0 divisors."""
    O = curve.origin_place
    for _ in range(trials):
        D = random_divisor(curve, rng)
        D = D - Divisor({O: D.degree})  # adjust to degree 0 through O
        principal = curve.divisor_class_is_principal(D)
        ell = curve.riemann_roch(D).dimension
        assert ell in (0, 1)
        assert principal == (ell == 1), (D, principal, ell)
    return trials


def check_eval_ring_hom(curve, rng, trials=30):
    """evaluate(f*g, P) == evaluate(f, P) * evaluate(g, P) where defined."""
    if curve.genus == 0:
        basis = curve.riemann_roch(Divisor({curve.infinite_place: 3})).functions
    else:
        basis = curve.riemann_roch(Divisor({curve.origin_place: 4})).functions
    places = curve.places(1) + curve.places(2)
    done = 0
    while done < trials:
        f = basis[rng.randrange(len(basis))]
        g = basis[rng.randrange(len(basis))]
        pl = places[rng.randrange(len(places))]
        try:
            lhs = (f * g).eval_at(pl)
            rhs = f.eval_at(pl) * g.eval_at(pl)
        except PoleEvaluationError:
            continue
        assert lhs == rhs, (pl,)
        done += 1
    return done
