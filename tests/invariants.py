"""Shared property checks and independent oracles used across the test suite.

The oracles here deliberately avoid the code paths they certify: dimensions
come from the Riemann-Roch formula, point counts are cross-checked through
the Weil trace recursion, independence is established by evaluation-
matrix rank rather than by the kernel construction that produced the basis,
irreducibles are what is left after striking out every product of lower
degrees, and orders and values at places come from truncated power series
in a local parameter (the library works with congruences over F_q[x]
instead).
"""

import itertools
import math

from curvemul import gf, linalg
from curvemul.function_field import Divisor, EllipticCurve, PoleEvaluationError, _place_root


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


def irreducible_list(field, degree):
    """The monic irreducibles of the given degree in encoding order, by a
    sieve of Eratosthenes over F[x]: every product of two monic polynomials
    of degrees e and degree - e, 1 <= e <= degree / 2, is struck out.  No
    gcd, no root and no Frobenius: nothing of gf's irreducibility test."""
    q, one = field.size, field.one_index
    add, mul = field.add, field.mul

    def monics(e):
        return [gf._raw_from_int(field, k, e) + [one] for k in range(q ** e)]

    reducible = set()
    for e in range(1, degree // 2 + 1):
        right = monics(degree - e)
        for a in monics(e):
            for b in right:
                prod = [0] * degree  # the monic x^degree term is implied
                for i, x in enumerate(a):
                    if x:
                        for j, y in enumerate(b[:degree - i]):
                            if y:
                                prod[i + j] = add(prod[i + j], mul(x, y))
                reducible.add(sum(c * q ** i for i, c in enumerate(prod)))
    return [tuple(gf._raw_from_int(field, k, degree) + [one])
            for k in range(q ** degree) if k not in reducible]


def count_irreducibles(field, degree):
    """Number of monic irreducibles of the given degree, by enumeration."""
    return len(irreducible_list(field, degree))


def necklace_count(q, d):
    """(1/d) * sum over e | d of mu(e) q^(d/e) -- the expected count above."""
    def mu(n):
        res, m = 1, n
        p = 2
        while p * p <= m:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    return 0
                res = -res
            p += 1
        if m > 1:
            res = -res
        return res

    total = sum(mu(e) * q ** (d // e) for e in range(1, d + 1) if d % e == 0)
    if total % d:
        raise gf.PostconditionError("necklace sum %d not divisible by %d" % (total, d))
    return total // d


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


# The catalogue sweep one curve at a time, as the library ran it before its
# discriminant and point count were taken per (a1, a2, a3, a4) prefix: the
# public constructor, whose ValueError means singular, then point_count(1).

def weierstrass_family(F):
    """(a1, a2, a3, a4, a6) index tuples in the catalogue's order: the full
    q^5 sweep when q^5 <= 2^15, else the normal forms covering every
    isomorphism class."""
    q, p = F.size, F.char
    if q ** 5 <= (1 << 15):
        for a1 in range(q):
            for a2 in range(q):
                for a3 in range(q):
                    for a4 in range(q):
                        for a6 in range(q):
                            yield (a1, a2, a3, a4, a6)
    elif p == 2:
        for a2 in range(q):          # ordinary: y^2 + xy = x^3 + a2 x^2 + a6
            for a6 in range(q):
                yield (F.one_index, a2, 0, 0, a6)
        for a3 in range(1, q):       # supersingular: y^2 + a3 y = x^3 + a4 x + a6
            for a4 in range(q):
                for a6 in range(q):
                    yield (0, 0, a3, a4, a6)
    elif p == 3:
        for a2 in range(q):
            for a4 in range(q):
                for a6 in range(q):
                    yield (0, a2, 0, a4, a6)
    else:
        for a4 in range(q):
            for a6 in range(q):
                yield (0, 0, 0, a4, a6)


def nonsingular_curves(F, family):
    """The curve of each tuple that the public constructor accepts."""
    for coeffs in family:
        try:
            yield EllipticCurve(F, *coeffs)
        except ValueError:
            continue


def sweep_reference(F, family=None):
    """(coeffs, N1) for each nonsingular tuple of the family (by default
    the catalogue's), in its order."""
    for E in nonsingular_curves(F, weierstrass_family(F) if family is None else family):
        yield E.a, E.point_count(1)


def best_stat_reference(F):
    """[(coeffs, N1)] of the first maximal N1 and of the first minimal
    |q + 1 - N1| in catalogue order, the scan stopping once both reach
    their bounds."""
    q = F.size
    hmax = q + 1 + math.isqrt(4 * q)
    best_n1 = best_flat = None
    for coeffs, n1 in sweep_reference(F):
        if best_n1 is None or n1 > best_n1[1]:
            best_n1 = (coeffs, n1)
        if best_flat is None or abs(q + 1 - n1) < abs(q + 1 - best_flat[1]):
            best_flat = (coeffs, n1)
        if best_n1[1] == hmax and best_flat[1] == q + 1:
            break
    return [best_n1, best_flat]


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
            o = oracle_ord(curve, f, pl)
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
                col = [v if d == 1 else pl.residue_field.value_of(v)[c] for v in vals]
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
    """evaluate(f*g, P) == evaluate(f, P) * evaluate(g, P) where defined;
    values are element indices of the residue field of P."""
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
            rhs = pl.residue_field.mul(f.eval_at(pl), g.eval_at(pl))
        except PoleEvaluationError:
            continue
        assert lhs == rhs, (pl,)
        done += 1
    return done


class Series:
    """A truncated power series c0 + c1 t + ... + c_(P-1) t^(P-1) + O(t^P)
    over a field, coefficients element indices, P its precision."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs, prec=None):
        coeffs = list(coeffs)
        if prec is not None:
            coeffs = coeffs[:prec] + [0] * (prec - len(coeffs))
        self.field = field
        self.coeffs = coeffs

    @classmethod
    def constant(cls, field, c, prec):
        return cls(field, [c], prec)

    @property
    def prec(self):
        return len(self.coeffs)

    def __add__(self, other):
        f, n = self.field, min(self.prec, other.prec)
        return Series(f, [f.add(a, b) for a, b in zip(self.coeffs[:n], other.coeffs[:n])])

    def __sub__(self, other):
        f, n = self.field, min(self.prec, other.prec)
        return Series(f, [f.sub(a, b) for a, b in zip(self.coeffs[:n], other.coeffs[:n])])

    def __neg__(self):
        return Series(self.field, [self.field.neg(a) for a in self.coeffs])

    def __mul__(self, other):
        f, n = self.field, min(self.prec, other.prec)
        out = [0] * n
        for i, a in enumerate(self.coeffs[:n]):
            if a:
                for j, b in enumerate(other.coeffs[: n - i]):
                    if b:
                        out[i + j] = f.add(out[i + j], f.mul(a, b))
        return Series(f, out)

    def scale(self, c):
        return Series(self.field, [self.field.mul(c, a) for a in self.coeffs])

    def inverse(self):
        """Multiplicative inverse of a unit (nonzero constant term)."""
        f = self.field
        if not self.coeffs or self.coeffs[0] == 0:
            raise ZeroDivisionError("series is not a unit")
        inv0 = f.inv(self.coeffs[0])
        out = [inv0] + [0] * (self.prec - 1)
        for k in range(1, self.prec):
            acc = 0
            for i in range(1, k + 1):
                if self.coeffs[i] and out[k - i]:
                    acc = f.add(acc, f.mul(self.coeffs[i], out[k - i]))
            out[k] = f.neg(f.mul(inv0, acc))
        return Series(f, out)

    def valuation(self):
        """Index of the first nonzero coefficient, or None if zero to prec."""
        return next((i for i, c in enumerate(self.coeffs) if c), None)

    def truncate(self, prec):
        return Series(self.field, self.coeffs, prec)


def poly_on_series(field, poly_coeffs, s):
    """A polynomial (raw index list over `field`) at a Series."""
    acc = Series.constant(field, 0, s.prec)
    for c in reversed(poly_coeffs):
        acc = acc * s + Series.constant(field, c, s.prec)
    return acc


def newton_root_reference(field, g_coeffs, y0, prec):
    """Root of G(Y) = sum g_coeffs[i] * Y^i with constant term y0, by
    log2(prec) + 1 Newton passes all at the full precision."""
    g = [c.truncate(prec) for c in g_coeffs]
    dg = [g[i].scale(i % field.char) for i in range(1, len(g))]
    y = Series.constant(field, y0, prec)

    def ev(coeffs, s):
        acc = Series.constant(field, 0, prec)
        for c in reversed(coeffs):
            acc = acc * s + c
        return acc

    for _ in range(max(1, prec.bit_length() + 1)):
        y = y - ev(g, y) * ev(dg, y).inverse()
    assert ev(g, y).valuation() is None
    return y


def branch_reference(curve, place, prec):
    """(x(t), y(t)) at the place's representative (x0, y0) by
    newton_root_reference: t = x - x0, or t = y - y0 where the tangent is
    vertical (2y + a1 x + a3 = 0)."""
    R = place.residue_field
    a1, a2, a3, a4, a6 = curve.a
    x0, y0 = place.data
    one = Series.constant(R, R.one_index, prec)
    if R.add(R.mul(2 % R.char, y0), R.add(R.mul(a1, x0), a3)):
        xs = Series(R, [x0, R.one_index], prec)
        h = poly_on_series(R, [a3, a1], xs)
        rr = poly_on_series(R, [a6, a4, a2, R.one_index], xs)
        return xs, newton_root_reference(R, [-rr, h, one], y0, prec)
    ys = Series(R, [y0, R.one_index], prec)
    c1 = Series.constant(R, a4, prec) - ys.scale(a1)
    c0 = Series.constant(R, a6, prec) - ys * ys - ys.scale(a3)
    c2 = Series.constant(R, a2, prec)
    return newton_root_reference(R, [c0, c1, c2, one], x0, prec), ys


def _local_series(curve, f, place):
    """f's numerator and denominator as series in a local parameter at the
    place's representative, long enough for both valuations to show: t =
    x - rho on the line, the branch_reference parameter on a curve."""
    R = place.residue_field
    prec = 8
    while True:
        if curve.genus == 0:
            ts = Series(R, [_place_root(curve.field, place.data), R.one_index], prec)
            num, den = (poly_on_series(R, p.coeffs, ts) for p in (f.num, f.den))
        else:
            xs, ys = branch_reference(curve, place, prec)
            a, b, den = (poly_on_series(R, p.coeffs, xs) for p in (f.anum, f.bnum, f.den))
            num = a + b * ys
        if num.valuation() is not None and den.valuation() is not None:
            return num, den
        prec *= 2


def oracle_ord(curve, f, place):
    """ord_P(f) from local series; at infinity and at the origin from the
    degrees: x has a pole of order 1 at infinity on the line, and x and y
    poles of orders 2 and 3 at the origin of a curve, so the a- and b-parts
    of a + by never cancel there."""
    if f.is_zero():
        return None
    if place.kind == "inf":
        return f.den.degree - f.num.degree
    if place.kind == "origin":
        parts = [2 * p.degree + k for p, k in ((f.anum, 0), (f.bnum, 3)) if not p.is_zero()]
        return 2 * f.den.degree - max(parts)
    num, den = _local_series(curve, f, place)
    return num.valuation() - den.valuation()


def oracle_eval(curve, f, place):
    """f's value at an affine or finite place from local series, an index of
    the residue field; PoleEvaluationError at a pole."""
    if f.is_zero():
        return 0
    num, den = _local_series(curve, f, place)
    vn, vd = num.valuation(), den.valuation()
    if vn < vd:
        raise PoleEvaluationError("pole at %r" % (place,))
    if vn > vd:
        return 0
    R = place.residue_field
    return R.mul(num.coeffs[vn], R.inv(den.coeffs[vd]))


def tensor_reference(formula):
    """(passed, pairs_checked, first_failure) of the multiplication tensor
    checked on coefficient tuples, as ccma.verify's 'tensor' mode did before
    it moved onto index digits: over the basis pairs j <= k in row-major
    order, e_j*e_k by E.vmul against sum_t x_t*(e_j) x_t*(e_k) c_t summed
    coordinate by coordinate in F_q.  first_failure is the pair of element
    indices (of e_j, of e_k)."""
    tower = formula.tower
    Fq, E, n = tower.base_field, tower.ext_field, tower.n
    basis = [tuple(Fq.one_index if i == j else 0 for i in range(n)) for j in range(n)]
    checked = 0
    for j in range(n):
        for k in range(j, n):
            checked += 1
            acc = (0,) * n
            for xs, c in formula.terms:
                s = Fq.mul(xs[j], xs[k])
                if s:
                    acc = tuple(Fq.add(a, Fq.mul(s, cc)) for a, cc in zip(acc, c))
            if acc != E.vmul(basis[j], basis[k]):
                return False, checked, (E.index_of(basis[j]), E.index_of(basis[k]))
    return True, checked, None


def symmetric_rank_reference(q, n, max_rank):
    """Exact symmetric rank of the multiplication tensor of F_(q^n)/F_q up
    to max_rank, or None, as ccma.brute_force_symmetric_rank found it before
    its depth-first search: every strictly increasing set of projective forms
    (first nonzero coordinate 1), with no symmetry fixed, and for each set one
    linalg.solve per coordinate s of the constants, whose right-hand side is
    (e_j*e_k)_s over the pairs j <= k, multiplied by E.vmul."""
    tower = gf.FieldTower.canonical(q, n)
    Fq, E = tower.base_field, tower.ext_field
    forms = []
    for idx in range(1, q ** n):
        vec = tuple(gf._raw_from_int(Fq, idx, n))
        lead = next(i for i, v in enumerate(vec) if v)
        if vec[lead] == Fq.one_index:
            forms.append(vec)
    pairs = [(j, k) for j in range(n) for k in range(j, n)]
    rhs = [E.vmul(E.value_of(q ** j), E.value_of(q ** k)) for j, k in pairs]
    for r in range(1, max_rank + 1):
        for combo in itertools.combinations(forms, r):
            mat = [[Fq.mul(f[j], f[k]) for f in combo] for j, k in pairs]
            if all(linalg.solve(Fq, mat, [want[slot] for want in rhs]) is not None
                   for slot in range(n)):
                return r
    return None
