"""Genus-0 and genus-1 function fields over F_q.

Places, divisors, Riemann-Roch spaces, evaluation at places of arbitrary
degree, point counts as character sums over the x-line, exhaustive point
counting (the oracle), point counts over every F_(q^k) from N1 through the
zeta function, a principality test through the elliptic group law, and a
searchable catalog of curves with (N1, N2) data: N1 a character sum, N2 from
the zeta function.  The catalog sweeps Weierstrass tuples as raw indices and
builds a curve only for an entry it returns.  In odd characteristic N1 and
the discriminant depend on (b2, b4, b6) alone and are read from one row per
(b2, b4); in characteristic 2 the discriminant is taken once per
(a1, a2, a3, a4) prefix and N1 from trace tables per (a1, a3).

Conventions fixed once so that every run reproduces the same objects:

* the residue field of a degree-d place is the canonical extension
  F_q[t]/(find_irreducible(F_q, d));
* every value crossing this module's interface is an element index (see
  gf): place data, curve coefficients, evaluations (an index of the place's
  residue field) and matrix entries.  An element of F_q has the same
  index in every residue field, so F_q coefficients are used there as they
  are, and a Frobenius-invariant value is read back in F_q by its index;
* a genus-0 finite place is a monic irreducible polynomial in x, identified
  with the residue field through its smallest root (by element index); the
  place whose polynomial *is* the canonical modulus maps x to the generator
  t, whose index is q;
* a genus-1 place is a Frobenius orbit of an affine point, stored by its
  lexicographically smallest representative; evaluation at the place is
  evaluation at that representative;
* Riemann-Roch vanishing conditions and values where a denominator vanishes
  are exact congruences over F_q[x] modulo powers of the minimal polynomial pi
  of the place's x (Cantor, "Computing in the Jacobian of a hyperelliptic
  curve", Math. Comp. 48, 1987).
"""

import functools
import itertools
import math

from . import gf, linalg
from .gf import (FieldElement, Polynomial, canonical_extension, PostconditionError,
                 SCAN_LIMIT, _peval)

CATALOG_Q_LIMIT = 64  # curve_search and best_stat_curves sweep fields up to this size


class BudgetExceededError(RuntimeError):
    """Enumeration would exceed the fixed point budget."""


class PoleEvaluationError(ValueError):
    """Evaluation of a function at one of its poles."""


class UnsupportedDivisorError(ValueError):
    """Divisor shape outside the supported genus-0/1 repertoire."""


# ---------------------------------------------------------------------------
# quadratic fibers: the solver, and the character sums that count points
#
# In characteristic 2 the index bits of an element are its coordinates over
# F_2 (addition is XOR), bit k standing for the element of index 2^k.  The
# maps z -> z^2 + z and (a, c) -> Tr(a c) are F_2-linear, so both reduce to
# bit operations once a few products per field are known.
# ---------------------------------------------------------------------------

@functools.cache
def _as_basis(F):
    """The F_2 echelon (linalg.RowSpace) of the rows (z^2 + z) | z << m over
    z = e_1 .. e_(m-1) on F = F_(2^m): z -> z^2 + z has kernel {0, 1} = span
    e_0, so it is injective on their span, whose image is the trace-0
    hyperplane, and every pivot falls in the image bits.  The residual of
    c is 0 below bit m exactly when c is in the image, and then its high
    bits are the z in that span with z^2 + z = c."""
    basis = linalg.RowSpace(gf.prime_field(2))
    for k in range(1, F.degree):
        z = 1 << k
        basis.add(F.mul(z, z) ^ z | z << F.degree)
    return basis


@functools.cache
def _trace_form(F):
    """[mask of e_j for j < m] on F of characteristic 2, F_(2^m): bit k of
    the mask of c is Tr(c e_k), so Tr(a c) is the parity of a & mask, and
    Tr(c) that of c & form[0] (e_0 is 1).  The mask is F_2-linear in c, so
    gf.linear_reader(2, form, reads) reads it."""
    m, mul = F.degree, F.mul
    tr0 = 0
    for k in range(m):
        z = c = 1 << k
        for _ in range(m - 1):
            z = mul(z, z)
            c ^= z
        tr0 |= c << k  # Tr(e_k) lies in F_2: index 0 or 1
    return [sum(((mul(1 << j, 1 << k) & tr0).bit_count() & 1) << k for k in range(m))
            for j in range(m)]


def solve_quadratic(F, a, b):
    """Sorted index solutions y of y^2 + a*y = b over F."""
    if F.char == 2:
        if a == 0:
            # squaring is a bijection; the inverse is z -> z^(|F|/2)
            return [F.pow_(b, F.size // 2)]
        # y = a z: z^2 + z = b / a^2
        r = _as_basis(F).residual(F.mul(b, F.inv(F.mul(a, a))))
        z, c = divmod(r, F.size)  # F.size = 2^m
        if c:
            return []
        return sorted((F.mul(a, z), F.add(F.mul(a, z), a)))
    half_a = F.mul(a, F.inv(2 % F.char))
    disc = F.add(b, F.mul(half_a, half_a))
    if disc == 0:
        return [F.neg(half_a)]
    r = gf.sqrt(F, disc)
    if r is None:
        return []
    return sorted((F.sub(r, half_a), F.sub(F.neg(r), half_a)))


@functools.cache
def _char_sum(R, b2, b4, b6):
    """The sum over x in R of chi(4x^3 + b2 x^2 + 2b4 x + b6), odd p."""
    chi, p = gf.quadratic_character(R), R.char
    g = [b6, R.mul(2 % p, b4), b2, 4 % p]
    return sum(chi(_peval(R, g, x)) for x in range(R.size))


@functools.cache
def _chi_shifts(R):
    """[[chi(v + b) for b in R] for v in R], odd p: row v of a character
    sum that runs over b."""
    chi, add, q = gf.quadratic_character(R), R.add, R.size
    return [[chi(add(v, b)) for b in range(q)] for v in range(q)]


@functools.cache
def _odd_row(R, b2, b4):
    """[N1 of (2y + h)^2 = 4x^3 + b2 x^2 + 2b4 x + b6 for each b6 in R, or 0
    where it is singular], odd p.  One pass over x takes the values v of
    4x^3 + b2 x^2 + 2b4 x; each b6's sum of chi(v + b6) is a column sum of
    their _chi_shifts rows; the discriminant is _discriminant_poly in b6."""
    q, p, add, mul = R.size, R.char, R.add, R.mul
    shifts, c1 = _chi_shifts(R), mul(2 % p, b4)
    sums = map(sum, zip(*[shifts[mul(add(mul(add(mul(4 % p, x), b2), x), c1), x)]
                          for x in range(q)]))
    disc = _discriminant_poly(R, b2, b4)
    return [1 + q + s if _peval(R, disc, b6) else 0 for b6, s in enumerate(sums)]


def _discriminant_poly(F, b2, b4, b6=None, c8=None):
    """The discriminant -b2^2 b8 - 8 b4^3 - 27 b6^2 + 9 b2 b4 b6 as a
    polynomial (lowest coefficient first, for _peval) in the coefficient
    that a prefix (a1, .., a4) leaves free.  In odd characteristic that is
    b6, and b6, c8 are not read: 4 b8 = b2 b6 - b4^2 makes it
    -27 b6^2 + (9 b2 b4 - b2^3/4) b6 + b2^2 b4^2/4 - 8 b4^3.  In
    characteristic 2 it is a6: b6 = a3^2 and b8 = b2 a6 + c8, c8 being b8
    at a6 = 0, make it b2^3 a6 + b2^2 c8 + b6^2 + b2 b4 b6."""
    add, sub, mul, b22 = F.add, F.sub, F.mul, F.mul(b2, b2)
    if F.char == 2:
        return [add(add(mul(b22, c8), mul(b6, b6)), mul(mul(b2, b4), b6)), mul(b22, b2)]
    quarter, b44, p = F.inv(4 % F.char), mul(b4, b4), F.char
    return [sub(mul(quarter, mul(b22, b44)), mul(8 % p, mul(b4, b44))),
            sub(mul(9 % p, mul(b2, b4)), mul(quarter, mul(b22, b2))),
            F.neg(27 % p)]


@functools.cache
def _trace_columns(R, a1, a3):
    """(n, cols) with Tr(f(x)/h^2) = bit i of the XOR of cols[j] over the
    bits j of v = a2 | a4 << s | a6 << 2s | 1 << 3s, for the i-th x with
    h = a1 x + a3 != 0 (n of them), over the s index bits of R.  Row i, the
    masks of x^2/h^2, x/h^2 and 1/h^2 and the bit Tr(x^3/h^2), is read
    down its w = 3s + 1 binary digits into the columns."""
    add, mul, inv, s = R.add, R.mul, R.inv, R.degree
    form, w = _trace_form(R), 3 * s + 1
    mask, spec = gf.linear_reader(2, form, 3 * R.size), "0%db" % w  # w digits, top first
    row = []
    for x in range(R.size):
        h = add(mul(a1, x), a3)
        if h:
            u = inv(mul(h, h))
            c1 = mul(x, u)
            c2 = mul(x, c1)
            row.append(format(mask(c2) | mask(c1) << s | mask(u) << 2 * s
                              | ((mul(x, c2) & form[0]).bit_count() & 1) << 3 * s, spec))
    digits = "".join(row)
    return len(row), [int("0" + digits[w - 1 - j::w][::-1], 2) for j in range(w)]


# ---------------------------------------------------------------------------
# places and divisors
# ---------------------------------------------------------------------------

class Place:
    """A closed point: kind in {'poly', 'inf'} (genus 0), {'affine', 'origin'}
    (genus 1).  data: raw modulus tuple for 'poly'; canonical representative
    (x_index, y_index) in the residue field for 'affine'."""

    __slots__ = ("curve", "degree", "kind", "data")

    def __init__(self, curve, degree, kind, data):
        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "data", data)

    def __setattr__(self, *a):
        raise AttributeError("Place is immutable")

    @property
    def residue_field(self):
        return canonical_extension(self.curve.field, self.degree)

    def sort_key(self):
        order = {"origin": 0, "inf": 3, "poly": 2, "affine": 1}
        return (self.degree, order[self.kind], self.data or ())

    def serial(self):
        return [self.kind, self.degree, list(self.data) if self.data else []]

    def __eq__(self, other):
        return (isinstance(other, Place) and other.curve is self.curve
                and other.degree == self.degree and other.kind == self.kind
                and other.data == self.data)

    def __hash__(self):
        return hash((id(self.curve), self.degree, self.kind, self.data))

    def __repr__(self):
        return "Place(%s deg %d %r)" % (self.kind, self.degree, self.data)


class Divisor:
    """Finite formal sum of places with nonzero integer multiplicities."""

    __slots__ = ("_d",)

    def __init__(self, data=None):
        d = {}
        for place, m in (data or {}).items():
            if m:
                d[place] = m
        object.__setattr__(self, "_d", d)

    def __setattr__(self, *a):
        raise AttributeError("Divisor is immutable")

    def items(self):
        return sorted(self._d.items(), key=lambda pm: pm[0].sort_key())

    def support(self):
        return [p for p, _ in self.items()]

    def get(self, place):
        return self._d.get(place, 0)

    @property
    def degree(self):
        return sum(m * p.degree for p, m in self._d.items())

    def __add__(self, other):
        d = dict(self._d)
        for p, m in other._d.items():
            d[p] = d.get(p, 0) + m
        return Divisor(d)

    def __sub__(self, other):
        d = dict(self._d)
        for p, m in other._d.items():
            d[p] = d.get(p, 0) - m
        return Divisor(d)

    def __rmul__(self, k):
        return Divisor({p: k * m for p, m in self._d.items()})

    def __eq__(self, other):
        return isinstance(other, Divisor) and other._d == self._d

    def __hash__(self):
        return hash(frozenset(self._d.items()))

    def __bool__(self):
        return bool(self._d)

    def serial(self):
        return [[p.serial(), m] for p, m in self.items()]

    def __repr__(self):
        return "Divisor(%s)" % (self.items(),)


def place_divisor(place):
    return Divisor({place: 1})


class RRBasis:
    """Explicit basis of a Riemann-Roch space L(D).  Its functions share the
    denominator den: m for z x^j / m on the line (z is kept too), u for
    (a + b y) / u on an elliptic curve."""

    __slots__ = ("divisor", "functions", "dimension", "den", "z")

    def __init__(self, divisor, functions, den, z=None):
        for name, v in (("divisor", divisor), ("functions", tuple(functions)),
                        ("dimension", len(functions)), ("den", den), ("z", z)):
            object.__setattr__(self, name, v)

    def __setattr__(self, *a):
        raise AttributeError("RRBasis is immutable")

    def values_at(self, place):
        """[f.eval_at(place) for f in self.functions], reading and inverting
        den once at a finite place where it does not vanish: there the values
        are z(rho) rho^j / m(rho) on the line, with rho the place's root, and
        (a(x0) + b(x0) y0) / u(x0) on an elliptic curve.  At infinity, at the
        origin and at a zero of den each function is evaluated alone, so poles
        and apparent singularities are eval_at's."""
        R, n = place.residue_field, len(self.functions)
        if n and place.kind == "poly":  # z(rho) / m(rho), then times rho for each next j
            rho = _place_root(place.curve.field, place.data)
            if den_v := _peval(R, self.den.coeffs, rho):
                first = R.mul(_peval(R, self.z.coeffs, rho), R.inv(den_v))
                powers = itertools.repeat(rho, n - 1)
                return list(itertools.accumulate(powers, R.mul, initial=first))
        elif n and place.kind == "affine":
            (x0, y0), mul = place.data, R.mul
            if den_v := _peval(R, self.den.coeffs, x0):
                s = R.inv(den_v)
                return [mul(R.add(_peval(R, f.anum.coeffs, x0),
                                  mul(_peval(R, f.bnum.coeffs, x0), y0)), s)
                        for f in self.functions]
        return [f.eval_at(place) for f in self.functions]


# ---------------------------------------------------------------------------
# genus 0: the projective line
# ---------------------------------------------------------------------------

class RationalFunction:
    """num(x)/den(x) over F_q, stored gcd-reduced with monic denominator."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den):
        if not isinstance(num, Polynomial):
            num = Polynomial(field, num)
        if not isinstance(den, Polynomial):
            den = Polynomial(field, den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        g = num.gcd(den)
        if g.degree > 0:
            num, den = num // g, den // g
        lc = den.coeffs[-1]
        if lc != field.one_index:
            inv = field.inv(lc)
            num = Polynomial._from_raw(field, gf._pscale(field, list(num.coeffs), inv))
            den = Polynomial._from_raw(field, gf._pscale(field, list(den.coeffs), inv))
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RationalFunction is immutable")

    def is_zero(self):
        return self.num.is_zero()

    def __add__(self, other):
        return RationalFunction(self.field,
                                self.num * other.den + other.num * self.den,
                                self.den * other.den)

    def __mul__(self, other):
        return RationalFunction(self.field, self.num * other.num, self.den * other.den)

    def eval_at(self, place):
        """The value at the place, an element index of its residue field."""
        if place.kind == "inf":
            dn, dd = self.num.degree, self.den.degree
            if self.is_zero() or dn < dd:
                return 0
            if dn > dd:
                raise PoleEvaluationError("pole at infinity")
            return self.num.coeffs[-1]  # over the monic denominator's 1
        R = place.residue_field
        rho = _place_root(place.curve.field, place.data)
        den_v = _peval(R, self.den.coeffs, rho)
        if not den_v:
            raise PoleEvaluationError("pole at %r" % (place,))
        return R.mul(_peval(R, self.num.coeffs, rho), R.inv(den_v))


def _reduced(F, num, den):
    """num/den without __init__'s gcd and scaling: the caller knows the two
    coprime and den monic."""
    f = object.__new__(RationalFunction)
    for name, v in (("field", F), ("num", num), ("den", den)):
        object.__setattr__(f, name, v)
    return f


def _valuation(poly, pi):
    """The largest k with pi^k dividing poly; math.inf for 0."""
    if poly.is_zero():
        return math.inf
    k = 0
    while True:
        poly, r = divmod(poly, pi)
        if not r.is_zero():
            return k
        k += 1


@functools.cache
def _place_root(F, poly):
    """The fixed residue identification of the genus-0 place poly over F, as
    an index of the canonical F_(q^d): the smallest root of poly, by
    gf.roots.  The canonical modulus itself maps to the generator t, whose
    index is q: every smaller index lies in F_q, where it has no root."""
    d = len(poly) - 1
    R = canonical_extension(F, d)
    return F.size if d > 1 and poly == R.modulus else gf.roots(R, poly)[0]


class ProjectiveLine:
    """The rational function field F_q(x); genus 0."""

    genus = 0

    def __init__(self, field):
        self.field = field

    def __repr__(self):
        return "P1(GF(%d))" % self.field.size

    @property
    def infinite_place(self):
        return Place(self, 1, "inf", None)

    def iter_places(self, d):
        """Finite places of degree d in encoding order (then infinity, d=1):
        the field's memoised stream gf.irreducibles, so the first is the
        canonical modulus.

        Lazy: safe to pull a few places even when the full scan would be out
        of budget; `places` enforces the budget for complete lists.
        """
        for raw in gf.irreducibles(self.field, d):
            yield Place(self, d, "poly", raw)
        if d == 1:
            yield self.infinite_place

    def places(self, d):
        if self.field.size ** d > SCAN_LIMIT:
            raise BudgetExceededError("too many candidate polynomials")
        return list(self.iter_places(d))

    def rational_places(self):
        return self.places(1)

    def point_count(self, k=1):
        return self.field.size ** k + 1

    def riemann_roch(self, D):
        """L(D) = { z * x^j / m : 0 <= j <= deg D } with m, z the positive and
        negative finite parts; dimension deg D + 1 (or 0)."""
        F = self.field
        m = Polynomial(F, [1])
        z = Polynomial(F, [1])
        for place, mult in D.items():
            if place.kind == "inf":
                continue
            pi = Polynomial._from_raw(F, place.data)
            if mult > 0:
                m = m * pi ** mult
            else:
                z = z * pi ** (-mult)
        J = D.degree
        if m.coeffs[0]:  # x does not divide m, so z x^j / m is reduced: m and z x^j are coprime
            funcs = [_reduced(F, Polynomial._from_raw(F, (0,) * j + z.coeffs), m)
                     for j in range(J + 1)]
        else:
            x = Polynomial(F, [0, 1])
            funcs = [RationalFunction(F, z * x ** j, m) for j in range(J + 1)]
        return RRBasis(D, funcs, m, z)

    def find_nonspecial_divisor(self):
        """A divisor of degree g - 1 = -1 with l(D) = 0: minus infinity."""
        return Divisor({self.infinite_place: -1})


# ---------------------------------------------------------------------------
# genus 1: elliptic curves
# ---------------------------------------------------------------------------

class CurveFunction:
    """(a(x) + b(x) y) / den(x) on a Weierstrass curve."""

    __slots__ = ("curve", "anum", "bnum", "den")

    def __init__(self, curve, anum, bnum, den):
        F = curve.field
        for name, val in (("anum", anum), ("bnum", bnum), ("den", den)):
            if not isinstance(val, Polynomial):
                val = Polynomial(F, val)
            object.__setattr__(self, name, val)
        if self.den.is_zero():
            raise ZeroDivisionError("zero denominator")
        object.__setattr__(self, "curve", curve)

    def __setattr__(self, *a):
        raise AttributeError("CurveFunction is immutable")

    def is_zero(self):
        return self.anum.is_zero() and self.bnum.is_zero()

    def __add__(self, other):
        return CurveFunction(self.curve,
                             self.anum * other.den + other.anum * self.den,
                             self.bnum * other.den + other.bnum * self.den,
                             self.den * other.den)

    def __mul__(self, other):
        h, f = self.curve._hf()
        bb = self.bnum * other.bnum
        anum = self.anum * other.anum + bb * f
        bnum = self.anum * other.bnum + other.anum * self.bnum - bb * h
        return CurveFunction(self.curve, anum, bnum, self.den * other.den)

    def _origin_order(self):
        """Exact pole/zero order at the origin: orders of x and y are -2 and
        -3, so the a- and b-parts never cancel (even vs odd)."""
        parts = []
        if not self.anum.is_zero():
            parts.append(-2 * self.anum.degree)
        if not self.bnum.is_zero():
            parts.append(-2 * self.bnum.degree - 3)
        if not parts:
            return None
        return min(parts) + 2 * self.den.degree

    def eval_at(self, place):
        """The value at the place, an element index of its residue field."""
        R = place.residue_field
        if place.kind == "origin":
            o = self._origin_order()
            if o is None or o > 0:
                return 0
            if o < 0:
                raise PoleEvaluationError("pole at the origin")
            return R.mul(self.anum.coeffs[-1], R.inv(self.den.coeffs[-1]))
        x0, y0 = place.data
        a, b, den = self.anum, self.bnum, self.den
        den_v = _peval(R, den.coeffs, x0)
        if not den_v:
            # apparent singularity: with den = pi^k den', the value is that of
            # the numerator divided by pi^k exactly, over den'
            E = self.curve
            pi, v0, ramified = E._local(place)
            k = _valuation(den, pi)
            pik = pi ** k
            if v0 is not None and not ramified:
                a, b = (a + b * E._branch(place, k + 1)) % (pik * pi), Polynomial(E.field, [])
            (a, ra), (b, rb), den = divmod(a, pik), divmod(b, pik), den // pik
            if not (ra.is_zero() and rb.is_zero()):
                raise PoleEvaluationError("pole at %r" % (place,))
            den_v = _peval(R, den.coeffs, x0)
        num_v = R.add(_peval(R, a.coeffs, x0), R.mul(_peval(R, b.coeffs, x0), y0))
        return R.mul(num_v, R.inv(den_v))


def _descend(F, values):
    """Frobenius-invariant values of a residue field, read in F: they lie in
    F and keep their indices there."""
    if any(v >= F.size for v in values):
        raise PostconditionError("Frobenius-invariant value outside %r" % (F,))
    return tuple(values)


def _scaled(F, k, x):
    """k*x for an integer k prime to F's characteristic; no product when k
    is 1 mod p."""
    k %= F.char
    return x if k == 1 else F.mul(k, x)


class EllipticCurve:
    """y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 over F_q, nonsingular."""

    genus = 1

    def __init__(self, field, a1, a2, a3, a4, a6):
        self.field = field
        idx = []
        for v in (a1, a2, a3, a4, a6):
            if isinstance(v, FieldElement):
                if v.field is not field:
                    raise gf.LevelMismatchError("coefficient from the wrong field")
                idx.append(v.index)
            elif type(v) is int and 0 <= v < field.size:  # not bool
                idx.append(v)  # ints are canonical element indices
            else:
                raise ValueError("bad Weierstrass coefficient %r" % (v,))
        self.a = tuple(idx)
        if self.discriminant() == 0:
            raise ValueError("singular Weierstrass equation")

    def __repr__(self):
        return "E(%s; GF(%d))" % (",".join(map(str, self.a)), self.field.size)

    def b_invariants(self):
        """(b2, b4, b6, b8): with h = a1 x + a3 and f the cubic, the curve is
        (2y + h)^2 = 4f + h^2 = 4x^3 + b2 x^2 + 2 b4 x + b6 when 2 != 0.
        The multiples of 2 and 4 vanish in characteristic 2 and are skipped."""
        F = self.field
        add, sub, mul = F.add, F.sub, F.mul
        a1, a2, a3, a4, a6 = self.a
        a11, a33 = mul(a1, a1), mul(a3, a3)
        b2, b4, b6 = a11, mul(a1, a3), a33
        b8 = sub(add(mul(a11, a6), mul(a2, a33)), add(mul(a1, mul(a3, a4)), mul(a4, a4)))
        if F.char != 2:
            b2 = add(b2, _scaled(F, 4, a2))
            b4 = add(b4, _scaled(F, 2, a4))
            b6 = add(b6, _scaled(F, 4, a6))
            b8 = add(b8, _scaled(F, 4, mul(a2, a6)))
        return b2, b4, b6, b8

    def discriminant(self):
        """_discriminant_poly at b6 in odd characteristic, at a6 in
        characteristic 2."""
        F = self.field
        b2, b4, b6, b8 = self.b_invariants()
        if F.char != 2:
            return _peval(F, _discriminant_poly(F, b2, b4), b6)
        a6 = self.a[4]
        return _peval(F, _discriminant_poly(F, b2, b4, b6, F.add(b8, F.mul(b2, a6))), a6)

    @property
    def origin_place(self):
        return Place(self, 1, "origin", None)

    # --- point enumeration and the group law (indices in R; None is O) ---

    def fiber(self, R, x):
        a1, a2, a3, a4, a6 = self.a
        aa = R.add(R.mul(a1, x), a3)
        x2 = R.mul(x, x)
        bb = R.add(R.add(R.mul(x2, x), R.mul(a2, x2)),
                   R.add(R.mul(a4, x), a6))
        return solve_quadratic(R, aa, bb)

    def points(self, R):
        """Affine points over R in (x, y) index order; O is not included.
        The enumerative oracle that point_count is tested against."""
        if R.size > SCAN_LIMIT:
            raise BudgetExceededError("point budget exceeded")
        out = []
        for x in range(R.size):
            for y in self.fiber(R, x):
                out.append((x, y))
        return out

    def point_count(self, k=1):
        """#E(F_(q^k)) as a character sum: the fiber over x has 1 + eps(x)
        points.  In odd characteristic eps(x) = chi(4x^3 + b2 x^2 + 2b4 x +
        b6), so the sum is memoised per (b2, b4, b6); the catalogue sweep
        reads the same sums, and the discriminant, from one _odd_row per
        (b2, b4) over every b6.  In characteristic 2, eps(x) is 0 where
        h(x) = a1 x + a3 vanishes and (-1)^Tr(f(x)/h(x)^2) elsewhere; the
        trace is linear in (a2, a4, a6), so the signs over every x are one
        XOR of the columns of (a1, a3) that the coefficients' bits select.
        `points` is the enumerative oracle."""
        R = canonical_extension(self.field, k)
        if R.size > SCAN_LIMIT:
            raise BudgetExceededError("point budget exceeded")
        if R.char == 2:
            a1, a2, a3, a4, a6 = self.a
            n, cols = _trace_columns(R, a1, a3)
            s = R.degree
            odd = gf.linear_reader(2, cols, 1)(a2 | a4 << s | a6 << 2 * s | 1 << 3 * s).bit_count()
            return 1 + R.size + n - 2 * odd
        b2, b4, b6, _ = self.b_invariants()
        return 1 + R.size + _char_sum(R, b2, b4, b6)

    def neg_point(self, R, P):
        if P is None:
            return None
        a1, _, a3, _, _ = self.a
        x, y = P
        return (x, R.neg(R.add(R.add(y, R.mul(a1, x)), a3)))

    def add_points(self, R, P, Q):
        if P is None:
            return Q
        if Q is None:
            return P
        a1, a2, a3, a4, _ = self.a
        x1, y1 = P
        x2, y2 = Q
        if x1 == x2 and Q == self.neg_point(R, P):
            return None
        if P == Q:
            three, two = 3 % R.char, 2 % R.char
            num = R.sub(R.add(R.mul(three, R.mul(x1, x1)),
                              R.add(R.mul(two, R.mul(a2, x1)), a4)),
                        R.mul(a1, y1))
            den = R.add(R.mul(two, y1), R.add(R.mul(a1, x1), a3))
            lam = R.mul(num, R.inv(den))
        else:
            lam = R.mul(R.sub(y2, y1), R.inv(R.sub(x2, x1)))
        x3 = R.sub(R.sub(R.sub(R.add(R.mul(lam, lam), R.mul(a1, lam)), a2), x1), x2)
        y3 = R.sub(R.sub(R.mul(lam, R.sub(x1, x3)), y1),
                   R.add(R.mul(a1, x3), a3))
        return (x3, y3)

    def mul_point(self, R, k, P):
        if k < 0:
            return self.mul_point(R, -k, self.neg_point(R, P))
        acc = None
        for _ in range(k):
            acc = self.add_points(R, acc, P)
        return acc

    def frobenius_point(self, R, P):
        q = self.field.size
        return (R.pow_(P[0], q), R.pow_(P[1], q))

    def _orbit(self, R, P):
        orbit = [P]
        cur = self.frobenius_point(R, P)
        while cur != P:
            orbit.append(cur)
            cur = self.frobenius_point(R, cur)
        return orbit

    def iter_places(self, d):
        """Places of degree d: the origin first (d=1), then orbits of affine
        points in scan order; the first point of an orbit met by the scan is
        its lexicographic minimum, which is the stored representative.

        Lazy: safe to pull a few places of any degree; `places` enforces the
        budget for complete lists.  One scan per degree is kept on the curve,
        so each fiber is solved once whoever asks; the memo is made on first
        use, as in _local."""
        scans = vars(self).setdefault("_scans", {})
        scan = scans.get(d)
        if scan is None:
            scan = scans[d] = gf.Replay(self._place_scan(d))
        return iter(scan)

    def _place_scan(self, d):
        R = canonical_extension(self.field, d)
        if d == 1:
            yield self.origin_place
        seen = set()
        for x in range(R.size):
            for y in self.fiber(R, x):
                if (x, y) in seen:
                    continue
                orbit = self._orbit(R, (x, y))
                seen.update(orbit)
                if len(orbit) == d:
                    yield Place(self, d, "affine", (x, y))

    def places(self, d):
        if self.field.size ** d > SCAN_LIMIT:
            raise BudgetExceededError("point budget exceeded")
        return list(self.iter_places(d))

    def rational_places(self):
        return self.places(1)

    def orbit_points(self, place):
        if place.kind == "origin":
            return []
        return self._orbit(place.residue_field, place.data)

    def flip_place(self, place):
        """The place of the y-flipped orbit (equal to `place` when the flip
        lands in the same orbit)."""
        R = place.residue_field
        flipped = self.neg_point(R, place.data)
        rep = min(self._orbit(R, flipped))
        return Place(self, place.degree, "affine", rep)

    # --- local data: congruences over F_q[x] ---

    def _hf(self):
        """(h, f) with h = a1 x + a3 and f = x^3 + a2 x^2 + a4 x + a6: the
        curve is y^2 + h y = f."""
        F = self.field
        a1, a2, a3, a4, a6 = self.a
        return (Polynomial._from_raw(F, gf._ptrim([a3, a1])),
                Polynomial._from_raw(F, (a6, a4, a2, F.one_index)))

    def _local(self, place):
        """(pi, v0, ramified) at the affine place P = (x0, y0) of degree d.

        pi is the minimal polynomial of x0 over F_q.  v0, of degree < d, has
        v0(x0) = y0; it is None when deg pi = d/2, that is when P is its own
        flip and y0 lies outside F_q(x0).  P is ramified over the x-line when
        2 y0 + h(x0) = 0; then P is its own flip point and v0 exists.  Kept on
        the curve per place; the memo is made on first use: catalogue sweeps
        keep thousands of curves that never need it."""
        memo = vars(self).setdefault("_locals", {})
        if place in memo:
            return memo[place]
        F, R, d = self.field, place.residue_field, place.degree
        x0, y0 = place.data
        pi = [R.one_index]
        for xi in sorted({x for x, _ in self.orbit_points(place)}):
            pi = gf._pmul(R, pi, [R.neg(xi), R.one_index])
        pi = Polynomial._from_raw(F, _descend(F, pi))
        v0 = None
        if pi.degree == d:  # sum c_i x0^i = y0 on base-q digits, a d x d system
            cols, xp = [], R.one_index
            for _ in range(d):
                cols.append(gf._raw_from_int(F, xp, d))
                xp = R.mul(xp, x0)
            v0 = linalg.solve(F, [list(r) for r in zip(*cols)], gf._raw_from_int(F, y0, d))
            v0 = Polynomial._from_raw(F, gf._ptrim(v0))
        h, _ = self._hf()
        ramified = R.add(R.add(y0, y0), _peval(R, h.coeffs, x0)) == 0
        memo[place] = pi, v0, ramified
        return memo[place]

    def _branch(self, place, j):
        """V mod pi^j at an unramified place with v0: the root of
        V^2 + hV - f = 0 mod pi^j with V = v0 mod pi, which is y in the
        pi-adic completion.  Newton's step V - (V^2 + hV - f)/(2V + h) doubles
        the power of pi that V solves to (Hensel lifting); 2V + h is a unit
        there because P is unramified."""
        F = self.field
        pi, V, _ = self._local(place)
        h, f = self._hf()
        k = 1
        while k < j:
            k = min(2 * k, j)
            m = pi ** k
            inv = gf._pinvmod(F, list((V + V + h).coeffs), list(m.coeffs))
            V = (V - (V * V + h * V - f) * Polynomial._from_raw(F, inv)) % m
        return V

    # --- Riemann-Roch ---

    def _norm_poly(self, place):
        """h_P(x) = product over the orbit of (x - x_i), in F_q[x]: pi, or
        pi^2 when P is its own flip."""
        pi, v0, _ = self._local(place)
        return pi if v0 is not None else pi * pi

    def riemann_roch(self, D):
        """L(D) by embedding into L(M*O).

        With u the product of orbit-norm polynomials over the positive finite
        part of D, every f in L(D) is g/u with g regular away from O; g then
        ranges over L(M*O) subject to vanishing conditions of order
        e = ord_P(u) - D(P) at the finitely many affected places.  With pi
        the orbit polynomial of P and V the branch of y there, ord_P(g) >= e
        is an F_q-linear congruence on g = a + by: a + bV = 0 mod pi^e;
        a = b = 0 mod pi^e where P is its own flip; a + b v0 = 0 mod
        pi^ceil(e/2) and b = 0 mod pi^floor(e/2) where P is ramified.
        """
        F = self.field
        m_O = D.get(self.origin_place)
        plus = [(p, m) for p, m in D.items() if p.kind != "origin" and m > 0]
        u = Polynomial(F, [1])
        for p, m in plus:
            u = u * self._norm_poly(p) ** m
        M = m_O + 2 * sum(m * p.degree for p, m in plus)
        if M < 0:
            return RRBasis(D, [], u)
        monomials = [(i, 0) for i in range(M // 2 + 1)]
        monomials += [(i, 1) for i in range((M - 3) // 2 + 1)] if M >= 3 else []
        monomials.sort(key=lambda ie: 2 * ie[0] + 3 * ie[1])

        relevant = set(p for p, _ in D.items() if p.kind != "origin")
        for p, _ in plus:
            relevant.add(self.flip_place(p))
        one, zero, x = Polynomial(F, [1]), Polynomial(F, []), Polynomial(F, [0, 1])
        rows = []
        for p in sorted(relevant, key=lambda q: q.sort_key()):
            pi, v0, ramified = self._local(p)
            e = (1 + ramified) * _valuation(u, pi) - D.get(p)
            if e <= 0:
                continue
            # ord_p(a + b y) >= e as congruences (m, ca, cb): ca a + cb b = 0 mod m
            if v0 is None:
                conds = [(pi ** e, one, zero), (pi ** e, zero, one)]
            elif ramified:
                conds = [(pi ** ((e + 1) // 2), one, v0), (pi ** (e // 2), zero, one)]
            else:
                conds = [(pi ** e, one, self._branch(p, e))]
            for m, ca, cb in conds:
                xpows = [one % m]
                for _ in range(M // 2):
                    xpows.append(xpows[-1] * x % m)
                cols = [(xpows[i] * (cb if eps else ca) % m).coeffs for i, eps in monomials]
                rows.extend(zip(*(c + (0,) * (m.degree - len(c)) for c in cols)))
        if rows:
            kern = linalg.kernel_basis(F, rows)
        else:
            kern = [[F.one_index if i == j else 0 for i in range(len(monomials))]
                    for j in range(len(monomials))]
        funcs = []
        for vec in kern:
            a_c = {}
            b_c = {}
            for (i, eps), lam in zip(monomials, vec):
                if lam:
                    (b_c if eps else a_c)[i] = lam
            deg_a = max(a_c, default=-1)
            deg_b = max(b_c, default=-1)
            anum = Polynomial._from_raw(F, tuple(a_c.get(i, 0) for i in range(deg_a + 1)))
            bnum = Polynomial._from_raw(F, tuple(b_c.get(i, 0) for i in range(deg_b + 1)))
            funcs.append(CurveFunction(self, anum, bnum, u))
        if D.degree > 0 and len(funcs) != D.degree:
            raise PostconditionError("Riemann-Roch dimension mismatch: got %d, expected %d"
                                     % (len(funcs), D.degree))
        return RRBasis(D, funcs, u)

    # --- divisor classes ---

    def place_group_sum(self, place):
        """Sum of the orbit points under the group law, descended to E(F_q)."""
        if place.kind == "origin":
            return None
        R = place.residue_field
        acc = None
        for pt in self.orbit_points(place):
            acc = self.add_points(R, acc, pt)
        return None if acc is None else _descend(self.field, acc)

    def divisor_class_is_principal(self, D):
        """Abel-Jacobi: a degree-0 divisor is principal iff its points sum to
        the identity under the group law."""
        if D.degree != 0:
            raise UnsupportedDivisorError("principality requires degree 0")
        F = self.field
        total = None
        for place, m in D.items():
            s = self.place_group_sum(place)
            total = self.add_points(F, total, self.mul_point(F, m, s))
        return total is None

    def find_nonspecial_divisor(self):
        """Degree g-1 = 0 divisor with l(D) = 0: P - O for a rational P != O,
        else a degree-2 place minus 2*O (checked by linear algebra)."""
        affine = [p for p in self.rational_places() if p.kind != "origin"]
        O = self.origin_place
        if affine:
            return Divisor({affine[0]: 1, O: -1})
        for p in self.iter_places(2):
            D = Divisor({p: 1, O: -2})
            if self.riemann_roch(D).dimension == 0:
                return D
        raise UnsupportedDivisorError("no nonspecial divisor of degree 0 found")


# ---------------------------------------------------------------------------
# curve catalog
# ---------------------------------------------------------------------------

class CatalogEntry:
    """A curve, given by its field and coefficient indices a and built on
    first use of .curve, with N1, which is counted, and N2, the number of
    degree-2 places, which follows from N1 through the zeta function: with
    t = q + 1 - N1, #E(F_(q^2)) = q^2 + 1 - (t^2 - 2q) (weil_count at
    k = 2), and N2 = (#E(F_(q^2)) - N1) / 2."""

    __slots__ = ("field", "a", "n1", "n2", "_curve")

    def __init__(self, field, a, n1):
        q, t = field.size, field.size + 1 - n1
        self.field, self.a, self.n1, self._curve = field, a, n1, None
        self.n2 = (q * q + 1 - t * t + 2 * q - n1) // 2

    @property
    def curve(self):
        if self._curve is None:
            self._curve = _curve(self.field, self.a)
        return self._curve

    def __repr__(self):
        return "CatalogEntry(%r, N1=%d, N2=%d)" % (self.curve, self.n1, self.n2)


def hasse_weil_max(q):
    return q + 1 + math.isqrt(4 * q)


def weil_count(q, n1, k):
    """#E(F_(q^k)) of a genus-1 curve with #E(F_q) = n1, k >= 1.

    N1 fixes the zeta function: with t = q + 1 - n1, N_k = q^k + 1 - s_k for
    the power sums s_k of the Frobenius roots (sum t, product q), doubled
    down the bits of k: s_2j = s_j^2 - 2q^j, s_(2j+1) = s_j s_(j+1) - t q^j."""
    t = q + 1 - n1
    s, s1, qj = 2, t, 1  # s_j, s_(j+1), q^j at j = 0
    for b in map(int, format(k, "b")):
        s, s1 = (s * s1 - t * qj, s1 * s1 - 2 * q * qj) if b else (s * s - 2 * qj, s * s1 - t * qj)
        qj *= qj * q ** b
    return qj + 1 - s


def _prefixes(F):
    """Deterministic iterator of (a1, a2, a3, a4) index tuples, to each of
    which every a6 in F_q is appended: the full q^5 sweep when small, else
    normal-form families covering every isomorphism class."""
    q, p = F.size, F.char
    if q ** 5 <= (1 << 15):
        return itertools.product(range(q), repeat=4)
    if p == 2:  # ordinary y^2 + xy = x^3 + a2 x^2 + a6, then y^2 + a3 y = x^3 + a4 x + a6
        return itertools.chain(((F.one_index, a2, 0, 0) for a2 in range(q)),
                               ((0, 0, a3, a4) for a3 in range(1, q) for a4 in range(q)))
    if p == 3:
        return ((0, a2, 0, a4) for a2 in range(q) for a4 in range(q))
    return ((0, 0, 0, a4) for a4 in range(q))


def _curve(F, a):
    """The curve on the index tuple a without __init__'s checks: the caller
    has found its discriminant nonzero, or reads only its invariants."""
    E = object.__new__(EllipticCurve)
    E.field, E.a = F, a
    return E


def _sweep(F):
    """(coeffs, N1) for the nonsingular tuples of the Weierstrass family, in
    its order, as point_count's character sum.  In odd characteristic a
    prefix (a1, .., a4) costs b2 = a1^2 + 4 a2, b4 = a1 a3 + 2 a4 and a3^2,
    and each a6 one lookup in the _odd_row of (b2, b4) at b6 = a3^2 + 4 a6,
    whose 0 marks a singular curve.  In characteristic 2 the discriminant
    is c1 a6 + c0, _discriminant_poly of the prefix's invariants at a6 = 0,
    and the trace columns of (a1, a3) are spanned into tables over a2, a4
    and a6, one XOR per curve."""
    q, add, mul = F.size, F.add, F.mul
    if F.char != 2:
        four = [_scaled(F, 4, a) for a in range(q)]
        for prefix in _prefixes(F):
            a1, a2, a3, a4 = prefix
            row = _odd_row(F, add(mul(a1, a1), four[a2]), add(mul(a1, a3), _scaled(F, 2, a4)))
            a33 = mul(a3, a3)
            for a6 in range(q):
                if n1 := row[add(a33, four[a6])]:
                    yield prefix + (a6,), n1
        return
    tables = {}
    for prefix in _prefixes(F):
        a1, a2, a3, a4 = prefix
        c0, c1 = _discriminant_poly(F, *_curve(F, prefix + (0,)).b_invariants())
        if (a1, a3) not in tables:
            n, cols = _trace_columns(F, a1, a3)
            s = F.degree
            t2, t4, t6 = (gf.digit_table(2, cols[c:c + s]) for c in range(0, 3 * s, s))
            tables[a1, a3] = (1 + q + n, t2, t4, [u ^ cols[3 * s] for u in t6])
        base, t2, t4, t6 = tables[a1, a3]
        t = t2[a2] ^ t4[a4]
        for a6 in range(q):
            if mul(c1, a6) != c0:  # c1 a6 + c0 = 0 in characteristic 2
                yield prefix + (a6,), base - 2 * (t ^ t6[a6]).bit_count()


def curve_search(field, min_n1):
    """Genus-1 curves over the field with N1 >= min_n1, sorted by N1
    descending then by coefficient tuple: each N1's bucket is one or two
    ascending runs of the sweep, which sort merges.  N1 is counted; N2
    follows from it through the zeta function (weil_count)."""
    q = field.size
    if q > CATALOG_Q_LIMIT:
        raise BudgetExceededError("curve search supports q <= %d" % CATALOG_Q_LIMIT)
    buckets = {}
    for coeffs, n1 in _sweep(field):
        if n1 >= min_n1:
            buckets.setdefault(n1, []).append(coeffs)
    return [CatalogEntry(field, a, n1) for n1 in sorted(buckets, reverse=True)
            for a in sorted(buckets[n1])]


@functools.cache
def best_stat_curves(field):
    """Two catalog entries per field: the maximal-N1 curve and the maximal
    N1+2N2 curve (N1+2N2 is the F_(q^2) point count).  N1 is counted and N2
    follows from it through the zeta function.  Scan stops early once both
    optima are provably reached."""
    q = field.size
    if q > CATALOG_Q_LIMIT:
        raise BudgetExceededError("curve search supports q <= %d" % CATALOG_Q_LIMIT)
    hmax = hasse_weil_max(q)
    best_n1 = None       # (n1, coeffs, n1)
    best_flat = None     # (|t|, coeffs, n1)
    for coeffs, n1 in _sweep(field):
        t = abs(q + 1 - n1)
        if best_n1 is None or n1 > best_n1[0]:
            best_n1 = (n1, coeffs, n1)
        if best_flat is None or t < best_flat[0]:
            best_flat = (t, coeffs, n1)
        if best_n1[0] == hmax and best_flat[0] == 0:
            break
    return [CatalogEntry(field, coeffs, n1) for _, coeffs, n1 in (best_n1, best_flat)]


def catalog_rows(entries):
    """Delimited export: p, q, the coefficients as element indices, genus, N1, N2."""
    rows, heads = [], {}
    for e in entries:
        if (head := heads.get(e.field)) is None:
            head = heads[e.field] = "%d,%d," % (e.field.char, e.field.size)
        rows.append("%s%s,1,%d,%d" % (head, ";".join(map(str, e.a)), e.n1, e.n2))
    return rows


def degree_n_place_count(q, n1, n):
    """The number of degree-n places of a genus-1 curve over F_q with N1 = n1:
    N1 fixes every #E(F_(q^d)) (weil_count), and Moebius inversion of
    #E(F_(q^n)) = sum over d | n of d * (degree-d places) gives the count."""
    return _place_count(n, {d: weil_count(q, n1, d) for d in divisors(n)})


def divisors(n):
    """The divisors of n >= 1 in increasing order, found in pairs (d, n / d)
    with d <= sqrt(n)."""
    low = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return low + [n // d for d in reversed(low) if d * d != n]


def _place_count(n, counts):
    """The degree-n place count from counts[d] = #E(F_(q^d)) for each d | n,
    the places of each degree d from those of the smaller divisors of d."""
    places = {}
    for d in sorted(counts):
        total = counts[d] - sum(e * c for e, c in places.items() if d % e == 0)
        if total % d:
            raise PostconditionError("point counts give %d degree-%d points, not a multiple of %d"
                                     % (total, d, d))
        places[d] = total // d
    return places[n]
