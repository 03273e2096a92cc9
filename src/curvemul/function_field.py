"""Genus-0 and genus-1 function fields over F_q.

Places, divisors, Riemann-Roch spaces, evaluation at places of arbitrary
degree, exhaustive point counting, a principality test through the elliptic
group law, and a searchable catalog of curves with (N1, N2) data.

Conventions fixed once so that every run reproduces the same objects:

* the residue field of a degree-d place is the canonical extension
  F_q[t]/(find_irreducible(F_q, d));
* a genus-0 finite place is a monic irreducible polynomial in x, identified
  with the residue field through its smallest root (by element index); the
  place whose polynomial *is* the canonical modulus maps x to the generator;
* a genus-1 place is a Frobenius orbit of an affine point, stored by its
  lexicographically smallest representative; evaluation at the place is
  evaluation at that representative.
"""

import math

from . import gf, linalg
from .gf import (FieldElement, Polynomial, canonical_extension, embed, lift,
                 find_irreducible, PostconditionError, SCAN_LIMIT)
from .series import Series, poly_on_series, newton_root

POINT_BUDGET = 1 << 20


class BudgetExceededError(RuntimeError):
    """Enumeration would exceed the fixed point budget."""


class PoleEvaluationError(ValueError):
    """Evaluation of a function at one of its poles."""


class UnsupportedDivisorError(ValueError):
    """Divisor shape outside the supported genus-0/1 repertoire."""


# ---------------------------------------------------------------------------
# quadratic fiber solver
# ---------------------------------------------------------------------------

_solver_tables = {}


def _square_table(F):
    """char != 2: map index(z^2) -> smallest z index."""
    tab = _solver_tables.get(("sq", id(F)))
    if tab is None:
        if F.size > POINT_BUDGET:
            raise BudgetExceededError("field too large for fiber tables")
        tab = {}
        for z in range(F.size):
            key = F.mul(z, z)
            if key not in tab:
                tab[key] = z
        _solver_tables[("sq", id(F))] = tab
    return tab


def _artin_schreier_table(F):
    """char == 2: map index(z^2 + z) -> smallest z index."""
    tab = _solver_tables.get(("as", id(F)))
    if tab is None:
        if F.size > POINT_BUDGET:
            raise BudgetExceededError("field too large for fiber tables")
        tab = {}
        for z in range(F.size):
            key = F.add(F.mul(z, z), z)
            if key not in tab:
                tab[key] = z
        _solver_tables[("as", id(F))] = tab
    return tab


def solve_quadratic(F, a, b):
    """Sorted index solutions y of y^2 + a*y = b over F."""
    if F.char == 2:
        if a == 0:
            # squaring is a bijection; the inverse is z -> z^(|F|/2)
            return [F.pow_(b, F.size // 2)]
        tab = _artin_schreier_table(F)
        c = F.mul(b, F.inv(F.mul(a, a)))
        z = tab.get(c)
        if z is None:
            return []
        return sorted((F.mul(a, z), F.add(F.mul(a, z), a)))
    inv2 = F.inv(F.index_of(F._scalar_value(2)))
    half_a = F.mul(a, inv2)
    disc = F.add(b, F.mul(half_a, half_a))
    if disc == 0:
        return [F.neg(half_a)]
    tab = _square_table(F)
    r = tab.get(disc)
    if r is None:
        return []
    return sorted((F.sub(r, half_a), F.sub(F.neg(r), half_a)))


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
                and other.kind == self.kind and other.data == self.data)

    def __hash__(self):
        return hash((id(self.curve), self.kind, self.data))

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


def place_divisor(place, mult=1):
    return Divisor({place: mult})


class RRBasis:
    """Explicit basis of a Riemann-Roch space L(D)."""

    __slots__ = ("divisor", "functions", "dimension")

    def __init__(self, divisor, functions):
        object.__setattr__(self, "divisor", divisor)
        object.__setattr__(self, "functions", tuple(functions))
        object.__setattr__(self, "dimension", len(functions))

    def __setattr__(self, *a):
        raise AttributeError("RRBasis is immutable")


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
        lc = den[den.degree]
        if lc.index != field.one_index:
            inv = lc.inverse()
            num, den = num * inv, den * inv
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
        if isinstance(other, RationalFunction):
            return RationalFunction(self.field, self.num * other.num, self.den * other.den)
        return RationalFunction(self.field, self.num * other, self.den)

    def scale(self, c):
        return RationalFunction(self.field, self.num * c, self.den)

    def eval_at(self, place):
        if place.kind == "inf":
            dn, dd = self.num.degree, self.den.degree
            if self.is_zero() or dn < dd:
                return self.field.zero()
            if dn > dd:
                raise PoleEvaluationError("pole at infinity")
            return self.num[dn] / self.den[dd]
        rho = place.curve._root_of(place)
        den_v = self.den(rho)
        if not den_v:
            raise PoleEvaluationError("pole at %r" % (place,))
        return self.num(rho) * den_v.inverse()

    def ord_at(self, place):
        if self.is_zero():
            return None
        if place.kind == "inf":
            return self.den.degree - self.num.degree
        pi = Polynomial._from_raw(self.field, place.data)

        def mult_in(poly):
            k = 0
            while True:
                q, r = divmod(poly, pi)
                if not r.is_zero():
                    return k
                poly, k = q, k + 1

        return mult_in(self.num) - mult_in(self.den)


class ProjectiveLine:
    """The rational function field F_q(x); genus 0."""

    genus = 0

    def __init__(self, field):
        self.field = field
        self._roots = {}

    def __repr__(self):
        return "P1(GF(%d))" % self.field.size

    @property
    def infinite_place(self):
        return Place(self, 1, "inf", None)

    def place_of_poly(self, poly):
        if isinstance(poly, Polynomial):
            raw = poly.coeffs
        else:
            raw = tuple(poly)
        if not gf.is_irreducible_raw(self.field, list(raw)):
            raise ValueError("place polynomial must be irreducible")
        return Place(self, len(raw) - 1, "poly", raw)

    def iter_places(self, d):
        """Finite places of degree d in encoding order (then infinity, d=1).

        Lazy: safe to pull a few places even when the full scan would be out
        of budget; `places` enforces the budget for complete lists.
        """
        F = self.field
        for k in range(F.size ** d):
            raw = gf._raw_from_int(F, k, d) + [F.one_index]
            if gf.is_irreducible_raw(F, raw):
                yield Place(self, d, "poly", tuple(raw))
        if d == 1:
            yield self.infinite_place

    def places(self, d):
        if self.field.size ** d > SCAN_LIMIT:
            raise BudgetExceededError("too many candidate polynomials")
        return list(self.iter_places(d))

    def rational_places(self):
        return self.places(1)

    def point_count(self, k=1):
        if self.field.size ** k > POINT_BUDGET:
            raise BudgetExceededError("point budget exceeded")
        return self.field.size ** k + 1

    def _root_of(self, place):
        """The fixed residue identification: smallest root of the place
        polynomial in the canonical F_(q^d); the canonical modulus itself
        maps to the generator."""
        rho = self._roots.get(place.data)
        if rho is not None:
            return rho
        d = place.degree
        R = canonical_extension(self.field, d)
        if d == 1:
            rho = self.field.from_index(self.field.neg(place.data[0]))
        elif place.data == R.modulus:
            rho = FieldElement(R, (0, self.field.one_index) + (0,) * (R.deg - 2))
        else:
            if R.size > SCAN_LIMIT:
                raise BudgetExceededError("root scan too large")
            poly = Polynomial._from_raw(self.field, place.data)
            rho = next(x for x in R if not poly(x))
        self._roots[place.data] = rho
        return rho

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
        funcs = []
        x = Polynomial(F, [0, 1])
        for j in range(J + 1):
            funcs.append(RationalFunction(F, z * x ** j, m))
        return RRBasis(D, funcs)

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
        if not isinstance(other, CurveFunction):
            return CurveFunction(self.curve, self.anum * other, self.bnum * other, self.den)
        E = self.curve
        F = E.field
        x = Polynomial(F, [0, 1])
        rhs = x ** 3 + x ** 2 * F.from_index(E.a[1]) + x * F.from_index(E.a[3]) \
            + Polynomial(F, [F.from_index(E.a[4])])
        ylin = x * F.from_index(E.a[0]) + Polynomial(F, [F.from_index(E.a[2])])
        bb = self.bnum * other.bnum
        anum = self.anum * other.anum + bb * rhs
        bnum = self.anum * other.bnum + other.anum * self.bnum - bb * ylin
        return CurveFunction(E, anum, bnum, self.den * other.den)

    def scale(self, c):
        return CurveFunction(self.curve, self.anum * c, self.bnum * c, self.den)

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
        E = self.curve
        if place.kind == "origin":
            o = self._origin_order()
            if o is None or o > 0:
                return E.field.zero()
            if o < 0:
                raise PoleEvaluationError("pole at the origin")
            return self.anum[self.anum.degree] / self.den[self.den.degree]
        R = place.residue_field
        x0, y0 = place.data
        xe = R.from_index(x0)
        ye = R.from_index(y0)
        den_v = self.den(xe)
        if den_v:
            return (self.anum(xe) + self.bnum(xe) * ye) * den_v.inverse()
        # apparent singularity: decide by local expansion
        prec = 2 * self.den.degree + 2 * max(self.anum.degree, self.bnum.degree, 0) + 4
        num_s, den_s = self._local_series(place, prec)
        vn, vd = num_s.valuation(), den_s.valuation()
        if vn is None:
            vn = prec
        if vn < vd:
            raise PoleEvaluationError("pole at %r" % (place,))
        if vn > vd:
            return R.zero()
        return R.from_index(R.mul(num_s.coeffs[vn], R.inv(den_s.coeffs[vd])))

    def _local_series(self, place, prec):
        R = place.residue_field
        xs, ys = self.curve.expand_branch(place, prec)
        a_s = poly_on_series(R, [embed(c, R).index if R is not self.curve.field else c.index
                                 for c in _poly_elems(self.anum)], xs)
        b_s = poly_on_series(R, [embed(c, R).index if R is not self.curve.field else c.index
                                 for c in _poly_elems(self.bnum)], xs)
        d_s = poly_on_series(R, [embed(c, R).index if R is not self.curve.field else c.index
                                 for c in _poly_elems(self.den)], xs)
        return a_s + b_s * ys, d_s

    def ord_at(self, place):
        if self.is_zero():
            return None
        if place.kind == "origin":
            return self._origin_order()
        bound = 2 * (self.den.degree + max(self.anum.degree, self.bnum.degree, 0)) + 6
        num_s, den_s = self._local_series(place, bound)
        vn, vd = num_s.valuation(), den_s.valuation()
        if vn is None or vd is None:
            raise PostconditionError("precision bound too small")
        return vn - vd


def _poly_elems(poly):
    return [poly[i] for i in range(poly.degree + 1)] if not poly.is_zero() else []


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
            elif isinstance(v, int) and 0 <= v < field.size:
                idx.append(v)  # ints are canonical element indices
            else:
                raise ValueError("bad Weierstrass coefficient %r" % (v,))
        self.a = tuple(idx)
        self._coeff_cache = {}
        if self.discriminant() == 0:
            raise ValueError("singular Weierstrass equation")

    def __repr__(self):
        return "E(%s; GF(%d))" % (",".join(map(str, self.a)), self.field.size)

    def coefficients(self):
        return self.a

    def discriminant(self):
        F = self.field
        a1, a2, a3, a4, a6 = (F.from_index(i) for i in self.a)
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        disc = -(b2 * b2) * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
        return disc.index

    def _coeffs_in(self, R):
        if R is self.field:
            return self.a
        hit = self._coeff_cache.get(id(R))
        if hit is None:
            hit = tuple(embed(self.field.from_index(i), R).index for i in self.a)
            self._coeff_cache[id(R)] = hit
        return hit

    @property
    def origin_place(self):
        return Place(self, 1, "origin", None)

    # --- point enumeration and the group law (indices in R; None is O) ---

    def fiber(self, R, x):
        a1, a2, a3, a4, a6 = self._coeffs_in(R)
        aa = R.add(R.mul(a1, x), a3)
        x2 = R.mul(x, x)
        bb = R.add(R.add(R.mul(x2, x), R.mul(a2, x2)),
                   R.add(R.mul(a4, x), a6))
        return solve_quadratic(R, aa, bb)

    def points(self, R):
        """Affine points over R in (x, y) index order; O is not included."""
        if R.size > POINT_BUDGET:
            raise BudgetExceededError("point budget exceeded")
        out = []
        for x in range(R.size):
            for y in self.fiber(R, x):
                out.append((x, y))
        return out

    def point_count(self, k=1):
        R = canonical_extension(self.field, k)
        if R.size > POINT_BUDGET:
            raise BudgetExceededError("point budget exceeded")
        total = 1
        for x in range(R.size):
            total += len(self.fiber(R, x))
        return total

    def neg_point(self, R, P):
        if P is None:
            return None
        a1, _, a3, _, _ = self._coeffs_in(R)
        x, y = P
        return (x, R.neg(R.add(R.add(y, R.mul(a1, x)), a3)))

    def add_points(self, R, P, Q):
        if P is None:
            return Q
        if Q is None:
            return P
        a1, a2, a3, a4, _ = self._coeffs_in(R)
        x1, y1 = P
        x2, y2 = Q
        if x1 == x2 and Q == self.neg_point(R, P):
            return None
        if P == Q:
            three = R.index_of(R._scalar_value(3))
            two = R.index_of(R._scalar_value(2))
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
        its lexicographic minimum, which is the stored representative."""
        R = canonical_extension(self.field, d)
        if R.size > POINT_BUDGET:
            raise BudgetExceededError("point budget exceeded")
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

    # --- local expansions ---

    def expand_branch(self, place, prec):
        """Series (x(t), y(t)) at the representative point, t a uniformizer."""
        R = place.residue_field
        a1, a2, a3, a4, a6 = self._coeffs_in(R)
        x0, y0 = place.data
        two = R.index_of(R._scalar_value(2))
        dy = R.add(R.mul(two, y0), R.add(R.mul(a1, x0), a3))
        if dy != 0:
            xs = Series(R, [x0, R.one_index], prec)
            h = poly_on_series(R, [a3, a1], xs)                  # a1 x + a3
            rr = poly_on_series(R, [a6, a4, a2, R.one_index], xs)
            g = [-rr, h, Series.constant(R, R.one_index, prec)]  # Y^2 + hY - r
            ys = newton_root(R, g, y0, prec)
            return xs, ys
        ys = Series(R, [y0, R.one_index], prec)
        one = Series.constant(R, R.one_index, prec)
        c2 = Series.constant(R, a2, prec)
        c1 = Series.constant(R, a4, prec) - ys.scale(a1)
        c0 = Series.constant(R, a6, prec) - ys * ys - ys.scale(a3)
        xs = newton_root(R, [c0, c1, c2, one], x0, prec)
        return xs, ys

    # --- Riemann-Roch ---

    def _norm_poly(self, place):
        """h_P(x) = product over the orbit of (x - x_i), descended to F_q."""
        R = place.residue_field
        coeffs = [R.one_index]
        for (xi, _) in self.orbit_points(place):
            new = [0] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                new[i + 1] = R.add(new[i + 1], c)
                new[i] = R.add(new[i], R.mul(R.neg(xi), c))
            coeffs = new
        if R is self.field:
            return Polynomial._from_raw(self.field, tuple(coeffs))
        down = [lift(R.from_index(c)) for c in coeffs]
        return Polynomial(self.field, down)

    def riemann_roch(self, D):
        """L(D) by embedding into L(M*O).

        With u the product of orbit-norm polynomials over the positive finite
        part of D, every f in L(D) is g/u with g regular away from O; g then
        ranges over L(M*O) subject to vanishing conditions of order
        ord_P(u) - D(P) at the finitely many affected places.
        """
        F = self.field
        m_O = D.get(self.origin_place)
        plus = [(p, m) for p, m in D.items() if p.kind != "origin" and m > 0]
        u = Polynomial(F, [1])
        for p, m in plus:
            u = u * self._norm_poly(p) ** m
        M = m_O + 2 * sum(m * p.degree for p, m in plus)
        if M < 0:
            return RRBasis(D, [])
        monomials = [(i, 0) for i in range(M // 2 + 1)]
        monomials += [(i, 1) for i in range((M - 3) // 2 + 1)] if M >= 3 else []
        monomials.sort(key=lambda ie: 2 * ie[0] + 3 * ie[1])

        relevant = set(p for p, _ in D.items() if p.kind != "origin")
        for p, _ in plus:
            relevant.add(self.flip_place(p))
        rows = []
        u_raw = list(u.coeffs)
        for p in sorted(relevant, key=lambda q: q.sort_key()):
            R = p.residue_field
            prec0 = 2 * max(u.degree, 1) + 2
            xs, _ = self.expand_branch(p, prec0)
            u_series = poly_on_series(R, [embed(F.from_index(c), R).index
                                          if R is not F else c for c in u_raw], xs)
            vu = u_series.valuation()
            if vu is None:
                raise PostconditionError("norm polynomial vanished identically")
            e = vu - D.get(p)
            if e <= 0:
                continue
            xs, ys = self.expand_branch(p, e)
            mono_series = []
            xpow = Series.constant(R, R.one_index, e)
            xpows = []
            for _ in range(M // 2 + 1):
                xpows.append(xpow)
                xpow = xpow * xs
            for (i, eps) in monomials:
                s = xpows[i] * ys if eps else xpows[i]
                mono_series.append(s)
            d_R = p.degree
            for ell in range(e):
                for c in range(d_R):
                    row = []
                    for s in mono_series:
                        if d_R == 1:
                            row.append(s.coeffs[ell])
                        else:
                            row.append(R.value_of(s.coeffs[ell])[c])
                    rows.append(row)
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
        return RRBasis(D, funcs)

    # --- divisor classes ---

    def place_group_sum(self, place):
        """Sum of the orbit points under the group law, descended to E(F_q)."""
        if place.kind == "origin":
            return None
        R = place.residue_field
        acc = None
        for pt in self.orbit_points(place):
            acc = self.add_points(R, acc, pt)
        if acc is None or R is self.field:
            return acc
        x = lift(R.from_index(acc[0])).index
        y = lift(R.from_index(acc[1])).index
        return (x, y)

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
    __slots__ = ("curve", "n1", "n2")

    def __init__(self, curve, n1, n2):
        self.curve = curve
        self.n1 = n1
        self.n2 = n2

    def __repr__(self):
        return "CatalogEntry(%r, N1=%d, N2=%d)" % (self.curve, self.n1, self.n2)


def hasse_weil_max(q):
    return q + 1 + math.isqrt(4 * q)


def _weierstrass_family(F):
    """Deterministic iterator of (a1,..,a6) index tuples; the full q^5 sweep
    when small, else normal-form families covering every isomorphism class."""
    q = F.size
    if q ** 5 <= (1 << 15):
        for a1 in range(q):
            for a2 in range(q):
                for a3 in range(q):
                    for a4 in range(q):
                        for a6 in range(q):
                            yield (a1, a2, a3, a4, a6)
        return
    p = F.char
    if p == 2:
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


def _try_curve(F, coeffs):
    try:
        return EllipticCurve(F, *(F.from_index(i) for i in coeffs))
    except ValueError:
        return None


def curve_search(field, min_n1, max_entries=None):
    """Genus-1 curves over the field with N1 >= min_n1, each with verified
    (N1, N2), sorted by N1 descending then by coefficient tuple."""
    q = field.size
    if q > 64:
        raise BudgetExceededError("curve search supports q <= 64")
    found = []
    for coeffs in _weierstrass_family(field):
        E = _try_curve(field, coeffs)
        if E is None:
            continue
        n1 = E.point_count(1)
        if n1 >= min_n1:
            found.append((coeffs, E, n1))
    found.sort(key=lambda t: (-t[2], t[0]))
    if max_entries is not None:
        found = found[:max_entries]
    out = []
    for coeffs, E, n1 in found:
        n2 = (E.point_count(2) - n1) // 2
        out.append(CatalogEntry(E, n1, n2))
    return out


_best_curves_cache = {}


def best_stat_curves(field):
    """Two catalog entries per field: the maximal-N1 curve and the maximal
    N1+2N2 curve (N1+2N2 is the F_(q^2) point count); both N2 verified by
    enumeration.  Scan stops early once both optima are provably reached."""
    key = id(field)
    hit = _best_curves_cache.get(key)
    if hit is not None:
        return hit
    q = field.size
    if q > 64:
        raise BudgetExceededError("curve search supports q <= 64")
    hmax = hasse_weil_max(q)
    best_n1 = None       # (n1, coeffs, curve)
    best_flat = None     # (|t|, coeffs, curve)
    for coeffs in _weierstrass_family(field):
        E = _try_curve(field, coeffs)
        if E is None:
            continue
        n1 = E.point_count(1)
        t = abs(q + 1 - n1)
        if best_n1 is None or n1 > best_n1[0]:
            best_n1 = (n1, coeffs, E)
        if best_flat is None or t < best_flat[0]:
            best_flat = (t, coeffs, E)
        if best_n1[0] == hmax and best_flat[0] == 0:
            break
    entries = []
    for _, _, E in (best_n1, best_flat):
        n1 = E.point_count(1)
        n2 = (E.point_count(2) - n1) // 2
        entries.append(CatalogEntry(E, n1, n2))
    _best_curves_cache[key] = entries
    return entries


def catalog_rows(entries):
    """Delimited export: p, q, encoded coefficients, genus, N1, N2."""
    rows = []
    for e in entries:
        F = e.curve.field
        rows.append("%d,%d,%s,1,%d,%d"
                    % (F.char, F.size, ";".join(str(c) for c in e.curve.a), e.n1, e.n2))
    return rows


def degree_n_place_exists(curve, n):
    """Constructive or count-based certificate that a degree-n place exists."""
    if curve.genus == 0:
        return True  # monic irreducibles of every degree exist
    q = curve.field.size
    if q ** n > POINT_BUDGET:
        raise BudgetExceededError("cannot certify constructively within budget")
    counts = {}
    for d in sorted(set(_divisors(n))):
        counts[d] = curve.point_count(d)
    n_places = counts[n] - sum(d * _place_count(curve, d, counts) for d in _divisors(n) if d < n)
    return n_places > 0


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _place_count(curve, d, counts):
    total = counts[d]
    for e in _divisors(d):
        if e < d:
            total -= e * _place_count(curve, e, counts)
    if total % d:
        raise PostconditionError("point counts give %d degree-%d points, not a multiple of %d"
                                 % (total, d, d))
    return total // d
