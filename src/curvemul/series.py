"""Truncated power series over a finite field.

Used for local expansions at places of a curve: solving the curve equation
for a branch through a point (Newton iteration, doubling the precision at
each step) and reading off valuations and leading coefficients.
Coefficients are element indices of the field; a Series of precision P
represents c0 + c1 t + ... + c_(P-1) t^(P-1) + O(t^P).
"""

from .gf import PostconditionError


class Series:
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
        f = self.field
        n = min(self.prec, other.prec)
        return Series(f, [f.add(a, b) for a, b in zip(self.coeffs[:n], other.coeffs[:n])])

    def __sub__(self, other):
        f = self.field
        n = min(self.prec, other.prec)
        return Series(f, [f.sub(a, b) for a, b in zip(self.coeffs[:n], other.coeffs[:n])])

    def __neg__(self):
        f = self.field
        return Series(f, [f.neg(a) for a in self.coeffs])

    def __mul__(self, other):
        f = self.field
        add, mul = f.add, f.mul
        n = min(self.prec, other.prec)
        out = [0] * n
        for i, a in enumerate(self.coeffs[:n]):
            if a:
                for j, b in enumerate(other.coeffs[: n - i]):
                    if b:
                        out[i + j] = add(out[i + j], mul(a, b))
        return Series(f, out)

    def scale(self, c):
        f = self.field
        return Series(f, [f.mul(c, a) for a in self.coeffs])

    def inverse(self):
        """Multiplicative inverse; requires a unit (nonzero constant term)."""
        f = self.field
        if not self.coeffs or self.coeffs[0] == 0:
            raise ZeroDivisionError("series is not a unit")
        inv0 = f.inv(self.coeffs[0])
        out = [inv0] + [0] * (self.prec - 1)
        for k in range(1, self.prec):
            acc = 0
            for i in range(1, k + 1):
                ai = self.coeffs[i] if i < self.prec else 0
                if ai and out[k - i]:
                    acc = f.add(acc, f.mul(ai, out[k - i]))
            out[k] = f.neg(f.mul(inv0, acc))
        return Series(f, out)

    def valuation(self):
        """Index of the first nonzero coefficient, or None if zero to prec."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def truncate(self, prec):
        return Series(self.field, self.coeffs, prec)

    def __repr__(self):
        return "Series(%s + O(t^%d))" % (self.coeffs, self.prec)


def poly_on_series(field, poly_coeffs, s):
    """Evaluate a polynomial (raw index list over `field`) at a Series."""
    acc = Series.constant(field, 0, s.prec)
    for c in reversed(poly_coeffs):
        acc = acc * s + Series.constant(field, c, s.prec)
    return acc


def newton_root(field, g_coeffs, y0, prec):
    """Root of G(Y) = sum g_coeffs[i] * Y^i with series coefficients.

    y0 is the constant-term seed: G(y0) must vanish at t=0 and G'(y0) must be
    a unit.  Returns the unique series root with that constant term, to the
    requested precision.  Each Newton step doubles the number of correct
    coefficients, so the root is lifted from precision 1 to 2, 4, ... up to
    prec, each step on the equation truncated to its own precision (Brent
    and Kung, 1978).
    """
    y = Series.constant(field, y0, 1)
    k = 1
    while k < prec:
        k = min(2 * k, prec)
        g = [c.truncate(k) for c in g_coeffs]
        dg = [g[i].scale(i % field.char) for i in range(1, len(g))]
        y = y.truncate(k)
        y = y - _horner(g, y) * _horner(dg, y).inverse()
    if _horner([c.truncate(prec) for c in g_coeffs], y).valuation() is not None:
        raise PostconditionError("Newton iteration failed to converge")
    return y


def _horner(coeffs, s):
    """sum coeffs[i] * s^i for series coefficients, at s's precision."""
    acc = Series.constant(s.field, 0, s.prec)
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc
