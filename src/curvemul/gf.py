"""Exact arithmetic in small finite fields and their extension towers.

Fields are built as F_p -> F_q -> F_(q^n) with explicit defining polynomials.
An element of a prime field is an integer in {0, ..., p-1}; an element of an
extension field is a tuple of *indices* of base-field elements (little-endian
coefficients of the residue class).  Every element therefore has a canonical
integer index obtained by reading the coefficient tuple in base |base field|,
which doubles as the serialization format and as the deterministic ordering
used everywhere in this package.

Field objects are interned: asking twice for the same (base, modulus) pair
returns the same object, so residue fields produced in different places are
identical and elements can be mixed freely.  All types are immutable and all
operations are pure.
"""

from array import array

TABLE_LIMIT = 1 << 16  # exp/log (Zech) index tables up to this size: O(size) memory
SCAN_LIMIT = 1 << 20   # never enumerate a field bigger than this


class LevelMismatchError(ValueError):
    """Raised when combining elements of different fields."""


class NotInSubfieldError(ValueError):
    """Raised when lifting an element that is not in the subfield."""


class PostconditionError(RuntimeError):
    """A result the library computed failed its own check: a library bug,
    not bad input.  Raised explicitly, so `python -O` cannot strip it."""


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def factor_prime_power(q):
    """Return (p, s) with q = p**s, or raise ValueError."""
    if q < 2:
        raise ValueError("not a prime power: %r" % (q,))
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        return q, 1
    s = 0
    m = q
    while m % p == 0:
        m //= p
        s += 1
    if m != 1:
        raise ValueError("not a prime power: %r" % (q,))
    return p, s


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# raw polynomial helpers
#
# Polynomials over a field are plain lists of element indices, little-endian,
# with no trailing zeros.  These helpers are the hot path for irreducibility
# testing and extension-field reduction; the public Polynomial class wraps
# them.
# ---------------------------------------------------------------------------

def _ptrim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _padd(F, a, b):
    add = F.add
    n = max(len(a), len(b))
    out = [0] * n
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out[i] = add(x, y)
    return _ptrim(out)


def _psub(F, a, b):
    sub = F.sub
    n = max(len(a), len(b))
    out = [0] * n
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out[i] = sub(x, y)
    return _ptrim(out)


def _pmul(F, a, b):
    if not a or not b:
        return []
    add, mul = F.add, F.mul
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = add(out[i + j], mul(ai, bj))
    return _ptrim(out)


def _pscale(F, a, s):
    if s == 0:
        return []
    mul = F.mul
    return _ptrim([mul(ai, s) for ai in a])


def _pdivmod(F, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    db, dlead = len(b) - 1, b[-1]
    inv_lead = F.inv(dlead)
    q = [0] * max(0, len(r) - db)
    sub, mul = F.sub, F.mul
    while len(r) - 1 >= db and r:
        k = len(r) - 1 - db
        c = mul(r[-1], inv_lead)
        q[k] = c
        for i in range(db + 1):
            r[k + i] = sub(r[k + i], mul(c, b[i]))
        _ptrim(r)
    return _ptrim(q), r


def _pmod(F, a, b):
    return _pdivmod(F, a, b)[1]


def _pgcd(F, a, b):
    a, b = list(a), list(b)
    while b:
        a, b = b, _pmod(F, a, b)
    if a:
        a = _pscale(F, a, F.inv(a[-1]))
    return a


def _pinvmod(F, a, m):
    """Inverse of a modulo m (extended Euclid); a must be coprime to m."""
    r0, r1 = list(m), _pmod(F, a, m)
    s0, s1 = [], [F.one_index]
    while r1:
        q, r2 = _pdivmod(F, r0, r1)
        r0, r1 = r1, r2
        s0, s1 = s1, _psub(F, s0, _pmul(F, q, s1))
    if len(r0) != 1:
        raise ZeroDivisionError("element not invertible modulo the given polynomial")
    return _pscale(F, s0, F.inv(r0[-1]))


def _ppowmod(F, a, e, m):
    result = [F.one_index]
    base = _pmod(F, a, m)
    while e:
        if e & 1:
            result = _pmod(F, _pmul(F, result, base), m)
        base = _pmod(F, _pmul(F, base, base), m)
        e >>= 1
    return result


def _peval(F, a, x):
    """Evaluate a polynomial over F at an element index x of F (Horner)."""
    acc = 0
    add, mul = F.add, F.mul
    for c in reversed(a):
        acc = add(mul(acc, x), c)
    return acc


def _raw_from_int(F, k, length):
    """Little-endian digits of k in base |F|, padded to `length`."""
    out = []
    for _ in range(length):
        k, r = divmod(k, F.size)
        out.append(r)
    return out


def is_irreducible_raw(F, coeffs):
    """Deterministic irreducibility test for a polynomial over F.

    The distinct-degree gcd test (Rabin, "Probabilistic algorithms in finite
    fields", SIAM J. Comput. 1980): f of degree d is irreducible iff
    gcd(x^(q^k) - x, f) = 1 for all k <= d/2, since any proper factorization
    contains a factor of degree <= d/2.  No randomness.
    """
    d = len(coeffs) - 1
    if d <= 0:
        return False
    if d == 1:
        return True
    x = [0, F.one_index]
    q = F.size
    cur = list(x)
    for _ in range(d // 2):
        cur = _ppowmod(F, cur, q, coeffs)
        if len(_pgcd(F, _psub(F, cur, x), coeffs)) != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

class _FieldBase:
    """Shared behaviour of prime and extension fields.

    Index-level operations (`add`, `mul`, ...) act on canonical integer
    indices; value-level operations (`vadd`, `vmul`, ...) act on the raw
    element values (int for prime fields, tuple of base indices for
    extensions).  Both views are exact and interchangeable.  Index ops are
    the fast path: prime fields compute them mod p, extension fields of at
    most TABLE_LIMIT elements look them up in exp/log (Zech) tables, and
    larger extension fields fall back to the value ops.
    """

    def element(self, x):
        """Coerce x (FieldElement, int index of prime subfield, raw value)."""
        if isinstance(x, FieldElement):
            if x.field is not self:
                raise LevelMismatchError("element of %s used in %s" % (x.field, self))
            return x
        if isinstance(x, int):
            return self.scalar(x)
        return FieldElement(self, self._check_value(x))

    def scalar(self, k):
        """Image of the integer k under Z -> F (prime subfield constant)."""
        return FieldElement(self, self._scalar_value(k))

    def _scalar_value(self, k):
        raise NotImplementedError

    def zero(self):
        return self.from_index(0)

    def one(self):
        return self.from_index(self.one_index)

    def from_index(self, i):
        if not 0 <= i < self.size:
            raise ValueError("index out of range")
        return FieldElement(self, self.value_of(i))

    def __iter__(self):
        if self.size > SCAN_LIMIT:
            raise ValueError("field too large to enumerate")
        for i in range(self.size):
            yield self.from_index(i)

    def __len__(self):
        return self.size

    def sub(self, i, j):
        return self.add(i, self.neg(j))

    def pow_(self, i, e):
        if e < 0:
            i = self.inv(i)
            e = -e
        r = self.one_index
        while e:
            if e & 1:
                r = self.mul(r, i)
            i = self.mul(i, i)
            e >>= 1
        return r


class PrimeField(_FieldBase):
    """F_p with elements represented by integers in {0, ..., p-1}."""

    def __init__(self, p):
        if not is_prime(p):
            raise ValueError("%r is not prime" % (p,))
        self.p = p
        self.char = p
        self.size = p
        self.degree = 1
        self.base = None
        self.one_index = 1 % p

    def __repr__(self):
        return "GF(%d)" % self.p

    def _check_value(self, v):
        if not (isinstance(v, int) and 0 <= v < self.p):
            raise ValueError("bad prime-field value %r" % (v,))
        return v

    def _scalar_value(self, k):
        return k % self.p

    # index ops (index == value here)
    def add(self, i, j):
        return (i + j) % self.p

    def neg(self, i):
        return (-i) % self.p

    def mul(self, i, j):
        return (i * j) % self.p

    def inv(self, i):
        if i == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(i, self.p - 2, self.p)

    # value ops
    vadd = add
    vneg = neg
    vmul = mul
    vinv = inv

    def vsub(self, a, b):
        return (a - b) % self.p

    def vpow(self, a, e):
        return self.pow_(a, e)

    def index_of(self, v):
        return v

    def value_of(self, i):
        return i


class ExtensionField(_FieldBase):
    """F[x]/(modulus) for a monic irreducible modulus over the base field F.

    Element values are tuples of base-field indices of length deg(modulus).
    """

    def __init__(self, base, modulus):
        modulus = tuple(modulus)
        d = len(modulus) - 1
        if d < 1:
            raise ValueError("modulus must have degree >= 1")
        if modulus[-1] != base.one_index:
            raise ValueError("modulus must be monic")
        if d > 1 and not is_irreducible_raw(base, list(modulus)):
            raise ValueError("modulus is not irreducible over %r" % (base,))
        self.base = base
        self.modulus = modulus
        self.deg = d
        self.char = base.char
        self.size = base.size ** d
        self.degree = base.degree * d
        self.one_index = base.one_index  # index of (1, 0, ..., 0)
        # reduction rows: x^(d+k) mod modulus for k = 0 .. d-2
        rows = []
        row = [base.neg(c) for c in modulus[:d]]
        rows.append(tuple(row))
        for _ in range(d - 2):
            shifted = [0] + row[:-1]
            lead = row[-1]
            if lead:
                r0 = rows[0]
                shifted = [base.add(shifted[i], base.mul(lead, r0[i])) for i in range(d)]
            row = shifted
            rows.append(tuple(row))
        self._red_rows = rows
        self._exp = self._log = self._zech = None

    def __repr__(self):
        return "GF(%d)" % self.size if self.size < 10 ** 9 else "GF(%d^%d)" % (self.base.size, self.deg)

    def _check_value(self, v):
        if not (isinstance(v, tuple) and len(v) == self.deg
                and all(isinstance(c, int) and 0 <= c < self.base.size for c in v)):
            raise ValueError("bad extension-field value %r" % (v,))
        return v

    def _scalar_value(self, k):
        c = self.base.index_of(self.base._scalar_value(k))
        return (c,) + (0,) * (self.deg - 1)

    def index_of(self, v):
        idx = 0
        b = self.base.size
        for c in reversed(v):
            idx = idx * b + c
        return idx

    def value_of(self, i):
        b = self.base.size
        out = []
        for _ in range(self.deg):
            i, r = divmod(i, b)
            out.append(r)
        return tuple(out)

    # --- value-level arithmetic on coefficient tuples ---

    def vadd(self, a, b):
        add = self.base.add
        return tuple(add(x, y) for x, y in zip(a, b))

    def vsub(self, a, b):
        sub = self.base.sub
        return tuple(sub(x, y) for x, y in zip(a, b))

    def vneg(self, a):
        neg = self.base.neg
        return tuple(neg(x) for x in a)

    def vmul(self, a, b):
        base = self.base
        badd, bmul = base.add, base.mul
        d = self.deg
        if d == 1:
            return (bmul(a[0], b[0]),)
        prod = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] = badd(prod[i + j], bmul(ai, bj))
        rows = self._red_rows
        for k in range(2 * d - 2, d - 1, -1):
            c = prod[k]
            if c:
                row = rows[k - d]
                for i in range(d):
                    if row[i]:
                        prod[i] = badd(prod[i], bmul(c, row[i]))
        return tuple(prod[:d])

    def vinv(self, a):
        if not any(a):
            raise ZeroDivisionError("inverse of zero")
        raw = _pinvmod(self.base, _ptrim(list(a)), list(self.modulus))
        return tuple(raw) + (0,) * (self.deg - len(raw))

    def vpow(self, a, e):
        if e < 0:
            a, e = self.vinv(a), -e
        r = self.value_of(self.one_index)
        while e:
            if e & 1:
                r = self.vmul(r, a)
            a = self.vmul(a, a)
            e >>= 1
        return r

    # --- index-level arithmetic ---
    #
    # A field of at most TABLE_LIMIT elements builds, on first use and with
    # about N vmul calls, tables over its smallest primitive element g:
    # _exp[k] = g^k (twice over, so a sum of two logs needs no reduction) and
    # _log[g^k] = k.  Odd characteristic adds _zech[k] = log(1 + g^k), so that
    # g^a + g^b = g^(a + Z[b - a]); a negative b - a indexes from the end,
    # which is its residue mod N - 1.  No Z[k] is 0, so 0 marks 1 + g^k = 0.

    def _ensure_tables(self):
        """Build the tables of a table field; return _log, or None above the limit."""
        if self._log is None and self.size <= TABLE_LIMIT:
            m = self.size - 1
            one = self.value_of(self.one_index)
            factors = _prime_factors(m)
            g = next(v for v in map(self.value_of, range(1, self.size))
                     if all(self.vpow(v, m // r) != one for r in factors))
            # While every entry is a cached small int a list costs one pointer
            # per entry and indexes fastest; larger fields use 2-byte arrays.
            zero = [0] if self.size <= 256 else array("H", [0])
            exp, log = zero * (2 * m), zero * self.size
            v = one
            for k in range(m):
                i = self.index_of(v)
                exp[k] = exp[k + m] = i
                log[i] = k
                v = self.vmul(v, g)
            if self.char != 2:
                b, badd, bone = self.base.size, self.base.add, self.base.one_index
                zech = self._zech = zero * m
                for k in range(m):
                    i = exp[k]
                    zech[k] = log[i - i % b + badd(i % b, bone)]
            self._exp, self._log = exp, log
        return self._log

    def add(self, i, j):
        if self.char == 2:
            return i ^ j
        if not (i and j):
            return i or j
        log = self._log or self._ensure_tables()
        if log is None:
            return self.index_of(self.vadd(self.value_of(i), self.value_of(j)))
        a = log[i]
        z = self._zech[log[j] - a]
        return self._exp[a + z] if z else 0

    def neg(self, i):
        if self.char == 2 or not i:
            return i
        log = self._log or self._ensure_tables()
        if log is None:
            return self.index_of(self.vneg(self.value_of(i)))
        return self._exp[log[i] + (self.size - 1) // 2]

    def mul(self, i, j):
        if not (i and j):
            return 0
        log = self._log or self._ensure_tables()
        if log is None:
            return self.index_of(self.vmul(self.value_of(i), self.value_of(j)))
        return self._exp[log[i] + log[j]]

    def inv(self, i):
        if i == 0:
            raise ZeroDivisionError("inverse of zero")
        log = self._log or self._ensure_tables()
        if log is None:
            return self.index_of(self.vinv(self.value_of(i)))
        return self._exp[self.size - 1 - log[i]]


_prime_fields = {}
_extension_fields = {}


def prime_field(p):
    """Interned F_p."""
    f = _prime_fields.get(p)
    if f is None:
        f = _prime_fields[p] = PrimeField(p)
    return f


def extension(base, modulus):
    """Interned base[x]/(modulus); modulus is a raw tuple or Polynomial."""
    if isinstance(modulus, Polynomial):
        if modulus.field is not base:
            raise LevelMismatchError("modulus is not over the base field")
        modulus = modulus.coeffs
    modulus = tuple(modulus)
    key = (id(base), modulus)
    f = _extension_fields.get(key)
    if f is None:
        f = _extension_fields[key] = ExtensionField(base, modulus)
    return f


def canonical_extension(base, d):
    """The canonical degree-d extension: modulus = find_irreducible(base, d)."""
    if d == 1:
        return base
    return extension(base, find_irreducible(base, d))


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

class FieldElement:
    """An element of a finite field, immutable and hashable.

    Supports +, -, *, /, ** and integer coercion of the other operand.
    """

    __slots__ = ("field", "val")

    def __init__(self, field, val):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "val", val)

    def __setattr__(self, *a):
        raise AttributeError("FieldElement is immutable")

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise LevelMismatchError("mixing elements of %s and %s"
                                         % (self.field, other.field))
            return other
        if isinstance(other, int):
            return self.field.scalar(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.vadd(self.val, o.val))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.vsub(self.val, o.val))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.vsub(o.val, self.val))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.vmul(self.val, o.val))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.vmul(self.val, self.field.vinv(o.val)))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.vmul(o.val, self.field.vinv(self.val)))

    def __neg__(self):
        return FieldElement(self.field, self.field.vneg(self.val))

    def __pow__(self, e):
        return FieldElement(self.field, self.field.vpow(self.val, e))

    def inverse(self):
        return FieldElement(self.field, self.field.vinv(self.val))

    def frobenius(self, k=1):
        """x -> x^(p^k), the k-fold absolute Frobenius."""
        return self ** (self.field.char ** k)

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field is other.field and self.val == other.val
        if isinstance(other, int):
            return self == self.field.scalar(other)
        return NotImplemented

    def __hash__(self):
        return hash((id(self.field), self.val))

    def __bool__(self):
        return self.index != 0

    @property
    def index(self):
        return self.field.index_of(self.val) if isinstance(self.field, ExtensionField) else self.val

    @property
    def coeffs(self):
        """Coefficient vector over the base field (length 1 for prime fields)."""
        if isinstance(self.field, ExtensionField):
            return tuple(FieldElement(self.field.base, self.field.base.value_of(c))
                         for c in self.val)
        return (self,)

    def encode(self):
        """Nested-array serialization: int at prime level, lists above."""
        if isinstance(self.field, ExtensionField):
            return [FieldElement(self.field.base, self.field.base.value_of(c)).encode()
                    for c in self.val]
        return self.val

    def __repr__(self):
        return "%r(%d)" % (self.field, self.index)


def decode_element(field, data):
    """Inverse of FieldElement.encode."""
    if isinstance(field, ExtensionField):
        if not (isinstance(data, (list, tuple)) and len(data) == field.deg):
            raise ValueError("bad encoding for %r" % (field,))
        return FieldElement(field, tuple(decode_element(field.base, c).index for c in data))
    if not (isinstance(data, int) and 0 <= data < field.size):
        raise ValueError("bad encoding for %r" % (field,))
    return FieldElement(field, data)


def embed(x, target):
    """Embed x into `target`, an extension field with base fieldx.field."""
    if target is x.field:
        return x
    if isinstance(target, ExtensionField) and target.base is x.field:
        return FieldElement(target, (x.index,) + (0,) * (target.deg - 1))
    raise LevelMismatchError("no embedding of %s into %s" % (x.field, target))


def lift(x):
    """Inverse of embed for elements that lie in the base field."""
    f = x.field
    if not isinstance(f, ExtensionField):
        raise NotInSubfieldError("element is already at the bottom level")
    if any(c for c in x.val[1:]):
        raise NotInSubfieldError("element lies outside the base field")
    return FieldElement(f.base, f.base.value_of(x.val[0]))


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class Polynomial:
    """A polynomial over a finite field; coefficients low-degree first."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        raw = []
        for c in coeffs:
            if isinstance(c, FieldElement):
                if c.field is not field:
                    raise LevelMismatchError("coefficient from the wrong field")
                raw.append(c.index)
            elif isinstance(c, int):
                raw.append(field.scalar(c).index)
            else:
                raise ValueError("bad coefficient %r" % (c,))
        while raw and raw[-1] == 0:
            raw.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(raw))

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def _from_raw(cls, field, raw):
        p = object.__new__(cls)
        object.__setattr__(p, "field", field)
        object.__setattr__(p, "coeffs", tuple(raw))
        return p

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one_index

    def __getitem__(self, i):
        c = self.coeffs[i] if 0 <= i < len(self.coeffs) else 0
        return self.field.from_index(c)

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and other.field is self.field
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.field is not self.field:
                raise LevelMismatchError("polynomials over different fields")
            return other
        return Polynomial(self.field, [self.field.element(other)])

    def __add__(self, other):
        other = self._coerce(other)
        return Polynomial._from_raw(self.field, _padd(self.field, list(self.coeffs), list(other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return Polynomial._from_raw(self.field, _psub(self.field, list(self.coeffs), list(other.coeffs)))

    def __neg__(self):
        neg = self.field.neg
        return Polynomial._from_raw(self.field, tuple(neg(c) for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return Polynomial._from_raw(self.field, _pmul(self.field, list(self.coeffs), list(other.coeffs)))
        s = self.field.element(other).index
        return Polynomial._from_raw(self.field, _pscale(self.field, list(self.coeffs), s))

    __rmul__ = __mul__

    def __divmod__(self, other):
        q, r = _pdivmod(self.field, list(self.coeffs), list(other.coeffs))
        return Polynomial._from_raw(self.field, q), Polynomial._from_raw(self.field, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e):
        r = Polynomial(self.field, [1])
        b = self
        while e:
            if e & 1:
                r = r * b
            b = b * b
            e >>= 1
        return r

    def gcd(self, other):
        return Polynomial._from_raw(self.field, _pgcd(self.field, list(self.coeffs), list(other.coeffs)))

    def __call__(self, x):
        """Evaluate at x, an element of this field or of an extension of it."""
        if isinstance(x, FieldElement) and x.field is not self.field:
            acc = x.field.zero()
            for c in reversed(self.coeffs):
                acc = acc * x + embed(self.field.from_index(c), x.field)
            return acc
        x = self.field.element(x)
        return self.field.from_index(_peval(self.field, list(self.coeffs), x.index))

    def is_irreducible(self):
        return is_irreducible_raw(self.field, list(self.coeffs))

    def encode(self):
        """Array of element encodings, low degree first."""
        return [self.field.from_index(c).encode() for c in self.coeffs]

    def __repr__(self):
        if not self.coeffs:
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append("%d*x^%d" % (c, i))
        return "Poly(%s over %r)" % (" + ".join(terms), self.field)


_irreducible_cache = {}


def find_irreducible(field, degree):
    """Smallest (by coefficient encoding) monic irreducible of given degree.

    Candidates x^d + sum(a_i x^i) are scanned in increasing order of the
    integer encoding sum(index(a_i) * |F|^i), so the result is deterministic
    and reproducible across runs.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    key = (id(field), degree)
    hit = _irreducible_cache.get(key)
    if hit is not None:
        return hit
    if degree == 1:
        poly = Polynomial._from_raw(field, (0, field.one_index))
        _irreducible_cache[key] = poly
        return poly
    for k in range(field.size ** degree):
        cand = _raw_from_int(field, k, degree) + [field.one_index]
        if is_irreducible_raw(field, cand):
            poly = Polynomial._from_raw(field, tuple(cand))
            _irreducible_cache[key] = poly
            return poly
    raise AssertionError("unreachable: irreducibles of every degree exist")


def count_irreducibles(field, degree):
    """Number of monic irreducibles of the given degree, by enumeration."""
    total = 0
    for k in range(field.size ** degree):
        cand = _raw_from_int(field, k, degree) + [field.one_index]
        if is_irreducible_raw(field, cand):
            total += 1
    return total


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
        raise PostconditionError("necklace sum %d not divisible by %d" % (total, d))
    return total // d


# ---------------------------------------------------------------------------
# towers
# ---------------------------------------------------------------------------

class FieldTower:
    """F_p inside F_q inside F_(q^n), with fixed defining polynomials.

    base_poly is None when q = p.  The extension field F_(q^n) is the home of
    multiplication formulas; its power basis is the coordinate system for
    their linear forms.
    """

    __slots__ = ("p", "base_poly", "ext_poly", "prime_field", "base_field", "ext_field")

    def __init__(self, p, base_poly, ext_poly):
        if not is_prime(p):
            raise ValueError("%r is not prime" % (p,))
        pf = prime_field(p)
        if base_poly is not None:
            if isinstance(base_poly, Polynomial):
                if base_poly.field is not pf:
                    raise LevelMismatchError("base_poly must be over GF(p)")
            else:
                base_poly = Polynomial(pf, base_poly)
            if not base_poly.is_monic() or not base_poly.is_irreducible():
                raise ValueError("base_poly must be monic irreducible")
            bf = extension(pf, base_poly.coeffs)
        else:
            bf = pf
        if isinstance(ext_poly, Polynomial):
            if ext_poly.field is not bf:
                raise LevelMismatchError("ext_poly must be over GF(q)")
        else:
            ext_poly = Polynomial(bf, ext_poly)
        if not ext_poly.is_monic() or not ext_poly.is_irreducible():
            raise ValueError("ext_poly must be monic irreducible")
        ef = extension(bf, ext_poly.coeffs)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "base_poly", base_poly)
        object.__setattr__(self, "ext_poly", ext_poly)
        object.__setattr__(self, "prime_field", pf)
        object.__setattr__(self, "base_field", bf)
        object.__setattr__(self, "ext_field", ef)

    def __setattr__(self, *a):
        raise AttributeError("FieldTower is immutable")

    @property
    def q(self):
        return self.base_field.size

    @property
    def n(self):
        return self.ext_poly.degree

    @classmethod
    def canonical(cls, q, n):
        """Tower with lexicographically-first defining polynomials."""
        p, s = factor_prime_power(q)
        base_poly = find_irreducible(prime_field(p), s) if s > 1 else None
        bf = canonical_extension(prime_field(p), s)
        return cls(p, base_poly, find_irreducible(bf, n))

    def key(self):
        return (self.p,
                None if self.base_poly is None else self.base_poly.coeffs,
                self.ext_poly.coeffs)

    def __eq__(self, other):
        return isinstance(other, FieldTower) and other.key() == self.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "FieldTower(GF(%d^%d) over GF(%d))" % (self.q, self.n, self.q)
