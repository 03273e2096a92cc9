"""Exact arithmetic in small finite fields and their extension towers.

Fields are built as F_p -> F_q -> F_(q^n) with explicit defining polynomials.
The raw value of an element of a prime field is an integer in {0, ..., p-1};
that of an element of an extension field is a tuple of *indices* of
base-field elements (little-endian coefficients of the residue class).  Every
element therefore has a canonical integer index obtained by reading the
coefficient tuple in base |base field|, which doubles as the serialization
format and as the deterministic ordering used everywhere in this package.
An element of a field keeps its index in every canonical extension F[t]/(f)
(its tuple is (index, 0, ..., 0)), so the library, FieldElement included,
passes indices between levels without converting them, and the integer k
maps to the index k mod p at every level.

Field objects are interned: asking twice for the same (base, modulus) pair
returns the same object, so residue fields produced in different places are
identical and elements can be mixed freely.  All types are immutable and all
operations are pure.
"""

import math
from array import array
from functools import cache, reduce
from itertools import zip_longest
from operator import xor

TABLE_LIMIT = 1 << 16  # exp/log (Zech) index tables up to this size: O(size) memory,
                       # built once the field has answered `size // 4` index ops without them
SCAN_LIMIT = 1 << 20   # never enumerate a field bigger than this


class LevelMismatchError(ValueError):
    """Raised when combining elements of different fields."""


class NotInSubfieldError(ValueError):
    """Raised when lifting an element that is not in the subfield."""


class PostconditionError(RuntimeError):
    """A result the library computed failed its own check: a library bug,
    not bad input.  Raised explicitly, so `python -O` cannot strip it."""


def is_prime(n):
    return _prime_factors(n) == [n]


def factor_prime_power(q):
    """Return (p, s) with q = p**s, or raise ValueError."""
    primes = _prime_factors(q)
    if len(primes) != 1:
        raise ValueError("not a prime power: %r" % (q,))
    p = primes[0]
    return p, round(math.log(q, p))  # q is a power of p: the log is s up to rounding


def _prime_factors(n):
    """The distinct primes dividing n, ascending, by trial division; [] for n < 2."""
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
    return _ptrim([add(x, y) for x, y in zip_longest(a, b, fillvalue=0)])


def _psub(F, a, b):
    sub = F.sub
    return _ptrim([sub(x, y) for x, y in zip_longest(a, b, fillvalue=0)])


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
    monic = dlead == F.one_index  # spares an inverse, a full vinv without tables
    inv_lead = None if monic else F.inv(dlead)
    q = [0] * max(0, len(r) - db)
    sub, mul = F.sub, F.mul
    while len(r) - 1 >= db and r:
        k = len(r) - 1 - db
        c = r[-1] if monic else mul(r[-1], inv_lead)
        q[k] = c
        for i in range(db):
            r[k + i] = sub(r[k + i], mul(c, b[i]))
        r.pop()  # r[-1] - c * dlead is 0
        _ptrim(r)
    return _ptrim(q), r


def _pmod(F, a, b):
    return _pdivmod(F, a, b)[1]


def _pgcd(F, a, b):
    a, b = list(a), list(b)
    while b:
        a, b = b, _pmod(F, a, b)
    if a and a[-1] != F.one_index:
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
    """a^e mod m for e >= 1: _power on products mod m, so no product with 1."""
    return _power(lambda x, y: _pmod(F, _pmul(F, x, y), m), None, _pmod(F, a, m), e)


def _peval(F, a, x):
    """Evaluate a polynomial over F at an element index x of F (Horner)."""
    acc = 0
    add, mul = F.add, F.mul
    for c in reversed(a):
        acc = add(mul(acc, x), c)
    return acc


def roots(F, f):
    """Sorted element indices of the roots in F of the monic polynomial f,
    whose roots must be distinct and all lie in F; ValueError otherwise.

    Deterministic trace splitting (Berlekamp 1970; Cantor and Zassenhaus
    1981).  For |F| = p^N and X_k = x^(p^k) mod f, T_a = sum_k a^(p^k) X_k is
    Tr_{F/F_p}(a x) mod f, so gcd(g, T_a - c) collects the roots r of a
    factor g of f with Tr(a r) = c in F_p; T_a may be reduced mod g because
    g divides f.  The a = p^j (element indices) form an F_p-basis of F and
    the trace form is nondegenerate, so trying them in turn separates every
    two roots.  They are tried from j = N - 1 down: on the moduli of
    F_(p^n) inside F_(p^(nm)) that needs about half as many traces as going
    up.  X_k repeats with the period e of x under Frobenius mod f (e = n for
    an irreducible f of degree n over F_p), so only X_0 .. X_(e-1) are
    built, and a's conjugates only for the a that are tried.
    """
    p, N, f = F.char, F.degree, list(f)
    xs, traces = [], []

    def trace(j):
        if not xs:  # X_0 .. X_(e-1); e = N if x never comes back
            X = x = _pmod(F, [0, F.one_index], f)
            while len(xs) < N and (not xs or X != x):
                xs.append(X)
                X = _ppowmod(F, X, p, f)
        while len(traces) <= j:
            a, b = p ** (N - 1 - len(traces)), [0] * len(xs)
            for k in range(N):
                b[k % len(xs)] = F.add(b[k % len(xs)], a)
                a = F.pow_(a, p)
            T = []
            for bk, X in zip(b, xs):
                T = _padd(F, T, _pscale(F, X, bk))
            traces.append(T)
        return traces[j]

    out, todo = [], [(f, 0)]
    while todo:
        g, j = todo.pop()
        if len(g) == 2:
            out.append(F.neg(g[0]))
            continue
        if j == N:  # g never split: the check below raises
            break
        T, parts = _pmod(F, trace(j), g), []
        if len(T) > 1:  # else every root of g has the same trace
            for c in range(p - 1):  # the roots left in g have trace p - 1
                h = _pgcd(F, g, _psub(F, T, [c]))
                if len(h) > 1:
                    parts.append(h)
                    g = _pdivmod(F, g, h)[0]
                    if len(g) == 1:
                        break
        todo.extend((h, j + 1) for h in parts + [g] if len(h) > 1)
    if len(set(out)) < len(f) - 1:
        raise ValueError("polynomial has repeated roots or roots outside %r" % (F,))
    return sorted(out)


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

    For a monic f over a characteristic-2 field of at most 256 elements
    whose exp/log tables exist (F_2 always), the same steps run on index
    lists in _rabin_char2; elsewhere they run on the generic polynomial
    helpers.  _irreducible_scan sieves out candidates with a root first.
    """
    d = len(coeffs) - 1
    if d <= 0:
        return False
    if d == 1:
        return True
    logs = _char2_logs(F)
    if logs and coeffs[-1] == 1:
        return _rabin_char2(coeffs, F.degree, *logs)
    x = [0, F.one_index]
    q = F.size
    cur = list(x)
    for _ in range(d // 2):
        cur = _ppowmod(F, cur, q, coeffs)
        if len(_pgcd(F, _psub(F, cur, x), coeffs)) != 1:
            return False
    return True


def _char2_logs(F):
    """(exp, log) of a characteristic-2 field of at most 256 elements whose
    tables exist, else None.  Never builds them: ExtensionField.__init__
    validates its modulus through is_irreducible_raw."""
    if F.char != 2 or F.size > 256:
        return None
    if F.base is None:
        return F.log_tables()
    return None if F._log is None else (F._exp, F._log)


def _rabin_char2(f, s, exp, log):
    """Rabin's test of the monic f (degree d >= 2) over F_(2^s) on index
    lists: addition is XOR, a product is one exp/log lookup.  x -> x^q mod f
    is s squarings, each putting c^2 = exp[2 log c] at the even slots and
    reducing by f's coefficient logs."""
    d, m = len(f) - 1, len(exp) // 2
    taps = [(i, log[c]) for i, c in enumerate(f[:d]) if c]
    cur = [0, 1] + [0] * (d - 2)
    for _ in range(d // 2):
        for _ in range(s):
            sq = [0] * (2 * d - 1)
            for i, c in enumerate(cur):
                if c:
                    sq[2 * i] = exp[2 * log[c]]
            for k in range(2 * d - 2, d - 1, -1):
                c = sq[k]
                if c:
                    lc, j = log[c], k - d
                    for i, lf in taps:
                        sq[j + i] ^= exp[lc + lf]
            cur = sq[:d]
        # Euclid on (f, x^(q^k) - x); coprime iff it ends at a constant
        a, b = list(f), _ptrim([cur[0], cur[1] ^ 1] + cur[2:])
        while len(b) > 1:
            lb, db = log[b[-1]], len(b) - 1
            btaps = [(i, log[c]) for i, c in enumerate(b[:db]) if c]
            while len(a) > db:
                c = a.pop()
                if c:
                    lc, k = (log[c] - lb) % m, len(a) - db
                    for i, l in btaps:
                        a[k + i] ^= exp[lc + l]
            a, b = b, _ptrim(a)
        if not b:
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
    most TABLE_LIMIT elements look them up in exp/log (Zech) tables once
    they have answered a quarter as many index ops as they have elements.  Until
    then, and in larger extension fields, products run on direct_mul (in
    characteristic 2 a kernel on index digits) and the other index ops on
    the value ops.
    """

    def element(self, x):
        """Coerce x (FieldElement, int under Z -> F, raw value) to an element."""
        if isinstance(x, FieldElement):
            if x.field is not self:
                raise LevelMismatchError("element of %s used in %s" % (x.field, self))
            return x
        if isinstance(x, int):
            return self.scalar(x)
        return FieldElement(self, self.index_of(self._check_value(x)))

    def scalar(self, k):
        """Image of the integer k under Z -> F: the index k mod p."""
        return FieldElement(self, k % self.char)

    def zero(self):
        return self.from_index(0)

    def one(self):
        return self.from_index(self.one_index)

    def from_index(self, i):
        return FieldElement(self, i)

    def __iter__(self):
        if self.size > SCAN_LIMIT:
            raise ValueError("field too large to enumerate")
        for i in range(self.size):
            yield self.from_index(i)

    def __len__(self):
        return self.size

    def pow_(self, i, e):
        if e < 0:
            i, e = self.inv(i), -e
        return _power(self.mul, self.one_index, i, e)


def _power(mul, one, i, e):
    """i^e for e >= 0 by square-and-multiply on the index product mul."""
    if not e:
        return one
    while not e & 1:
        i = mul(i, i)
        e >>= 1
    r = i
    while e > 1:
        e >>= 1
        i = mul(i, i)
        if e & 1:
            r = mul(r, i)
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

    sub = vsub

    def index_of(self, v):
        return v

    def value_of(self, i):
        return i

    def log_tables(self):
        """F_2's (exp, log) in the layout of ExtensionField.log_tables, over
        g = 1; None for odd p, which no caller needs."""
        return ([1, 1], [0, 0]) if self.p == 2 else None


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
        self._untabled = 0  # index ops answered without tables
        self._direct = None  # direct_mul, built on first use

    def __repr__(self):
        return "GF(%d)" % self.size if self.size < 10 ** 9 else "GF(%d^%d)" % (self.base.size, self.deg)

    def _check_value(self, v):
        if not (isinstance(v, tuple) and len(v) == self.deg
                and all(isinstance(c, int) and 0 <= c < self.base.size for c in v)):
            raise ValueError("bad extension-field value %r" % (v,))
        return v

    def index_of(self, v):
        idx = 0
        b = self.base.size
        for c in reversed(v):
            idx = idx * b + c
        return idx

    def value_of(self, i):
        return tuple(_raw_from_int(self.base, i, self.deg))

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

    # --- index-level arithmetic ---
    #
    # A field of N <= TABLE_LIMIT elements answers its first N // 4 index ops
    # without tables, then builds tables over its smallest primitive element
    # g, walking exp by x -> g*x: one linear_reader over the units' images.
    # A build costs what N/2 to N/9 untabled products cost, so it waits about
    # as many ops as it costs (ski rental); a caller of few ops never builds.  Tables:
    # _exp[k] = g^k (twice over, so a sum of two logs needs no reduction) and
    # _log[g^k] = k.  Odd characteristic adds _zech[k] = log(1 + g^k), so that
    # g^a + g^b = g^(a + Z[b - a]); a negative b - a indexes from the end,
    # which is its residue mod N - 1.  No Z[k] is 0, so 0 marks 1 + g^k = 0.
    #
    # Characteristic 2 adds by XOR at every size, and until its own tables
    # exist (always, above TABLE_LIMIT) multiplies with direct_mul, a kernel
    # on index digits that reads only the base field's tables.  Inverses
    # without tables run on vinv in every characteristic.

    def _ensure_tables(self):
        """Count one index op; return _log, building the tables once this
        field has answered `size // 4` ops without them.  None until then,
        and always above the limit."""
        if self._log is None and self.size <= TABLE_LIMIT:
            if self._untabled < self.size // 4:
                self._untabled += 1
                return None
            self._build_tables()
        return self._log

    def _build_tables(self):
        m, one, mul = self.size - 1, self.one_index, self.direct_mul()
        factors = _prime_factors(m)
        g = next(i for i in range(1, self.size)
                 if all(_power(mul, one, i, m // r) != one for r in factors))
        # While every entry is a cached small int a list costs one pointer
        # per entry and indexes fastest; larger fields use 2-byte arrays.
        zero = [0] if self.size <= 256 else array("H", [0])
        exp, log = zero * (2 * m), zero * self.size
        times_g = linear_reader(self.char, [mul(self.char ** j, g) for j in range(self.degree)], m)
        i = one
        for k in range(m):
            exp[k] = exp[k + m] = i
            log[i] = k
            i = times_g(i)
        if self.char != 2:
            b, badd, bone = self.base.size, self.base.add, self.base.one_index
            zech = self._zech = zero * m
            for k in range(m):
                i = exp[k]
                zech[k] = log[i - i % b + badd(i % b, bone)]
        self._exp, self._log = exp, log

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

    def sub(self, i, j):
        if self.char == 2:
            return i ^ j
        if not j:
            return i
        if not i:
            return self.neg(j)
        log = self._log or self._ensure_tables()
        if log is None:
            return self.index_of(self.vsub(self.value_of(i), self.value_of(j)))
        # -g^b = g^(b + h) with h = (size - 1)/2; the shift by +-h keeps the
        # Zech index inside the range that add's lookup covers
        a, h = log[i], (self.size - 1) // 2
        d = log[j] - a
        z = self._zech[d - h if d >= 0 else d + h]
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
            return (self._direct or self.direct_mul())(i, j)
        return self._exp[log[i] + log[j]]

    def inv(self, i):
        if i == 0:
            raise ZeroDivisionError("inverse of zero")
        log = self._log or self._ensure_tables()
        if log is None:
            return self.index_of(self.vinv(self.value_of(i)))
        return self._exp[self.size - 1 - log[i]]

    def log_tables(self):
        """(_exp, _log), built now if need be; None above TABLE_LIMIT."""
        if self.size > TABLE_LIMIT:
            return None
        if self._log is None:
            self._build_tables()
        return self._exp, self._log

    def direct_mul(self):
        """The index product that reads none of this field's own tables: the
        characteristic-2 kernel (_char2_product) over a base with log
        tables, else vmul on values.  Built on first use."""
        if self._direct is None:
            logs = self.char == 2 and self.base.log_tables()
            if logs:
                self._direct = _char2_product(self, *logs)
            else:
                value_of, index_of, vmul = self.value_of, self.index_of, self.vmul
                self._direct = lambda i, j: index_of(vmul(value_of(i), value_of(j)))
        return self._direct


def _char2_product(E, exp, log):
    """i*j on indices of E = B[t]/(f) in characteristic 2, where exp and log
    are B's tables over its generator g.  An index is d digits of
    s = log2 |B| bits, and i*j is the XOR of g^(log a_u + log b_v) t^(u+v)
    over the nonzero digit pairs: one lookup each in the (2d - 1) x
    2(|B| - 1) table of the products g^l t^k, whose rows for k >= d are the
    reduction rows.  The table holds 270 ints for F_(16^5), 78 for
    F_(2^20)."""
    d, mask = E.deg, E.base.size - 1
    s, w = mask.bit_length(), 2 * mask
    units = [E.value_of(E.base.size ** k) for k in range(d)]  # t^k, k < d
    bmul = E.base.mul
    table = [E.index_of(tuple(bmul(e, c) for c in v)) for v in units + E._red_rows[:d - 1]
             for e in exp]
    starts = range(0, d * w, w)

    def offsets(i):  # u*w + log a_u for each nonzero digit a_u of i
        out = []
        for o in starts:
            if c := i & mask:
                out.append(o + log[c])
            i >>= s
        return out

    def product(i, j):
        acc = 0
        ys = offsets(j)
        for a in offsets(i):
            for b in ys:
                acc ^= table[a + b]
        return acc
    return product


# ---------------------------------------------------------------------------
# F_p-linear maps on index digits
#
# An index is the base-p number of its element's F_p coordinates (bits in
# characteristic 2), so an F_p-linear map between such spaces is fixed by
# the images of the unit indices p^j, and by linearity one table per chunk
# of digits, built from those images, applies it.
# ---------------------------------------------------------------------------

def digit_table(p, units):
    """[sum_j a_j units[j] for a < p^len(units)], a_j the base-p digits of
    a: an XOR over the set bits of a when p = 2, an integer sum otherwise."""
    table = [0]
    for u in units:
        if p == 2:
            table += [a ^ u for a in table]
        else:
            table = [a + d * u for d in range(p) for a in table]
    return table


def linear_reader(p, images, reads):
    """read(i) = the index of sum_j a_j images[j] over the base-p digits a_j
    of i: the F_p-linear map that sends the unit p^j to the index
    images[j], as one digit_table entry per chunk of i's digits.  A chunk
    has as many digits as keep its table at min(reads, 256) entries or
    fewer, and at least one, so that a map read a few times builds small
    tables.  In characteristic 2 read XORs the entries.  Otherwise a table
    holds each output digit in a bit field wide enough that the sum of one
    entry per chunk cannot carry, and read reduces each digit mod p once."""
    k, weights, top = 1, [1], max(images, default=0)
    while p ** (k + 1) <= min(reads, 256):
        k += 1
    while p * weights[-1] <= top:  # p^j for each digit of the largest image
        weights.append(p * weights[-1])
    width = (max(len(images), 1) * (p - 1) ** 2).bit_length()
    shifts, mask = range(0, len(weights) * width, width), (1 << width) - 1
    packed = images if p == 2 else [sum(v // w % p << sh for w, sh in zip(weights, shifts))
                                    for v in images]
    tables, base = [digit_table(p, packed[c:c + k]) for c in range(0, len(packed), k)], p ** k

    def xor_read(i):
        acc = 0
        for table in tables:
            i, c = divmod(i, base)
            acc ^= table[c]
        return acc

    def read(i):
        acc = out = 0
        for table in tables:
            i, c = divmod(i, base)
            acc += table[c]
        for sh in shifts[::-1]:  # the index by Horner's rule, top digit first
            out = out * p + (acc >> sh & mask) % p
        return out
    return xor_read if p == 2 else read


# ---------------------------------------------------------------------------
# bit-sliced arithmetic in characteristic 2
#
# A block of L elements is held as bit planes: plane j is an int whose bit k
# is bit j of the k-th element's index, so one big-integer AND or XOR acts on
# all L lanes at once (Biham, "A fast new DES implementation in software",
# FSE 1997).  Over F = B[t]/(f) with B = F_2[g]/(m), bit u*s + v of an index
# is the coefficient of g^v t^u, s = log2 |B|.
# ---------------------------------------------------------------------------

def bit_planes(lanes, width, bits):
    """[plane j for j in bits] of the lanes packed in `lanes`, a bytes-like
    of `width` bytes per lane, each little-endian.  One base-2 rendering of
    the whole block is cut into columns; base 2 is exempt from the limit on
    int-string conversion digits.  A leading 1 above the last lane keeps the
    rendering at full length without a padded copy."""
    w = 8 * width
    text = format(int.from_bytes(lanes, "little") | 1 << 8 * len(lanes), "b")
    return [int(text[w - j::w], 2) for j in bits]


def _f2_mulmod(a, b, m):
    """a*b mod m in F_2[g] on ints whose bit v is the coefficient of g^v;
    a must be reduced, b need not be."""
    s, acc = m.bit_length() - 1, 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a >> s:
            a ^= m
    return acc


def sliced_product(E):
    """product(X, Y) = the planes of x*y for planes X, Y of E = B[t]/(f) in
    characteristic 2, over B = F_2 or F_2[g]/(m); also for E = F_2[g]/(m)
    itself.  A schoolbook product of planes gives the coefficients of the
    monomials g^k t^u, k <= 2s - 2 and u <= 2d - 2; bit j of x*y is the XOR
    of those whose reduced index has bit j.  The reductions are computed
    here from f and m alone, so the product reads none of the fields'
    tables."""
    B = E.base
    if E.char != 2 or not isinstance(B, PrimeField) and not isinstance(B.base, PrimeField):
        raise ValueError("sliced_product needs F_2[g]/(m)[t]/(f)")
    m = 3 if isinstance(B, PrimeField) else sum(c << v for v, c in enumerate(B.modulus))
    d, s = E.deg, B.degree
    w = 2 * s - 1
    row, monos = [1] + [0] * (d - 1), []  # row: t^u mod f, coefficients in B
    for _ in range(2 * d - 1):
        monos += [sum(_f2_mulmod(c, 1 << k, m) << s * i for i, c in enumerate(row))
                  for k in range(w)]
        top, row = row[-1], [0] + row[:-1]
        row = [c ^ _f2_mulmod(top, f, m) for c, f in zip(row, E.modulus)]
    picks = [[i for i, v in enumerate(monos) if v >> j & 1] for j in range(d * s)]
    offsets = [u * w + v for u in range(d) for v in range(s)]

    def product(X, Y):
        Z = [0] * len(monos)
        ys = [(b, y) for b, y in zip(offsets, Y) if y]
        for a, x in zip(offsets, X):
            if x:
                for b, y in ys:
                    Z[a + b] ^= x & y
        return [reduce(xor, map(Z.__getitem__, sel), 0) for sel in picks]
    return product


# ---------------------------------------------------------------------------
# squares in odd characteristic
#
# A table field's generator g is primitive, hence not a square, so z = g^k is
# a square iff k is even, with root g^(k/2).  Above the table limit the
# character of F = B[t]/(f) is B's character of the norm N(z) = Res(f, z),
# since the norm maps F* onto B* and its kernel into the squares; square
# roots there come from Tonelli-Shanks (Tonelli 1891; Shanks 1973).
# ---------------------------------------------------------------------------

def quadratic_character(F):
    """The quadratic character of F, of odd characteristic, as a function on
    indices: 0 at 0, 1 on the other squares, -1 elsewhere.  A field of at
    most TABLE_LIMIT elements builds its tables for it: the character is
    meant for sums over the whole field."""
    if F.char == 2:
        raise ValueError("the quadratic character needs odd characteristic")
    if isinstance(F, PrimeField):
        p, h = F.p, F.p // 2
        return lambda z: 0 if not z else (1 if pow(z, h, p) == 1 else -1)
    tables = F.log_tables()
    if tables:
        log = tables[1]
        return lambda z: 0 if not z else 1 - 2 * (log[z] & 1)
    B, f, value_of, base_chi = F.base, list(F.modulus), F.value_of, quadratic_character(F.base)
    return lambda z: 0 if not z else base_chi(_resultant(B, f, _ptrim(list(value_of(z)))))


def _resultant(F, a, b):
    """Res(a, b) = lc(a)^deg(b) * (product of b over the roots of a), for raw
    polynomials over F with deg b < deg a, by Euclid's algorithm:
    Res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg r) Res(b, r) with
    r = a mod b, and Res(a, c) = c^deg(a) for a constant c."""
    acc = F.one_index
    while len(b) > 1:
        r = _pmod(F, a, b)
        if (len(a) - 1) * (len(b) - 1) & 1:
            acc = F.neg(acc)
        acc = F.mul(acc, F.pow_(b[-1], len(a) - len(r)))
        a, b = b, r
    return F.mul(acc, F.pow_(b[0], len(a) - 1)) if b else 0


def sqrt(F, z):
    """An index r with r^2 = z in F, of odd characteristic, or None when z
    is not a square.  Which of the two roots is returned is fixed but not
    otherwise specified; callers that need both take r and -r."""
    if F.char == 2:
        raise ValueError("sqrt needs odd characteristic")
    if not z:
        return 0
    log = getattr(F, "_log", None)
    if log is not None:
        k = log[z]
        return None if k & 1 else F._exp[k >> 1]
    mul, one = F.mul, F.one_index
    s, t = 0, F.size - 1
    while not t & 1:
        s, t = s + 1, t >> 1
    r, u = F.pow_(z, (t + 1) // 2), F.pow_(z, t)  # r^2 = z u, u of order 2^i
    c = None
    while u != one:
        i, w = 0, u
        while w != one:
            w, i = mul(w, w), i + 1
        if i == s:  # u^(2^(s-1)) = z^((q-1)/2) = -1
            return None
        if c is None:
            c = F.pow_(_nonsquare(F), t)  # of order exactly 2^s
        b = c
        for _ in range(s - i - 1):
            b = mul(b, b)
        s, c = i, mul(b, b)
        r, u = mul(r, b), mul(u, c)
    return r


@cache
def _nonsquare(F):
    """The smallest non-square index of F (odd characteristic)."""
    h, one = F.size // 2, F.one_index
    return next(z for z in range(2, F.size) if F.pow_(z, h) != one)


@cache
def prime_field(p, /):
    """Interned F_p (positional only: a keyword call would be a second key)."""
    return PrimeField(p)


def extension(base, modulus):
    """Interned base[x]/(modulus); modulus is a Polynomial over base or a
    sequence of base element indices, low degree first."""
    if isinstance(modulus, Polynomial):
        if modulus.field is not base:
            raise LevelMismatchError("modulus is not over the base field")
        modulus = modulus.coeffs
    modulus = tuple(modulus)
    if not all(type(c) is int and 0 <= c < base.size for c in modulus):
        raise ValueError("modulus coefficients must be element indices of %r" % (base,))
    return _extension_field(base, modulus)


_extension_field = cache(ExtensionField)  # keyed by (base, modulus tuple)


def canonical_extension(base, d):
    """The canonical degree-d extension: modulus = find_irreducible(base, d)."""
    if d == 1:
        return base
    return extension(base, next(irreducibles(base, d)))


def canonical_field(q):
    """The canonical F_q: F_p, or its canonical degree-s extension for q = p^s."""
    p, s = factor_prime_power(q)
    return canonical_extension(prime_field(p), s)


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

class FieldElement:
    """An element of a finite field, immutable and hashable: the field and
    the element's index in it.  `FieldElement(field, i)` takes an index; a
    raw value (int or coefficient tuple) goes through `field.element`.

    Supports +, -, *, /, ** through the field's index ops, and integer
    coercion of the other operand (k is the index k mod p).  So an element
    compares equal to the int k when its index is k mod p, but it does not
    hash like k (k and k + p would have to hash alike): elements and ints
    must not share a set or dict key space.

    >>> F4 = canonical_field(4)
    >>> F4.one() == 1, F4.one() == 3, F4.one() in {1}
    (True, True, False)
    """

    __slots__ = ("field", "index")

    def __init__(self, field, index):
        if not isinstance(index, int):
            raise TypeError("FieldElement takes an element index, not %r; "
                            "use field.element for a raw value" % (index,))
        if not 0 <= index < field.size:
            raise ValueError("index out of range")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "index", index)

    def __setattr__(self, *a):
        raise AttributeError("FieldElement is immutable")

    def _other(self, other):
        """The index of `other` in this field; None for an unsupported type."""
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise LevelMismatchError("mixing elements of %s and %s"
                                         % (self.field, other.field))
            return other.index
        if isinstance(other, int):
            return other % self.field.char
        return None

    def __add__(self, other):
        j, F = self._other(other), self.field
        return NotImplemented if j is None else FieldElement(F, F.add(self.index, j))

    __radd__ = __add__

    def __sub__(self, other):
        j, F = self._other(other), self.field
        return NotImplemented if j is None else FieldElement(F, F.sub(self.index, j))

    def __rsub__(self, other):
        j, F = self._other(other), self.field
        return NotImplemented if j is None else FieldElement(F, F.sub(j, self.index))

    def __mul__(self, other):
        j, F = self._other(other), self.field
        return NotImplemented if j is None else FieldElement(F, F.mul(self.index, j))

    __rmul__ = __mul__

    def __truediv__(self, other):
        j, F = self._other(other), self.field
        return NotImplemented if j is None else FieldElement(F, F.mul(self.index, F.inv(j)))

    def __rtruediv__(self, other):
        j, F = self._other(other), self.field
        return NotImplemented if j is None else FieldElement(F, F.mul(j, F.inv(self.index)))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.index))

    def __pow__(self, e):
        return FieldElement(self.field, self.field.pow_(self.index, e))

    def inverse(self):
        return FieldElement(self.field, self.field.inv(self.index))

    def frobenius(self, k=1):
        """x -> x^(p^k), the k-fold absolute Frobenius."""
        return self ** (self.field.char ** k)

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field is other.field and self.index == other.index
        if isinstance(other, int):
            return self.index == other % self.field.char
        return NotImplemented

    def __hash__(self):
        return hash((id(self.field), self.index))

    def __bool__(self):
        return self.index != 0

    @property
    def coeffs(self):
        """Coefficient vector over the base field (length 1 for prime fields)."""
        base = self.field.base
        if base is None:
            return (self,)
        return tuple(FieldElement(base, c) for c in self.field.value_of(self.index))

    def __repr__(self):
        return "%r(%d)" % (self.field, self.index)


def embed(x, target):
    """Embed x into `target`: x.field itself or an extension field over it.
    The element keeps its index."""
    if target is x.field or target.base is x.field:
        return FieldElement(target, x.index)
    raise LevelMismatchError("no embedding of %s into %s" % (x.field, target))


def lift(x):
    """Inverse of embed for elements that lie in the base field: the same
    index, one level down."""
    base = x.field.base
    if base is None:
        raise NotInSubfieldError("element is already at the bottom level")
    if x.index >= base.size:
        raise NotInSubfieldError("element lies outside the base field")
    return FieldElement(base, x.index)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class Polynomial:
    """A polynomial over a finite field; coefficients low-degree first.

    A constant polynomial compares equal to the int k when it is the
    constant k mod p, but does not hash like k, so polynomials and ints must
    not share a set or dict key space.

    >>> p = Polynomial(canonical_field(4), [1])
    >>> p == 1, p == 0, p in {1}
    (True, False, False)
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        raw = []
        for c in coeffs:
            if isinstance(c, FieldElement):
                if c.field is not field:
                    raise LevelMismatchError("coefficient from the wrong field")
                raw.append(c.index)
            elif isinstance(c, int):
                raw.append(c % field.char)
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
        """Equal to a Polynomial over the same field with the same
        coefficients, or to an int k as the constant k mod p."""
        if isinstance(other, int):
            k = other % self.field.char
            return self.coeffs == ((k,) if k else ())
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
        if e < 0:
            raise ValueError("negative power of a polynomial")
        return _power(Polynomial.__mul__, Polynomial(self.field, [1]), self, e)

    def gcd(self, other):
        return Polynomial._from_raw(self.field, _pgcd(self.field, list(self.coeffs), list(other.coeffs)))

    def __call__(self, x):
        """Evaluate at x, an element of this field or of an extension of it.
        The coefficients keep their indices in the extension."""
        if isinstance(x, FieldElement) and x.field is not self.field:
            if x.field.base is not self.field:
                raise LevelMismatchError("no embedding of %s into %s" % (self.field, x.field))
            return x.field.from_index(_peval(x.field, self.coeffs, x.index))
        x = self.field.element(x)
        return self.field.from_index(_peval(self.field, self.coeffs, x.index))

    def __repr__(self):
        if not self.coeffs:
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append("%d*x^%d" % (c, i))
        return "Poly(%s over %r)" % (" + ".join(terms), self.field)


class Replay:
    """A re-iterable view of an iterator: each item is pulled from it once,
    when an iteration first reaches it.  The source must not iterate its own
    Replay while it computes an item."""

    def __init__(self, items):
        self._items, self._seen, self._error = iter(items), [], None

    def __iter__(self):
        k = 0
        while k < len(self._seen) or self._pull():
            yield self._seen[k]
            k += 1

    def _pull(self):
        """Whether one more item was pulled.  A source that raised is over,
        so every later pull raises too, rather than end the stream short."""
        if self._error is not None:
            raise RuntimeError("the stream's source failed") from self._error
        try:
            for item in self._items:
                self._seen.append(item)
                return True
        except BaseException as e:
            self._error = e
            raise
        return False


def irreducibles(field, degree):
    """The monic irreducibles of the degree over the field, as raw coefficient
    tuples, lazily and in increasing order of the encoding
    sum(index(a_i) * |F|^i) of x^d + sum(a_i x^i).

    One memoised scan per (field, degree) serves every caller, since fields
    are interned: a candidate is tested once per process, when an iteration
    first reaches it.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    return iter(_irreducible_replay(field, degree))


@cache
def _irreducible_replay(F, degree):
    return Replay(_irreducible_scan(F, degree))


def _irreducible_scan(F, degree):
    """The candidates in encoding order, in blocks of |F| that differ only in
    c0.  Above degree 1, f = g + c0 has the root a exactly when
    c0 = -g(a), which proves f reducible, so those c0 are skipped after one
    evaluation of g per a; Rabin's test alone accepts a candidate.  The
    evaluations cost about as much as q / (d^2 log q) tests, so the first
    `spare` constants of a block are tested before the rest are sieved: a
    short scan over a wide field costs no more than testing."""
    q = F.size
    spare = q // (degree * degree * q.bit_length()) if degree > 1 else q
    for high in range(q ** (degree - 1)):
        cand, rooted = [0] + _raw_from_int(F, high, degree - 1) + [F.one_index], ()
        for c0 in range(q):
            if c0 == spare:
                rooted = _root_constants(F, [0] + cand[1:])
            if c0 not in rooted:
                cand[0] = c0
                if is_irreducible_raw(F, cand):
                    yield tuple(cand)


def _root_constants(F, g):
    """{-g(a) : a in F} for g with g(0) = 0, in characteristic 2 by Horner
    on exp/log lookups, where -g(a) = g(a)."""
    logs = _char2_logs(F)
    if not logs:
        neg = F.neg
        return {neg(_peval(F, g, a)) for a in range(F.size)}
    exp, log = logs
    out, top = {0}, g[::-1]
    for a in range(1, F.size):
        la, acc = log[a], 0
        for c in top:
            if acc:
                acc = exp[log[acc] + la]
            acc ^= c
        out.add(acc)
    return out


def find_irreducible(field, degree):
    """Smallest (by coefficient encoding) monic irreducible of given degree:
    the first of `irreducibles`, so the result is deterministic and
    reproducible across runs."""
    return Polynomial._from_raw(field, next(irreducibles(field, degree)))


# ---------------------------------------------------------------------------
# towers
# ---------------------------------------------------------------------------

def _tower_level(base, poly, name, over):
    """poly (a Polynomial over base, or base element indices as `extension`
    reads them) as a Polynomial, and the interned base[x]/(poly), which
    validates poly once per field."""
    if isinstance(poly, Polynomial) and poly.field is not base:
        raise LevelMismatchError("%s must be over %s" % (name, over))
    try:
        field = extension(base, poly)
    except ValueError:
        raise ValueError("%s must be monic irreducible" % name) from None
    return Polynomial._from_raw(base, field.modulus), field


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
        pf = bf = prime_field(p)
        if base_poly is not None:
            base_poly, bf = _tower_level(pf, base_poly, "base_poly", "GF(p)")
        ext_poly, ef = _tower_level(bf, ext_poly, "ext_poly", "GF(q)")
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
        bf = canonical_field(q)
        return cls(bf.char, bf.modulus if bf.degree > 1 else None, find_irreducible(bf, n))

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
