"""Symmetric multiplication formulas for F_(q^n)/F_q via curve interpolation.

A formula is a list of pairs (x_i*, c_i) with x_i* an F_q-linear form on
F_(q^n) (coordinates in the power basis of the tower) and c_i in F_(q^n),
such that x*y = sum_i x_i*(x) x_i*(y) c_i for all x, y.  Both slots share the
same linear form, so the decomposition is symmetric by construction.

Constructors realize the two effective cases of the interpolation theorem on
genus-0 and genus-1 curves: evaluation at rational points only (rank
2n+g-1), or at rational points plus degree-2 places whose local products are
expanded through the canonical rank-3 formula for F_(q^2)/F_q (rank at most
3n+6g).  A composition operator multiplies formulas along a tower, and an
exact search computes symmetric ranks for tiny tensors.

The forms x -> (x_1*(x), ..., x_r*(x)), the reconstruction
(s_t) -> sum_t s_t c_t and composition's change of coordinates are F_p-linear
in the base-p digits of element indices; verification and composition apply
them through gf.linear_reader.
"""

import functools
import itertools
import json
import operator
import random

from . import gf, linalg
from .gf import FieldTower, FieldElement, Polynomial, prime_field
from .function_field import (ProjectiveLine, Divisor, place_divisor, degree_n_place_count,
                             PoleEvaluationError, BudgetExceededError)

EXHAUSTIVE_LIMIT = 1 << 8
DEFAULT_SAMPLES = 10 ** 4
BLOCK = 2048  # pairs per pass of the sampled scan; bit_planes' text grows with it


class ConstructionError(RuntimeError):
    """Construction failed; best_rank reports the best achieved rank, if any."""

    def __init__(self, message, best_rank=None):
        super().__init__(message)
        self.best_rank = best_rank


class HypothesisError(ConstructionError):
    """The counting hypotheses of the interpolation theorem fail."""


class TowerMismatchError(ValueError):
    """Composition of formulas over incompatible towers."""


class VerificationError(gf.PostconditionError):
    """A formula the library built failed its own postcondition.

    Deliberately neither a ConstructionError (callers treat those as "try the
    next candidate") nor a ValueError (bad input): it signals a library bug.
    """


class VerificationReport:
    __slots__ = ("passed", "mode", "pairs_checked", "first_failure", "seed")

    def __init__(self, passed, mode, pairs_checked, first_failure=None, seed=None):
        self.passed = passed
        self.mode = mode
        self.pairs_checked = pairs_checked
        self.first_failure = first_failure
        self.seed = seed

    def __repr__(self):
        return ("VerificationReport(passed=%s, mode=%s, pairs=%d, failure=%s, seed=%s)"
                % (self.passed, self.mode, self.pairs_checked, self.first_failure, self.seed))


class SymmetricBilinearFormula:
    """terms: tuple of (x_star, c) with x_star a tuple of F_q element indices
    of length n and c a raw value of the extension field."""

    __slots__ = ("tower", "terms", "provenance")

    def __init__(self, tower, terms, provenance):
        norm = []
        for xs, c in terms:
            xs = tuple(xs)
            c = tuple(c) if isinstance(c, (list, tuple)) else c
            if len(xs) != tower.n or len(c) != tower.ext_field.deg:
                raise ValueError("term shape does not match the tower")
            norm.append((xs, c))
        object.__setattr__(self, "tower", tower)
        object.__setattr__(self, "terms", tuple(norm))
        object.__setattr__(self, "provenance", provenance)

    def __setattr__(self, *a):
        raise AttributeError("formula is immutable")

    @property
    def rank(self):
        return len(self.terms)

    def __eq__(self, other):
        return (isinstance(other, SymmetricBilinearFormula)
                and other.tower == self.tower and other.terms == self.terms
                and other.provenance == self.provenance)

    def __hash__(self):
        return hash((self.tower.key(), self.terms))

    def apply(self, x, y):
        """Multiply x and y using the formula (the minimal-multiplication path)."""
        E = self.tower.ext_field
        Fq = self.tower.base_field
        xv = E.value_of(E.element(x).index)
        yv = E.value_of(E.element(y).index)
        fadd, fmul = Fq.add, Fq.mul
        badd = E.base.add
        acc = (0,) * E.deg
        for xs, c in self.terms:
            a = 0
            b = 0
            for w, xc, yc in zip(xs, xv, yv):
                if w:
                    if xc:
                        a = fadd(a, fmul(w, xc))
                    if yc:
                        b = fadd(b, fmul(w, yc))
            s = fmul(a, b)
            if s:
                acc = tuple(badd(t, fmul(s, cc)) for t, cc in zip(acc, c))
        return FieldElement(E, E.index_of(acc))

    def __repr__(self):
        return ("SymmetricBilinearFormula(q=%d, n=%d, rank=%d, %s)"
                % (self.tower.q, self.tower.n, self.rank,
                   self.provenance.get("method", "?")))


def identity_formula(tower):
    """The rank-1 formula for a degree-1 extension."""
    if tower.n != 1:
        raise ValueError("identity formula requires n = 1")
    E = tower.ext_field
    return SymmetricBilinearFormula(
        tower, [((tower.base_field.one_index,), E.value_of(E.one_index))],
        {"method": "manual", "q": tower.q, "n": 1, "rank": 1})


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def verify(formula, mode="auto", pairs=DEFAULT_SAMPLES, seed=0):
    """Check x*y == formula(x, y).

    mode 'tensor' proves the identity for every (q, n): both sides are
    symmetric and F_q-bilinear, so it suffices to check the n(n+1)/2 basis
    pairs e_j*e_k with j <= k.  The proof runs on element indices: it reads
    each e_j*e_k = t^(j+k) from the reduction rows of E's modulus and maps
    the products x_t*(e_j) x_t*(e_k) to the left-hand side through one
    F_p-linear reader, with no product of coefficient tuples
    (_verify_tensor).  Mode 'exhaustive' sweeps all q^(2n) pairs and
    refuses when q^n > 256; mode 'sampled' checks `pairs` seeded random
    pairs; 'auto' picks whichever of these two is affordable.  The scans are
    independent cross-checks of the proof, and one loop over the pair
    numbers x*q^n + y (_verify_scan): in characteristic 2 on bit planes,
    against gf.sliced_product, which reads only the two moduli; in odd
    characteristic pair by pair, against E.mul (exhaustive) or
    E.direct_mul (sampled).  Failures are reported, not raised; a failure
    names a concrete pair (x, y) by element indices, the first in the
    scan's order.  The seed must be a non-negative int, so that the
    report's seed replays the pairs: random.Random seeds with abs(seed),
    and with None from the OS.
    """
    check_seed(seed)
    mode = verify_mode(formula.tower.ext_field.size, mode, pairs)
    if mode == "tensor":
        return _verify_tensor(formula)
    return _verify_scan(formula, mode, pairs, seed)


def check_seed(seed):
    """Raise ValueError unless seed is a non-negative int, as `verify`
    needs; the constructors and the CLI call it before they build."""
    if type(seed) is not int or seed < 0:  # not bool
        raise ValueError("seed must be a non-negative int, got %r" % (seed,))


def verify_mode(size, mode, pairs):
    """The mode `verify` runs for a field of `size` elements, resolving
    'auto'; raises ValueError for a request it refuses."""
    if mode == "auto":
        mode = "exhaustive" if size <= EXHAUSTIVE_LIMIT else "sampled"
    if mode == "exhaustive" and size > EXHAUSTIVE_LIMIT:
        raise ValueError("exhaustive verification refused for q^n > %d" % EXHAUSTIVE_LIMIT)
    if mode == "sampled" and pairs < 1:
        raise ValueError("sampled verification needs pairs >= 1, got %d" % pairs)
    if mode not in ("tensor", "exhaustive", "sampled"):
        raise ValueError("unknown mode %r" % (mode,))
    return mode


def _power_indices(E):
    """[index of t^m for m = 0 .. 2n - 2] in E = F_q[t]/(f) of degree n: the
    right-hand side e_j * e_k = t^(j+k) of the multiplication tensor.  An
    index is the base-q number of its coefficients, so t^m is the unit q^m
    for m < n; above that it is E._red_rows[m - n], the row x^m mod f that
    vmul reduces with."""
    n, q = E.deg, E.base.size
    return [q ** m for m in range(n)] + [E.index_of(row) for row in E._red_rows[:n - 1]]


def _term_reader(formula, reads):
    """read(S) = the index of sum_t s_t c_t in F_(q^n), for S = sum_t s_t q^t
    with s_t in F_q.  The map is F_p-linear in the base-p digits of S: digit
    v of s_t stands for g^v (the index p^v of F_q), whose image is g^v c_t.
    It reads F_q's mul and the constants, none of E's ops or tables."""
    tower = formula.tower
    Fq, E = tower.base_field, tower.ext_field
    images = [E.index_of(tuple(Fq.mul(tower.p ** v, cc) for cc in c))
              for _, c in formula.terms for v in range(Fq.degree)]
    return gf.linear_reader(tower.p, images, reads)


def _verify_tensor(formula):
    """The proof on the basis pairs (j, k), j <= k, in row-major order.

    s_t = x_t*(e_j) x_t*(e_k) is the product in F_q of column j and column
    k of the forms, and sum_t s_t c_t is one read of _term_reader on
    sum_t s_t q^t, in every characteristic.  It is compared with the index
    of t^(j+k) (_power_indices)."""
    tower = formula.tower
    Fq, n = tower.base_field, tower.n
    fmul, weights = Fq.mul, [Fq.size ** t for t in range(formula.rank)]
    cols = [[xs[j] for xs, _ in formula.terms] for j in range(n)]  # cols[j][t] = x_t*(e_j)
    read, powers = _term_reader(formula, n * (n + 1) // 2), _power_indices(tower.ext_field)
    checked = 0
    for j in range(n):
        for k in range(j, n):
            checked += 1
            if read(sum(map(operator.mul, map(fmul, cols[j], cols[k]), weights))) != powers[j + k]:
                return VerificationReport(False, "tensor", checked,
                                          first_failure=(powers[j], powers[k]))
    return VerificationReport(True, "tensor", checked)


def _unit_values(formula):
    """[sum_t x_t*(e) q^t] for each unit index e = p^j of F_(q^n): the forms'
    values on the F_p-basis that the index digits count, as the base-q
    digits of one int."""
    Fq, p = formula.tower.base_field, formula.tower.p
    s = Fq.degree
    return [sum(Fq.mul(xs[j // s], p ** (j % s)) * Fq.size ** t
                for t, (xs, _) in enumerate(formula.terms))
            for j in range(formula.tower.ext_field.degree)]


def _form_reader(formula, reads):
    """read(i) = sum_t x_t*(x) q^t, the forms' values at the element x of
    index i: a gf.linear_reader over _unit_values."""
    return gf.linear_reader(formula.tower.p, _unit_values(formula), reads)


def _sliced_check(formula):
    """differ(X, Y) -> an int whose bit k is set where formula(x, y) != x*y
    for the pair in lane k, given the planes X of the x's and Y of the y's
    of a block of pairs (characteristic 2; see gf.sliced_product).

    Bit v of a form value a_t = x_t*(x) is the XOR of the planes of x whose
    unit values have bit t*s + v set.  a_t*b_t is taken before reduction
    mod m, as the coefficients of g^0 .. g^(2s-2), and bit j of
    sum_t a_t b_t c_t is the XOR of the coefficients (t, k) whose g^k c_t
    has bit j.  The right-hand side is gf.sliced_product over F_(q^n)."""
    tower = formula.tower
    Fq, E = tower.base_field, tower.ext_field
    s, units = Fq.degree, _unit_values(formula)
    w = 2 * s - 1
    forms = [[j for j, u in enumerate(units) if u >> f & 1] for f in range(formula.rank * s)]
    triples = [(t * w + u + v, t * s + u, t * s + v)
               for t in range(formula.rank) for u in range(s) for v in range(s)]
    scaled = [E.index_of(tuple(Fq.mul(Fq.pow_(2, k), cc) for cc in c))
              for _, c in formula.terms for k in range(w)]
    picks = [[i for i, v in enumerate(scaled) if v >> j & 1] for j in range(E.degree)]
    emul = gf.sliced_product(E)
    xor_all = functools.partial(functools.reduce, operator.xor)

    def differ(X, Y):
        ax, ay = ([xor_all(map(P.__getitem__, sel), 0) for sel in forms] for P in (X, Y))
        prods = [0] * len(scaled)
        for i, a, b in triples:
            prods[i] ^= ax[a] & ay[b]
        diff = 0
        for sel, z in zip(picks, emul(X, Y)):
            diff |= xor_all(map(prods.__getitem__, sel), z)
        return diff
    return differ


def _counting_planes(bits):
    """Planes 0 .. bits-1 of the integers 0 .. 2^bits - 1, lane k holding k:
    plane j is a run of h = 2^j zeros and h ones, doubled up to 2^bits lanes."""
    out = []
    for j in range(bits):
        a = (1 << (1 << j)) - 1 << (1 << j)
        for k in range(j + 1, bits):
            a |= a << (1 << k)
        out.append(a)
    return out


def _below(rng, size):
    """A draw of rng.randrange(size): CPython's own rejection loop on
    getrandbits, without randrange's argument handling on every call."""
    getrandbits, k = rng.getrandbits, size.bit_length()

    def draw():
        r = getrandbits(k)
        while r >= size:
            r = getrandbits(k)
        return r
    return draw


def _verify_scan(formula, mode, pairs, seed):
    """The 'exhaustive' and 'sampled' scans.  A pair (x, y) is its number
    x*q^n + y: 'exhaustive' takes the numbers 0 .. q^(2n) - 1 in order,
    'sampled' draws x = rng.randrange(q^n) and then y, pair after pair.
    'exhaustive' checks its q^(2n) <= 2^16 numbers as one block, 'sampled'
    BLOCK at a time, and the report names the first wrong one.

    In characteristic 2 a block is one pass of _sliced_check on the bit
    planes of its numbers, whose low E.degree bits are y and whose high bits
    are x: the exhaustive block is all numbers below 2^(2 E.degree), whose
    planes are periodic (_counting_planes), and drawn ones are packed into
    whole-byte lanes and cut by gf.bit_planes.
    In odd characteristic the pairs go one by one: _form_reader reads the
    forms' values at x and at y, their products in F_q go through
    _term_reader, and neither reads E's ops.  'exhaustive' reads each
    element's forms once up front, takes the products from one table of
    q^2 <= q^(2n) entries per term, and compares with E.mul; 'sampled'
    multiplies with F_q's mul and compares with E.direct_mul, which reads
    none of E's tables."""
    E = formula.tower.ext_field
    size = E.size
    if mode == "exhaustive":
        total, step, seed = size * size, size * size, None
    else:
        total, step, draw = pairs, BLOCK, _below(random.Random(seed), size)
    if E.char == 2:
        differ, bits = _sliced_check(formula), E.degree
        width = -(-bits // 4)  # bytes per lane of 2*bits bits

        def first_wrong(block):
            if mode == "exhaustive":
                planes = _counting_planes(2 * bits)
            else:
                lanes = b"".join([v.to_bytes(width, "little") for v in block])
                planes = gf.bit_planes(lanes, width, range(2 * bits))
            diff = differ(planes[bits:], planes[:bits])
            return (diff & -diff).bit_length() - 1 if diff else None
    else:
        Fq, q = formula.tower.base_field, formula.tower.q
        weights = [q ** t for t in range(formula.rank)]
        read, terms = _form_reader(formula, min(size, 2 * total)), _term_reader(formula, total)
        digits = functools.partial(gf._raw_from_int, Fq, length=formula.rank)
        if mode == "exhaustive":  # rows[t][a][b] = a*b*q^t
            rows = [[[Fq.mul(a, b) * w for b in range(q)] for a in range(q)] for w in weights]
            forms = [digits(read(x)) for x in range(size)]
            picks = [[rows[t][a] for t, a in enumerate(f)] for f in forms]
            rhs, products = E.mul, lambda x, y: sum(map(list.__getitem__, picks[x], forms[y]))
        else:
            rhs, products = E.direct_mul(), lambda x, y: sum(
                map(operator.mul, map(Fq.mul, digits(read(x)), digits(read(y))), weights))

        def first_wrong(block):
            for k, v in enumerate(block):
                x, y = divmod(v, size)
                if terms(products(x, y)) != rhs(x, y):
                    return k
    for start in range(0, total, step):
        count = min(step, total - start)
        block = (range(start, start + count) if mode == "exhaustive"
                 else [draw() * size + draw() for _ in range(count)])
        if (k := first_wrong(block)) is not None:
            return VerificationReport(False, mode, start + k + 1,
                                      first_failure=divmod(block[k], size), seed=seed)
    return VerificationReport(True, mode, total, seed=seed)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _first_places(curve, degree, count):
    """The first `count` places of the degree other than infinity and the origin."""
    return list(itertools.islice((pl for pl in curve.iter_places(degree)
                                  if pl.kind not in ("inf", "origin")), count))


def _candidate_divisors(curve, target):
    """Deterministic lazy stream of divisors of degree target >= 1 with the
    expected l(D), preferring support disjoint from the rational points
    (single higher-degree places, then sums, then differences), with
    rational-point fallbacks last.  Collisions with Q are the caller's job.

    No divisor comes twice: each group below yields distinct divisors, and
    groups differ in their support (one place of degree target; places of
    degree 2; places of degree 2 and one of degree 3; degree target + 2
    minus degree 2; degree target + 3 minus degree 3; one rational place
    target times; target distinct rational places)."""
    if target >= 2:
        for pl in _first_places(curve, target, 6):
            yield Divisor({pl: 1})
    if target >= 4 and target % 2 == 0:
        deg2 = _first_places(curve, 2, target // 2)
        if len(deg2) >= target // 2:
            yield Divisor({pl: 1 for pl in deg2})
    if target >= 5 and target % 2 == 1:
        deg2 = _first_places(curve, 2, (target - 3) // 2)
        deg3 = _first_places(curve, 3, 1)
        if deg3 and len(deg2) >= (target - 3) // 2:
            yield Divisor({pl: 1 for pl in deg2}) + Divisor({deg3[0]: 1})
    for da, db in ((target + 2, 2), (target + 3, 3)):
        A_list = _first_places(curve, da, 2)
        B_list = _first_places(curve, db, 2)
        for A in A_list:
            for B in B_list:
                yield Divisor({A: 1, B: -1})
    # fallbacks that spend rational points
    rationals = curve.rational_places()
    if curve.genus == 0:
        yield Divisor({curve.infinite_place: target})
    else:
        yield Divisor({curve.origin_place: target})
    # an elliptic curve's list starts at the origin: at target 1 this is the divisor above
    if len(rationals) >= target > curve.genus:
        yield Divisor({pl: 1 for pl in rationals[:target]})


def _section_matrix(F, A, ncols):
    """sigma with A @ sigma = identity; None when A has deficient row rank."""
    _, pivots = linalg.rref(F, A)
    n = len(A)
    if len(pivots) < n:
        return None
    sub = [[row[j] for j in pivots] for row in A]
    inv = linalg.invert(F, sub)
    sigma = [[0] * n for _ in range(ncols)]
    for pos, j in enumerate(pivots):
        sigma[j] = inv[pos]
    return sigma


def _place_rows(basis_funcs, place):
    """Evaluation rows of the functions at the place: row c holds the c-th
    residue coordinate of each value, the c-th base-q digit of its index;
    None when some function has a pole there."""
    try:
        vals = [f.eval_at(place) for f in basis_funcs]
    except PoleEvaluationError:
        return None
    F, d = place.curve.field, place.degree
    digits = [gf._raw_from_int(F, v, d) for v in vals]
    return [[dv[c] for dv in digits] for c in range(d)]


@functools.cache
def quadratic_formula(q):
    """The library's fixed rank-3 symmetric formula for F_(q^2)/F_q, built
    once per q from the genus-0 construction."""
    f = construct_case1(q, 2)
    if f.rank != 3:
        raise VerificationError("quadratic formula over GF(%d) has rank %d, not 3"
                                % (q, f.rank))
    return f


def construct_case1(q, n, curve=None, verify_mode="tensor", pairs=DEFAULT_SAMPLES, seed=0):
    """Rank <= 2n+g-1 formula using degree-1 evaluation places only.

    Requires N1 > 2n + 2g - 2 on the chosen curve (genus-0 line by default).
    The result is checked with verify(formula, verify_mode, pairs, seed)
    before it is returned; the default 'tensor' mode is a proof.  A failed
    check raises VerificationError; a seed that verify refuses raises
    ValueError before the search starts.
    """
    return _construct(q, n, curve, case=1, verify_mode=verify_mode, pairs=pairs, seed=seed)


def construct_case3(q, n, curve=None, verify_mode="tensor", pairs=DEFAULT_SAMPLES, seed=0):
    """Rank <= 3n+6g formula using degree-1 and degree-2 evaluation places.

    Requires N1 + 2 N2 > 2n + 4g - 2; each degree-2 place costs three
    multiplications through the canonical F_(q^2)/F_q formula.  Checked
    before it is returned, as in construct_case1.
    """
    return _construct(q, n, curve, case=3, verify_mode=verify_mode, pairs=pairs, seed=seed)


def _construct(q, n, curve, case, verify_mode, pairs, seed):
    """construct_case1/3 on the line or an elliptic curve over GF(q).  The
    degree-n place Q exists on the line for every n; on an elliptic curve
    N1 counts the degree-n places (degree_n_place_count), as in
    bounds.theorem2_bounds, so no fiber over GF(q^n) is scanned to decide."""
    check_seed(seed)
    if n < 2:
        raise ValueError("construction requires n >= 2")
    tower = FieldTower.canonical(q, n)
    Fq = tower.base_field
    if curve is None:
        curve = ProjectiveLine(Fq)
    if curve.field is not Fq:
        raise gf.LevelMismatchError("curve must live over the canonical GF(q)")
    g = curve.genus
    rationals = curve.rational_places()
    N1 = len(rationals)
    if case == 1:
        if not N1 > 2 * n + 2 * g - 2:
            raise HypothesisError(
                "case 1 needs N1 > 2n+2g-2: %d <= %d" % (N1, 2 * n + 2 * g - 2))
        target = n + g - 1
        eval_degrees = (1,)
    else:
        deg2_places = curve.places(2)
        N2 = len(deg2_places)
        if not N1 + 2 * N2 > 2 * n + 4 * g - 2:
            raise HypothesisError(
                "case 3 needs N1+2N2 > 2n+4g-2: %d <= %d" % (N1 + 2 * N2, 2 * n + 4 * g - 2))
        target = n + 2 * g - 1
        eval_degrees = (1, 2)
    dim2 = 2 * target - g + 1
    ell_D = target - g + 1

    quad = quadratic_formula(q) if (case == 3) else None

    if g == 1 and not degree_n_place_count(q, N1, n):
        raise ConstructionError("the curve has no degree-%d place" % n)

    best_rank_seen = None
    for D in itertools.islice(_candidate_divisors(curve, target), 32):
        # L(kD), built when an attempt first needs it and shared by every Q
        space = functools.cache(lambda k, D=D: curve.riemann_roch(k * D))
        # the first 8 places of degree n, searched for only when an attempt
        # reaches them (both curves memoise their place scans); on the line
        # the first is the tower's modulus, which almost always serves
        for Q in itertools.islice(curve.iter_places(n), 8):
            if D.get(Q):
                continue
            if g == 1 and case == 1:
                if curve.divisor_class_is_principal(D - place_divisor(Q)):
                    continue  # l(D-Q) must vanish
            formula, achieved = _attempt(tower, curve, case, D, Q, space, dim2, ell_D,
                                         eval_degrees, quad)
            if achieved is not None and (best_rank_seen is None or achieved < best_rank_seen):
                best_rank_seen = achieved
            if formula is None:
                continue
            bound = 2 * n + g - 1 if case == 1 else 3 * n + 6 * g
            if formula.rank > bound:
                raise VerificationError("rank %d exceeds theorem bound %d" % (formula.rank, bound))
            report = verify(formula, verify_mode, pairs=pairs, seed=seed)
            if not report.passed:
                raise VerificationError("constructed formula failed verification: %r" % (report,))
            return formula
    raise ConstructionError("no full-rank evaluation set found after exhausting candidates",
                            best_rank=best_rank_seen)


def _attempt(tower, curve, case, D, Q, space, dim2, ell_D, eval_degrees, quad):
    """One (D, Q) attempt; returns (formula, achieved_rank_or_None).
    space(k) is L(kD)."""
    Fq = tower.base_field
    E = tower.ext_field
    n = tower.n
    if Q.residue_field is not E:
        raise gf.LevelMismatchError("residue field of Q is not the tower extension")
    LD = space(1)
    if LD.dimension != ell_D:
        return None, None
    A = _place_rows(LD.functions, Q)  # n x ell_D: coordinates in the power basis of E
    if A is None:
        return None, None
    sigma = _section_matrix(Fq, A, ell_D)
    if sigma is None:
        return None, None

    L2D = space(2)
    if L2D.dimension != dim2:
        return None, None
    try:
        evQ2 = [E.value_of(f.eval_at(Q)) for f in L2D.functions]
    except PoleEvaluationError:
        return None, None

    space = linalg.RowSpace(Fq, dim2)
    selected = []  # (place, rows2D, rowsLD)
    flat_rows, pivot_rows = [], []  # the selected places' rows; those space accepted
    for d in eval_degrees:
        if space.rank == dim2:
            break
        for pl in curve.places(d):
            if space.rank == dim2:
                break
            if pl == Q or D.get(pl):
                continue
            rows2 = _place_rows(L2D.functions, pl)
            if rows2 is None:
                continue
            gained = [r for r, row in enumerate(rows2, len(flat_rows)) if space.add(row)]
            if not gained:
                continue
            rows1 = _place_rows(LD.functions, pl)
            if rows1 is None:
                return None, None  # cannot happen: same pole support
            selected.append((pl, rows2, rows1))
            flat_rows += rows2
            pivot_rows += gained
    if space.rank < dim2:
        return None, space.rank
    sub = [flat_rows[r] for r in pivot_rows]
    inv_sub = linalg.invert(Fq, sub)
    # gamma_r = sum_k Linv[k][r] * evQ2[k]; zero off the pivot rows
    zero_val = (0,) * E.deg
    gammas = [zero_val] * len(flat_rows)
    for pos, r in enumerate(pivot_rows):
        acc = zero_val
        for k in range(dim2):
            s = inv_sub[k][pos]
            if s:
                acc = E.vadd(acc, tuple(Fq.mul(s, c) for c in evQ2[k]))
        gammas[r] = acc

    terms = []
    flat = 0
    used1 = []
    used2 = []
    for pl, rows2, rows1 in selected:
        if pl.degree == 1:
            xstar = _row_times(Fq, rows1[0], sigma)
            c = gammas[flat]
            if any(xstar) and any(c):
                terms.append((xstar, c))
            used1.append(pl)
            flat += 1
        else:
            W = [_row_times(Fq, row, sigma) for row in rows1]  # 2 x n
            g0, g1 = gammas[flat], gammas[flat + 1]
            for ustar, e_c in quad.terms:
                xstar = tuple(Fq.add(Fq.mul(ustar[0], W[0][j]), Fq.mul(ustar[1], W[1][j]))
                              for j in range(n))
                c = E.vadd(tuple(Fq.mul(e_c[0], t) for t in g0),
                           tuple(Fq.mul(e_c[1], t) for t in g1))
                if any(xstar) and any(c):
                    terms.append((xstar, c))
            used2.append(pl)
            flat += 2

    prov = {
        "method": "theorem2-case%d" % case,
        "q": tower.q, "n": n, "genus": curve.genus,
        "curve": list(curve.a) if curve.genus == 1 else None,
        "Q": Q.serial(), "D": D.serial(),
        "degree1_places": [p.serial() for p in used1],
        "degree2_places": [p.serial() for p in used2],
        "rank": len(terms),
    }
    return SymmetricBilinearFormula(tower, terms, prov), len(terms)


def _row_times(F, row, mat):
    """row (1 x k) times mat (k x n) over F."""
    n = len(mat[0]) if mat else 0
    out = []
    for j in range(n):
        acc = 0
        for a, mrow in zip(row, mat):
            if a and mrow[j]:
                acc = F.add(acc, F.mul(a, mrow[j]))
        out.append(acc)
    return tuple(out)


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def compose(outer, inner, verify_mode="tensor", pairs=DEFAULT_SAMPLES, seed=0):
    """Formula for F_(q^(nm))/F_q from formulas for F_(q^n)/F_q and
    F_((q^n)^m)/F_(q^n); the rank multiplies.

    The composed formula lives on the flattened canonical tower; the stacked
    field is identified with it through the smallest roots of the defining
    polynomials, which gf.roots finds without scanning the composed field.
    Each outer constant is mapped into the composed field once.  The
    coordinate change is F_p-linear on index digits: a gf.linear_reader over
    the rows of Minv takes each inner term's n rows of blocks * Minv, and a
    reader over those rows takes each outer form to a composed form, one
    read per outer term.  A bad seed is refused before any work; the result
    is checked as in construct_case1.
    """
    check_seed(seed)
    E = outer.tower.ext_field
    if inner.tower.base_field is not E:
        raise TowerMismatchError("inner base field must equal the outer extension field")
    p = outer.tower.p
    if outer.tower.base_field is not prime_field(p):
        raise TowerMismatchError("composition requires a prime-field outer base")
    n, m = outer.tower.n, inner.tower.n
    Fp = prime_field(p)
    composed_tower = FieldTower.canonical(p, n * m)
    C = composed_tower.ext_field

    # Everything in C is an element index; F_p elements keep theirs in C.
    def powers(x, k):
        out = [C.one_index]
        for _ in range(k - 1):
            out.append(C.mul(out[-1], x))
        return out

    rho_pows = powers(gf.roots(C, outer.tower.ext_poly.coeffs)[0], n)
    # iota: the index in C of the element of E of a given index, whose digits
    # are its coefficients over F_p in the power basis of rho
    iota = gf.linear_reader(p, rho_pows, m + 1 + outer.rank + m * inner.rank)

    # inner ext polynomial mapped through iota, then its smallest root u in C
    u_pows = powers(gf.roots(C, [iota(c) for c in inner.tower.ext_poly.coeffs])[0], m)

    # basis u^a rho^b of C over F_p, stacked coordinates k = a*n + b
    M = []
    for a in range(m):
        for b in range(n):
            M.append(list(C.value_of(C.mul(u_pows[a], rho_pows[b]))))
    Mcols = [list(col) for col in zip(*M)]  # columns indexed by (a, b)
    Minv = linalg.invert(Fp, Mcols)

    # v -> v * Minv on indices of F_p-vectors of length n*m, read n times per inner term
    times_Minv = gf.linear_reader(p, [C.index_of(row) for row in Minv], n * inner.rank)

    @functools.cache
    def mul_matrix(e):
        """Multiplication-by-e matrix on F_(q^n) over F_p (n x n): column b
        is e t^b, t^b being the unit index p^b."""
        return list(zip(*(E.value_of(E.mul(e, p ** b)) for b in range(n))))

    c_Cs = [iota(E.index_of(c_val)) for _, c_val in outer.terms]
    terms = []
    for ustar, d_val in inner.terms:
        d_C = 0
        for a in range(m):
            d_C = C.add(d_C, C.mul(iota(d_val[a]), u_pows[a]))
        # xstar = vstar * blocks * Minv with the m blocks side by side: a
        # reader over the rows of blocks * Minv, once per inner term
        blocks = [mul_matrix(ustar[a]) for a in range(m)]
        form = gf.linear_reader(p, [times_Minv(C.index_of([v for mat in blocks for v in mat[i]]))
                                    for i in range(n)], outer.rank)
        for (vstar, _), c_C in zip(outer.terms, c_Cs):
            terms.append((C.value_of(form(E.index_of(vstar))), C.value_of(C.mul(c_C, d_C))))

    prov = {"method": "composed", "q": p, "n": n * m,
            "outer": outer.provenance.get("method"), "outer_n": n,
            "inner": inner.provenance.get("method"), "inner_n": m,
            "rank": len(terms)}
    out = SymmetricBilinearFormula(composed_tower, terms, prov)
    if out.rank != outer.rank * inner.rank:
        raise VerificationError("composed rank %d is not %d * %d"
                                % (out.rank, outer.rank, inner.rank))
    report = verify(out, verify_mode, pairs=pairs, seed=seed)
    if not report.passed:
        raise VerificationError("composed formula failed verification: %r" % (report,))
    return out


# ---------------------------------------------------------------------------
# brute-force symmetric rank
# ---------------------------------------------------------------------------

def brute_force_symmetric_rank(q, n, max_rank):
    """Exact symmetric rank of the multiplication tensor (_rank_search), or
    None if it exceeds max_rank: a certified lower bound of max_rank + 1.
    The guard is the size of the search over every set of forms that this
    one replaced, kept so that refusals do not change: (2, 2, 99) is
    refused, though the rank is 3."""
    if max_rank < 1:
        raise ValueError("max_rank must be >= 1, got %d" % max_rank)
    tower = FieldTower.canonical(q, n)
    nforms = (q ** n - 1) // (q - 1)
    if (nforms ** max_rank) * ((q ** n - 1) ** max_rank) > 10 ** 9:
        raise BudgetExceededError("brute-force search space exceeds budget")
    return _rank_search(tower, max_rank)


def _rank_search(tower, max_rank):
    """Depth-first search, with no budget, for the fewest projective forms
    l_i (first nonzero coordinate 1) whose vectors (l_i(e_j) l_i(e_k))_(j<=k)
    span over F_q the n coordinate vectors of (t^(j+k))_(j<=k), so that the
    constants exist.  A node keeps its set's echelon and these targets
    reduced by it.  A form already in the span is skipped: without it a set
    spans the same.  The first form is in every set: l -> l o m_a, with
    m_a(x) = a*x, is regular on nonzero forms and maps a formula to one with
    c -> c/a^2."""
    Fq, E, n = tower.base_field, tower.ext_field, tower.n
    mul, sub = Fq.mul, Fq.sub
    pairs = [(j, k) for j in range(n) for k in range(j, n)]
    powers = [E.value_of(i) for i in _power_indices(E)]
    targets = [[powers[j + k][s] for j, k in pairs] for s in range(n)]
    vecs = [[mul(f[j], f[k]) for j, k in pairs]
            for f in (gf._raw_from_int(Fq, i, n) for i in range(1, E.size))
            if next(filter(None, f)) == Fq.one_index]
    if Fq.size == 2:  # bit masks, eliminated by XOR
        vecs, targets = ([sum(x << c for c, x in enumerate(v)) for v in vs]
                         for vs in (vecs, targets))
        zero, lead = 0, lambda v: (v & -v, v)
        reduce = lambda v, piv, row: v ^ row if v & piv else v
    else:
        zero = [0] * len(pairs)

        def reduce(v, piv, row):
            c = v[piv]
            return [sub(x, mul(c, y)) for x, y in zip(v, row)] if c else v

        def lead(v):
            piv = next(c for c, x in enumerate(v) if x)
            inv = Fq.inv(v[piv])
            return piv, [mul(inv, x) for x in v]
    best = max_rank + 1

    def visit(i, ech, rest):
        nonlocal best
        v = vecs[i]
        for piv, row in ech:
            v = reduce(v, piv, row)
        if v == zero:
            return
        ech = ech + [lead(v)]
        rest = [t for t in (reduce(t, *ech[-1]) for t in rest) if t != zero]
        if not rest:
            best = len(ech)
        elif len(ech) + 1 < best:
            for j in range(i + 1, len(vecs)):
                visit(j, ech, rest)

    visit(0, [], targets)
    return best if best <= max_rank else None


# ---------------------------------------------------------------------------
# formula files
# ---------------------------------------------------------------------------

def formula_to_dict(f):
    t = f.tower
    return {
        "p": t.p,
        "base_poly": list(t.base_poly.coeffs) if t.base_poly is not None else None,
        "ext_poly": list(t.ext_poly.coeffs),
        "rank": f.rank,
        "terms": [{"x_star": list(xs), "c": t.ext_field.index_of(c)} for xs, c in f.terms],
        "provenance": f.provenance,
    }


def _index_list(value, bound, what):
    """A JSON list of element indices in range(bound), as a tuple."""
    if not (isinstance(value, list)
            and all(type(v) is int and 0 <= v < bound for v in value)):
        raise ValueError("bad %s in formula file" % what)
    return tuple(value)


def formula_from_dict(data):
    """Inverse of formula_to_dict.  Anything that is not a well-formed formula
    raises ValueError, or KeyError for a missing key."""
    if not isinstance(data, dict):
        raise ValueError("formula file must hold a JSON object")
    p = data["p"]
    if type(p) is not int or not 2 <= p <= gf.SCAN_LIMIT:
        raise ValueError("bad characteristic in formula file")
    pf = prime_field(p)
    base_poly = None
    bf = pf
    if data["base_poly"] is not None:
        base_poly = Polynomial._from_raw(pf, _index_list(data["base_poly"], p, "base polynomial"))
        bf = gf.extension(pf, base_poly.coeffs)
    ext_poly = Polynomial._from_raw(bf, _index_list(data["ext_poly"], bf.size,
                                                    "extension polynomial"))
    tower = FieldTower(p, base_poly, ext_poly)
    E = tower.ext_field
    if not isinstance(data["terms"], list) or not isinstance(data["provenance"], dict):
        raise ValueError("bad term list or provenance in formula file")
    terms = []
    for t in data["terms"]:
        if not isinstance(t, dict):
            raise ValueError("bad term in formula file")
        xs = _index_list(t["x_star"], bf.size, "linear form")
        if len(xs) != tower.n:
            raise ValueError("bad linear form in formula file")
        if not (type(t["c"]) is int and 0 <= t["c"] < E.size):
            raise ValueError("bad constant in formula file")
        terms.append((xs, E.value_of(t["c"])))
    f = SymmetricBilinearFormula(tower, terms, data["provenance"])
    if f.rank != data["rank"]:
        raise ValueError("rank field does not match the term list")
    return f


def save_formula(f, path):
    with open(path, "w") as fh:
        json.dump(formula_to_dict(f), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_formula(path):
    with open(path) as fh:
        return formula_from_dict(json.load(fh))
