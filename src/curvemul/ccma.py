"""Symmetric multiplication formulas for F_(q^n)/F_q via curve interpolation.

A formula is a list of pairs (x_i*, c_i) with x_i* an F_q-linear form on
F_(q^n) (coordinates in the power basis of the tower) and c_i in F_(q^n),
such that x*y = sum_i x_i*(x) x_i*(y) c_i for all x, y.  Both slots share the
same linear form, so the decomposition is symmetric by construction.

Constructors realize the two effective cases of the interpolation theorem on
genus-0 and genus-1 curves: evaluation at rational points only (rank
2n+g-1), or at rational points plus degree-2 places whose local products are
expanded through the canonical rank-3 formula for F_(q^2)/F_q (rank at most
3n+6g).  A composition operator multiplies formulas along a tower, and a
small brute-force oracle computes exact symmetric ranks for tiny tensors.
"""

import itertools
import json
import random

from . import gf, linalg
from .gf import FieldTower, FieldElement, Polynomial, prime_field
from .function_field import (ProjectiveLine, Divisor, place_divisor,
                             PoleEvaluationError, BudgetExceededError)

EXHAUSTIVE_LIMIT = 1 << 8
DEFAULT_SAMPLES = 10 ** 4


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
        xv = E.element(x).val
        yv = E.element(y).val
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
        return FieldElement(E, acc)

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
    pairs e_j*e_k with j <= k.  Mode 'exhaustive' sweeps all q^(2n) pairs and
    refuses when q^n > 256; mode 'sampled' checks `pairs` seeded random
    pairs; 'auto' picks whichever of these two is affordable.  The scans are
    independent cross-checks of the proof.  Failures are reported, not
    raised; a failure names a concrete pair (x, y) by element indices.
    """
    mode = verify_mode(formula.tower.ext_field.size, mode, pairs)
    if mode == "tensor":
        return _verify_tensor(formula)
    if mode == "exhaustive":
        return _verify_exhaustive(formula)
    return _verify_sampled(formula, pairs, seed)


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


def _basis(tower):
    """The power basis e_0 .. e_(n-1) of F_(q^n) over F_q, as raw values."""
    Fq, n = tower.base_field, tower.n
    return [tuple(Fq.one_index if i == j else 0 for i in range(n)) for j in range(n)]


def _basis_products(tower):
    """{(j, k): e_j * e_k} for the basis pairs j <= k, in row-major order:
    the right-hand side of the multiplication tensor."""
    basis = _basis(tower)
    vmul = tower.ext_field.vmul
    return {(j, k): vmul(basis[j], basis[k])
            for j in range(len(basis)) for k in range(j, len(basis))}


def _verify_tensor(formula):
    tower = formula.tower
    Fq, E = tower.base_field, tower.ext_field
    fadd, fmul = Fq.add, Fq.mul
    basis = _basis(tower)
    products = _basis_products(tower)
    for checked, ((j, k), want) in enumerate(products.items(), 1):
        acc = (0,) * len(want)
        for xs, c in formula.terms:
            s = fmul(xs[j], xs[k])
            if s:
                acc = tuple(fadd(a, fmul(s, cc)) for a, cc in zip(acc, c))
        if acc != want:
            return VerificationReport(False, "tensor", checked,
                                      first_failure=(E.index_of(basis[j]), E.index_of(basis[k])))
    return VerificationReport(True, "tensor", len(products))


def _form_values(formula, v):
    """[x_i*(v) for each term i] as F_q indices, for a raw value v."""
    Fq = formula.tower.base_field
    fadd, fmul = Fq.add, Fq.mul
    out = []
    for xs, _ in formula.terms:
        acc = 0
        for w, xc in zip(xs, v):
            if w and xc:
                acc = fadd(acc, fmul(w, xc))
        out.append(acc)
    return out


def _scaled_constants(formula):
    """scaled[i][s] = index of s*c_i, for each term i and each s in F_q."""
    E = formula.tower.ext_field
    fmul = E.base.mul
    return [[E.index_of(tuple(fmul(s, cc) for cc in c)) for s in range(E.base.size)]
            for _, c in formula.terms]


def _verify_exhaustive(formula):
    E = formula.tower.ext_field
    fmul = formula.tower.base_field.mul
    size = E.size
    star = [_form_values(formula, E.value_of(i)) for i in range(size)]
    scaled = _scaled_constants(formula)
    emul, eadd = E.mul, E.add
    rng_terms = range(formula.rank)
    for ix in range(size):
        sx = star[ix]
        for iy in range(size):
            sy = star[iy]
            acc = 0
            for i in rng_terms:
                s = fmul(sx[i], sy[i])
                if s:
                    acc = eadd(acc, scaled[i][s])
            if acc != emul(ix, iy):
                return VerificationReport(False, "exhaustive", ix * size + iy + 1,
                                          first_failure=(ix, iy))
    return VerificationReport(True, "exhaustive", size * size)


def _verify_sampled(formula, pairs, seed):
    """`pairs` seeded random pairs.  The right-hand side is vmul on the raw
    values, so the field's index tables never check themselves."""
    E = formula.tower.ext_field
    fmul = formula.tower.base_field.mul
    eadd, value_of, index_of, vmul = E.add, E.value_of, E.index_of, E.vmul
    scaled = _scaled_constants(formula)
    rng = random.Random(seed)
    size = E.size
    for k in range(pairs):
        ix = rng.randrange(size)
        iy = rng.randrange(size)
        xv, yv = value_of(ix), value_of(iy)
        acc = 0
        for a, b, sc in zip(_form_values(formula, xv), _form_values(formula, yv), scaled):
            s = fmul(a, b)
            if s:
                acc = eadd(acc, sc[s])
        if acc != index_of(vmul(xv, yv)):
            return VerificationReport(False, "sampled", k + 1, first_failure=(ix, iy), seed=seed)
    return VerificationReport(True, "sampled", pairs, seed=seed)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _first_places(curve, degree, count, exclude=()):
    out = []
    for pl in itertools.islice(curve.iter_places(degree), 0, None):
        if pl.kind in ("inf", "origin"):
            continue
        if pl in exclude:
            continue
        out.append(pl)
        if len(out) >= count:
            break
    return out


def _candidate_divisors(curve, target):
    """Deterministic lazy stream of divisors of the target degree with the
    expected l(D), preferring support disjoint from the rational points
    (single higher-degree places, then sums, then differences), with
    rational-point fallbacks last.  Collisions with Q are the caller's job."""
    seen = set()

    def fresh(D):
        if D in seen:
            return False
        seen.add(D)
        return True

    if target == 0:
        yield Divisor({})
    if target >= 2:
        try:
            for pl in _first_places(curve, target, 6):
                D = Divisor({pl: 1})
                if fresh(D):
                    yield D
        except BudgetExceededError:
            pass
    try:
        if target >= 4 and target % 2 == 0:
            deg2 = _first_places(curve, 2, target // 2)
            if len(deg2) >= target // 2:
                D = Divisor({pl: 1 for pl in deg2})
                if fresh(D):
                    yield D
        if target >= 5 and target % 2 == 1:
            deg2 = _first_places(curve, 2, (target - 3) // 2)
            deg3 = _first_places(curve, 3, 1)
            if deg3 and len(deg2) >= (target - 3) // 2:
                D = Divisor({pl: 1 for pl in deg2}) + Divisor({deg3[0]: 1})
                if fresh(D):
                    yield D
    except BudgetExceededError:
        pass
    for da, db in ((target + 2, 2), (target + 3, 3)):
        try:
            A_list = _first_places(curve, da, 2)
            B_list = _first_places(curve, db, 2)
        except BudgetExceededError:
            continue
        for A in A_list:
            for B in B_list:
                if A != B:
                    D = Divisor({A: 1, B: -1})
                    if fresh(D):
                        yield D
    # fallbacks that spend rational points
    rationals = curve.rational_places()
    if curve.genus == 0:
        yield Divisor({curve.infinite_place: target})
    else:
        yield Divisor({curve.origin_place: target})
    if len(rationals) >= target:
        D = Divisor({pl: 1 for pl in rationals[:target]})
        if fresh(D):
            yield D


def _section_matrix(F, A, ncols):
    """sigma with A @ sigma = identity; None when A has deficient row rank."""
    red, pivots = linalg.rref(F, A)
    n = len(A)
    if len(pivots) < n:
        return None
    sub = [[row[j] for j in pivots] for row in A]
    inv = linalg.invert(F, sub)
    sigma = [[0] * n for _ in range(ncols)]
    for pos, j in enumerate(pivots):
        sigma[j] = inv[pos]
    return sigma


def _coords(element, expected_deg):
    v = element.val
    if expected_deg == 1:
        return (element.index,)
    return v


def _place_rows(basis_funcs, place):
    """Evaluation rows of the functions at the place: one row per residue
    coordinate; None when some function has a pole there."""
    d = place.degree
    vals = []
    try:
        for f in basis_funcs:
            vals.append(f.eval_at(place))
    except PoleEvaluationError:
        return None
    rows = []
    for c in range(d):
        rows.append([_coords(v, d)[c] for v in vals])
    return rows


_QUAD_CACHE = {}


def quadratic_formula(q):
    """The library's fixed rank-3 symmetric formula for F_(q^2)/F_q, built
    once per q from the genus-0 construction."""
    f = _QUAD_CACHE.get(q)
    if f is None:
        f = construct_case1(q, 2)
        if f.rank != 3:
            raise VerificationError("quadratic formula over GF(%d) has rank %d, not 3"
                                    % (q, f.rank))
        _QUAD_CACHE[q] = f
    return f


def construct_case1(q, n, curve=None, verify_mode="tensor", pairs=DEFAULT_SAMPLES, seed=0):
    """Rank <= 2n+g-1 formula using degree-1 evaluation places only.

    Requires N1 > 2n + 2g - 2 on the chosen curve (genus-0 line by default).
    The result is checked with verify(formula, verify_mode, pairs, seed)
    before it is returned; the default 'tensor' mode is a proof.  A failed
    check raises VerificationError.
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
    if n < 2:
        raise ValueError("construction requires n >= 2")
    tower = FieldTower.canonical(q, n)
    Fq = tower.base_field
    E = tower.ext_field
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

    q_candidates = _q_place_candidates(tower, curve, n)

    best_rank_seen = None
    for D in itertools.islice(_candidate_divisors(curve, target), 32):
        for Q in q_candidates:
            if D.get(Q):
                continue
            if g == 1 and case == 1:
                if curve.divisor_class_is_principal(D - place_divisor(Q)):
                    continue  # l(D-Q) must vanish
            formula, achieved = _attempt(tower, curve, case, D, Q, dim2, ell_D,
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


def _q_place_candidates(tower, curve, n, count=8):
    if curve.genus == 0:
        canonical = curve.place_of_poly(tower.ext_poly)
        out = [canonical]
        for pl in itertools.islice((p for p in curve.iter_places(n) if p != canonical),
                                   count - 1):
            out.append(pl)
        return out
    try:
        out = _first_places(curve, n, count)
    except BudgetExceededError:
        raise ConstructionError("degree-%d place search exceeds the point budget" % n)
    if not out:
        raise ConstructionError("the curve has no degree-%d place" % n)
    return out


def _attempt(tower, curve, case, D, Q, dim2, ell_D, eval_degrees, quad):
    """One (D, Q) attempt; returns (formula, achieved_rank_or_None)."""
    Fq = tower.base_field
    E = tower.ext_field
    n = tower.n
    LD = curve.riemann_roch(D)
    if LD.dimension != ell_D:
        return None, None
    try:
        evQ = [f.eval_at(Q) for f in LD.functions]
    except PoleEvaluationError:
        return None, None
    evQ = [_identify_residue(tower, curve, Q, v) for v in evQ]
    A = [[v.val[i] for v in evQ] for i in range(n)]
    sigma = _section_matrix(Fq, A, ell_D)
    if sigma is None:
        return None, None

    L2D = curve.riemann_roch(2 * D)
    if L2D.dimension != dim2:
        return None, None
    try:
        evQ2 = [_identify_residue(tower, curve, Q, f.eval_at(Q)) for f in L2D.functions]
    except PoleEvaluationError:
        return None, None

    space = linalg.RowSpace(Fq, dim2)
    selected = []  # (place, rows2D, rowsLD)
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
            gained = 0
            for row in rows2:
                if space.add(row):
                    gained += 1
            if gained == 0:
                continue
            rows1 = _place_rows(LD.functions, pl)
            if rows1 is None:
                return None, None  # cannot happen: same pole support
            selected.append((pl, rows2, rows1))
    if space.rank < dim2:
        return None, space.rank
    flat_rows = [row for _, rows2, _ in selected for row in rows2]
    picker = linalg.RowSpace(Fq, dim2)
    pivot_rows = [r for r, row in enumerate(flat_rows) if picker.add(row)]
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
                acc = E.vadd(acc, tuple(Fq.mul(s, c) for c in evQ2[k].val))
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


def _identify_residue(tower, curve, Q, value):
    """Map a residue-field value at Q into the tower's extension field.

    Both are the canonical F_(q^n) by construction, so this is an identity
    up to the degenerate n = 1 case.
    """
    E = tower.ext_field
    if value.field is E:
        return value
    if value.field is tower.base_field and E.deg == 1:
        return FieldElement(E, (value.index,))
    raise gf.LevelMismatchError("residue field of Q is not the tower extension")


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def compose(outer, inner, verify_mode="tensor", pairs=DEFAULT_SAMPLES, seed=0):
    """Formula for F_(q^(nm))/F_q from formulas for F_(q^n)/F_q and
    F_((q^n)^m)/F_(q^n); the rank multiplies.

    The composed formula lives on the flattened canonical tower; the stacked
    field is identified with it through explicit roots of the defining
    polynomials.  The result is checked as in construct_case1.
    """
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
    if C.size > gf.SCAN_LIMIT:
        raise BudgetExceededError("composed field too large for root search")

    rho = next(x for x in C if not outer.tower.ext_poly(x))
    rho_pows = [C.one()]
    for _ in range(n - 1):
        rho_pows.append(rho_pows[-1] * rho)

    def iota(e):
        acc = C.zero()
        for coeff, rp in zip(e.val, rho_pows):
            if coeff:
                acc = acc + rp * C.scalar(coeff)
        return acc

    # inner ext polynomial mapped through iota, then a root u of it in C
    gpoly = [iota(E.from_index(c)) for c in inner.tower.ext_poly.coeffs]

    def geval(x):
        acc = C.zero()
        for c in reversed(gpoly):
            acc = acc * x + c
        return acc

    u = next(x for x in C if not geval(x))
    u_pows = [C.one()]
    for _ in range(m - 1):
        u_pows.append(u_pows[-1] * u)

    # basis u^a rho^b of C over F_p, stacked coordinates k = a*n + b
    M = []
    for a in range(m):
        for b in range(n):
            M.append(list((u_pows[a] * rho_pows[b]).val))
    Mcols = [list(col) for col in zip(*M)]  # columns indexed by (a, b)
    Minv = linalg.invert(Fp, Mcols)

    mul_mats = {}

    def mul_matrix(e_idx):
        """Multiplication-by-e matrix on F_(q^n) over F_p (n x n)."""
        mat = mul_mats.get(e_idx)
        if mat is None:
            ev = E.value_of(e_idx)
            cols = []
            for b in range(n):
                unit = tuple(E.base.one_index if i == b else 0 for i in range(n))
                cols.append(E.vmul(ev, unit))
            mat = [[cols[b][i] for b in range(n)] for i in range(n)]
            mul_mats[e_idx] = mat
        return mat

    terms = []
    for ustar, d_val in inner.terms:
        d_C = C.zero()
        for a in range(m):
            coeff = E.from_index(d_val[a])
            d_C = d_C + iota(coeff) * u_pows[a]
        blocks = [mul_matrix(ustar[a]) for a in range(m)]
        for vstar, c_val in outer.terms:
            c_C = iota(FieldElement(E, c_val)) * d_C
            stacked = []
            for a in range(m):
                mat = blocks[a]
                for b in range(n):
                    acc = 0
                    for i in range(n):
                        if vstar[i] and mat[i][b]:
                            acc = Fp.add(acc, Fp.mul(vstar[i], mat[i][b]))
                    stacked.append(acc)
            xstar = _row_times(Fp, stacked, Minv)
            terms.append((xstar, c_C.val))

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
    """Exact symmetric rank of the multiplication tensor, up to max_rank.

    Linear forms are normalized projectively (first nonzero coordinate 1) and
    term sets are strictly increasing, which removes all scaling and ordering
    symmetry; with the forms fixed, the constants satisfy a linear system, so
    each candidate set costs one exact solve.  Returns the minimum rank, or
    None if every set up to max_rank fails (a certified lower bound of
    max_rank + 1).
    """
    if max_rank < 1:
        raise ValueError("max_rank must be >= 1, got %d" % max_rank)
    tower = FieldTower.canonical(q, n)
    Fq = tower.base_field
    nforms = (q ** n - 1) // (q - 1)
    if (nforms ** max_rank) * ((q ** n - 1) ** max_rank) > 10 ** 9:
        raise BudgetExceededError("brute-force search space exceeds budget")
    forms = []
    for idx in range(1, q ** n):
        vec = tuple(_digits(idx, q, n))
        lead = next(i for i, v in enumerate(vec) if v)
        if vec[lead] == Fq.one_index:
            forms.append(vec)
    rhs = _basis_products(tower)
    pairs = list(rhs)
    for r in range(1, max_rank + 1):
        for combo in itertools.combinations(forms, r):
            mat = []
            for (j, k) in pairs:
                mat.append([Fq.mul(f[j], f[k]) for f in combo])
            ok = True
            for slot in range(n):
                b = [rhs[(j, k)][slot] for (j, k) in pairs]
                if linalg.solve(Fq, mat, b) is None:
                    ok = False
                    break
            if ok:
                return r
    return None


def _digits(k, q, n):
    out = []
    for _ in range(n):
        k, r = divmod(k, q)
        out.append(r)
    return out


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
