"""Symmetric-rank bounds: exact small values, curve-based conditional bounds,
recursive composition, asymptotic records, and the comparison table.

Every bound is carried as an exact integer or Fraction; rounding to two
decimals (half-up) happens only when a table is rendered, so the published
comparison rows are reproduced digit for digit.
"""

import functools
import math
from fractions import Fraction

from . import ccma
from .gf import canonical_field, factor_prime_power, PostconditionError
from .function_field import (best_stat_curves, BudgetExceededError, CATALOG_Q_LIMIT,
                             degree_n_place_count, divisors, UnsupportedDivisorError)

CONSTRUCT_SIZE_LIMIT = 512   # try explicit formulas only when q^n is this small
SUBFIELD_LIMIT = 1 << 16

_METHOD_PRIORITY = (
    "winograd-exact", "shokrollahi-elliptic", "theorem2-case1", "theorem2-case2",
    "theorem2-case3", "constructed-formula", "composition", "schoolbook",
)


class BoundCertificate:
    """mu_sym_q(n) <= value, with the derivation chain that produced it."""

    __slots__ = ("q", "n", "value", "method", "details", "children", "flag", "formula")

    def __init__(self, q, n, value, method, details=None, children=(), flag=None, formula=None):
        self.q = q
        self.n = n
        self.value = value
        self.method = method
        self.details = details or {}
        self.children = tuple(children)
        self.flag = flag
        self.formula = formula
        if method == "composition":
            a, b = self.children
            if value != a.value * b.value or n != a.n * b.n:
                raise ccma.VerificationError(
                    "composition certificate %d(%d) does not multiply %d(%d) * %d(%d)"
                    % (value, n, a.value, a.n, b.value, b.n))
        if value < rank_floor(q, n):  # a verifier or a theorem was misapplied
            raise PostconditionError("%r is below rank_floor" % self)

    def to_dict(self):
        d = {"q": self.q, "n": self.n, "value": self.value, "method": self.method,
             "details": self.details}
        if self.children:
            d["children"] = [c.to_dict() for c in self.children]
        if self.flag:
            d["flag"] = self.flag
        return d

    def __repr__(self):
        return "BoundCertificate(mu_sym_%d(%d) <= %d via %s)" % (self.q, self.n, self.value, self.method)


class AsymptoticRecord:
    """An upper bound on M_sym or m_sym for a fixed q, with its source."""

    __slots__ = ("q", "quantity", "value", "source", "params")

    def __init__(self, q, quantity, value, source, params=None):
        self.q = q
        self.quantity = quantity
        self.value = value
        self.source = source
        self.params = params or {}

    def __repr__(self):
        return "AsymptoticRecord(%s_%d <= %s via %s)" % (self.quantity, self.q, self.value, self.source)


# ---------------------------------------------------------------------------
# exact small values
# ---------------------------------------------------------------------------

def epsilon(q):
    """Greatest integer <= 2*sqrt(q) prime to q, or exactly 2*sqrt(q) for a
    perfect square."""
    factor_prime_power(q)
    r = math.isqrt(q)
    if r * r == q:
        return 2 * r
    k = math.isqrt(4 * q)
    while math.gcd(k, q) != 1:
        k -= 1
    return k


def rank_floor(q, n):
    """Lower bound on mu_sym_q(n): 2n-1, and 2n when 2n > q+2 (Winograd,
    TCS 8, 1979; de Groote, SIAM J. Comput. 12, 1983)."""
    return 2 * n - 1 if 2 * n <= q + 2 else 2 * n


def exact_small(q, n):
    """The known exact symmetric rank: rank_floor(q, n) where the floor is
    attained, for 2n <= q+2 (n = 1 included) and 2n < q+1+epsilon(q)."""
    if 2 * n <= q + 2 or 2 * n < q + 1 + epsilon(q):
        return rank_floor(q, n)
    return None


def witness_degree(n1, g, eps):
    """floor((N1 - 2g(1 + eps)) / 2) with exact rational eps."""
    return math.floor(Fraction(n1 - 2 * g * (1 + Fraction(eps)), 2))


def drinfeld_vladut(q):
    """(upper bound for A(q), attained?) -- sqrt(q) - 1, attained iff square."""
    factor_prime_power(q)
    r = math.isqrt(q)
    if r * r == q:
        return r - 1, True
    return math.sqrt(q) - 1.0, False


# ---------------------------------------------------------------------------
# Theorem-based conditional bounds
# ---------------------------------------------------------------------------

def theorem2_bounds(q, n, curve_stats):
    """Bounds from the three interpolation cases, for a curve of genus 0 or 1
    described by curve_stats = dict(g=..., n1=..., n2=..., nonspecial_available=...).

    A degree-n place must exist.  The line has one in every degree; on a
    genus-1 curve N1 fixes the zeta function, which counts them exactly
    (function_field.degree_n_place_count), asked only once some inequality
    holds: the count reads #E(F_(q^n)), a number of about n log2(q) bits.
    """
    g = curve_stats["g"]
    n1 = curve_stats["n1"]
    n2 = curve_stats["n2"]
    nonspecial = curve_stats.get("nonspecial_available", g == 0)
    if g not in (0, 1):
        raise ValueError("theorem2_bounds supports genus 0 and 1, got %r" % (g,))
    out = []
    if n1 > 2 * n + 2 * g - 2:
        out.append((1, 2 * n + g - 1))
    if nonspecial and n1 + 2 * n2 > 2 * n + 2 * g - 2:
        out.append((2, 3 * n + 3 * g))
    if n1 + 2 * n2 > 2 * n + 4 * g - 2:
        out.append((3, 3 * n + 6 * g))
    if out and g == 1 and not degree_n_place_count(q, n1, n):
        return []
    return out


# ---------------------------------------------------------------------------
# best bound
# ---------------------------------------------------------------------------

def best_bound(q, n, depth=2, construct="auto"):
    """Minimum over the in-scope methods, as a certificate whose chain fully
    reconstructs the value.  Exact values short-circuit: nothing in scope may
    beat them, by rank_floor and the solved ranges."""
    factor_prime_power(q)
    if n < 1:
        raise ValueError("extension degree must be >= 1")
    if depth < 0:
        raise ValueError("recursion depth must be >= 0")
    if depth > 3:
        raise ValueError("recursion depth capped at 3")
    if construct == "auto":  # q >= 2: q^n <= the limit needs n below its bit length
        construct = (n < CONSTRUCT_SIZE_LIMIT.bit_length() and q ** n <= CONSTRUCT_SIZE_LIMIT
                     and q <= CATALOG_Q_LIMIT)
    return _best_bound(q, n, depth, bool(construct))


@functools.cache  # called positionally with "auto" resolved: one entry per bound
def _best_bound(q, n, depth, construct):
    es = exact_small(q, n)
    if es is not None:
        method = "shokrollahi-elliptic" if es == 2 * n else "winograd-exact"
        return BoundCertificate(q, n, es, method, {"exact": True})

    flag = None
    candidates = [BoundCertificate(q, n, n * (n + 1) // 2, "schoolbook")]

    stats0 = {"g": 0, "n1": q + 1, "n2": (q * q - q) // 2, "nonspecial_available": True}
    for case, value in theorem2_bounds(q, n, stats0):
        candidates.append(BoundCertificate(q, n, value, "theorem2-case%d" % case,
                                           {"genus": 0, "n1": stats0["n1"], "n2": stats0["n2"]}))
    if q <= CATALOG_Q_LIMIT:
        for entry in best_stat_curves(canonical_field(q)):
            stats = {"g": 1, "n1": entry.n1, "n2": entry.n2,
                     "nonspecial_available": _nonspecial_available(entry)}
            for case, value in theorem2_bounds(q, n, stats):
                candidates.append(BoundCertificate(
                    q, n, value, "theorem2-case%d" % case,
                    {"genus": 1, "curve": list(entry.a), "n1": entry.n1, "n2": entry.n2}))
    else:
        flag = "genus1-catalog-skipped"

    if depth > 0:
        for a in divisors(n)[1:-1]:  # increasing, so ties resolve to the smallest a
            b = n // a
            if a >= SUBFIELD_LIMIT.bit_length() or q ** a > SUBFIELD_LIMIT:
                flag = flag or "composition-subfield-over-budget"
                continue
            ca = best_bound(q, a, depth - 1, construct=False)
            cb = best_bound(q ** a, b, depth - 1, construct=False)
            candidates.append(BoundCertificate(q, n, ca.value * cb.value, "composition",
                                               children=(ca, cb)))

    # build only a formula that can win: at best it reaches rank_floor, and
    # there it loses a tie to any method ahead of it in _METHOD_PRIORITY
    floor_key = (rank_floor(q, n), _METHOD_PRIORITY.index("constructed-formula"))
    if construct and min(map(_rank_key, candidates)) > floor_key:
        formula = _attempt_constructions(q, n, floor_key[0])
        if formula is not None:
            candidates.append(BoundCertificate(q, n, formula.rank, "constructed-formula",
                                               {"provenance": formula.provenance},
                                               formula=formula))

    best = min(candidates, key=_rank_key)
    best.flag = flag
    return best


def _rank_key(cert):
    return cert.value, _METHOD_PRIORITY.index(cert.method)


def _nonspecial_available(entry):
    if entry.n1 >= 2:
        return True
    try:
        entry.curve.find_nonspecial_divisor()
        return True
    except (UnsupportedDivisorError, BudgetExceededError):
        return False


def _attempt_constructions(q, n, floor):
    attempts = []
    curves = [None]
    try:
        curves += [e.curve for e in best_stat_curves(canonical_field(q))]
    except BudgetExceededError:
        pass
    for builder in (ccma.construct_case1, ccma.construct_case3):
        for curve in curves:
            try:
                attempts.append(builder(q, n, curve))
            except ccma.ConstructionError:
                continue
            if attempts[-1].rank <= floor:  # nothing ranks lower: the first minimum
                return attempts[-1]
    return min(attempts, key=lambda f: f.rank, default=None)


# ---------------------------------------------------------------------------
# asymptotic records
# ---------------------------------------------------------------------------

def asymptotic_bounds(q):
    """Records for m_sym_q and M_sym_q whose stated preconditions hold at q."""
    _, s = factor_prime_power(q)
    r = math.isqrt(q)
    square = r * r == q
    records = []
    if square and r >= 4:
        v = 2 * (1 + Fraction(1, r - 3))
        records.append(AsymptoticRecord(q, "m_sym", v, "Prop1", {"A(q)": r - 1}))
        records.append(AsymptoticRecord(q, "m_sym", v, "Cor1", {"sub_q": r}))
    if q > 3:
        records.append(AsymptoticRecord(q, "m_sym", 3 * (1 + Fraction(1, q - 3)), "Cor2"))
    if square and q >= 25:
        records.append(AsymptoticRecord(q, "m_sym", 2 * (1 + Fraction(1, r - 3)),
                                        "Thm-square>=25"))
    if square and r >= 4:
        records.append(AsymptoticRecord(q, "M_sym", 2 * (1 + Fraction(1, r - 3)),
                                        "Prop2", {"sub_q": r}))
    if s % 2 == 1 and q >= 5:
        records.append(AsymptoticRecord(q, "M_sym", 3 * (1 + Fraction(2, q - 3)), "Prop3"))
    return records


def _mu(qq, nn):
    return best_bound(qq, nn, depth=2, construct=False).value


def cacr_bounds(q, t):
    """The generalized-evaluation decay bounds at parameter t: the two exact
    rational families with guard q^t > 5, their mu-free decays, and the
    log-corrected pair (floating point, >= 15 significant digits)."""
    factor_prime_power(q)
    records = []
    qt = q ** t
    if qt - 5 > 0:
        records.append(AsymptoticRecord(
            q, "M_sym", Fraction(_mu(q, 2 * t) * (qt - 1), t * (qt - 5)), "Eq5",
            {"t": t, "mu": _mu(q, 2 * t)}))
        records.append(AsymptoticRecord(
            q * q, "M_sym", Fraction(2 * _mu(q * q, t) * (qt - 1), t * (qt - 5)), "Eq6",
            {"t": t, "mu": _mu(q * q, t), "base_q": q}))
        records.append(AsymptoticRecord(
            q, "M_sym", Fraction((4 * t - 1) * (qt - 1), t * (qt - 5)), "Eq7", {"t": t}))
        records.append(AsymptoticRecord(
            q * q, "M_sym", Fraction(2 * (2 * t - 1) * (qt - 1), t * (qt - 5)), "Eq8",
            {"t": t, "base_q": q}))
    else:
        records.append(AsymptoticRecord(q, "M_sym", None, "Eq5-suppressed",
                                        {"t": t, "reason": "q^t - 5 <= 0"}))
    logq2 = math.log(2) / math.log(q)
    if q % 2 == 0:
        guard = qt - 2 - logq2
        tag = "Thm6-even"
    else:
        guard = qt - 2 - 2 * logq2
        tag = "Thm6-odd"
    if guard > 0:
        records.append(AsymptoticRecord(q, "M_sym", _mu(q, 2 * t) * (qt - 1) / (t * guard),
                                        tag, {"t": t, "mu": _mu(q, 2 * t), "log_q_2": logq2}))
    else:
        records.append(AsymptoticRecord(q, "M_sym", None, tag + "-suppressed",
                                        {"t": t, "reason": "log guard fails"}))
    return records


# ---------------------------------------------------------------------------
# the comparison table
# ---------------------------------------------------------------------------

TABLE_QS = (5, 7, 8, 9, 11, 13)


class TableRow:
    __slots__ = ("q", "cor_iv8", "prop3", "winner", "t_used", "mu_used")

    def __init__(self, q, cor_iv8, prop3, winner, t_used, mu_used):
        self.q = q
        self.cor_iv8 = cor_iv8
        self.prop3 = prop3
        self.winner = winner
        self.t_used = t_used
        self.mu_used = mu_used


def round2(value):
    """Two decimals, ties rounded up; exact for Fraction input."""
    k = math.floor(Fraction(value) * 100 + Fraction(1, 2))
    return "%d.%02d" % divmod(k, 100)


def _best_eq5(q):
    """(value, t, mu) of the least Eq5 record of cacr_bounds(q, t) over
    t = 1..4; the smallest t on ties."""
    best = min((r for t in (1, 2, 3, 4) for r in cacr_bounds(q, t) if r.source == "Eq5"),
               key=lambda r: r.value)
    return best.value, best.params["t"], best.params["mu"]


def comparison_table():
    """Rows (q, min-over-t Eq5 with derived mu values, Prop-3 formula) for
    q in 5..13, plus the crossover data at q = 15 (formula only; 15 is not a
    prime power) and at q = 17, the first prime power past the crossover with
    Prop 3 applicable."""
    rows = []
    for q in TABLE_QS:
        cor, t_used, mu_used = _best_eq5(q)
        prop3 = 3 * (1 + Fraction(2, q - 3))
        if cor < prop3:
            winner = "cor_iv8"
        elif prop3 < cor:
            winner = "prop3"
        else:
            winner = "tie"
        rows.append(TableRow(q, cor, prop3, winner, t_used, mu_used))
    prop3_15 = 3 * (1 + Fraction(2, 15 - 3))
    eq7_15 = min(Fraction((4 * t - 1) * (15 ** t - 1), t * (15 ** t - 5)) for t in (1, 2, 3, 4))
    cor_17 = _best_eq5(17)[0]
    prop3_17 = 3 * (1 + Fraction(2, 17 - 3))
    crossover = {
        "prop3_at_15": prop3_15,
        "eq5_decay_min_at_15": eq7_15,
        "prop3_at_17": prop3_17,
        "eq5_min_at_17": cor_17,
        "prop3_sharper_from_15": prop3_15 <= Fraction(7, 2) and prop3_15 < eq7_15
                                 and prop3_17 < cor_17,
    }
    return rows, crossover


def render_comparison_table():
    rows, crossover = comparison_table()
    lines = ["q,cor_iv8,prop3,winner"]
    for r in rows:
        lines.append("%d,%s,%s,%s" % (r.q, round2(r.cor_iv8), round2(r.prop3), r.winner))
    lines.append("# crossover q=15: prop3=%s <= 3.50 < eq5-decay min=%s"
                 % (round2(crossover["prop3_at_15"]), round2(crossover["eq5_decay_min_at_15"])))
    lines.append("# crossover q=17: prop3=%s < eq5 min=%s"
                 % (round2(crossover["prop3_at_17"]), round2(crossover["eq5_min_at_17"])))
    return "\n".join(lines)
