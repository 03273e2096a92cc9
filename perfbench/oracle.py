"""Output checks that do not go through the library's own verification.

A symmetric formula x*y = sum_i x_i*(x) x_i*(y) c_i has both sides symmetric
and F_q-bilinear in (x, y), so checking it on the n(n+1)/2 basis pairs
e_j * e_k (j <= k) proves it for every pair.  The products of basis vectors
come from the field's own multiplication (``vmul``), not from ``ccma.verify``.
"""

import hashlib
import json

from curvemul.ccma import formula_to_dict


def basis_pair_errors(formula):
    """Empty list when the formula multiplies every basis pair correctly."""
    tower = formula.tower
    Fq, E = tower.base_field, tower.ext_field
    n = tower.n
    one = Fq.one_index
    basis = [tuple(one if i == j else 0 for i in range(n)) for j in range(n)]
    for j in range(n):
        for k in range(j, n):
            acc = [0] * n
            for xs, c in formula.terms:
                s = Fq.mul(xs[j], xs[k])
                if s:
                    acc = [Fq.add(a, Fq.mul(s, cc)) for a, cc in zip(acc, c)]
            if tuple(acc) != E.vmul(basis[j], basis[k]):
                return ["basis pair (%d, %d) multiplied wrongly" % (j, k)]
    return []


def hasse_weil_errors(rows):
    """Catalog rows are p,q,coeffs,genus,N1,N2; N1 <= q + 1 + 2 sqrt(q)."""
    errors = []
    for row in rows:
        fields = row.split(",")
        q, n1 = int(fields[1]), int(fields[4])
        if n1 > q + 1 and (n1 - q - 1) ** 2 > 4 * q:
            errors.append("N1=%d breaks the Hasse-Weil bound for q=%d" % (n1, q))
    return errors


def expect(label, got, want):
    return [] if got == want else ["%s: got %r, want %r" % (label, got, want)]


def formula_text(formula):
    """The canonical form of a formula: its file JSON."""
    return json.dumps(formula_to_dict(formula), indent=1, sort_keys=True)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


PUBLISHED_TABLE = {5: ("4.80", "6.00"), 7: ("3.82", "4.50"), 8: ("3.74", "4.20"),
                   9: ("3.68", "4.00"), 11: ("3.62", "3.75"), 13: ("3.59", "3.60")}


def table_errors(text):
    """The comparison-table rows q,cor_iv8,prop3,winner against the paper."""
    got = {}
    for line in text.splitlines():
        fields = line.split(",")
        if len(fields) == 4 and fields[0].isdigit():
            got[int(fields[0])] = (fields[1], fields[2])
    return expect("comparison table", got, PUBLISHED_TABLE)

