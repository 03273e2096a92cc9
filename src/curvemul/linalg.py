"""Dense exact linear algebra over a finite field.

Matrices are lists of rows; entries are element *indices* of the field (see
gf).  Everything is plain Gaussian elimination with first-nonzero pivoting,
which keeps results deterministic.  Sizes in this package stay below ~40x40.
"""


def rref(field, rows):
    """Reduced row echelon form; returns (rref_rows, pivot_columns)."""
    m = [list(r) for r in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def invert(field, rows):
    """Inverse of a square matrix; raises ValueError if singular."""
    n = len(rows)
    aug = [list(r) + [field.one_index if i == j else 0 for j in range(n)]
           for i, r in enumerate(rows)]
    red, pivots = rref(field, aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red[:n]]


def kernel_basis(field, rows):
    """Basis of the right null space {v : rows @ v = 0}."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(field, rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = field.one_index
        for r, p in enumerate(pivots):
            v[p] = field.neg(red[r][f])
        basis.append(v)
    return basis


def solve(field, a, b):
    """One solution x of a @ x = b, or None if inconsistent."""
    if not a:
        return None
    ncols = len(a[0])
    aug = [list(r) + [bv] for r, bv in zip(a, b)]
    red, pivots = rref(field, aug)
    if ncols in pivots:
        return None
    x = [0] * ncols
    for r, p in enumerate(pivots):
        x[p] = red[r][-1]
    return x


class RowSpace:
    """Incremental independent-row tracker for greedy selection."""

    def __init__(self, field, ncols):
        self.field = field
        self.ncols = ncols
        self.rows = []    # echelonized rows
        self.pivots = []  # pivot column of each stored row

    @property
    def rank(self):
        return len(self.rows)

    def residual(self, row):
        f = self.field
        row = list(row)
        for er, p in zip(self.rows, self.pivots):
            if row[p]:
                c = row[p]
                row = [f.sub(x, f.mul(c, y)) for x, y in zip(row, er)]
        return row

    def add(self, row):
        """Add the row if independent of the current span; return success."""
        f = self.field
        res = self.residual(row)
        piv = next((i for i, x in enumerate(res) if x), None)
        if piv is None:
            return False
        inv = f.inv(res[piv])
        self.rows.append([f.mul(inv, x) for x in res])
        self.pivots.append(piv)
        return True
