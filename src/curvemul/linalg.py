"""Dense exact linear algebra over a finite field.

Matrices are lists of rows; entries are element *indices* of the field (see
gf).  There is one row reduction, RowSpace's incremental echelon with
first-nonzero pivoting, which keeps results deterministic: over F_2 its rows
are int bit masks reduced by XOR, otherwise lists of indices.  rref, and
through it invert, kernel_basis and solve, read its rows.  Sizes in this
package stay below ~40x40.
"""


class RowSpace:
    """An incremental echelon: each stored row has the coefficient 1 at its
    pivot, its first nonzero column, and is zero at the pivots of the rows
    stored before it.  Over F_2 a row is an int whose bit c is column c, and
    its pivot is kept as the mask of that bit; otherwise a row is a list of
    element indices and its pivot a column."""

    def __init__(self, field):
        self.field = field
        self.bits = field.size == 2
        self.rows = []  # (pivot, row), in the order stored

    @property
    def rank(self):
        return len(self.rows)

    def residual(self, row, start=0):
        """The row less its multiples of the stored rows from `start` on, in
        this space's row form: a list row over F_2 is packed first."""
        if self.bits:
            if type(row) is not int:
                row = sum(x << c for c, x in enumerate(row))
            for p, r in self.rows[start:]:
                if row & p:
                    row ^= r
            return row
        sub, mul = self.field.sub, self.field.mul
        for p, r in self.rows[start:]:
            if c := row[p]:
                row = [sub(x, mul(c, y)) for x, y in zip(row, r)]
        return row

    def add(self, row):
        """Store the row if it is independent of the span; return whether it was."""
        row = self.residual(row)
        if self.bits:
            if row:
                self.rows.append((row & -row, row))
            return bool(row)
        p = next((c for c, x in enumerate(row) if x), None)
        if p is not None:
            inv = self.field.inv(row[p])
            self.rows.append((p, [self.field.mul(inv, x) for x in row]))
        return p is not None


def rref(field, rows):
    """(nonzero rows of the reduced row echelon form, their pivot columns),
    in increasing pivot order.  A row space has one RREF: RowSpace's rows,
    each reduced by the rows stored after it, are it once sorted by pivot.
    The last rows go first, so each step meets only rows zero at every
    other pivot and clears one pivot column without filling another."""
    ncols = len(rows[0]) if rows else 0
    space = RowSpace(field)
    for row in rows:
        space.add(row)
    for j in reversed(range(space.rank - 1)):
        p, row = space.rows[j]
        space.rows[j] = p, space.residual(row, j + 1)
    ordered = sorted(space.rows)  # pivots differ, so no two rows are compared
    if space.bits:
        return ([[r >> c & 1 for c in range(ncols)] for _, r in ordered],
                [p.bit_length() - 1 for p, _ in ordered])
    return [r for _, r in ordered], [p for p, _ in ordered]


def invert(field, rows):
    """Inverse of a square matrix; raises ValueError if singular."""
    n = len(rows)
    aug = [list(r) + [field.one_index if i == j else 0 for j in range(n)]
           for i, r in enumerate(rows)]
    red, pivots = rref(field, aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


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
