import functools
import itertools
import random

from curvemul import linalg
from curvemul.gf import prime_field, canonical_extension
from invariants import mat_mul, mat_vec, rank

F2 = prime_field(2)
F3 = prime_field(3)
F5 = prime_field(5)
F4 = canonical_extension(F2, 2)

# (field, rows, columns): every such matrix is checked
COMPLETE = ((F2, 3, 3), (F3, 3, 3), (F4, 2, 3))


def _matrices(F, nrows, ncols):
    for entries in itertools.product(range(F.size), repeat=nrows * ncols):
        yield [list(entries[i:i + ncols]) for i in range(0, nrows * ncols, ncols)]


@functools.cache
def _vectors(F, ncols):
    """(the vectors of F^ncols, their numbers, plus[u][v], scaled[c][v]) on
    vector numbers, tabled from the field's add and mul."""
    vs = list(itertools.product(range(F.size), repeat=ncols))
    number = {v: i for i, v in enumerate(vs)}
    plus = [[number[tuple(map(F.add, u, v))] for v in vs] for u in vs]
    scaled = [[number[tuple(F.mul(c, x) for x in v)] for v in vs] for c in range(F.size)]
    return vs, number, plus, scaled


def _span(F, rows, ncols):
    """Every F-linear combination of the rows, by enumeration: the oracle
    for row spaces, and for ranks through |span| = |F|^rank."""
    vs, number, plus, scaled = _vectors(F, ncols)
    span = {0}
    for r in rows:
        multiples = [row[number[tuple(r)]] for row in scaled]
        span = {plus[s][m] for s in span for m in multiples}
    return {vs[i] for i in span}


def _rank(F, rows, ncols):
    size, k = len(_span(F, rows, ncols)), 0
    while F.size ** k < size:
        k += 1
    return k


def _random_matrix(F, rng, rows, cols):
    return [[rng.randrange(F.size) for _ in range(cols)] for _ in range(rows)]


def test_invert_round_trip():
    rng = random.Random(11)
    for F in (F2, F5, F4):
        for _ in range(25):
            n = rng.randrange(1, 6)
            m = _random_matrix(F, rng, n, n)
            try:
                inv = linalg.invert(F, m)
            except ValueError:
                assert rank(F, m) < n
                continue
            prod = mat_mul(F, m, inv)
            ident = [[F.one_index if i == j else 0 for j in range(n)] for i in range(n)]
            assert prod == ident


def test_kernel_annihilates():
    rng = random.Random(12)
    for F in (F2, F5, F4):
        for _ in range(25):
            m = _random_matrix(F, rng, rng.randrange(1, 5), rng.randrange(1, 6))
            ncols = len(m[0])
            basis = linalg.kernel_basis(F, m)
            assert len(basis) == ncols - rank(F, m)
            for v in basis:
                assert mat_vec(F, m, v) == [0] * len(m)


def test_solve_consistency():
    rng = random.Random(13)
    for F in (F5, F4):
        for _ in range(25):
            m = _random_matrix(F, rng, 4, 3)
            x = [rng.randrange(F.size) for _ in range(3)]
            b = mat_vec(F, m, x)
            sol = linalg.solve(F, m, b)
            assert sol is not None
            assert mat_vec(F, m, sol) == b


def test_solve_inconsistent():
    # x + y = 1 and x + y = 0 over F2
    assert linalg.solve(F2, [[1, 1], [1, 1]], [1, 0]) is None


def test_row_space_greedy():
    space = linalg.RowSpace(F2)
    assert space.add([1, 0, 0])
    assert not space.add([1, 0, 0])
    assert space.add([1, 1, 0])
    assert not space.add([0, 1, 0])
    assert space.add([1, 1, 1])
    assert space.rank == 3


def test_rref_meets_its_definition_on_every_small_matrix():
    """Every 3x3 matrix over F_2 and F_3 and every 2x3 matrix over F_4.  A
    row space has one RREF: the rows of its echelon with each pivot 1 and
    alone in its column, pivots increasing.  Rows with distinct pivots
    alone in their columns are independent, so rows inside the enumerated
    span whose count is the span's rank span all of it."""
    for F, nrows, ncols in COMPLETE:
        for m in _matrices(F, nrows, ncols):
            red, pivots = linalg.rref(F, m)
            span = _span(F, m, ncols)
            assert len(span) == F.size ** len(red) and len(pivots) == len(red), m
            assert pivots == sorted(set(pivots)), m
            for i, (row, p) in enumerate(zip(red, pivots)):
                assert tuple(row) in span, m
                assert not any(row[:p]) and row[p] == F.one_index, m
                assert not any(red[j][p] for j in range(len(red)) if j != i), m


def test_invert_kernel_solve_by_multiplication_on_every_small_matrix():
    """On the same complete sets, each result checked by multiplication
    against the enumerated ranks: invert gives M @ inv = I exactly when M is
    square of full rank and raises otherwise; kernel_basis gives
    ncols - rank vectors that M annihilates and that span a space of that
    dimension; solve gives x with M @ x = b or None exactly when b lies
    outside the enumerated column space, for one unit vector b per matrix,
    taken in turn."""
    for F, nrows, ncols in COMPLETE:
        one = F.one_index
        ident = [[one if i == j else 0 for j in range(nrows)] for i in range(nrows)]
        for k, m in enumerate(_matrices(F, nrows, ncols)):
            rank_m = _rank(F, m, ncols)
            if nrows == ncols:
                try:
                    assert mat_mul(F, m, linalg.invert(F, m)) == ident and rank_m == nrows, m
                except ValueError:
                    assert rank_m < nrows, m
            basis = linalg.kernel_basis(F, m)
            assert len(basis) == ncols - rank_m == _rank(F, basis, ncols), m
            assert all(mat_vec(F, m, v) == [0] * nrows for v in basis), m
            b = ident[k % nrows]
            x = linalg.solve(F, m, b)
            assert (x is None) == (tuple(b) not in _span(F, list(zip(*m)), nrows)), (m, b)
            assert x is None or mat_vec(F, m, x) == b, (m, b)


def test_f2_bit_mask_rows_match_index_list_rows():
    """Every 3x4 matrix over F_2, added row by row to a RowSpace on bit masks
    and to one held on index lists, the path of every other field: both
    accept the same rows and store the same echelon rows at the same
    pivots."""
    for m in _matrices(F2, 3, 4):
        masks, lists = linalg.RowSpace(F2), linalg.RowSpace(F2)
        lists.bits = False
        for row in m:
            assert masks.add(row) == lists.add(row), m
        assert [(p.bit_length() - 1, [r >> c & 1 for c in range(4)])
                for p, r in masks.rows] == lists.rows, m
