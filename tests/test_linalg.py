import random

from curvemul import linalg
from curvemul.gf import prime_field, canonical_extension
from invariants import mat_mul, mat_vec, rank

F2 = prime_field(2)
F5 = prime_field(5)
F4 = canonical_extension(F2, 2)


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
    space = linalg.RowSpace(F2, 3)
    assert space.add([1, 0, 0])
    assert not space.add([1, 0, 0])
    assert space.add([1, 1, 0])
    assert not space.add([0, 1, 0])
    assert space.add([1, 1, 1])
    assert space.rank == 3
