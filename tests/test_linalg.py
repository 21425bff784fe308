"""Both entry paths of linalg.nullspace and linalg.rank on rectangular matrices."""

import random
from fractions import Fraction

from gapvir.linalg import nullspace, rank, row_reduce, working_copy
from gapvir.scalars import Scalar

UNIT = Scalar(Fraction(3, 5), Fraction(4, 5))


def random_matrix(rng, complex_entries):
    """A tall or wide matrix of rank <= k, with a zero row or column now and then."""
    nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
    k = rng.randint(0, min(nrows, ncols))

    def entry():
        return Scalar(rng.randint(-3, 3), rng.randint(-3, 3) if complex_entries else 0)

    left = [[entry() for _ in range(k)] for _ in range(nrows)]
    right = [[entry() for _ in range(ncols)] for _ in range(k)]
    rows = [[sum((left[r][t] * right[t][c] for t in range(k)), Scalar.zero())
             for c in range(ncols)] for r in range(nrows)]
    if rng.random() < 0.3:
        rows[rng.randrange(nrows)] = [Scalar.zero()] * ncols
    if rng.random() < 0.3:
        c = rng.randrange(ncols)
        for row in rows:
            row[c] = Scalar.zero()
    return rows, ncols


def pivot_columns(rows, ncols):
    return row_reduce(working_copy(rows)[0], ncols)


def check_kernel(rows, ncols):
    basis = nullspace(rows, ncols)
    assert len(basis) == ncols - rank(rows, ncols)
    for vec in basis:
        assert len(vec) == ncols and all(isinstance(v, Scalar) for v in vec)
        for row in rows:
            assert sum((a * v for a, v in zip(row, vec)), Scalar.zero()).is_zero()
    assert rank(basis, ncols) == len(basis)
    return basis


def test_nullspace_and_rank_on_both_entry_paths():
    rng = random.Random(20260418)
    shapes = set()
    for case in range(40):
        rows, ncols = random_matrix(rng, complex_entries=case % 2 == 1)
        shapes.add((len(rows) > ncols, len(rows) < ncols))
        basis = check_kernel(rows, ncols)
        if case % 2:
            continue
        # scaling rows by powers of a unit keeps the row space, so the reduced
        # echelon form, but runs the Scalar path
        scales = [UNIT ** rng.randint(1, 3) for _ in rows]
        scaled = [[s * v for v in row] for s, row in zip(scales, rows)]
        assert check_kernel(scaled, ncols) == basis
        assert rank(scaled, ncols) == rank(rows, ncols)
        assert pivot_columns(scaled, ncols) == pivot_columns(rows, ncols)
        if any(any(row) for row in rows):
            assert isinstance(working_copy(scaled)[0][0][0], Scalar)
            assert not isinstance(working_copy(rows)[0][0][0], Scalar)
    assert {(True, False), (False, True)} <= shapes
