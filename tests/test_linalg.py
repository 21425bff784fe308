"""Both entry paths of linalg.nullspace and linalg.rank on rectangular matrices, and
size-pivoted row reduction against the first-nonzero elimination."""

import random
from fractions import Fraction

from gapvir.linalg import entry_size, nullspace, rank, row_reduce, working_copy
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
    return row_reduce(working_copy(rows), ncols)


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
            assert isinstance(working_copy(scaled)[0][0], Scalar)
            assert not isinstance(working_copy(rows)[0][0], Scalar)
    assert {(True, False), (False, True)} <= shapes


def first_nonzero_row_reduce(rows, ncols):
    """Reference elimination: the first nonzero entry of a column is its pivot."""
    pivots = []
    r = 0
    for c in range(ncols):
        k = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for j, other in enumerate(rows):
            f = other[c]
            if j != r and f:
                rows[j] = [a - f * b for a, b in zip(other, rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def sized_matrix(rng, complex_entries):
    """Tall, wide or square, rank <= k, with entries of widely spread bit sizes."""
    nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
    k = rng.randint(0, min(nrows, ncols))

    def part():
        return Fraction(rng.randint(-60, 60), rng.choice((1, 2, 7, 64, 999)))

    def entry():
        return Scalar(part(), part() if complex_entries and rng.random() < 0.7 else 0)

    left = [[entry() for _ in range(k)] for _ in range(nrows)]
    right = [[entry() for _ in range(ncols)] for _ in range(k)]
    return [[sum((left[r][t] * right[t][c] for t in range(k)), Scalar.zero())
             for c in range(ncols)] for r in range(nrows)], ncols


def test_size_pivot_gives_the_first_nonzero_echelon_form():
    # the reduced row echelon form is unique, whichever entry pivots
    rng = random.Random(6151)
    shapes = set()
    moved = 0
    for case in range(80):
        rows, ncols = sized_matrix(rng, complex_entries=case % 2 == 1)
        shapes.add((len(rows) > ncols, len(rows) < ncols, rank(rows, ncols) < min(len(rows), ncols)))
        work = working_copy(rows)
        column = [row[0] for row in work if row[0]]
        moved += bool(column) and entry_size(column[0]) > min(map(entry_size, column))
        reference = [list(row) for row in work]
        assert row_reduce(work, ncols) == first_nonzero_row_reduce(reference, ncols)
        assert work == reference
    assert moved >= 10
    assert {(True, False, True), (False, True, True), (False, False, False)} <= shapes


def test_entry_size_counts_numerator_and_denominator_bits():
    assert entry_size(Fraction(-5, 8)) == 3 + 4
    assert entry_size(Scalar(Fraction(-5, 8))) == entry_size(Fraction(-5, 8))
    assert entry_size(Scalar(Fraction(3, 5), Fraction(-4, 5))) == (2 + 3) + (3 + 3)
    assert entry_size(Scalar(0, Fraction(1, 2))) == (0 + 1) + (1 + 2)
