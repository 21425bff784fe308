"""linalg.nullspace and linalg.rank on real and Gaussian rectangular matrices,
against the kernel and rank of the first-nonzero Fraction reduced row echelon
form, and the growth of their fraction-free rows."""

import math
import random
from fractions import Fraction

from gapvir import linalg
from gapvir.linalg import entry_size, nullspace, rank
from gapvir.scalars import Scalar, scalar
from reference import row_reduce, working_copy

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
        # echelon form, but runs the Gaussian path
        scales = [UNIT ** rng.randint(1, 3) for _ in rows]
        scaled = [[s * v for v in row] for s, row in zip(scales, rows)]
        assert check_kernel(scaled, ncols) == basis
        assert rank(scaled, ncols) == rank(rows, ncols)
        assert pivot_columns(scaled, ncols) == pivot_columns(rows, ncols)
        if any(any(row) for row in rows):
            assert linalg._echelon(scaled, ncols)[1] and not linalg._echelon(rows, ncols)[1]
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


def rref_kernel(work, pivots, ncols):
    """The kernel basis read off a reduced row echelon form with the given pivot columns."""
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Scalar.zero()] * ncols
        vec[fc] = Scalar.one()
        for r, pc in enumerate(pivots):
            vec[pc] = -scalar(work[r][fc])
        basis.append(vec)
    return basis


def test_size_pivot_gives_the_first_nonzero_echelon_form():
    # the reduced row echelon form is unique, whichever entry pivots, and so
    # is the kernel basis read off it
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
        pivots = first_nonzero_row_reduce(reference, ncols)
        assert row_reduce(work, ncols) == pivots and work == reference
        assert nullspace(rows, ncols) == rref_kernel(reference, pivots, ncols)
    assert moved >= 10
    assert {(True, False, True), (False, True, True), (False, False, False)} <= shapes


def test_entry_size_counts_numerator_and_denominator_bits():
    assert entry_size(Fraction(-5, 8)) == 3 + 4
    assert entry_size(Scalar(Fraction(-5, 8))) == entry_size(Fraction(-5, 8))
    assert entry_size(Scalar(Fraction(3, 5), Fraction(-4, 5))) == (2 + 3) + (3 + 3)
    assert entry_size(Scalar(0, Fraction(1, 2))) == (0 + 1) + (1 + 2)


def reference_rank(rows, ncols):
    """Rank by the Fraction (or Scalar) reduced row echelon form."""
    return len(first_nonzero_row_reduce(working_copy(rows), ncols))


def typed_matrix(rng, kind):
    """Tall, wide or square, rank <= k, zero rows now and then: ints, Fractions or Gaussians."""
    nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
    k = rng.randint(0, min(nrows, ncols))

    def entry():
        if kind == "int":
            return rng.randint(-9, 9)
        part = Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3, 8, 25)))
        if kind == "fraction":
            return part
        return Scalar(part, Fraction(rng.randint(-30, 30), rng.choice((1, 4, 7))))

    left = [[entry() for _ in range(k)] for _ in range(nrows)]
    right = [[entry() for _ in range(ncols)] for _ in range(k)]
    rows = [[sum((left[r][t] * right[t][c] for t in range(k)), 0) for c in range(ncols)]
            for r in range(nrows)]
    for r in range(nrows):
        if rng.random() < 0.2:
            rows[r] = [0] * ncols
    return rows, ncols


def test_fraction_free_rank_matches_the_fraction_rref():
    rng = random.Random("int-rank")
    shapes, zero_rows = set(), set()
    for case in range(240):
        kind = ("int", "fraction", "gaussian")[case % 3]
        rows, ncols = typed_matrix(rng, kind)
        before = [list(row) for row in rows]
        r = rank(rows, ncols)
        assert r == reference_rank(rows, ncols), (kind, rows)
        assert rows == before  # the input is not modified
        if kind != "int":  # the same matrix with real or Gaussian Scalars, and with mixed rows
            scalars = [[Scalar(v) if type(v) is not Scalar else v for v in row] for row in rows]
            assert rank(scalars, ncols) == r
            assert rank([row if k % 2 else scalars[k] for k, row in enumerate(rows)], ncols) == r
        shapes.add((kind, len(rows) > ncols, len(rows) < ncols, r < min(len(rows), ncols)))
        if not all(any(row) for row in rows):
            zero_rows.add(kind)
    assert zero_rows == {"int", "fraction", "gaussian"}
    for kind in zero_rows:
        assert {(kind, True, False, True), (kind, False, True, True)} <= shapes, kind
        assert any(shape[0] == kind and not shape[3] for shape in shapes), kind
    assert rank([], 3) == 0 and rank([[0, 0]], 2) == 0 and rank([[0, 5]], 2) == 1


def test_rank_rows_stay_primitive(monkeypatch):
    # without the gcd a row would grow by its pivot's size at every step, to
    # thousands of bits here; a primitive row divides a vector of minors
    rng = random.Random("primitive-rank")
    rows = [[rng.randint(-9, 9) for _ in range(10)] for _ in range(10)]
    hadamard = 1
    for row in rows:
        hadamard *= math.isqrt(sum(v * v for v in row)) + 1
    sizes = []
    primitive = linalg.primitive

    def recorded(row, gaussian):
        out = primitive(row, gaussian)
        sizes.append(max(abs(v).bit_length() for v in out[0]))
        return out

    monkeypatch.setattr(linalg, "primitive", recorded)
    assert rank(rows, 10) == reference_rank(rows, 10) == 10
    assert len(sizes) >= 10 and max(sizes) <= hadamard.bit_length()
