"""Small exact linear-algebra routines over the Gaussian rationals.

Entry rule: a matrix whose entries are all real (ints, Fractions or real
Scalars) is eliminated on bare Fractions, any other matrix on Scalars.
working_copy() applies the rule for rank and nullspace;
forms.definiteness eliminates on integer rows of its own.
Meant for desk-scale matrices (dimensions in the tens to low hundreds).

Eliminations pivot by size: among the entries eligible as a pivot they take
the one of fewest bits (entry_size), which keeps the growth of exact
intermediate entries down.  The reduced row echelon form is unique, so the
choice changes neither rank nor nullspace.
"""

from fractions import Fraction

from .scalars import ONE, ZERO, Scalar, scalar


def _bits(q):
    return q.numerator.bit_length() + q.denominator.bit_length()


def entry_size(v):
    """Bits of a nonzero exact entry: numerator plus denominator bit lengths.

    A Scalar sums them over its nonzero parts, so a real Scalar has the size
    of its Fraction and both entry paths pick the same pivots.
    """
    if type(v) is Fraction:
        return _bits(v)
    return _bits(v.re) + _bits(v.im) if v.im else _bits(v.re)


def working_copy(rows):
    """Mutable copy of rows by the entry rule."""
    if all(type(v) is not Scalar or not v.im for row in rows for v in row):
        return [[v.re if type(v) is Scalar else Fraction(v) if type(v) is int else v
                 for v in row] for row in rows]
    return [[scalar(v) for v in row] for row in rows]


def row_reduce(rows, ncols):
    """In-place reduced row echelon form of Fraction or Scalar rows; returns the pivot columns.

    Column c's pivot is its smallest nonzero entry below the rows already
    reduced, the first such row on a tie.
    """
    pivots = []
    r = 0
    for c in range(ncols):
        candidates = [k for k in range(r, len(rows)) if rows[k][c]]
        if not candidates:
            continue
        pivot_row = min(candidates, key=lambda k: entry_size(rows[k][c]))
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        row = rows[r]
        inv = 1 / row[c]
        # entries left of c vanish, so an update touches the nonzero ones from c on
        support = [j for j in range(c, ncols) if row[j]]
        for j in support:
            row[j] = row[j] * inv
        for k, other in enumerate(rows):
            f = other[c]
            if k != r and f:
                for j in support:
                    other[j] = other[j] - f * row[j]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def rank(rows, ncols):
    return len(row_reduce(working_copy(rows), ncols))


def nullspace(rows, ncols):
    """Basis of the right kernel, one list of Scalar coordinates per basis vector."""
    work = working_copy(rows)
    pivots = row_reduce(work, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [ZERO] * ncols
        vec[fc] = ONE
        for r, pc in enumerate(pivots):
            v = work[r][fc]
            if v:
                vec[pc] = scalar(-v)
        basis.append(vec)
    return basis
