"""Small exact linear-algebra routines over the Gaussian rationals.

rank and nullspace eliminate fraction-free, like forms.definiteness, on rows
that cleared() multiplied by the lcm of their denominators: ints, or
Gaussian-integer Scalars when some entry of the matrix is complex.  Each row
is a dict of its nonzero entries, so zeros are never touched.  Column by
column, the entry of fewest bits (entry_size) among the live rows is the
pivot d; every other live row with entry f there becomes d row - f pivot
(both divided by gcd(d, f) for ints), divided by the positive gcd of its
integer parts (primitive); live rows wait in buckets by first column, oldest
first, and the first of fewest bits wins.  Each step keeps the row space, so
the pivot rows are a row echelon form: their number is the rank, and
nullspace reads the kernel off them by back substitution.  After k pivots a
live row lies in the span of k + 1 input rows and vanishes on the k pivot
columns, so it is a multiple of a vector of (k+1)-minors; for ints its
primitive form divides that vector, so entries stay within Hadamard's bound.
Any pivot order gives the same rank and kernel.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter

from .scalars import ONE, ZERO, Scalar, int_parts, scalar


def _bits(x, d):
    g = gcd(x, d)
    return (x // g).bit_length() + (d // g).bit_length()


def entry_size(v):
    """Bits of a nonzero exact entry: an int's own, numerator plus denominator bit lengths
    of a Fraction, their sum over the nonzero parts of a Scalar (a real one sizes as its
    Fraction)."""
    if type(v) is int:
        return v.bit_length()
    a, b, d = int_parts(v)
    return _bits(a, d) + _bits(b, d) if b else _bits(a, d)


def cleared(row, gaussian):
    """row times the lcm den of its denominators, and den: ints, or Scalars if gaussian."""
    if not gaussian and set(map(type, row)) <= {int}:
        return list(row), 1
    split = list(map(int_parts, row))
    den = lcm(*(d for _, _, d in split))
    if gaussian:
        return ([Scalar(a * (den // d), b * (den // d)) for a, b, d in split] if den > 1
                else list(map(scalar, row))), den
    return [a * (den // d) for a, _, d in split], den


def primitive(row, gaussian):
    """row divided by the positive gcd c of its integer parts, and c (0 for a zero row)."""
    if gaussian:
        split = list(map(int_parts, row))
        c = gcd(*(x for a, b, _ in split for x in (a, b)))
        return ([Scalar(a // c, b // c) for a, b, _ in split] if c > 1 else row), c
    c = gcd(*row)
    return ([v // c for v in row] if c > 1 else row), c


def _echelon(rows, ncols):
    """The pivot rows by column after elimination (module docstring), and whether the
    matrix is Gaussian."""
    rows = [dict(filter(itemgetter(1), row.items() if type(row) is dict else enumerate(row)))
            for row in rows]
    gaussian = any(type(v) is Scalar and int_parts(v)[1] for row in rows for v in row.values())
    live = {}  # first column -> the live rows that start there, oldest first
    for row in filter(None, rows):
        values = cleared(list(row.values()), gaussian)[0]
        live.setdefault(min(row), []).append(dict(zip(row, values)))
    pivots = {}  # column -> pivot row {column: nonzero entry}
    for c in range(ncols):
        hits = live.pop(c, None)
        if not hits:
            continue
        pivot = pivots[c] = min(hits, key=lambda row: entry_size(row[c]))
        for row in hits:
            if row is pivot:
                continue
            d, f = pivot[c], row[c]
            if not gaussian:
                g = gcd(d, f) if d > 0 else -gcd(d, f)
                d, f = d // g, f // g
            if gaussian or d != 1:
                row = {j: d * v for j, v in row.items()}
            for j, v in pivot.items():
                x = row.get(j, 0) - f * v
                if x:
                    row[j] = x
                else:
                    del row[j]
            if row:
                values, g = primitive(list(row.values()), gaussian)
                live.setdefault(min(row), []).append(dict(zip(row, values)) if g > 1 else row)
    return pivots, gaussian


def rank(rows, ncols):
    """Rank of rows, lists of ncols entries or dicts {column: entry}."""
    return len(_echelon(rows, ncols)[0])


def nullspace(rows, ncols):
    """Basis of the right kernel of rows as in rank, one list of Scalars per vector.

    A free column f gives the vector with 1 at f, 0 at the other free columns
    and its pivot coordinates by back substitution: the basis that the
    reduced row echelon form gives.
    """
    pivots, gaussian = _echelon(rows, ncols)
    order = sorted(pivots, reverse=True)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = {f: ONE if gaussian else Fraction(1)}
        for c in order:
            row = pivots[c]
            s = sum(v * vec[j] for j, v in row.items() if j in vec)
            if s:
                vec[c] = -s / row[c]
        basis.append([scalar(vec[c]) if c in vec else ZERO for c in range(ncols)])
    return basis
