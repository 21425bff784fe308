"""Scalar, stored as (a + b*i)/d on ints, against reference.FractionScalar, the same
arithmetic on pairs of Fractions.

Seeded operand pairs cover zero, negative, large (2^80) and real or complex
values, each given as ints or Fractions, and every real operand also enters
as a bare int or Fraction on either side of a binary operation.  Each result
must equal the reference's part for part and in text, keep the representation
invariant (d > 0, gcd(a, b, d) = 1), read back through Scalar.parse and, when
real, hash as the equal Fraction.
"""

import operator
import random
from fractions import Fraction
from math import gcd

import pytest

from gapvir.scalars import Scalar, int_parts
from reference import FractionScalar

BIG = 2 ** 80
BINARY = (operator.add, operator.sub, operator.mul, operator.truediv)


def _part(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randint(-9, 9)
    if kind == 2:
        return Fraction(rng.randint(-40, 40), rng.randint(1, 36))
    if kind == 3:
        return rng.choice((-1, 1)) * BIG + rng.randint(-3, 3)
    if kind == 4:
        return Fraction(rng.randint(-BIG, BIG), rng.randint(1, BIG))
    return Fraction(rng.randint(-5, 5), BIG + rng.randint(0, 3))


def _operand(rng):
    """(re, im) with im = 0 for about a third of the operands."""
    return _part(rng), (0 if rng.random() < 0.35 else _part(rng))


EDGES = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (BIG, 0), (0, -BIG),
         (Fraction(1, BIG), Fraction(-1, 3)), (Fraction(-7, 2), 0), (3, 4)]


def _pairs():
    rng = random.Random("scalar-differential")
    pairs = [(x, y) for x in EDGES for y in EDGES]
    pairs += [(_operand(rng), _operand(rng)) for _ in range(2000 - len(pairs))]
    return pairs


def assert_same(z, ref):
    """z is ref: the parts, the text, truth and the representation invariant."""
    assert type(z) is Scalar, z
    a, b, d = int_parts(z)
    assert type(a) is int and type(b) is int and type(d) is int
    assert d > 0 and gcd(a, b, d) == 1, (a, b, d)
    assert (z.re, z.im) == (ref.re, ref.im), (z, ref)
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert str(z) == str(ref)
    assert bool(z) is bool(ref) and z.is_real() is ref.is_real()
    assert Scalar.parse(str(z)) == z
    if z.is_real():
        assert hash(z) == hash(ref.re)


def _outcome(op, *args):
    """op(*args), or the exception class it raised."""
    try:
        return op(*args)
    except ZeroDivisionError as exc:
        return type(exc)


def _check(op, args, ref_args):
    got, want = _outcome(op, *args), _outcome(op, *ref_args)
    if isinstance(want, type):
        assert got is want, (op, args)
    else:
        assert_same(got, want)


def _real_forms(value):
    """A real operand as the bare numbers that equal it: a Fraction, and an int if integral."""
    q = Fraction(value)
    return [q, int(q)] if q.denominator == 1 else [q]


def test_binary_operations_match_the_fraction_reference():
    for x, y in _pairs():
        sx, sy = Scalar(*x), Scalar(*y)
        rx, ry = FractionScalar(*x), FractionScalar(*y)
        assert_same(sx, rx)
        for op in BINARY:
            _check(op, (sx, sy), (rx, ry))
            if not y[1]:
                for bare in _real_forms(y[0]):
                    _check(op, (sx, bare), (rx, bare))
            if not x[1]:
                for bare in _real_forms(x[0]):
                    _check(op, (bare, sy), (bare, ry))
        assert (sx == sy) is (rx == ry)
        assert (sx != sy) is (rx != ry)
        if not y[1]:
            for bare in _real_forms(y[0]):
                assert (sx == bare) is (rx == bare) and (bare == sx) is (bare == rx)


def test_unary_operations_and_powers_match_the_fraction_reference():
    operands = {x for pair in _pairs()[:800] for x in pair}
    for x in sorted(operands, key=str):
        sx, rx = Scalar(*x), FractionScalar(*x)
        for op in (operator.neg, lambda v: v.conj(), lambda v: v.inv()):
            _check(op, (sx,), (rx,))
        assert sx.norm2() == rx.norm2() and type(sx.norm2()) is Fraction
        for n in range(-4, 5):
            _check(operator.pow, (sx, n), (rx, n))


def test_three_part_constructor_reduces_and_rejects_a_nonpositive_denominator():
    rng = random.Random("scalar-three-parts")
    for _ in range(500):
        a, b = rng.choice((0, 1, -1, BIG)) * rng.randint(-50, 50), rng.randint(-50, 50)
        d = rng.choice((1, 2, 6, 12, 360, BIG))
        assert_same(Scalar(a, b, d), FractionScalar(Fraction(a, d), Fraction(b, d)))
    for den in (0, -1, -12):
        with pytest.raises(ValueError):
            Scalar(1, 2, den)
