"""Exact Gaussian-rational arithmetic.

Every coefficient in this package is a Scalar: a complex number (a + b*i)/d
with a, b, d Python ints, d > 0 and gcd(a, b, d) = 1, so each value has one
representation.  All verdicts downstream (Gram definiteness, unitarity,
reducibility) reduce to exact sign checks on these, so there is no floating
point anywhere.  Arithmetic runs on the ints with one gcd per result, and
int_parts() is how other modules read them.

The text form is "p/q+r/s*i" with both components reduced; zero parts may be
omitted ("3/5", "-2*i", "0").  Unit-modulus values are represented at
Pythagorean points such as 3/5+4/5*i, which keeps modulus checks exact.
"""

import re
from fractions import Fraction
from math import gcd, lcm

from .errors import NotRealError, ScalarParseError

_RAT = r"\d+(?:/\d+)?"
_TERM_RE = re.compile(
    r"^(?P<sign>[+-]?)(?:(?P<coef>%s)(?P<star>\*?)(?P<imag>i?)|(?P<lone_i>i))$" % _RAT
)


def _fmt(x, d):
    """x/d in lowest terms, without a denominator of 1."""
    g = gcd(x, d)
    return "%d" % (x // g) if g == d else "%d/%d" % (x // g, d // g)


class Scalar:
    """Immutable element of the Gaussian rationals Q(i), stored as (a + b*i)/d.

    ``__init__`` is the only constructor.  Scalar(re, im) takes ints or
    Fractions; Scalar(a, b, den) takes ints and reduces (a + b*i)/den, and a
    den that is not positive raises.  ``re`` and ``im`` are the parts as
    Fractions.  Nothing writes the slots after ``__init__``.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0, den=1):
        if den != 1:
            if den <= 0:
                raise ValueError("Scalar denominator %d is not positive" % den)
            g = gcd(re, im, den)
            if g != 1:
                re, im, den = re // g, im // g, den // g
        elif type(re) is not int or type(im) is not int:  # Fractions: this den leaves gcd 1
            den = lcm(re.denominator, im.denominator)
            re, im = re.numerator * (den // re.denominator), im.numerator * (den // im.denominator)
        self._a, self._b, self._d = re, im, den

    re = property(lambda self: Fraction(self._a, self._d), doc="The real part, a Fraction.")
    im = property(lambda self: Fraction(self._b, self._d), doc="The imaginary part, a Fraction.")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls):
        return cls(0, 0)

    @classmethod
    def one(cls):
        return cls(1, 0)

    @classmethod
    def parse(cls, text):
        """Parse the canonical "p/q+r/s*i" form; zero parts may be omitted."""
        num, slash, den = text[text[:1] in ("+", "-"):].partition("/")  # [+-]n, [+-]n/d first
        if num.isdecimal() and (den.isdecimal() or not slash):  # isdecimal: the regex's \d
            n, d = int(num), int(den) if slash else 1
            if d:
                return cls(-n if text[0] == "-" else n, 0, d)
        s = text.replace(" ", "")
        if not s:
            raise ScalarParseError("empty scalar string")
        # split into signed terms; fractions never contain interior +/-
        terms = re.findall(r"[+-]?[^+-]+", s)
        if not terms or "".join(terms) != s:
            raise ScalarParseError("cannot parse scalar %r" % text)
        re_part = None
        im_part = None
        for term in terms:
            m = _TERM_RE.match(term)
            if not m:
                raise ScalarParseError("bad term %r in scalar %r" % (term, text))
            sign = -1 if m.group("sign") == "-" else 1
            if m.group("lone_i"):
                value = Fraction(sign)
                is_imag = True
            else:
                if m.group("imag") and not m.group("star"):
                    raise ScalarParseError("bad term %r in scalar %r" % (term, text))
                try:
                    value = sign * Fraction(m.group("coef"))
                except ZeroDivisionError:
                    raise ScalarParseError("zero denominator in scalar %r" % text) from None
                is_imag = bool(m.group("imag"))
            if is_imag:
                if im_part is not None:
                    raise ScalarParseError("duplicate imaginary part in %r" % text)
                im_part = value
            else:
                if re_part is not None:
                    raise ScalarParseError("duplicate real part in %r" % text)
                re_part = value
        return cls(re_part or 0, im_part or 0)

    # -- coercion ------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, Scalar):
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar(other)
        return None

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other, sign=1):
        o = other if type(other) is Scalar else self._coerce(other)
        if o is None:
            return NotImplemented
        d, e = self._d, o._d
        if d == e:  # one denominator: no products
            return Scalar(self._a + sign * o._a, self._b + sign * o._b, d)
        return Scalar(self._a * e + sign * o._a * d, self._b * e + sign * o._b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o - self

    def __mul__(self, other):
        o = other if type(other) is Scalar else self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, e = self._a, self._b, o._a, o._b
        if not b and not e:
            return Scalar(a * c, 0, self._d * o._d)
        return Scalar(a * c - b * e, a * e + b * c, self._d * o._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o * self.inv()

    def __neg__(self):
        return Scalar(-self._a, -self._b, self._d)

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        a, d = self._a, self._d
        if not self._b and (n >= 0 or a):  # a real base: one power of each part; 0^-n: inv()
            a, d = (a, d) if n >= 0 else (d, a) if a > 0 else (-d, -a)
            return Scalar(a ** abs(n), 0, d ** abs(n))
        base, out = self if n >= 0 else self.inv(), ONE
        for _ in range(abs(n)):
            out = out * base
        return out

    def conj(self):
        if not self._b:
            return self
        return Scalar(self._a, -self._b, self._d)

    def inv(self):
        a, b, d = self._a, self._b, self._d
        n = a * a + b * b
        if not n:
            raise ZeroDivisionError("scalar division by zero")
        return Scalar(d * a, -d * b, n)

    def norm2(self):
        """|z|^2 as an exact Fraction."""
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    # -- predicates ------------------------------------------------------

    def is_zero(self):
        return not self._a and not self._b

    def is_real(self):
        return not self._b

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __eq__(self, other):
        o = other if type(other) is Scalar else self._coerce(other)
        if o is None:
            return NotImplemented
        return self._a == o._a and self._b == o._b and self._d == o._d

    def __hash__(self):
        """A real value hashes as the equal int or Fraction does."""
        return hash((self._a, self._b, self._d)) if self._b else hash(Fraction(self._a, self._d))

    # -- rendering -------------------------------------------------------

    def __str__(self):
        a, b, d = self._a, self._b, self._d
        if not b:
            return _fmt(a, d)
        imag = _fmt(abs(b), d) + "*i"
        if not a:
            return imag if b > 0 else "-" + imag
        return _fmt(a, d) + ("+" if b > 0 else "-") + imag

    def __repr__(self):
        return "Scalar(%r)" % str(self)


ZERO = Scalar.zero()
ONE = Scalar.one()


def scalar(value):
    """Coerce an int, Fraction, Scalar, or text form to a Scalar."""
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar(value)
    if isinstance(value, str):
        return Scalar.parse(value)
    raise ScalarParseError("cannot coerce %r to a scalar" % (value,))


def int_parts(v):
    """(a, b, d) with v = (a + b*i)/d and d > 0, for a Scalar (then gcd(a, b, d) = 1), an int
    or a Fraction: the one reader of a Scalar's ints outside this module."""
    if type(v) is Scalar:
        return v._a, v._b, v._d
    return v.numerator, 0, v.denominator


def cancels(terms):
    """Whether the terms (a, b, d, key), each (a + b*i)/d at its key, sum to 0 at every key:
    one running sum while they share a key, else one sum per key."""
    a, b, den, key = 0, 0, 1, terms[0][3]
    for ta, tb, td, t in terms:
        if t != key:
            return all(cancels([u for u in terms if u[3] == k]) for k in {u[3] for u in terms})
        a, b, den = a * td + ta * den, b * td + tb * den, den * td
    return not a and not b


def sign_of_real(x):
    """Sign (-1, 0, +1) of a real scalar; raises NotRealError otherwise."""
    a, b, _ = int_parts(x)
    if b:
        raise NotRealError("scalar %s is not real" % x)
    return (a > 0) - (a < 0)
