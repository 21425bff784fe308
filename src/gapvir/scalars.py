"""Exact Gaussian-rational arithmetic.

Every coefficient in this package is a Scalar: a complex number a + b*i with
a, b arbitrary-precision rationals.  All verdicts downstream (Gram
definiteness, unitarity, reducibility) reduce to exact sign checks on these,
so there is no floating point anywhere.

The text form is "p/q+r/s*i" with both components reduced; zero parts may be
omitted ("3/5", "-2*i", "0").  Unit-modulus values are represented at
Pythagorean points such as 3/5+4/5*i, which keeps modulus checks exact.
"""

import re
from fractions import Fraction

from .errors import NotRealError, ScalarParseError

_RAT = r"\d+(?:/\d+)?"
_TERM_RE = re.compile(
    r"^(?P<sign>[+-]?)(?:(?P<coef>%s)(?P<star>\*?)(?P<imag>i?)|(?P<lone_i>i))$" % _RAT
)


def _fmt_rational(q):
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


_Q0 = Fraction(0)  # the one zero imaginary part shared by real results


class Scalar:
    """Immutable element of the Gaussian rationals Q(i).

    ``__init__`` is the only constructor.  It keeps a part that is already a
    Fraction as it is, and the arithmetic skips the imaginary parts when both
    operands are real.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=_Q0, im=_Q0):
        _set_re(self, re if type(re) is Fraction else Fraction(re))
        _set_im(self, im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

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

    def __add__(self, other):
        o = other if type(other) is Scalar else self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.im and not o.im:
            return Scalar(self.re + o.re)
        return Scalar(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if type(other) is Scalar else self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.im and not o.im:
            return Scalar(self.re - o.re)
        return Scalar(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = other if type(other) is Scalar else self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.im and not o.im:
            return Scalar(self.re * o.re)
        return Scalar(self.re * o.re - self.im * o.im,
                      self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __neg__(self):
        if not self.im:
            return Scalar(-self.re)
        return Scalar(-self.re, -self.im)

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if not self.im and (n >= 0 or self.re):  # one Fraction power; 0^-n goes to inv()
            return Scalar(self.re ** n)
        base = self if n >= 0 else self.inv()
        out = Scalar.one()
        for _ in range(abs(n)):
            out = out * base
        return out

    def conj(self):
        if not self.im:
            return self
        return Scalar(self.re, -self.im)

    def inv(self):
        n = self.norm2()
        if not n:
            raise ZeroDivisionError("scalar division by zero")
        return Scalar(self.re / n, -self.im / n)

    def norm2(self):
        """|z|^2 as an exact Fraction."""
        return self.re * self.re + self.im * self.im

    # -- predicates ------------------------------------------------------

    def is_zero(self):
        return not self.re and not self.im

    def is_real(self):
        return not self.im

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    # -- rendering -------------------------------------------------------

    def __str__(self):
        if not self.im:
            return _fmt_rational(self.re)
        imag = _fmt_rational(abs(self.im)) + "*i"
        if not self.re:
            return imag if self.im > 0 else "-" + imag
        sign = "+" if self.im > 0 else "-"
        return _fmt_rational(self.re) + sign + imag

    def __repr__(self):
        return "Scalar(%r)" % str(self)


_set_re = Scalar.re.__set__
_set_im = Scalar.im.__set__

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


def sign_of_real(x):
    """Sign (-1, 0, +1) of a real scalar; raises NotRealError otherwise."""
    if x.im:
        raise NotRealError("scalar %s is not real" % x)
    if x.re > 0:
        return 1
    if x.re < 0:
        return -1
    return 0
