import random
from fractions import Fraction
from math import gcd

import pytest

from gapvir.errors import NotRealError, ScalarParseError
from gapvir.scalars import ONE, Scalar, named_scalar, scalar, sign_of_real


def rand_scalar(rng, nonzero=False):
    while True:
        s = Scalar(Fraction(rng.randint(-20, 20), rng.randint(1, 12)),
                   Fraction(rng.randint(-20, 20), rng.randint(1, 12)))
        if not nonzero or s:
            return s


def test_multiplication_by_i():
    assert scalar("1/2") * Scalar(0, 1) == Scalar(0, Fraction(1, 2))


def test_unit_modulus_pythagorean_point():
    z = scalar("3/5+4/5*i")
    assert z.conj() * z == Scalar.one()


def test_inverse_of_zero_errors():
    with pytest.raises(ZeroDivisionError):
        Scalar.zero().inv()
    with pytest.raises(ZeroDivisionError):
        Scalar.one() / Scalar.zero()


def test_powers_match_repeated_products():
    rng = random.Random(17)
    for case in range(40):
        base = rand_scalar(rng, nonzero=True)
        if case % 2 and base.re:
            base = Scalar(base.re)  # real bases take the one-Fraction-power route
        for n in range(-4, 5):
            expected = Scalar.one()
            for _ in range(abs(n)):
                expected = expected * (base if n > 0 else base.inv())
            result = base ** n
            assert type(result) is Scalar and result == expected, (base, n)
    assert Scalar.zero() ** 0 == ONE and Scalar.zero() ** 3 == Scalar.zero()
    for zero in (Scalar.zero(), Scalar(0, 0)):
        with pytest.raises(ZeroDivisionError):
            zero ** -2


def test_sign_of_real():
    assert sign_of_real(scalar("-7/3")) == -1
    assert sign_of_real(Scalar.zero()) == 0
    assert sign_of_real(scalar("5")) == 1
    with pytest.raises(NotRealError):
        sign_of_real(scalar("1+1*i"))


def test_field_axioms_on_random_triples():
    rng = random.Random(20240)
    for _ in range(200):
        x, y, z = (rand_scalar(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x * y == y * x
    for _ in range(100):
        x = rand_scalar(rng, nonzero=True)
        assert x * x.inv() == Scalar.one()
        assert x + (-x) == Scalar.zero()


def test_conj_is_involutive_field_automorphism():
    rng = random.Random(20241)
    for _ in range(150):
        x, y = rand_scalar(rng), rand_scalar(rng)
        assert x.conj().conj() == x
        assert (x * y).conj() == x.conj() * y.conj()
        assert (x + y).conj() == x.conj() + y.conj()
        n = x * x.conj()
        assert n.is_real() and n.re >= 0


def test_components_stay_reduced():
    rng = random.Random(20242)
    for _ in range(100):
        x = rand_scalar(rng, nonzero=True) * rand_scalar(rng) + rand_scalar(rng)
        for part in (x.re, x.im):
            assert part.denominator > 0
            assert gcd(abs(part.numerator), part.denominator) == 1


def test_powers():
    a = scalar("2/3")
    assert a ** 3 == scalar("8/27")
    assert a ** -2 == scalar("9/4")
    assert a ** 0 == Scalar.one()


@pytest.mark.parametrize("text", [
    "1/2", "-7/3", "0", "3/5+4/5*i", "-1/2-3/4*i", "2*i", "-i", "i",
    "1+1*i", "5", "-4*i",
])
def test_parse_round_trip(text):
    s = Scalar.parse(text)
    assert Scalar.parse(str(s)) == s


def test_parse_omitted_parts():
    assert Scalar.parse("3/5") == Scalar(Fraction(3, 5))
    assert Scalar.parse("4/5*i") == Scalar(0, Fraction(4, 5))
    assert Scalar.parse("3/5+4/5*i") == Scalar(Fraction(3, 5), Fraction(4, 5))


def test_canonical_rendering():
    assert str(scalar("3/5+4/5*i")) == "3/5+4/5*i"
    assert str(Scalar(Fraction(1, 2), Fraction(-1, 3))) == "1/2-1/3*i"
    assert str(Scalar.zero()) == "0"
    assert str(Scalar(0, 1)) == "1*i"
    assert str(Scalar(0, -1)) == "-1*i"


@pytest.mark.parametrize("bad", ["", "1/2+", "x", "1//2", "1/2*j", "2+3+4", "i+i"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ScalarParseError):
        Scalar.parse(bad)


def test_random_format_round_trip():
    rng = random.Random(20243)
    for _ in range(200):
        s = rand_scalar(rng)
        assert Scalar.parse(str(s)) == s


# Reference arithmetic on (re, im) pairs of Fractions, independent of Scalar.

def _ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _ref_inv(x):
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)


REF_BINARY = {
    "+": (lambda a, b: a + b, lambda x, y: (x[0] + y[0], x[1] + y[1])),
    "-": (lambda a, b: a - b, lambda x, y: (x[0] - y[0], x[1] - y[1])),
    "*": (lambda a, b: a * b, _ref_mul),
    "/": (lambda a, b: a / b, lambda x, y: _ref_mul(x, _ref_inv(y))),
}
REF_UNARY = {
    "neg": (lambda a: -a, lambda x: (-x[0], -x[1])),
    "conj": (lambda a: a.conj(), lambda x: (x[0], -x[1])),
    "inv": (lambda a: a.inv(), _ref_inv),
}


def _exact_parts(z):
    assert type(z) is Scalar
    assert type(z.re) is Fraction and type(z.im) is Fraction
    return (z.re, z.im)


def _kernel_operands(rng):
    """Seeded (re, im) pairs: real, complex and purely imaginary, zero included."""
    def q():
        return Fraction(rng.randint(-20, 20), rng.randint(1, 12))
    pairs = [(q(), Fraction(0)) for _ in range(12)] + [(q(), q()) for _ in range(12)]
    pairs += [(Fraction(0), q()), (Fraction(0), Fraction(0)), (Fraction(3), Fraction(0))]
    return pairs


def test_kernel_matches_pair_reference():
    rng = random.Random(20244)
    pairs = _kernel_operands(rng)
    for x in pairs:
        a = Scalar(*x)
        assert _exact_parts(a) == x
        for name, (op, ref) in REF_UNARY.items():
            if name == "inv" and x == (0, 0):
                continue
            assert _exact_parts(op(a)) == ref(x), (name, x)
        for y in pairs:
            b = Scalar(*y)
            for name, (op, ref) in REF_BINARY.items():
                if name == "/" and y == (0, 0):
                    continue
                want = ref(x, y)
                assert _exact_parts(op(a, b)) == want, (name, x, y)
                if not y[1]:
                    # a real right operand given as a Fraction, and as an int
                    assert _exact_parts(op(a, y[0])) == want, (name, x, y)
                    if y[0].denominator == 1:
                        assert _exact_parts(op(a, int(y[0]))) == want, (name, x, y)
                if not x[1]:
                    assert _exact_parts(op(x[0], b)) == want, (name, x, y)


def test_constructors_store_fractions():
    for z in (Scalar(3), Scalar(-2, 5), Scalar(Fraction(1, 2)), Scalar(Fraction(1, 2), 7),
              Scalar(), Scalar.parse("3/5+4/5*i"), Scalar.parse("-i"), Scalar.parse("7"),
              scalar(4), scalar("1/3-2*i"), Scalar.zero(), Scalar.one(), Scalar(0, 1)):
        _exact_parts(z)
    assert _exact_parts(Scalar(Fraction(6, 4), Fraction(-2, 8))) == (Fraction(3, 2),
                                                                      Fraction(-1, 4))


def test_equal_values_hash_equal():
    for group in ((Scalar(1), Scalar(Fraction(1), 0), ONE, Scalar.parse("1"), Scalar(2) / 2),
                  (Scalar(0, 1), Scalar.parse("i"), Scalar(0, 1), -Scalar(0, -1)),
                  (Scalar(Fraction(1, 2)), Scalar.parse("1/2"), Scalar(1, 1) * Scalar(1, -1) / 4)):
        assert len({hash(z) for z in group}) == 1
        assert all(z == group[0] for z in group)


def test_real_scalars_hash_as_the_equal_number():
    half = Fraction(1, 2)
    assert Scalar(3) == 3 and Scalar(half) == half
    assert len({Scalar(3), 3}) == 1 and len({Scalar(half), half}) == 1
    assert 3 in {Scalar(3): 1} and half in {Scalar(half): 1}
    assert Scalar(3) in {3: 1} and Scalar(half) in {half: 1}
    for value in (0, -7, 2 ** 80, Fraction(-5, 12), Fraction(1, 2 ** 80)):
        assert hash(Scalar(value)) == hash(value) == hash(Scalar(value) + 0)


def test_scalar_is_immutable():
    z = Scalar(1, 2)
    for name, value in (("re", Fraction(5)), ("im", Fraction(0)), ("other", 1)):
        with pytest.raises(AttributeError):
            setattr(z, name, value)
    assert (z.re, z.im) == (1, 2)
    assert ONE.conj() is ONE


@pytest.mark.parametrize("value", [True, False])
def test_json_booleans_are_not_scalars(value):
    # bool is an int subclass, so True would otherwise read as 1
    with pytest.raises(ScalarParseError, match="^cannot coerce %s to a scalar$" % value):
        scalar(value)
    with pytest.raises(ScalarParseError, match="^beta_2: cannot coerce %s to a scalar$" % value):
        named_scalar(value, "beta_%d", 2)
    assert named_scalar(1, "beta_%d", 2) == scalar("1") and named_scalar("1/2", "x") == scalar("1/2")
