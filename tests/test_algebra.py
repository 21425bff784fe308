import random
from fractions import Fraction

import pytest

from gapvir.algebra import (AntiInvolution, Element, GapVirasoro,
                            involution_axiom_report, sample_involution)
from gapvir.errors import ConfigError
from gapvir.scalars import Scalar, scalar
from reference import apply_involution, chevalley, gen_element, weight_of


def bracket_gen(alg, a, b):
    return alg.bracket(gen_element(alg, a), gen_element(alg, b))


def test_bracket_virasoro_pair():
    alg = GapVirasoro(2)
    out = bracket_gen(alg, alg.L(2), alg.L(-2))
    assert str(out) == "4*L[0] + 1/2*C[0]"


def test_bracket_heisenberg_pair():
    alg = GapVirasoro(2)
    out = bracket_gen(alg, alg.I(0, 1), alg.I(-1, 1))
    assert out == gen_element(alg, alg.C(1), "1/2")


def test_center_brackets_to_zero():
    alg = GapVirasoro(2)
    assert bracket_gen(alg, alg.C(0), alg.L(5)).is_zero()


def test_bracket_mixed_pair():
    alg = GapVirasoro(2)
    out = bracket_gen(alg, alg.L(0), alg.I(3, 1))
    assert out == gen_element(alg, alg.I(3, 1), "-7/2")


def test_central_index_alias():
    alg = GapVirasoro(5)
    assert alg.C(4) == alg.C(1)
    assert alg.C(3) == alg.C(2)


def test_bracket_rejects_mismatched_p():
    alg2, alg3 = GapVirasoro(2), GapVirasoro(3)
    with pytest.raises(ConfigError):
        alg2.bracket(gen_element(alg2, alg2.L(1)), gen_element(alg3, alg3.L(1)))


def test_weight_of():
    alg = GapVirasoro(2)
    assert weight_of(alg, alg.L(-3)) == 3
    assert weight_of(alg, alg.I(-1, 1)) == Fraction(1, 2)
    assert weight_of(alg, alg.C(1)) == 0


@pytest.mark.parametrize("p", [2, 3, 5])
def test_jacobi_and_antisymmetry_small_window(p):
    alg = GapVirasoro(p)
    window = alg.basis_window(-2, 2)
    elts = {g: gen_element(alg, g) for g in window}
    for gx in window:
        for gy in window:
            assert alg.bracket(elts[gx], elts[gy]) == -alg.bracket(elts[gy], elts[gx])
    rng = random.Random(7)
    triples = [tuple(rng.choice(window) for _ in range(3)) for _ in range(400)]
    for gx, gy, gz in triples:
        x, y, z = elts[gx], elts[gy], elts[gz]
        total = (alg.bracket(x, alg.bracket(y, z))
                 + alg.bracket(y, alg.bracket(z, x))
                 + alg.bracket(z, alg.bracket(x, y)))
        assert total.is_zero()


def test_plus_involution_basis_images():
    alg = GapVirasoro(2)
    theta = AntiInvolution.plus(2)
    x = gen_element(alg, alg.L(3))
    assert apply_involution(alg, theta, x) == gen_element(alg, alg.L(-3))
    y = gen_element(alg, alg.I(3, 1))
    assert apply_involution(alg, theta, y) == gen_element(alg, alg.I(-4, 1))


def test_minus_involution_squares_to_identity():
    alg = GapVirasoro(2)
    theta = AntiInvolution.minus(2, 1, ["i"])
    x = gen_element(alg, alg.I(5, 1), "2/3")
    assert apply_involution(alg, theta, apply_involution(alg, theta, x)) == x


def test_involution_validation():
    with pytest.raises(ConfigError):
        AntiInvolution.plus(2, "i", ["1"])           # alpha not real
    with pytest.raises(ConfigError):
        AntiInvolution.plus(2, 2, ["1"])             # conj(b)b != alpha
    with pytest.raises(ConfigError):
        AntiInvolution.minus(2, 1, ["2"])            # |beta| != 1
    AntiInvolution.plus(2, 4, ["2"])                 # conj(2)*2 = 4
    AntiInvolution.minus(2, "i", ["3/5+4/5*i"])


def test_chevalley_images_and_involutivity():
    alg2 = GapVirasoro(2)
    assert chevalley(alg2, gen_element(alg2, alg2.L(2))) == gen_element(alg2, alg2.L(-2), -1)
    alg3 = GapVirasoro(3)
    assert (chevalley(alg3, gen_element(alg3, alg3.I(1, 2)))
            == gen_element(alg3, alg3.I(-2, 1), -1))
    x = gen_element(alg2, alg2.I(4, 1), "1/3")
    assert chevalley(alg2, chevalley(alg2, x)) == x


def test_chevalley_weight_reversal():
    # the image of a weight vector carries the opposite ad-L0 weight
    for p in (2, 3, 5):
        alg = GapVirasoro(p)
        for g in alg.basis_window(-3, 3):
            image = chevalley(alg, gen_element(alg, g))
            for h in image.terms:
                assert weight_of(alg, h) == -weight_of(alg, g)


def test_chevalley_is_order_two_automorphism():
    alg = GapVirasoro(3)
    window = alg.basis_window(-2, 2)
    a = scalar("1/2+1/3*i")
    for g in window:
        x = gen_element(alg, g)
        assert chevalley(alg, a * x) == a * chevalley(alg, x)
        assert chevalley(alg, chevalley(alg, x)) == x
    rng = random.Random(11)
    for _ in range(200):
        gx, gy = rng.choice(window), rng.choice(window)
        x, y = gen_element(alg, gx), gen_element(alg, gy)
        assert (chevalley(alg, alg.bracket(x, y))
                == alg.bracket(chevalley(alg, x), chevalley(alg, y)))


@pytest.mark.parametrize("p,kind", [(2, "plus"), (2, "minus"), (3, "plus"),
                                    (3, "minus"), (5, "plus"), (5, "minus")])
def test_sampled_involution_axioms(p, kind):
    alg = GapVirasoro(p)
    theta = sample_involution(alg, random.Random(90 + p), kind)
    checks = involution_axiom_report(alg, theta, -2, 2)
    assert all(checks.values()), checks


def test_element_text_round_trip():
    alg = GapVirasoro(3)
    x = (gen_element(alg, alg.L(-2), "4")
         + gen_element(alg, alg.I(1, 2), "1/2+1/2*i")
         + gen_element(alg, alg.C(0), "-1/3"))
    assert alg.parse_element(str(x)) == x
    assert alg.parse_element("L[2]") == gen_element(alg, alg.L(2))
    assert alg.parse_element("0").is_zero()


def test_element_round_trip_pure_imaginary_coefficient():
    alg = GapVirasoro(2)
    x = gen_element(alg, alg.L(2), "1/2*i") + gen_element(alg, alg.I(-1, 1), "-2*i")
    assert str(x) == "(1/2*i)*L[2] + (-2*i)*I[-1,1]"
    assert alg.parse_element(str(x)) == x
    y = alg.bracket(gen_element(alg, alg.L(2), "1*i"), gen_element(alg, alg.L(-2)))
    assert alg.parse_element(str(y)) == y


def test_combination_merges_pairs_and_drops_zeros():
    # a dict has distinct keys and is copied with zeros dropped; a list of
    # pairs, as parse_element passes it, is merged key by key
    alg = GapVirasoro(2)
    L2, L1 = alg.L(2), alg.L(1)
    x = Element(2, {L2: "1/2", L1: 0, alg.C(0): Scalar(0, 1)})
    assert x.terms == {L2: scalar("1/2"), alg.C(0): scalar("i")}
    y = Element(2, [(L2, "1/2"), (L1, 0), (L2, "1/2"), (L1, 3), (L1, -3)])
    assert y.terms == {L2: scalar(1)}
    assert Element(2, [(L2, 1), (L2, -1)]).is_zero() and Element(2, {}).is_zero()
    assert alg.parse_element("L[2] + 2*L[1] + -1*L[2]") == Element(2, {L1: 2})
