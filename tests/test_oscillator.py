import itertools
import random
from fractions import Fraction

import pytest

from gapvir.algebra import GapVirasoro
from gapvir.errors import ConfigError
from gapvir.oscillator import (OscillatorModule, gap_weight_sum, shifted_weight,
                               sugawara_sum, virasoro_relation_check)
from gapvir.scalars import Scalar, scalar
from gapvir.verma import HighestWeight, ModuleVector


def mixed_relation_check(alg, hw, m, n, i, max_level, osc=None):
    """Check [L_m, I_n^i] = -(n + i/p) I_{m+n}^i on the realized module."""
    if osc is None:
        osc = OscillatorModule(alg, hw)
    p = alg.p
    coeff = Scalar(-Fraction(n * p + i, p))
    for d in range(0, max_level + 1):
        for mono in osc.fock.pbw_basis(d):
            x = osc.fock.basis_vector(mono)
            gi = alg.I(n, i)
            lhs = osc.sugawara_l(m, osc.act(gi, x)) - osc.act(gi, osc.sugawara_l(m, x))
            rhs = coeff * osc.act(alg.I(m + n, i), x)
            if lhs != rhs:
                return False
    return True


def osc_p2(c1="1", l0="1/16", c0="2"):
    alg = GapVirasoro(2)
    return alg, OscillatorModule(alg, HighestWeight.make(2, l0, [c0, c1]))


def test_heisenberg_action_basics():
    alg, osc = osc_p2()
    v = osc.vacuum()
    assert osc.act(alg.I(0, 1), osc.act(alg.I(-1, 1), v)) == scalar("1/2") * v
    alg3 = GapVirasoro(3)
    osc3 = OscillatorModule(alg3, HighestWeight.make(3, "0", ["2", "1"]))
    assert osc3.act(alg3.I(0, 2), osc3.vacuum()).is_zero()


def test_modes_outside_j_act_as_zero():
    alg = GapVirasoro(5)
    hw = HighestWeight.make(5, "0", ["2", "1", "0"])  # J = {1, 4}
    osc = OscillatorModule(alg, hw)
    assert osc.j_set == frozenset({1, 4})
    assert osc.act(alg.I(-1, 2), osc.vacuum()).is_zero()
    assert osc.act(alg.C(2), osc.vacuum()).is_zero()


def test_central_element_actions():
    alg, osc = osc_p2(c0="99")  # C_0 acts by |J|, not by the stored weight
    v = osc.vacuum()
    assert osc.act(alg.C(0), v) == Scalar(1) * v
    assert osc.act(alg.C(1), v) == scalar("1") * v


def test_vacuum_eigenvalue_of_l0():
    alg, osc = osc_p2()
    assert osc.sugawara_l(0, osc.vacuum()) == scalar("1/16") * osc.vacuum()
    for n in range(1, 6):
        assert osc.sugawara_l(n, osc.vacuum()).is_zero()


def test_realized_action_respects_weight_grading():
    # positive modes drop the p-level; on a level-1 vector L_1 must vanish
    alg, osc = osc_p2()
    x = osc.act(alg.I(-1, 1), osc.vacuum())
    assert osc.sugawara_l(1, x).is_zero()


def test_realized_lowering_action():
    alg, osc = osc_p2()
    out = osc.sugawara_l(-1, osc.vacuum())
    v = osc.vacuum()
    expected = scalar("1/2") * osc.act(alg.I(-1, 1), osc.act(alg.I(-1, 1), v))
    assert out == expected


@pytest.mark.parametrize("m,n", [(1, -1), (2, -2), (3, -3), (2, -1), (1, 1)])
def test_virasoro_relations_p2(m, n):
    alg = GapVirasoro(2)
    hw = HighestWeight.make(2, "1/16", ["2", "1"])
    assert virasoro_relation_check(OscillatorModule(alg, hw), m, n, 8)["pass"]


def test_memoized_sugawara_l_matches_the_direct_mode_sum():
    # sugawara_sum on the whole vector, with one truncation bound, is the reference
    rng = random.Random(3301)
    for p, cvals in ((2, ["2", "1"]), (3, ["2", "-1"]), (4, ["1", "0", "2"])):
        alg = GapVirasoro(p)
        hw = HighestWeight.make(p, "1/5", cvals)
        osc = OscillatorModule(alg, hw)
        for _ in range(12):
            d = rng.randint(0, 7)
            basis = [m for e in range(d + 1) for m in osc.fock.pbw_basis(e)]
            vec = ModuleVector(osc.fock, {m: Scalar(rng.randint(-3, 3), rng.randint(-1, 1))
                                          for m in rng.sample(basis, min(4, len(basis)))})
            for n in range(-3, 4):
                direct = sugawara_sum(osc.fock, osc.j_set, hw.c_value, n, vec)
                if n == 0:
                    direct = direct + gap_weight_sum(p, osc.j_set) * vec
                assert osc.sugawara_l(n, vec) == direct == osc.sugawara_l(n, vec), (p, n)


def test_virasoro_relations_p3_with_central_term():
    alg = GapVirasoro(3)
    hw = HighestWeight.make(3, "0", ["2", "1"])
    osc = OscillatorModule(alg, hw)
    rep = virasoro_relation_check(osc, 2, -2, 7)
    assert rep["pass"]
    # the central contribution there is (8-2)/12 * |J| = 1
    assert Fraction(2 ** 3 - 2, 12) * osc.central_charge() == 1


@pytest.mark.parametrize("cvals", [["2", "1"], ["2", "2"], ["2", "-1"]])
def test_relations_across_central_values(cvals):
    alg = GapVirasoro(2)
    hw = HighestWeight.make(2, "0", cvals)
    osc = OscillatorModule(alg, hw)
    for m, n in [(1, -1), (2, -2), (2, 1)]:
        assert virasoro_relation_check(osc, m, n, 6)["pass"]


def test_mixed_relation_with_heisenberg_modes():
    alg = GapVirasoro(2)
    hw = HighestWeight.make(2, "1/16", ["2", "1"])
    osc = OscillatorModule(alg, hw)
    for m, n in itertools.product(range(-3, 4), repeat=2):
        assert mixed_relation_check(alg, hw, m, n, 1, 8, osc=osc), (m, n)
    alg3 = GapVirasoro(3)
    hw3 = HighestWeight.make(3, "0", ["2", "-1"])
    osc3 = OscillatorModule(alg3, hw3)
    for m, n in itertools.product((-3, -1, 0, 2), repeat=2):
        for i in (1, 2):
            assert mixed_relation_check(alg3, hw3, m, n, i, 6, osc=osc3), (m, n, i)


def test_shifted_weight_values():
    hw = HighestWeight.make(2, "1/16", ["2", "1"])
    psi = shifted_weight(hw)
    assert psi.l0.is_zero() and psi.c_value(0) == Scalar(1)
    hw0 = HighestWeight.make(2, "3/4", ["5", "0"])  # empty J: nothing shifts
    psi0 = shifted_weight(hw0)
    assert psi0.l0 == scalar("3/4") and psi0.c_value(0) == scalar("5")
    hw3 = HighestWeight.make(3, "1", ["3", "1"])
    psi3 = shifted_weight(hw3)
    assert psi3.l0 == scalar("8/9") and psi3.c_value(0) == Scalar(1)


def test_gap_weight_sum():
    assert gap_weight_sum(2, {1}) == scalar("1/16")
    assert gap_weight_sum(3, {1, 2}) == scalar("1/9")
    assert gap_weight_sum(2, set()).is_zero()


@pytest.mark.parametrize("p,cvals", [(2, ["0", "1"]), (2, ["0", "-1"]),
                                     (3, ["0", "2"]), (4, ["0", "0", "1"])])
def test_fock_module_has_no_singular_vectors(p, cvals):
    # the Fock sector with phi(C_i) != 0 on its J is irreducible, partial J included
    alg = GapVirasoro(p)
    osc = OscillatorModule(alg, HighestWeight.make(p, "0", cvals))
    for d in range(1, 11):
        assert osc.fock.singular_vectors(d) == []


def test_fock_realization_requires_nonempty_j():
    alg = GapVirasoro(2)
    with pytest.raises(ConfigError):
        OscillatorModule(alg, HighestWeight.make(2, "0", ["1", "0"]))
