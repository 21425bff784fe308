import itertools
import random
from fractions import Fraction

import pytest

from gapvir.algebra import GapVirasoro
from gapvir.errors import ConfigError
from gapvir.scalars import ONE, Scalar, scalar
from gapvir.verma import (EMPTY_MONOMIAL, HighestWeight, PBWMonomial, Sector,
                          VermaModule, partition_count)
from reference import gen_element, row_reduce


def commutator_defect(module, g1, g2, vec):
    """act(g1)act(g2) - act(g2)act(g1) - act([g1,g2]) applied to vec."""
    out = module.act(g1, module.act(g2, vec)) - module.act(g2, module.act(g1, vec))
    for g, c in module.alg.bracket_gens(g1, g2):
        out = out - c * module.act(g, vec)
    return out


def full_module(p, l0="1/16", c=None):
    alg = GapVirasoro(p)
    if c is None:
        c = ["2"] + ["1"] * (p // 2)
    hw = HighestWeight.make(p, l0, c)
    return alg, VermaModule(alg, hw)


def test_pbw_basis_small_levels():
    _, m2 = full_module(2)
    assert [b.text() for b in m2.pbw_basis(2)] == ["L[-1]|hw", "I[-1,1]I[-1,1]|hw"]
    assert m2.pbw_basis(0) == [EMPTY_MONOMIAL]
    _, m3 = full_module(3)
    assert m3.graded_dim(3) == partition_count(3) == 3


def test_monomial_levels():
    assert PBWMonomial((2, 1), ((1, 1),)).plevel(2) == 4 + 2 + 1
    assert PBWMonomial((), ((2, 1), (1, 2))).plevel(3) == 5 + 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_graded_dims_match_partition_numbers(p):
    _, module = full_module(p)
    for d in range(201):
        assert module.graded_dim(d) == partition_count(d)
    assert module.graded_dims(2000) == [partition_count(d) for d in range(2001)]
    with pytest.raises(ConfigError):
        module.graded_dim(-1)


def test_act_on_highest_weight_vector():
    alg, module = full_module(2)
    v = module.highest_vector()
    assert module.act(alg.L(1), module.act(alg.L(-1), v)) == scalar("1/8") * v
    assert (module.act(alg.I(0, 1), module.act(alg.I(-1, 1), v))
            == scalar("1/2") * v)
    w = module.basis_vector(module.pbw_basis(4)[2])
    assert module.act(alg.C(0), w) == scalar("2") * w


def test_l0_action_is_level_graded():
    alg, module = full_module(2, l0="1/3")
    for d in range(5):
        for mono in module.pbw_basis(d):
            x = module.basis_vector(mono)
            expected = (scalar("1/3") + Scalar(Fraction(d, 2))) * x
            assert module.act(alg.L(0), x) == expected


def test_negative_i_modes_commute():
    alg = GapVirasoro(3)
    for m, mp in itertools.product(range(1, 4), repeat=2):
        for i, ip in itertools.product(range(1, 3), repeat=2):
            assert not alg.bracket_gens(alg.I(-m, i), alg.I(-mp, ip))


@pytest.mark.parametrize("p", [2, 3])
def test_module_axiom_on_generator_pairs(p):
    # every generator pair with modes in [-3, 3], on every basis monomial of
    # p-level <= 8
    alg, module = full_module(p)
    gens = alg.basis_window(-3, 3)
    basis = [mono for d in range(9) for mono in module.pbw_basis(d)]
    for g1 in gens:
        for g2 in gens:
            for mono in basis:
                x = module.basis_vector(mono)
                assert commutator_defect(module, g1, g2, x).is_zero(), (g1, g2, mono)


def test_raising_set_generates_raising_part():
    # iterated brackets of {L_1, L_2, I_0^i} span every L_n (n<=6), I_n^i (n<=4)
    for p in (2, 3):
        alg = GapVirasoro(p)
        # ambient window large enough to hold every bracket value met below
        labels = [alg.L(n) for n in range(1, 16)]
        labels += [alg.I(n, i) for n in range(0, 16) for i in range(1, p)]
        labels += [alg.C(j) for j in range(p // 2 + 1)]
        idx = {g: k for k, g in enumerate(labels)}

        def coords(x):
            row = [Scalar.zero()] * len(labels)
            for g, c in x.terms.items():
                if g in idx:
                    row[idx[g]] = c
            return row

        def element_of(row):
            return sum((c * gen_element(alg, g) for g, c in zip(labels, row) if c),
                       gen_element(alg, alg.L(1), 0))

        seeds = [gen_element(alg, g) for g in
                 [alg.L(1), alg.L(2)] + [alg.I(0, i) for i in range(1, p)]]
        rows = [coords(x) for x in seeds]
        row_reduce(rows, len(labels))
        rows = [r for r in rows if any(r)]
        for _ in range(6):
            basis_elts = [element_of(r) for r in rows]
            rows += [coords(alg.bracket(x, s)) for x in basis_elts for s in seeds]
            row_reduce(rows, len(labels))
            rows = [r for r in rows if any(r)]

        def in_span(vec):
            vec = list(vec)
            for r in rows:
                lead = next(k for k, v in enumerate(r) if v)
                if vec[lead]:
                    f = vec[lead]
                    vec = [a - f * b for a, b in zip(vec, r)]
            return not any(vec)

        targets = [alg.L(n) for n in range(1, 7)]
        targets += [alg.I(n, i) for n in range(0, 5) for i in range(1, p)]
        for t in targets:
            assert in_span(coords(gen_element(alg, t))), t


def test_singular_vector_examples():
    alg = GapVirasoro(2)
    # Virasoro sub-case with vanishing weight: the depth-one vector is singular
    hw = HighestWeight.make(2, 0, ["1", "0"])
    vir = VermaModule(alg, hw, Sector.virasoro())
    sols = vir.singular_vectors(2)
    assert len(sols) == 1 and sols[0].terms == {PBWMonomial((1,), ()): ONE}
    # nonzero phi(C_1) blocks the level-one candidate
    _, module = full_module(2, l0="5/7")
    assert module.singular_vectors(1) == []


def test_singular_vectors_need_positive_level():
    _, module = full_module(2)
    with pytest.raises(ConfigError):
        module.singular_vectors(0)


def symmetric_j_sets(p):
    out = []
    half = [i for i in range(1, p) if i <= p - i]
    for mask in itertools.product([0, 1], repeat=len(half)):
        j = set()
        for flag, i in zip(mask, half):
            if flag:
                j |= {i, p - i}
        out.append(frozenset(j))
    return out


@pytest.mark.parametrize("p", [2, 3])
def test_tensor_factorization_of_characters(p):
    # dims of the full module are the convolution of the Heisenberg-J dims
    # with the dims of the complementary sub-case, for every symmetric J
    alg = GapVirasoro(p)
    max_d = 16
    for j_set in symmetric_j_sets(p):
        c = [scalar(2)] + [scalar(1 if min(i, p - i) in j_set else 0)
                           for i in range(1, p // 2 + 1)]
        hw = HighestWeight.make(p, "1/16", c)
        assert hw.j_set() == j_set
        full = VermaModule(alg, hw)
        heis = VermaModule(alg, hw, Sector.heisenberg(j_set))
        comp = VermaModule(alg, hw, Sector.complement(p, j_set))
        for d in range(max_d + 1):
            conv = sum(heis.graded_dim(a) * comp.graded_dim(d - a)
                       for a in range(d + 1))
            assert full.graded_dim(d) == conv


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_graded_dim_counts_the_enumerated_basis(p):
    # enumeration is the reference for the partition DP, on every sector and J
    alg = GapVirasoro(p)
    hw = HighestWeight.make(p, "1/16", ["2"] + ["1"] * (p // 2))
    sectors = [Sector.full(p), Sector.virasoro()]
    for j_set in symmetric_j_sets(p):
        sectors += [Sector.heisenberg(j_set), Sector.complement(p, j_set)]
    for sector in sectors:
        module = VermaModule(alg, hw, sector)
        for d in range(15):
            assert module.graded_dim(d) == len(module.pbw_basis(d)), (sector, d)


def test_sector_restrictions():
    alg = GapVirasoro(3)
    hw = HighestWeight.make(3, 1, ["2", "1"])
    heis = VermaModule(alg, hw, Sector.heisenberg({1, 2}))
    with pytest.raises(ConfigError):
        heis.act(alg.L(1), heis.highest_vector())
    vir = VermaModule(alg, hw, Sector.virasoro())
    # Heisenberg generators act trivially on the extended Virasoro sub-case
    assert vir.act(alg.I(-1, 1), vir.highest_vector()).is_zero()
    assert [vir.graded_dim(d) for d in range(7)] == [1, 0, 0, 1, 0, 0, 2]


def test_monomial_text_and_basis_order():
    _, module = full_module(2)
    texts = [m.text() for m in module.pbw_basis(4)]
    assert texts == ["L[-2]|hw", "L[-1]L[-1]|hw", "L[-1]I[-1,1]I[-1,1]|hw",
                     "I[-2,1]I[-1,1]|hw", "I[-1,1]I[-1,1]I[-1,1]I[-1,1]|hw"]


def test_partition_count_recurrence():
    known = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176,
             231, 297, 385, 490, 627]
    assert [partition_count(n) for n in range(21)] == known
