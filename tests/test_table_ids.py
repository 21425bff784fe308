"""Gram rows and raising rows read by monomial id, against the per-entry references.

gram assembles G' from VermaModule.evaluate and the level plans that the
weight-free table keeps per sector (verma's docstring); its entries must be
reference.pairing's, and singular_count and singular_vectors must agree with
reference.singular_vectors, for p = 2..5, real, complex, zero-l0, partial-J
and Kac-wall weights, on the full, Virasoro, complement and Heisenberg sectors.
Neither route may fill the act_gen memo, and every module of one p and
sector reads one plan.
"""

import random
from fractions import Fraction

import pytest

from gapvir.algebra import AntiInvolution, GapVirasoro, sample_involution
from gapvir.forms import gram
from gapvir.oscillator import shifted_weight
from gapvir.scalars import Scalar
from gapvir.verma import HighestWeight, Sector, VermaModule
import reference

GRAM_TOP = {2: 8, 3: 7, 4: 6, 5: 6}  # the per-entry pairing grows fast with the level
SINGULAR_TOP = {2: 10, 3: 9, 4: 8, 5: 8}


def weights(rng, p):
    """Real, complex, zero-l0, partial-J and Kac-wall weights of one p, seeded."""
    def q():
        return Fraction(rng.randint(-9, 9) or 1, rng.choice((1, 2, 3, 4, 7, 16)))

    real = [q() for _ in range(p // 2 + 2)]
    return {
        "real": HighestWeight.make(p, real[0], real[1:]),
        "complex": HighestWeight(p, Scalar(q(), q()), tuple(Scalar(q(), q())
                                                            for _ in range(p // 2 + 1))),
        "zero-l0": HighestWeight.make(p, 0, real[1:]),
        "partial-J": HighestWeight.make(p, real[0], [real[1], 0] + real[3:]),
        # h_{1,2} at c = 1/2: a two-term singular vector at Virasoro level 2
        "kac-wall": HighestWeight.make(p, "1/16", ["1/2"] + ["1"] * (p // 2)),
    }


def modules(alg, hw):
    """The weight's module on each sector; the complement one at psi, as reducibility has it."""
    p, psi = alg.p, shifted_weight(hw)
    return {"full": VermaModule(alg, hw),
            "virasoro": VermaModule(alg, hw, Sector.virasoro()),
            "complement": VermaModule(alg, psi, Sector.complement(p, hw.j_set())),
            "heisenberg": VermaModule(alg, hw, Sector.heisenberg(range(1, p)))}


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_gram_rows_match_the_pairing(p):
    rng = random.Random("table-ids-gram-%d" % p)
    alg = GapVirasoro(p)
    thetas = [AntiInvolution.plus(p), sample_involution(alg, rng, "plus")]
    for kind, hw in weights(rng, p).items():
        for name, module in modules(alg, hw).items():
            for theta in thetas:
                for d in range(GRAM_TOP[p] + 1):
                    g = gram(module, theta, d)
                    vectors = [module.basis_vector(x) for x in g.basis]
                    for a, u in enumerate(vectors):
                        for b, w in enumerate(vectors):
                            assert g.entries[a][b] == reference.pairing(module, theta, u, w), \
                                (kind, name, theta, d, a, b)
            assert not module._act_cache, (kind, name)


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_singular_counts_and_vectors_match_the_reference(p):
    rng = random.Random("table-ids-singular-%d" % p)
    alg = GapVirasoro(p)
    fired = set()
    for kind, hw in weights(rng, p).items():
        for name, module in modules(alg, hw).items():
            for d in range(1, SINGULAR_TOP[p] + 1):
                expected = reference.singular_vectors(module, d)
                assert module.singular_count(d) == len(expected), (kind, name, d)
                assert module.singular_vectors(d) == expected, (kind, name, d)
                if expected:
                    fired.add(name)
            assert not module._act_cache, (kind, name)
    assert {"virasoro", "heisenberg"} <= fired  # the zero-l0 weights have L_{-1} v


def test_modules_of_one_p_share_one_plan():
    alg = GapVirasoro(3)
    a = VermaModule(alg, HighestWeight.make(3, "1/2", ["2", "1"]))
    b = VermaModule(GapVirasoro(3), HighestWeight.make(3, "1/5+i", ["3", "1/7"]))
    vira = VermaModule(alg, HighestWeight.make(3, "1/2", ["2", "1"]), Sector.virasoro())
    theta = AntiInvolution.plus(3)
    gram(a, theta, 6)
    assert b.level(6) is a.level(6)  # filled by a, read by b
    assert b._plans is a._plans is a.table.plans[Sector.full(3)]
    assert vira._plans is not a._plans
    gram(b, theta, 6)
    b.singular_count(6)
    assert not a._act_cache and not b._act_cache


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_each_leading_factor_leads_one_run_whose_tails_end_the_lower_level(p):
    # the Gram assembly reads column b's tail at position j0 + (b - b0) of level d'
    alg = GapVirasoro(p)
    hw = HighestWeight.make(p, "1/3", ["2"] + ["1"] * (p // 2))
    sectors = [Sector.full(p), Sector.virasoro(), Sector.heisenberg(range(1, p)),
               Sector.complement(p, {1, p - 1}), Sector.heisenberg({1, p - 1})]
    for sector in sectors:
        module = VermaModule(alg, hw, sector)
        splits = module.table._splits
        for d in range(1, 19):
            ids, _, groups = module.level(d)
            assert [b for _, _, b0, b1 in groups for b in range(b0, b1)] == list(range(len(ids)))
            assert len({f for f, *_ in groups}) == len(groups)
            for f, lower, b0, b1 in groups:
                lower_ids = module.level(lower)[0]
                assert [splits[x][:3:2] for x in ids[b0:b1]] == \
                    [(f, t) for t in lower_ids[len(lower_ids) - (b1 - b0):]], (sector, d, f)
