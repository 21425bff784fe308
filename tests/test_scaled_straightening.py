"""The rescaled straightening memo against the unscaled reference.

VermaModule.act_gen works on K-scaled monomials (verma's docstring); act,
gram and singular_vectors must still give the unscaled answers, which
reference.py recomputes on Scalars with its own memo.
"""

import random
from fractions import Fraction

import pytest

from gapvir.algebra import AntiInvolution, GapVirasoro, Gen, sample_involution
from gapvir.forms import gram, kac_wall_inertia, kac_zeros, phi_virasoro
from gapvir.scalars import Scalar
from gapvir.verma import HighestWeight, PBWMonomial, Sector, VermaModule
import reference


def rand_q(rng, dens=(1, 2, 3, 5, 7, 9, 16)):
    return Fraction(rng.randint(-12, 12), rng.choice(dens))


def rand_weight(rng, p, complex_weight):
    """A weight with every central value nonzero, so J is the full set."""
    def value():
        while True:
            v = Scalar(rand_q(rng), rand_q(rng) if complex_weight else 0)
            if v:
                return v
    return HighestWeight(p, value(), tuple(value() for _ in range(p // 2 + 1)))


def sectors(p):
    return {"full": Sector.full(p), "virasoro": Sector.virasoro(),
            "heisenberg": Sector.heisenberg(range(1, p)),
            "complement": Sector.complement(p, {1, p - 1})}


def generators(alg, include_l):
    p = alg.p
    gens = [alg.I(n, i) for n in range(-3, 4) for i in range(1, p)]
    gens += [alg.C(j) for j in range(p // 2 + 1)]
    return gens + ([alg.L(n) for n in range(-3, 4)] if include_l else [])


@pytest.mark.parametrize("p", [2, 3, 4])
@pytest.mark.parametrize("complex_weight", [False, True])
def test_act_matches_the_unscaled_reference(p, complex_weight):
    rng = random.Random("act-%d-%s" % (p, complex_weight))
    alg = GapVirasoro(p)
    seen = {"shorter": 0, "prepend": 0}
    for name, sector in sectors(p).items():
        module = VermaModule(alg, rand_weight(rng, p, complex_weight), sector)
        monos = [m for d in range(9) for m in module.pbw_basis(d)]
        for x in rng.sample(monos, min(len(monos), 30)):
            vec = module.basis_vector(x)
            for g in generators(alg, sector.include_l):
                expected = reference.act(module, g, vec)
                assert module.act(g, vec) == expected, (name, g, x)
                for z in expected.terms:
                    seen["shorter"] += z.length() < x.length()
                    seen["prepend"] += z.length() > x.length()
        if not complex_weight:
            assert all(type(c) is int for res in module._act_cache.values()
                       for c in res.values())
    # bracket terms that drop a factor need K to a negative power
    assert seen["shorter"] and seen["prepend"]


def test_scale_covers_every_denominator():
    alg = GapVirasoro(2)
    hw = HighestWeight.make(2, "1/9", ["3/2", "5/7"])
    module = VermaModule(alg, hw)
    assert module.scale == 252  # lcm(2p, 9, 2, 7)
    vec = module.basis_vector(PBWMonomial((2, 1), ((1, 1),)))
    for g in generators(alg, True):
        assert module.act(g, vec) == reference.act(module, g, vec), g
    levels = [gram(module, AntiInvolution.plus(2), d) for d in range(7)]
    assert module._act_cache
    assert all(type(c) is int for res in module._act_cache.values() for c in res.values())
    assert all(type(e) is int for g in levels for row in g.rows for e in row)
    # a complex weight scales by the denominators of both parts
    cx = VermaModule(alg, HighestWeight.make(2, "1/3+1/5*i", ["1", "1/2-1/11*i"]))
    assert cx.scale == 660


@pytest.mark.parametrize("p", [3, 4])
def test_gram_matches_pairing_for_complex_weights_and_sampled_involutions(p):
    rng = random.Random("gram-%d" % p)
    alg = GapVirasoro(p)
    for complex_weight in (False, True):
        hw = rand_weight(rng, p, complex_weight)
        for theta in (AntiInvolution.plus(p), sample_involution(alg, rng, "plus")):
            module = VermaModule(alg, hw)
            for d in range(5):
                g = gram(module, theta, d)
                for a, x in enumerate(g.basis):
                    for b, y in enumerate(g.basis):
                        assert g.entries[a][b] == reference.pairing(
                            module, theta, module.basis_vector(x), module.basis_vector(y)), \
                            (complex_weight, theta, d, x, y)


SINGULAR_CASES = [
    # (p, l0, central, sector, whether a singular vector exists at a level <= 6)
    (2, "0", ["1/2", "1"], "virasoro", True),                 # L_{-1} v
    (2, "1/16", ["1/2", "1"], "virasoro", True),              # h_{1,2}: two terms at level 4
    (2, "-1/8-3/8*i", ["4-3*i", "1"], "virasoro", True),      # h_{1,2} at t = 1 + i
    (2, "1/3", ["5/2", "0"], None, True),                     # J empty: I_{-1}^1 v
    (3, "1/4+1/2*i", ["2", "0"], None, True),                 # complex, J empty
    (4, "1/3", ["7/3", "0", "1/2"], None, True),              # partial J = {2}
    (4, "2/7", ["3", "0", "1"], "complement", True),
    (3, "1/5", ["9/4", "2/3"], None, False),
]


@pytest.mark.parametrize("p, l0, central, sector, singular", SINGULAR_CASES)
def test_singular_vectors_match_the_reference(p, l0, central, sector, singular):
    hw = HighestWeight.make(p, l0, central)
    chosen = {None: None, "virasoro": Sector.virasoro(),
              "complement": Sector.complement(p, hw.j_set())}[sector]
    module = VermaModule(GapVirasoro(p), hw, chosen)
    found = 0
    for d in range(1, 7):
        sols = module.singular_vectors(d)
        assert sols == reference.singular_vectors(module, d), d
        found += len(sols)
    assert bool(found) == singular


def discrete_point(m, r, s):
    n = m * (m + 1)
    return Fraction((m * r + s) ** 2 - 1, 4 * n), 1 - Fraction(6, n)


def test_kac_wall_inertia_matches_the_scalar_classification():
    rng = random.Random("walls")
    points = []
    for _ in range(60):  # random rational (h', c') on both sides of c' = 1 and 25
        points.append((rand_q(rng), Fraction(rng.randint(-40, 120), rng.choice((1, 2, 4, 7)))))
    for m in range(2, 7):  # discrete-series points
        points += [discrete_point(m, r, s) for r in range(m) for s in range(r + 1, m)]
    for t in (Fraction(3, 2), Fraction(5, 3), Fraction(-2), Fraction(1), Fraction(2, 7)):
        c = 13 - 6 * (t + 1 / t)  # points on the walls h_{r,s}
        points += [(((r * t - s) ** 2 - (t - 1) ** 2) / (4 * t), c)
                   for r in range(1, 4) for s in range(1, 4)]
    for c in (Fraction(1, 2), Fraction(3), Fraction(30)):  # above and below every wall
        points += [(Fraction(1000), c), (Fraction(-1000), c)]
    kinds = set()
    for h, c in points:
        psi = HighestWeight.make(2, h, [c, 0])
        for max_n in (1, 4, 8):
            triples = kac_wall_inertia(psi, max_n)
            assert triples == reference.kac_wall_inertia(psi, max_n), (h, c, max_n)
            kinds.add(len(triples) - 1)
        # kac_zeros decides real (h, c) on the same integer classifier
        assert kac_zeros(h, c, 12) == [[a, b] for a in range(1, 13) for b in range(1, 12 // a + 1)
                                       if phi_virasoro(h, c, a, b).is_zero()], (h, c)
    assert 0 in kinds and 8 in kinds  # no level certified, and every level certified


def test_labels_are_tuples_with_their_text():
    g = Gen("I", -2, 1)
    assert (g.kind, g.n, g.i) == ("I", -2, 1) and str(g) == "I[-2,1]"
    assert Gen("L", 3) == Gen("L", 3, 0) and str(Gen("C", 1)) == "C[1]"
    assert hash(g) == hash(("I", -2, 1))
    mono = PBWMonomial((2,), ((1, 1),))
    assert mono.length() == 2 and str(mono) == "L[-2]I[-1,1]|hw"
    assert PBWMonomial() == PBWMonomial((), ()) and PBWMonomial().length() == 0
    with pytest.raises(AttributeError):
        g.n = 0
