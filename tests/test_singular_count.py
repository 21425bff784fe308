"""Singular counts by the integer rank of the scaled raising rows, and PBW bases
built level by level, against the routes they replaced.

singular_count must equal the number of singular vectors that nullspace
finds, on the library's straightening and on the reference one, in every
sector and for real, complex and Kac-zero weights.  pbw_basis must list the
monomials of the recursive partition enumeration in the same order.
"""

import random
from fractions import Fraction

import pytest

import reference
from gapvir import verma
from gapvir.algebra import GapVirasoro
from gapvir.oscillator import gap_weight_sum, shifted_weight
from gapvir.scalars import Scalar
from gapvir.verma import HighestWeight, Sector, VermaModule


def symmetric_sets(p):
    """Every J in {1..p-1} with J = p - J."""
    pairs = sorted({frozenset((i, p - i)) for i in range(1, p)}, key=min)
    return [frozenset().union(*(pair for k, pair in enumerate(pairs) if mask >> k & 1))
            for mask in range(1 << len(pairs))]


def kac_h(t, r, s):
    """h_{r,s} at central charge 13 - 6(t + 1/t)."""
    return ((r * t - s) ** 2 - (t - 1) ** 2) / (4 * t)


def seeded_weight(rng, p, kind, j_set):
    """A weight with J = j_set whose psi is real, has a complex L_0, or lies on h_{r,s}."""
    central = [Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 4)) if j in j_set else 0
               for j in range(1, p // 2 + 1)]
    h, c = Scalar(Fraction(rng.randint(-8, 16), 8)), Fraction(rng.randint(-8, 20), 4)
    if kind == "complex":
        h = Scalar(h.re, Fraction(rng.choice((-1, 1)), rng.randint(1, 4)))
    elif kind == "kac-zero":
        t = rng.choice((Fraction(2), Fraction(3, 2), Fraction(5, 3), Fraction(4)))
        r = rng.randint(1, 3)
        s = rng.randint(1, 3 // r)
        h, c = Scalar(kac_h(t, r, s)), 13 - 6 * (t + 1 / t)
    return HighestWeight.make(p, h + gap_weight_sum(p, j_set), [c + len(j_set)] + central)


@pytest.mark.parametrize("p", [2, 3, 4])
def test_singular_count_is_the_number_of_singular_vectors(p):
    rng = random.Random("singular-count/%d" % p)
    alg = GapVirasoro(p)
    fired = set()
    for j_set in symmetric_sets(p):
        for kind in ("real", "complex", "kac-zero") * 2:
            hw = seeded_weight(rng, p, kind, j_set)
            psi = shifted_weight(hw)
            modules = {"full": VermaModule(alg, hw),
                       "virasoro": VermaModule(alg, psi, Sector.virasoro()),
                       "complement": VermaModule(alg, psi, Sector.complement(p, j_set)),
                       "heisenberg": VermaModule(alg, hw, Sector.heisenberg(range(1, p)))}
            for name, module in modules.items():
                for d in range(1, 8):
                    count = module.singular_count(d)
                    assert count == len(module.singular_vectors(d)), (name, hw, d)
                    assert count == len(reference.singular_vectors(module, d)), (name, hw, d)
                    if count:
                        fired.add((name, kind))
    # every sector and every kind of weight has a level with a singular vector
    assert {name for name, _ in fired} == {"full", "virasoro", "complement", "heisenberg"}
    assert {kind for _, kind in fired} == {"real", "complex", "kac-zero"}


def test_singular_count_ranks_the_memo_entries(monkeypatch):
    # the rows are act_gen's K-scaled entries as they stand: ints for a real
    # weight, and nothing is unscaled on either kind of weight
    def no_unscaling(self, c, e):
        raise AssertionError("singular_count unscaled an entry")

    seen = []
    rank = verma.rank

    def recorded(rows, ncols):
        seen.append({type(v) for row in rows for v in row.values()})
        return rank(rows, ncols)

    monkeypatch.setattr(VermaModule, "unscaled", no_unscaling)
    monkeypatch.setattr(verma, "rank", recorded)
    alg = GapVirasoro(4)
    for l0, real in (("1/3", True), ("1/3+1/2*i", False)):
        hw = HighestWeight.make(4, l0, ["7/3", "0", "1/2"])
        module = VermaModule(alg, shifted_weight(hw), Sector.complement(4, hw.j_set()))
        seen.clear()
        assert sum(module.singular_count(d) for d in range(1, 9)) > 0
        assert len(seen) == 8
        assert all(kinds <= {int} for kinds in seen) == real
        assert all(kinds <= {int, Scalar} for kinds in seen)


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_pbw_basis_matches_the_recursive_enumeration(p):
    alg = GapVirasoro(p)
    hw = HighestWeight.make(p, "1/16", ["2"] + ["1"] * (p // 2))
    sectors = [Sector.full(p), Sector.virasoro()]
    for j_set in symmetric_sets(p):
        sectors += [Sector.heisenberg(j_set), Sector.complement(p, j_set)]
    for sector in sectors:
        upward = VermaModule(alg, hw, sector)
        downward = VermaModule(alg, hw, sector)
        top = downward.pbw_basis(14)  # fills every level below 14 first
        for d in range(15):
            expected = reference.pbw_basis(upward, d)
            assert upward.pbw_basis(d) == expected, (sector, d)
            assert downward.pbw_basis(d) == expected, (sector, d)
        assert top is downward.pbw_basis(14)
