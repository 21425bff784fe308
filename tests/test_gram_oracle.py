"""The Gram oracle's lean levels against the routes they replaced.

gram reads each (theta(f), x) entry of the weight-free table straight into
the row sums; reference.gram_rows reads it through VermaModule.evaluate's
dict.  definiteness settles hermiticity and the Gaussian flag in one pass
over the rows; reference.definiteness is the exact Schur-complement LDL*.
Each pair must agree: the same rows, and the same (kind, inertia, witness),
on the oracle's own weights and levels, every sector, complex weights with
Gaussian entries and beta = -1.
"""

import random

import pytest

import reference
from gapvir import oscillator
from gapvir.algebra import KIND_L, AntiInvolution, GapVirasoro, Gen
from gapvir.errors import ConfigError, GramIntegrityError
from gapvir.forms import (INDEFINITE, NEGATIVE, PD, PSD_SINGULAR, GramMatrix, definiteness,
                          gram)
from gapvir.oscillator import shifted_weight
from gapvir.scalars import ONE, Scalar, int_parts, scalar
from gapvir.unitarity import discrete_series, discrete_series_match, unitarity_verdict
from gapvir.verma import HighestWeight, Sector, VermaModule

# p = 2, J = {1}: (l0, [c0, c1], beta1), the first seed-1 round of the bench's oracle-deep,
# and the verdicts met on its levels (h' = 0 on the continuum one: a kernel from level 2)
ORACLE_WEIGHTS = {
    "continuum": ("1/16", ["15/4", "3"], "1"),
    "discrete": ("167/96", ["23/12", "2"], "1"),
    "non-unitary": ("1/16", ["-13/4", "-3/2"], "-1"),
}
KINDS = {"continuum": {PD, PSD_SINGULAR}, "discrete": {PD},
         "non-unitary": {PD, PSD_SINGULAR, INDEFINITE, NEGATIVE}}


def outcome(route, g):
    v = route(g)
    return v.kind, v.inertia, v.witness


@pytest.mark.parametrize("family", ORACLE_WEIGHTS)
def test_oracle_levels_match_the_reference_ldl(family):
    # the full route's levels 0-6 (the cross-check's, dim <= 11) and psi's p-levels 0-12
    l0, central, beta = ORACLE_WEIGHTS[family]
    alg, hw = GapVirasoro(2), HighestWeight.make(2, l0, central)
    theta = AntiInvolution.plus(2, 1, [beta])
    kinds = set()
    for module, top in ((VermaModule(alg, hw), 6),
                        (VermaModule(alg, shifted_weight(hw), Sector.virasoro()), 12)):
        for d in range(top + 1):
            g = gram(module, theta, d)
            got = outcome(definiteness, g)
            assert got == outcome(reference.definiteness, g), (family, module.sector, d)
            kinds.add(got[0])
    assert kinds == KINDS[family]


def test_deep_indefinite_virasoro_level():
    # gram --p 2 --l0 49/100 --c0 16/25 --sector virasoro --level 20
    module = VermaModule(GapVirasoro(2), HighestWeight.make(2, "49/100", ["16/25", "0"]),
                         Sector.virasoro())
    g = gram(module, AntiInvolution.plus(2), 20)
    got = outcome(definiteness, g)
    assert g.dim() == 42 and got[:2] == (INDEFINITE, (35, 7, 0)) and len(got[2]) == 24
    assert got == outcome(reference.definiteness, g)


@pytest.mark.parametrize("rows, hermitian", [
    ([["1", "1+i"], ["1+i", "2"]], False),  # symmetric, one entry not real
    ([["1", "0"], ["0", "2+i"]], False),
    ([["1", "1+i"], ["1-i", "-2"]], True),
    ([["1", "2"], ["3", "1"]], False),
    ([["1/2", "2"], ["2", "1/3"]], True),
    ([[1, 2], [3, 1]], False),  # int rows: against their transpose
    ([[0, 2], [2, 0]], True),
    ([[1, 2], [2, "1/2"]], True),  # one Fraction among ints
])
def test_hermiticity_is_read_off_the_rows(rows, hermitian):
    g = GramMatrix(0, [0, 1], [[scalar(v) if type(v) is str else v for v in row]
                               for row in rows], None)
    if not hermitian:
        with pytest.raises(GramIntegrityError):
            definiteness(g)
        return
    assert outcome(definiteness, g) == outcome(reference.definiteness, g)


WEIGHTS = {  # p -> (real weight, complex weight)
    2: (("1/3", ["5/2", "1"]), ("1/3+1/2*i", ["5/2-1/3*i", "1+i"])),
    3: (("1/4", ["9", "1"]), ("-1/5+1/7*i", ["2+1/2*i", "1/3-i"])),
    4: (("1/3", ["5", "-1", "2"]), ("1/2-1/4*i", ["3+i", "1/2", "2-1/2*i"])),
}
TOP = {2: 8, 3: 7, 4: 6}


def sector_modules(alg, hw):
    """The weight's module on each sector; the complement one at psi, as reducibility has it,
    of J = {1, p - 1}, which keeps I^2 at p = 4."""
    p = alg.p
    return {"full": VermaModule(alg, hw),
            "virasoro": VermaModule(alg, hw, Sector.virasoro()),
            "heisenberg": VermaModule(alg, hw, Sector.heisenberg(hw.j_set())),
            "complement": VermaModule(alg, shifted_weight(hw),
                                      Sector.complement(p, frozenset({1, p - 1})))}


@pytest.mark.parametrize("p", [2, 3, 4])
def test_table_direct_rows_match_the_evaluate_route(p):
    alg = GapVirasoro(p)
    thetas = [AntiInvolution.plus(p, 1, [b] * (p - 1)) for b in ("1", "-1", "3/5+4/5*i")]
    gaussian = False
    for weight in WEIGHTS[p]:
        hw = HighestWeight.make(p, *weight)
        for name, module in sector_modules(alg, hw).items():
            for theta in thetas:
                want = reference.gram_rows(module, theta, TOP[p])
                assert [gram(module, theta, d).rows for d in range(TOP[p] + 1)] == want, (
                    weight, name, theta.beta)
                gaussian = gaussian or any(type(v) is Scalar and int_parts(v)[1]
                                           for rows in want for row in rows for v in row)
    assert gaussian


def test_an_i_generator_outside_the_sector_acts_as_zero():
    # I^1 monomials only: theta(I_{-m}^1) = I_{m-1}^2 lies outside {1}, so every row is 0
    alg = GapVirasoro(3)
    module = VermaModule(alg, HighestWeight.make(3, "1/4", ["9", "1"]), Sector.heisenberg({1}))
    theta = AntiInvolution.plus(3)
    want = reference.gram_rows(module, theta, 8)
    assert [gram(module, theta, d).rows for d in range(9)] == want
    assert module.pbw_basis(5) and not any(v for rows in want[1:] for row in rows for v in row)


def test_an_l_generator_on_an_l_free_sector_still_raises(monkeypatch):
    alg = GapVirasoro(2)
    hw = HighestWeight.make(2, "1/3", ["5/2", "1"])
    module = VermaModule(alg, hw, Sector.heisenberg(hw.j_set()))
    with pytest.raises(ConfigError, match="L-generators"):
        module.evaluate(alg.L(1), 0)
    # gram meets an L generator only through theta, so send every factor to L_1
    monkeypatch.setattr(AntiInvolution, "image_of", lambda self, g: (Gen(KIND_L, 1), ONE))
    with pytest.raises(ConfigError, match="L-generators"):
        gram(module, AntiInvolution.plus(2), 1)


def test_equal_thetas_give_identical_rows(monkeypatch):
    module = VermaModule(GapVirasoro(2), HighestWeight.make(2, "1/16", ["5/2", "1"]))
    first, second = AntiInvolution.plus(2, 1, ["-1"]), AntiInvolution.plus(2, 1, ["-1"])
    assert first == second and first is not second
    # gram keys its cache by the object, never by hashing theta
    monkeypatch.setattr(AntiInvolution, "__hash__", lambda self: 1 / 0)
    rows = [gram(module, first, d).rows for d in range(7)]
    assert [gram(module, second, d).rows for d in range(7)] == rows
    assert [gram(module, first, d).rows for d in range(7)] == rows


def test_psi_is_computed_once_per_verdict(monkeypatch):
    calls = []
    weight_sum = oscillator.gap_weight_sum
    monkeypatch.setattr(oscillator, "gap_weight_sum",
                        lambda p, j_set: calls.append(p) or weight_sum(p, j_set))
    l0, central, beta = ORACLE_WEIGHTS["discrete"]
    hw = HighestWeight.make(2, l0, central)
    report = unitarity_verdict(GapVirasoro(2), hw, [beta], 12)
    assert report["agreement"] and report["clauses"]["discreteSeries"] and len(calls) == 1
    assert shifted_weight(hw) is shifted_weight(hw) and len(calls) == 1


def test_discrete_series_match_on_ints_matches_the_fraction_route():
    # hits for m = 2..40 shifted by J's vacuum, then near misses, c' >= 1, h' < 0, complex
    rng = random.Random(2929)
    cases = []
    for p in (2, 3, 4):
        for m in range(2, 41):
            for r, s in ((0, 1), (rng.randrange(m - 1), m - 1), (m // 2, m - 1)):
                for pt in discrete_series(p, range(1, p), m):
                    if (pt["r"], pt["s"]) == (r, s) or rng.random() < 0.02:
                        cases.append((p, pt["l0"], pt["c0"]))
    hits = len(cases)
    for _ in range(400):
        p, l0, c0 = rng.choice(cases[:hits])
        nudge = Scalar(rng.choice((-1, 1)), 0, rng.choice((7, 96, 10 ** 6)))
        cases.append((p, l0 + nudge if rng.random() < 0.5 else l0, c0 + nudge))
    cases += [(2, Scalar(-1, 0, 16), Scalar(3, 0, 2)), (2, Scalar(1, 0, 16), Scalar(5, 0, 2)),
              (2, Scalar(1, 0, 16), Scalar(3, 1, 2)), (3, Scalar(1, 1, 9), Scalar(5, 0, 2)),
              (2, Scalar(0), Scalar(2)), (2, Scalar(0), Scalar(-100))]
    for p, l0, c0 in cases:
        hw = HighestWeight(p, l0, (c0,) + (ONE,) * (p // 2))
        assert discrete_series_match(hw) == reference.discrete_series_match(hw), (p, l0, c0)
    assert sum(discrete_series_match(HighestWeight(p, l0, (c0,) + (ONE,) * (p // 2))) is not None
               for p, l0, c0 in cases) >= hits
