import random
from fractions import Fraction

import pytest

from gapvir.algebra import AntiInvolution, GapVirasoro
from gapvir.errors import GramIntegrityError, UnsupportedInvolutionError
from gapvir.linalg import rank
from gapvir.forms import (INDEFINITE, NEGATIVE, PD, PSD_SINGULAR,
                          GramMatrix, definiteness, gram, kac_factor, kac_scan,
                          kac_wall_inertia, kac_zeros, phi_virasoro,
                          reducibility_report, split_check_level, virasoro_module)
from gapvir.oscillator import gap_weight_sum, shifted_weight
from gapvir.scalars import Scalar, scalar
from gapvir.verma import HighestWeight, ModuleVector, Sector, VermaModule
from reference import pairing


def hermitian(entries):
    entries = [[scalar(v) for v in row] for row in entries]
    return GramMatrix(0, list(range(len(entries))), entries, None)


def test_gram_level_one_diagonal():
    alg = GapVirasoro(2)
    hw = HighestWeight.make(2, "1/16", ["2", "1"])
    module = VermaModule(alg, hw)
    g = gram(module, AntiInvolution.plus(2), 1)
    assert g.to_strings() == [["1/2"]]


def test_gram_virasoro_depth_one():
    alg = GapVirasoro(2)
    hw = HighestWeight.make(2, "3/7", ["1", "0"])
    module = VermaModule(alg, hw, Sector.virasoro())
    g = gram(module, AntiInvolution.plus(2), 2)
    assert g.to_strings() == [["6/7"]]  # 2 * phi(L_0)


def test_gram_level_zero_normalization():
    alg = GapVirasoro(3)
    module = VermaModule(alg, HighestWeight.make(3, "2", ["5", "1"]))
    g = gram(module, AntiInvolution.plus(3), 0)
    assert g.to_strings() == [["1"]]


def test_gram_rejects_minus_involution():
    alg = GapVirasoro(2)
    module = VermaModule(alg, HighestWeight.make(2, "0", ["1", "1"]))
    with pytest.raises(UnsupportedInvolutionError):
        gram(module, AntiInvolution.minus(2, 1, ["i"]), 1)


def test_definiteness_verdicts():
    assert definiteness(hermitian([["1/2"]])).kind == PD
    v = definiteness(hermitian([["0"]]))
    assert v.kind == PSD_SINGULAR and v.kernel_dim == 1
    assert definiteness(hermitian([["1", "2"], ["2", "1"]])).kind == INDEFINITE
    assert definiteness(hermitian([["-1"]])).kind == NEGATIVE
    assert definiteness(hermitian([["-1", "0"], ["0", "-2"]])).kind == NEGATIVE
    assert definiteness(hermitian([])).kind == PD


def test_definiteness_zero_diagonal_block():
    # all-zero diagonal with a coupling: one positive and one negative direction
    v = definiteness(hermitian([["0", "1*i"], ["-1*i", "0"]]))
    assert v.kind == INDEFINITE and v.inertia == (1, 1, 0)
    v = definiteness(hermitian([["0", "2"], ["2", "0"]]))
    assert v.kind == INDEFINITE and set(v.witness) == {0, 1}


def test_definiteness_mixed_with_kernel():
    v = definiteness(hermitian([["1", "0", "0"], ["0", "0", "0"], ["0", "0", "-3"]]))
    assert v.kind == INDEFINITE and v.inertia == (1, 1, 1)


def test_definiteness_requires_hermitian():
    with pytest.raises(GramIntegrityError):
        definiteness(hermitian([["0", "1"], ["2", "0"]]))
    with pytest.raises(GramIntegrityError):
        definiteness(hermitian([["1*i"]]))


def _real_symmetric(rng, n):
    """Seeded real symmetric matrix: full, low-rank, or with a forced zero diagonal."""
    shape = rng.choice(("full", "low-rank", "zero-diagonal"))
    if shape == "low-rank":
        vecs = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(0, n - 1))]
        signs = [rng.choice((-1, 1)) for _ in vecs]
        return [[Scalar(sum(s * v[a] * v[b] for s, v in zip(signs, vecs)))
                 for b in range(n)] for a in range(n)]
    m = [[Scalar(0)] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            if a == b and shape == "zero-diagonal":
                continue
            m[a][b] = m[b][a] = Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    return m


UNIT_GAUSSIAN = ["1", "-1", "i", "3/5+4/5*i", "5/13-12/13*i", "-8/17+15/17*i"]


def test_definiteness_agrees_with_kernel_rank():
    # row reduction is the reference the LDL kernel dimension is checked against
    rng = random.Random(31)
    matrices = []
    for _ in range(40):
        n = rng.randint(1, 5)
        raw = [[Scalar(rng.randint(-3, 3), rng.randint(-2, 2)) for _ in range(n)]
               for _ in range(n)]
        entries = [[(raw[a][b] + raw[b][a].conj()) * scalar("1/2") for b in range(n)]
                   for a in range(n)]
        matrices.append(GramMatrix(0, list(range(n)), entries, None))
    # Gram levels with partial J, singular from level 1 on
    module = VermaModule(GapVirasoro(4), HighestWeight.make(4, "0", ["1", "0", "1"]))
    matrices += [gram(module, AntiInvolution.plus(4), d) for d in range(7)]
    # real symmetric M (integer rows) against D M D* with D diagonal and
    # unit-modulus (Gaussian integer rows): same pivots, so the same verdict
    for _ in range(60):
        n = rng.randint(1, 10)
        m = _real_symmetric(rng, n)
        unit = [scalar(rng.choice(UNIT_GAUSSIAN)) for _ in range(n)]
        twisted = [[unit[a] * m[a][b] * unit[b].conj() for b in range(n)] for a in range(n)]
        real_v = definiteness(hermitian(m))
        complex_v = definiteness(hermitian(twisted))
        assert (real_v.kind, real_v.kernel_dim, real_v.witness, real_v.inertia) == \
            (complex_v.kind, complex_v.kernel_dim, complex_v.witness, complex_v.inertia)
        matrices += [hermitian(m), hermitian(twisted)]
    for g in matrices:
        n = g.dim()
        v = definiteness(g)
        assert sum(v.inertia) == n
        assert v.inertia[2] == n - rank(g.entries, n)


def descartes_inertia(entries):
    """Inertia of a Hermitian matrix from its characteristic polynomial.

    The polynomial is real-rooted, so Descartes' sign count is exact: the sign
    changes of its coefficients count the positive eigenvalues, and those of
    p(-x) the negative ones.  Coefficients by Faddeev-LeVerrier.
    """
    n = len(entries)
    coeffs = [Scalar(1)]  # x^n, x^(n-1), ..., x^0
    m = [[Scalar(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = [[sum((entries[a][t] * m[t][b] for t in range(n)), Scalar(0))
              + (coeffs[-1] if a == b else Scalar(0)) for b in range(n)] for a in range(n)]
        trace = sum((entries[a][t] * m[t][a] for a in range(n) for t in range(n)), Scalar(0))
        coeffs.append(trace * Scalar(Fraction(-1, k)))

    def changes(values):
        signs = [v.re > 0 for v in values if v]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    pos = changes(coeffs)
    neg = changes([c if k % 2 == 0 else -c for k, c in enumerate(coeffs)])
    return pos, neg, n - pos - neg


def test_size_pivoted_ldl_inertia_matches_the_characteristic_polynomial():
    rng = random.Random(4409)
    for case in range(60):
        n = rng.randint(1, 6)
        m = _real_symmetric(rng, n)
        if case % 2:
            unit = [scalar(rng.choice(UNIT_GAUSSIAN)) for _ in range(n)]
            m = [[unit[a] * m[a][b] * unit[b].conj() for b in range(n)] for a in range(n)]
        # spread the entry sizes so the smallest and the largest diagonal differ
        scale = [Scalar(Fraction(rng.choice((1, 3, 97)), rng.choice((1, 5, 128))))
                 for _ in range(n)]
        m = [[scale[a] * m[a][b] * scale[b] for b in range(n)] for a in range(n)]
        assert definiteness(hermitian(m)).inertia == descartes_inertia(m), m


GRAM_CASES = [
    (2, "1/16", ["5/2", "1"], None, None),
    (3, "1/4", ["9", "1"], None, None),
    (4, "1/3", ["5", "1", "2"], None, None),
    (4, "0", ["1", "0", "1"], None, None),                    # partial J = {2}
    (2, "3/7", ["1", "0"], "virasoro", None),
    (3, "2/5", ["4", "3"], "heisenberg", None),
    (2, "1", ["3", "1/5"], None, ["3/5-4/5*i"]),             # not Hermitian
]


@pytest.mark.parametrize("p, l0, central, sector, beta", GRAM_CASES)
def test_gram_matches_per_entry_pairing(p, l0, central, sector, beta):
    hw = HighestWeight.make(p, l0, central)
    sectors = {None: None, "virasoro": Sector.virasoro(),
               "heisenberg": Sector.heisenberg(hw.j_set())}
    theta = AntiInvolution.plus(p, 1, beta)
    module = VermaModule(GapVirasoro(p), hw, sectors[sector])
    levels = [gram(module, theta, d) for d in range(7)]
    for d, g in enumerate(levels):
        for a, x in enumerate(g.basis):
            for b, y in enumerate(g.basis):
                assert g.entries[a][b] == pairing(module, theta, module.basis_vector(x),
                                                  module.basis_vector(y)), (d, x, y)
    # a fresh module asked for level 6 first builds the same matrix
    fresh = VermaModule(GapVirasoro(p), hw, sectors[sector])
    assert gram(fresh, theta, 6).entries == levels[6].entries


def test_gram_cache_is_kept_per_theta():
    module = VermaModule(GapVirasoro(2), HighestWeight.make(2, "1/16", ["5/2", "1"]))
    plus_one, minus_one = AntiInvolution.plus(2, 1, ["1"]), AntiInvolution.plus(2, 1, ["-1"])
    first = [gram(module, plus_one, d).entries for d in range(5)]
    second = [gram(module, minus_one, d).entries for d in range(5)]
    assert [gram(module, plus_one, d).entries for d in range(5)] == first
    # beta enters through I-factors only: the single I_{-1}^1 entry flips sign
    assert second[1] == [[-v for v in row] for row in first[1]]
    assert second[2] == first[2] and second[3] != first[3]
    for theta, levels in ((plus_one, first), (minus_one, second)):
        for d, rows in enumerate(levels):
            basis = module.pbw_basis(d)
            assert rows == [[pairing(module, theta, module.basis_vector(x),
                                     module.basis_vector(y)) for y in basis] for x in basis]


def test_gram_is_hermitian_on_computed_levels():
    alg = GapVirasoro(2)
    hw = HighestWeight.make(2, "1/3", ["5/2", "1"])
    module = VermaModule(alg, hw)
    theta = AntiInvolution.plus(2)
    for d in range(6):
        assert gram(module, theta, d).is_hermitian()


def test_gram_hermitian_with_complex_beta():
    alg = GapVirasoro(2)
    hw = HighestWeight.make(2, "1", ["3", "1/5"])
    beta = ["3/5-4/5*i"]
    # beta * phi(C_1) is not real: the computed matrix must fail Hermitianity
    theta = AntiInvolution.plus(2, 1, beta)
    g = gram(module := VermaModule(alg, hw), theta, 1)
    assert not g.is_hermitian()


def test_contravariance_spot_check():
    # <g x, y> = <x, theta(g) y> for generators across neighbouring levels
    alg = GapVirasoro(2)
    hw = HighestWeight.make(2, "1/16", ["2", "1"])
    module = VermaModule(alg, hw)
    theta = AntiInvolution.plus(2)
    rng = random.Random(77)
    gens = [alg.L(-2), alg.L(-1), alg.L(1), alg.L(2), alg.I(-1, 1), alg.I(0, 1),
            alg.I(-2, 1), alg.I(1, 1)]
    for d in range(1, 6):
        y_basis = module.pbw_basis(d)
        for g in gens:
            # g shifts the p-level by -w, so pick x at the matching source level
            w = int(-alg.weight_of(g) * 2)
            src = d + w
            if src < 0:
                continue
            src_basis = module.pbw_basis(src)
            if not src_basis:
                continue
            x = ModuleVector(module, {m: Scalar(rng.randint(-3, 3), rng.randint(-2, 2))
                                      for m in src_basis})
            gh, ch = theta.image_of(g)
            for y_mono in y_basis:
                y = module.basis_vector(y_mono)
                lhs = pairing(module, theta, module.act(g, x), y)
                rhs = pairing(module, theta, x, ch * module.act(gh, y))
                assert lhs == rhs


def test_block_diagonality_across_levels():
    alg = GapVirasoro(2)
    hw = HighestWeight.make(2, "1/16", ["2", "1"])
    module = VermaModule(alg, hw)
    theta = AntiInvolution.plus(2)
    x = module.basis_vector(module.pbw_basis(3)[0])
    y = module.basis_vector(module.pbw_basis(2)[0])
    assert pairing(module, theta, x, y).is_zero()
    assert pairing(module, theta, y, x).is_zero()


def test_phi_virasoro_values():
    assert phi_virasoro(0, "7/5", 1, 1).is_zero()
    assert phi_virasoro(1, 13, 1, 2) == scalar("45/16")
    # equal indices give a perfect square
    for a in (1, 2, 3):
        for h, c in (("1/3", "2"), ("-1", "26")):
            root = (scalar(h) + Scalar(Fraction(a * a - 1, 24)) * (scalar(c) - 13)
                    + Scalar(Fraction(a * a - 1, 2)))
            assert phi_virasoro(h, c, a, a) == root * root


def literal_gap_factor(hw, a, b):
    """The gap-p linear factor as the paper writes it for full J, without the split:

    4 L_0 - 4 sum_{0<j<p} j(p-j)/(4p^2) + (a^2-1)/6 (C_0 - (p+12)) + 2(ab-1).
    """
    p = hw.p
    vacuum = sum(Fraction(j * (p - j), 4 * p * p) for j in range(1, p))
    return (4 * (hw.l0 - vacuum) + Fraction(a * a - 1, 6) * (hw.c_value(0) - (p + 12))
            + 2 * (a * b - 1))


def literal_gap_zeros(hw, max_ab):
    return [[a, b] for a in range(1, max_ab + 1) for b in range(1, max_ab // a + 1)
            if (literal_gap_factor(hw, a, b) * literal_gap_factor(hw, b, a)
                + (a * a - b * b) ** 2).is_zero()]


def psi_zeros(hw, max_ab):
    psi = shifted_weight(hw)
    return kac_zeros(psi.l0, psi.c_value(0), max_ab)


def test_phi_gap_values():
    # the gap-p linear factor is 4 kac_factor at psi = shifted_weight(hw)
    for hw, a, b, value in ((HighestWeight.make(2, "1/16", ["2", "1"]), 1, 1, "0"),
                            (HighestWeight.make(2, "0", ["14", "1"]), 2, 1, "7/4"),
                            (HighestWeight.make(3, "1/4", ["9", "1"]), 1, 1, "5/9")):
        psi = shifted_weight(hw)
        assert 4 * kac_factor(psi.l0, psi.c_value(0), a, b) == scalar(value)
        assert literal_gap_factor(hw, a, b) == scalar(value)


def test_phi_gap_criterion_zero_scan():
    hw = HighestWeight.make(2, "1/16", ["2", "1"])
    assert [1, 1] in psi_zeros(hw, 4)
    psi = shifted_weight(hw)
    assert phi_virasoro(psi.l0, psi.c_value(0), 1, 1).is_zero()


def test_kac_zeros_at_psi_match_the_literal_gap_criterion():
    # seeded full-J weights, half of them lifted from a Kac zero
    # h = ((a t - b)^2 - (t - 1)^2)/(4t) at c = 13 - 6(t + 1/t)
    rng = random.Random(20260)
    hit = 0
    for _ in range(120):
        p = rng.randint(2, 5)
        t = Fraction(rng.randint(1, 6), rng.randint(1, 6))
        if rng.random() < 0.5:
            a, b = rng.randint(1, 4), rng.randint(1, 4)
            h, c = ((a * t - b) ** 2 - (t - 1) ** 2) / (4 * t), 13 - 6 * (t + 1 / t)
        else:
            h, c = Fraction(rng.randint(-8, 8), rng.randint(1, 8)), 13 - 6 * t
        vacuum = sum(Fraction(j * (p - j), 4 * p * p) for j in range(1, p))
        central = [c + p - 1] + [Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
                                 for _ in range(p // 2)]
        hw = HighestWeight.make(p, h + vacuum, central)
        assert hw.j_set() == frozenset(range(1, p))
        zeros = psi_zeros(hw, 12)
        assert zeros == literal_gap_zeros(hw, 12)
        hit += bool(zeros)
    assert hit >= 40


def test_reducibility_virasoro_weight_zero():
    alg = GapVirasoro(2)
    module = virasoro_module(alg, 0, 1)
    report = reducibility_report(module, 4)
    assert report["firstSingularLevel"] == 2
    assert report["levels"][0]["gramKernel"] == 0


def test_reducibility_routes_agree_at_first_level():
    alg = GapVirasoro(2)
    samples = [
        HighestWeight.make(2, "1/16", ["3/2", "1"]),   # discrete point
        HighestWeight.make(2, "1/16", ["2", "1"]),     # continuum boundary
        HighestWeight.make(2, "5/7", ["3", "1"]),      # interior, irreducible window
    ]
    for hw in samples:
        module = VermaModule(alg, hw)
        report = reducibility_report(module, 6)
        first = report["firstSingularLevel"]
        for entry in report["levels"]:
            assert entry["gramKernel"] >= entry["singular"]
            if first is not None and entry["d"] == first:
                assert entry["gramKernel"] == entry["singular"]


@pytest.mark.parametrize("p, central", [(2, ["1", "1"]), (2, ["1", "-1"]), (3, ["1", "2"]),
                                        (4, ["1", "0", "1"]), (4, ["1", "1", "0"])])
def test_reducibility_heisenberg_sector_routes_agree_at_every_level(p, central):
    # an L-free sector has no L_1 to shift I-modes up, so its raising set must
    # list them all; then both routes find the irreducible Fock module
    alg = GapVirasoro(p)
    hw = HighestWeight.make(p, "0", central)
    report = reducibility_report(VermaModule(alg, hw, Sector.heisenberg(hw.j_set())), 8)
    for entry in report["levels"]:
        assert entry["singular"] == entry["gramKernel"] == 0, entry
    assert report["firstSingularLevel"] is None


def test_reducibility_cross_checks_criterion_zero_set():
    # for full-J real weights, a singular vector in the level window matches
    # a zero of the combined criterion in the aligned index window
    alg = GapVirasoro(2)
    weights = [("1/16", "2"), ("5/7", "3"), ("1/8", "3/2"), ("0", "2")]
    for l0, c0 in weights:
        hw = HighestWeight.make(2, l0, [c0, "1"])
        module = VermaModule(alg, hw)
        rep = reducibility_report(module, 8, max_ab=4)
        assert rep["phiCriterion"]["applicable"]
        has_zero = bool(rep["phiCriterion"]["zeros"])
        assert has_zero == (rep["firstSingularLevel"] is not None), (l0, c0, rep)


@pytest.mark.parametrize("sector", ["heisenberg", "virasoro"])
def test_phi_criterion_not_applicable_on_restricted_sector(sector):
    # (1/16; 3/2, 1) zeroes the full module's criterion at (1, 1); a restricted
    # sector of that weight has no singular vector in the window
    alg = GapVirasoro(2)
    hw = HighestWeight.make(2, "1/16", ["3/2", "1"])
    restricted = (Sector.heisenberg(hw.j_set()) if sector == "heisenberg"
                  else Sector.virasoro())
    rep = reducibility_report(VermaModule(alg, hw, restricted), 6, max_ab=4)
    assert rep["phiCriterion"] == {"applicable": False, "zeros": []}
    assert rep["firstSingularLevel"] is None
    full = reducibility_report(VermaModule(alg, hw), 2, max_ab=4)
    assert full["phiCriterion"] == {"applicable": True, "zeros": [[1, 1]]}


def test_kac_scan_direction_on_small_grid():
    alg = GapVirasoro(2)
    h_values = [Fraction(k, 16) for k in range(0, 17)]
    report = kac_scan(alg, [Fraction(1, 2)], h_values, 2, 2)
    grid = report["grid"][0]
    assert report["setsEqual"]
    assert grid["criterionZeroWeights"] == ["0", "1/16", "1/2"]


def seeded_weight(rng, p, family):
    """A real weight at p: full J generic, full J with psi on a Kac zero, or partial J."""
    vacuum = sum(Fraction(j * (p - j), 4 * p * p) for j in range(1, p))
    central = [Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 4))
               for _ in range(p // 2)]
    if family == "partial":
        # p = 4 drops C_1 or C_2; at p = 2, 3 the only partial J is empty
        if p == 4:
            central[rng.randrange(2)] = 0
        else:
            central = [0] * len(central)
        return HighestWeight.make(p, Fraction(rng.randint(-4, 8), 8),
                                  [Fraction(rng.randint(1, 12), 4)] + central)
    if family == "kac-zero":
        t = rng.choice((Fraction(2), Fraction(3), Fraction(3, 2), Fraction(5, 2), Fraction(4, 3)))
        r = rng.randint(1, 8 // p)
        s = rng.randint(1, 8 // p // r)
        h, c = ((r * t - s) ** 2 - (t - 1) ** 2) / (4 * t), 13 - 6 * (t + 1 / t)
    else:
        h, c = Fraction(rng.randint(0, 32), 16), Fraction(rng.randint(-8, 20), 4)
    return HighestWeight.make(p, h + vacuum, [c + p - 1] + central)


@pytest.mark.parametrize("p", [2, 3, 4])
@pytest.mark.parametrize("family", ["generic", "kac-zero", "partial"])
def test_split_reducibility_matches_the_brute_routes(p, family):
    rng = random.Random("%d/%s" % (p, family))
    alg = GapVirasoro(p)
    theta = AntiInvolution.plus(p)
    for _ in range(2):
        hw = seeded_weight(rng, p, family)
        assert (hw.j_set() == frozenset(range(1, p))) == (family != "partial")
        report = reducibility_report(VermaModule(alg, hw), 8)
        assert report["crossCheck"] == {"bruteMaxLevel": split_check_level(p, 8),
                                        "agreement": True}
        brute = VermaModule(alg, hw)
        for d, entry in enumerate(report["levels"]):
            verdict = definiteness(gram(brute, theta, d))
            sing = len(brute.singular_vectors(d)) if d else 0
            assert entry == {"d": d, "dim": len(brute.pbw_basis(d)), "singular": sing,
                             "gramKernel": verdict.kernel_dim, "verdict": verdict.kind}, (hw, d)
        if family == "kac-zero":
            assert report["firstSingularLevel"] is not None



def kac_h(t, r, s):
    """h_{r,s} at central charge 13 - 6(t + 1/t)."""
    return ((r * t - s) ** 2 - (t - 1) ** 2) / (4 * t)


def complement_weight(rng, p, family):
    """A weight at p and the p-level of a singular vector it must have (or None).

    Families: full J, partial J, complex L_0, complex C_j, psi on h_{1,1} = 0,
    and psi on a complex Kac zero h_{r,s}(t), c' = 13 - 6(t + 1/t), t complex.
    """
    central = [Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 4)) for _ in range(p // 2)]
    if family == "partial":
        # p >= 4 keeps one C_j; at p = 2, 3 the only partial J is empty
        keep = rng.randrange(len(central)) if p >= 4 else None
        central = [c if k == keep else 0 for k, c in enumerate(central)]
    central = [Scalar(c) for c in central]
    if family == "complex-cj":
        k = rng.randrange(len(central))
        central[k] = Scalar(central[k].re, Fraction(rng.choice((-1, 1)), rng.randint(1, 3)))
    j_set = frozenset(i for i in range(1, p) if central[min(i, p - i) - 1])
    vacuum = gap_weight_sum(p, j_set)
    h, c, level = Scalar(Fraction(rng.randint(-8, 16), 8)), Fraction(rng.randint(-8, 20), 4), None
    if family == "complex-l0":
        h = Scalar(h.re, Fraction(rng.choice((-1, 1)), rng.randint(1, 4)))
    elif family == "h11":
        h, level = Scalar(0), p
    elif family == "complex-kac":
        t = Scalar(rng.randint(1, 3), Fraction(rng.choice((-1, 1)), rng.randint(1, 3)))
        r = rng.randint(1, 8 // p)
        s = rng.randint(1, 8 // p // r)
        h, c, level = kac_h(t, r, s), 13 - 6 * (t + 1 / t), p * r * s
    return HighestWeight.make(p, h + vacuum, [c + len(j_set)] + central), level


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_complement_sector_carries_every_singular_vector(p):
    # M(phi) = Fock(J) (x) M_rest(psi) with Fock(J) irreducible: the full
    # module's singular vectors are vacuum (x) those of psi's complement sector
    rng = random.Random("complement/%d" % p)
    alg = GapVirasoro(p)
    for family in ("full", "partial", "complex-l0", "complex-cj", "h11", "complex-kac"):
        for _ in range(3):
            hw, level = complement_weight(rng, p, family)
            assert (hw.j_set() == frozenset(range(1, p))) == (family != "partial")
            assert hw.is_real() == (family in ("full", "partial", "h11"))
            full = VermaModule(alg, hw)
            rest = VermaModule(alg, shifted_weight(hw), Sector.complement(p, hw.j_set()))
            for d in range(1, 9):
                count = len(full.singular_vectors(d))
                assert len(rest.singular_vectors(d)) == count, (hw, d)
                assert count or d != level, (hw, d)


@pytest.mark.parametrize("p, l0, central", [(2, "1/2+i", ["1", "1"]),
                                            (3, "1/3", ["4+1/2*i", "1"]),
                                            (4, "1/3+1/2*i", ["1", "0", "1"])])
def test_complex_reducibility_cross_checks_its_singular_counts(p, l0, central):
    alg = GapVirasoro(p)
    hw = HighestWeight.make(p, l0, central)
    report = reducibility_report(VermaModule(alg, hw), 8)
    assert report["crossCheck"] == {"bruteMaxLevel": split_check_level(p, 8), "agreement": True}
    brute = VermaModule(alg, hw)
    for entry in report["levels"]:
        d = entry["d"]
        assert entry["singular"] == (len(brute.singular_vectors(d)) if d else 0), (hw, d)
        assert entry["gramKernel"] is None and entry["verdict"] is None


def test_kac_wall_certificates_match_the_ldl():
    # every certified Virasoro level up to 8 against the LDL: random points at
    # c = 1, c = 25, c < 1, 1 < c < 25 and c > 25, the wall points h_{r,s}, and
    # the vertices -(A + B)/2 of the wall quadratics
    rng = random.Random("kac-wall")
    alg = GapVirasoro(2)
    theta = AntiInvolution.plus(2)
    points = [(Fraction(rng.randint(-48, 48), rng.choice((1, 2, 3, 8, 16))), c)
              for c in (Fraction(1), Fraction(25), Fraction(1, 2), Fraction(-2),
                        Fraction(7, 10), Fraction(3, 2), Fraction(26))
              for _ in range(5)]
    on_wall = []
    for t in (Fraction(3, 2), Fraction(4, 3), Fraction(5, 2), Fraction(1), Fraction(-2)):
        for r, s in ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 2)):
            on_wall.append((kac_h(t, r, s), 13 - 6 * (t + 1 / t), r * s))
    for c in (Fraction(1), Fraction(25), Fraction(1, 2), Fraction(3, 2), Fraction(26)):
        for a, b in ((1, 2), (1, 3), (2, 3), (2, 2)):
            points.append((-(kac_factor(0, c, a, b) + kac_factor(0, c, b, a)).re / 2, c))
    kinds = set()
    for h, c, wall in [(h, c, None) for h, c in points] + on_wall:
        module = virasoro_module(alg, h, c)
        certified = kac_wall_inertia(module.hw, 8)
        assert certified[0] == (1, 0, 0)
        for n, triple in enumerate(certified[1:], 1):
            assert triple == definiteness(gram(module, theta, 2 * n)).inertia, (h, c, n)
            kinds.add("positive-definite" if triple[1] == 0 else "parity")
        if wall is not None:
            # the wall through h' enters at level rs, which only the LDL decides
            assert len(certified) <= wall, (h, c, wall)
    assert kinds == {"positive-definite", "parity"}
