"""The tabulated window checks agree with the per-pair references in reference.py."""

import random
from fractions import Fraction

import pytest

from gapvir.algebra import (AntiInvolution, GapVirasoro, involution_axiom_report,
                            sample_involution)
from gapvir.errors import ConfigError
from gapvir.scalars import Scalar
from gapvir.series import FMatrix, SeriesModule, delta_form_contravariant, validate_f
import reference as ref


def rand_q(rng, nonzero=False):
    while True:
        q = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if q or not nonzero:
            return q


def rand_scalar(rng, nonzero=False, real=False):
    while True:
        s = Scalar(rand_q(rng), rand_q(rng) if not real and rng.random() < 0.3 else 0)
        if s or not nonzero:
            return s


def valid_rows(rng, p, real=False):
    """F(i, j) = lambda_i mu_{i+j} / mu_j: compatible, and closed since no entry is 0."""
    lam = [None] + [rand_scalar(rng, True, real) for _ in range(1, p)]
    mu = [rand_scalar(rng, True, real) for _ in range(p)]
    return [[lam[i] * mu[(i + j) % p] / mu[j] for j in range(p)] for i in range(1, p)]


def outcome(check, *args):
    try:
        return "returns", check(*args)
    except ConfigError as exc:
        return "raises", str(exc)


# reference cost grows as (window * p)^2 * window * p, so the larger p get the smaller windows
VALID_WINDOWS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)]


@pytest.mark.parametrize("p, window", VALID_WINDOWS)
@pytest.mark.parametrize("real", [True, False])
def test_axiom_check_matches_reference_on_valid_f(p, window, real):
    # a real module is checked on integers scaled by a common denominator
    rng = random.Random(1000 * p + window)
    f = FMatrix.make(p, valid_rows(rng, p, real))
    assert validate_f(f) == []
    b = rand_scalar(rng, False, True) if real else Scalar(rand_q(rng), 1)
    module = SeriesModule(GapVirasoro(p), rand_scalar(rng, False, real), b, f)
    assert module.axiom_check(window) == ref.axiom_check(module, window) == {
        "pass": True, "witness": None}


def test_axiom_check_matches_reference_on_a_partial_column_set():
    # rows {2}, columns {0, 2} at p = 4: closed and compatible, with zero images
    f = FMatrix.make(4, [["0"] * 4, ["3", "0", "-1/2", "0"], ["0"] * 4])
    assert validate_f(f) == [] and f.col_set() == [0, 2]
    module = SeriesModule(GapVirasoro(4), "2/5", "1/2+1*i", f)
    for window in (1, 2, 3):
        assert module.axiom_check(window) == ref.axiom_check(module, window)


def test_axiom_check_matches_reference_where_the_l_action_vanishes():
    # integer a and b make -(a + k + j/p + b n) vanish inside the window
    for p, a, b in ((2, "0", "1"), (2, "-1", "0"), (3, "1", "1"), (3, "-2", "2")):
        module = SeriesModule(GapVirasoro(p), a, b,
                              FMatrix.make(p, valid_rows(random.Random(p), p, real=True)))
        assert module.axiom_check(2) == ref.axiom_check(module, 2) == {
            "pass": True, "witness": None}


def test_axiom_check_matches_reference_on_single_entry_corruptions():
    # a and b off the unitary line; each corruption changes one entry of a valid F
    # (real a and b, and a zeroed entry of a real F, take the scaled integer route)
    kinds = set()
    for p, real in ((2, False), (2, True), (3, False), (3, True)):
        rng = random.Random(7 + p)
        rows = valid_rows(rng, p, real)
        for i in range(p - 1):
            for j in range(p):
                for new in (Scalar(0), rows[i][j] + Scalar(0, 1), 3 * rows[i][j]):
                    bad = [list(r) for r in rows]
                    bad[i][j] = new
                    module = SeriesModule(GapVirasoro(p), Scalar(rand_q(rng), 0 if real else 1),
                                          Scalar(rand_q(rng), 0 if real else rand_q(rng)),
                                          FMatrix.make(p, bad), allow_invalid=True)
                    got = outcome(module.axiom_check, 1)
                    assert got == outcome(ref.axiom_check, module, 1), (p, i, j, new)
                    kinds.add(got[0] if got[0] == "raises" else got[1]["pass"])
    assert kinds == {"raises", False, True}


@pytest.mark.parametrize("g, k, j", [("L", 2, 0), ("L", -2, 1), ("I", -2, 1), ("I", 2, 0),
                                     ("L0", 0, 1)])
def test_axiom_check_finds_the_first_failure_of_one_wrong_image(g, k, j, monkeypatch):
    # one wrong (generator, k, j) image: the witness is the first comparison it
    # breaks, on the scaled integer route (real b) and on the Scalar one
    alg = GapVirasoro(2)
    target = {"L": alg.L(k), "I": alg.I(k, 1), "L0": alg.L(0)}[g]
    act_basis = SeriesModule.act_basis

    def skewed(self, gen, kk, jj):
        coeff, to = act_basis(self, gen, kk, jj)
        return (coeff + 1, to) if (gen, kk, jj) == (target, k, j) else (coeff, to)

    monkeypatch.setattr(SeriesModule, "act_basis", skewed)
    for b in ("1/2", "1/2+1*i"):
        module = SeriesModule(alg, "1/3", b, FMatrix.make(2, [["1", "-2"]]))
        got = module.axiom_check(2)
        assert not got["pass"]
        assert got == ref.axiom_check(module, 2, ref.module_action)


def test_axiom_check_brackets_every_window_pair_in_order(monkeypatch):
    alg = GapVirasoro(3)
    module = SeriesModule(alg, "1/3", "1/2", FMatrix.make(3, [["1"] * 3] * 2))
    asked = []
    bracket_gens = GapVirasoro.bracket_gens

    def spy(self, a, b):
        asked.append((a, b))
        return bracket_gens(self, a, b)

    monkeypatch.setattr(GapVirasoro, "bracket_gens", spy)
    assert module.axiom_check(2)["pass"]
    gens = alg.basis_window(-2, 2)
    assert asked == [(gx, gy) for gx in gens for gy in gens]


DELTA_CASES = [
    (2, "1/3", "1/2", [["1", "1"]], ["1"], True),
    (2, "1/3", "1/2", [["1", "1"]], ["-1"], False),
    (2, "-2/5", "1/2", [["1", "-1"]], ["-1"], True),
    (2, "-2/5", "1/2", [["1", "-1"]], ["1"], False),
    (2, "1/4", "1/2", [["1", "1*i"]], ["-1*i"], True),
    (2, "1/4", "1/2", [["1", "1*i"]], ["1*i"], False),
    (3, "2/7", "1/2", [["1", "1", "1"], ["1", "1", "1"]], ["1", "1"], True),
    (3, "2/7", "1/2", [["1", "1", "1"], ["1", "1", "1"]], ["-1", "-1"], False),
    (3, "2/7", "1/3", [["1", "1", "1"], ["1", "1", "1"]], ["1", "1"], False),
]


@pytest.mark.parametrize("p, a, b, rows, beta, passes", DELTA_CASES)
def test_delta_form_matches_reference(p, a, b, rows, beta, passes):
    module = SeriesModule(GapVirasoro(p), a, b, FMatrix.make(p, rows))
    beta = [Scalar.parse(v) for v in beta]
    for window in (1, 2, 3):
        got = delta_form_contravariant(module, beta, window)
        assert got == ref.delta_form_contravariant(module, beta, window) == passes


@pytest.mark.parametrize("p, g, k", [(2, "L0", 3), (3, "L0", 3), (2, "I", -3), (3, "L1", 2)])
def test_delta_form_finds_one_wrong_image(p, g, k, monkeypatch):
    # an imaginary part added to one image breaks the comparisons that use it,
    # down to the single pair (u, w) = (v, v) when g = L[0]
    alg = GapVirasoro(p)
    module = SeriesModule(alg, "1/3", "1/2", FMatrix.make(p, [["1"] * p] * (p - 1)))
    beta = [Scalar(1)] * (p - 1)
    target = {"L0": alg.L(0), "L1": alg.L(1), "I": alg.I(2, 1)}[g]
    last = module.columns[-1]
    act_basis = SeriesModule.act_basis

    def skewed(self, gen, kk, jj):
        coeff, to = act_basis(self, gen, kk, jj)
        return (coeff + Scalar(0, 1), to) if (gen, kk, jj) == (target, k, last) else (coeff, to)

    monkeypatch.setattr(SeriesModule, "act_basis", skewed)
    got = delta_form_contravariant(module, beta, 3)
    assert got is ref.delta_form_contravariant(module, beta, 3, ref.module_action) is False


@pytest.mark.parametrize("p", [2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["plus", "minus"])
def test_involution_report_matches_reference(p, kind):
    alg = GapVirasoro(p)
    for seed in (1, 2):
        theta = sample_involution(alg, random.Random(100 * p + seed), kind)
        got = involution_axiom_report(alg, theta, -3, 3)
        assert got == ref.involution_axiom_report(alg, theta, -3, 3)
        assert all(got.values())


def _patched_images(alg, name):
    """One generator's image under theta, changed in the way the name says."""
    def patch(h, s):
        if name == "scale":
            return h, 2 * s
        if name == "zero":
            return h, Scalar(0)
        if name == "conj":
            return h, s * Scalar(0, 1)
        if name == "vanish":  # zero times a label of the other span
            return (alg.L(0) if h.kind == "I" else alg.I(0, 1)), Scalar(0)
        return alg.L(h.n + 1), s  # "move": a label in the Virasoro span
    return patch


@pytest.mark.parametrize("p, kind, label", [(2, "plus", "L1"), (3, "minus", "L1"),
                                            (3, "plus", "I"), (5, "minus", "I"),
                                            (2, "plus", "C1"), (3, "minus", "C0")])
def test_involution_report_matches_reference_with_one_wrong_image(p, kind, label,
                                                                    monkeypatch):
    alg = GapVirasoro(p)
    g0 = {"L1": alg.L(1), "I": alg.I(-1, 1), "C1": alg.C(1), "C0": alg.C(0)}[label]
    theta = sample_involution(alg, random.Random(p), kind)
    image_of = AntiInvolution.image_of
    failed = set()
    for name in ("scale", "zero", "conj", "vanish", "move"):
        patch = _patched_images(alg, name)

        def skewed(self, g):
            h, s = image_of(self, g)
            return patch(h, s) if g == g0 else (h, s)

        monkeypatch.setattr(AntiInvolution, "image_of", skewed)
        got = involution_axiom_report(alg, theta, -2, 2)
        assert got == ref.involution_axiom_report(alg, theta, -2, 2), name
        failed |= {flag for flag, ok in got.items() if not ok}
    assert "square" in failed


def test_involution_report_flags_stability_and_anti_multiplicativity(monkeypatch):
    # moving I[-1,1] into the Virasoro span breaks stability and the brackets it enters
    alg = GapVirasoro(3)
    theta = sample_involution(alg, random.Random(5), "plus")
    image_of = AntiInvolution.image_of
    monkeypatch.setattr(AntiInvolution, "image_of", lambda self, g: (
        (alg.L(0), image_of(self, g)[1]) if g == alg.I(-1, 1) else image_of(self, g)))
    got = involution_axiom_report(alg, theta, -2, 2)
    assert got == ref.involution_axiom_report(alg, theta, -2, 2)
    assert not got["stability"] and not got["antiMultiplicative"]


@pytest.mark.parametrize("a, b", [("I43", "L0"), ("L4", "I41"), ("I4p", "L-4")])
def test_involution_report_finds_one_wrong_bracket(a, b, monkeypatch):
    # theta^-1 of the first label lies outside [-4, 4], so only the pair (a, b)
    # itself compares the broken bracket
    alg = GapVirasoro(5)
    labels = {"I43": alg.I(4, 3), "L0": alg.L(0), "L4": alg.L(4), "I41": alg.I(4, 1),
              "I4p": alg.I(4, 4), "L-4": alg.L(-4)}
    pair = (labels[a], labels[b])
    theta = sample_involution(alg, random.Random(3), "plus")
    bracket_gens = GapVirasoro.bracket_gens
    monkeypatch.setattr(GapVirasoro, "bracket_gens", lambda self, x, y: (
        [(g, 2 * s) for g, s in bracket_gens(self, x, y)] if (x, y) == pair
        else bracket_gens(self, x, y)))
    got = involution_axiom_report(alg, theta, -4, 4)
    assert got == ref.involution_axiom_report(alg, theta, -4, 4)
    assert got == {"square": True, "conjugateLinear": True, "antiMultiplicative": False,
                   "stability": True}


def test_involution_report_rejects_a_mismatched_p():
    with pytest.raises(ConfigError):
        involution_axiom_report(GapVirasoro(2), AntiInvolution.plus(3), -1, 1)
