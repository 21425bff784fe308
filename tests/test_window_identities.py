"""Each window identity evaluated once, checked against the per-pair references.

sugawara-check evaluates one Virasoro relation per unordered pair m < n; the
(n, m) entry copies its flag and (m, m) passes, which must give the relation
list, verdict and exit code of the loop over every ordered pair in
reference.py, also when one image of the realized L is wrong; its quadratic
sum must equal the reference's pair-by-pair action.  The series and
involution checks read their images as int parts and cancel each identity
with one running sum per target; the cases here add p = 3, complex a and b,
terms landing on more than one target and corrupted involution images.  The
element splitter and the text renderer of the CLI are checked here too.
"""

import gc
import json
import random
from fractions import Fraction

import pytest

from gapvir import algebra, cli
from gapvir.algebra import (AntiInvolution, Element, GapVirasoro, Gen, involution_axiom_report,
                            sample_involution)
from gapvir.oscillator import OscillatorModule, sugawara_sum
from gapvir.scalars import Scalar, cancels
from gapvir.series import FMatrix, SeriesModule
from gapvir.verma import HighestWeight, ModuleVector, Sector, VermaModule
import reference as ref


def rand_q(rng, lo=-3, hi=3, den=4, nonzero=False):
    while True:
        q = Fraction(rng.randint(lo * den, hi * den), rng.randint(1, den))
        if q or not nonzero:
            return q


def run(argv, capsys):
    code = cli.main(argv)
    return code, json.loads(capsys.readouterr().out)


def sugawara_case(p, seed):
    """A seeded weight with a nonempty J: its argv flags and the HighestWeight they name."""
    rng = random.Random(seed)
    central = [rand_q(rng, nonzero=True)] + [rand_q(rng, nonzero=(j == 1))
                                             for j in range(1, p // 2 + 1)]
    l0 = rand_q(rng)
    flags = ["--p", str(p), "--l0=%s" % l0]
    flags += ["--c%d=%s" % (j, v) for j, v in enumerate(central)]
    return flags, HighestWeight.make(p, l0, central)


SUGAWARA_CASES = [(2, 1, 4), (2, 2, 3), (3, 1, 3), (3, 2, 2), (4, 1, 3), (4, 2, 2)]


@pytest.mark.parametrize("p, window, level", SUGAWARA_CASES)
def test_sugawara_pairs_match_every_ordered_pair(p, window, level, capsys):
    for seed in (1, 2):
        flags, hw = sugawara_case(p, 10 * p + seed)
        code, report = run(["sugawara-check"] + flags + ["--mode-window", str(window),
                                                         "--max-level", str(level)], capsys)
        checks, ok = ref.sugawara_checks(OscillatorModule(GapVirasoro(p), hw), window, level)
        assert report["relationChecks"] == checks
        assert report["pass"] is ok is True
        assert code == 0


@pytest.mark.parametrize("p, window, level", SUGAWARA_CASES)
@pytest.mark.parametrize("n0, depth", [(1, 0), (0, 1), (-1, 1)])
def test_sugawara_pairs_match_with_one_wrong_image(p, window, level, n0, depth, capsys,
                                                   monkeypatch):
    # L_{n0} on one monomial (the vacuum, or the first of p-level depth) gains that
    # monomial itself; every relation reads the same wrong map on both sides
    flags, hw = sugawara_case(p, 10 * p + 1)
    sugawara_l = OscillatorModule.sugawara_l

    def skewed(self, n, vec):
        out = sugawara_l(self, n, vec)
        mono = self.fock.pbw_basis(depth)[0]
        c = vec.terms.get(mono) if n == n0 else None
        return out + c * self.fock.basis_vector(mono) if c else out

    monkeypatch.setattr(OscillatorModule, "sugawara_l", skewed)
    code, report = run(["sugawara-check"] + flags + ["--mode-window", str(window),
                                                     "--max-level", str(level)], capsys)
    checks, ok = ref.sugawara_checks(OscillatorModule(GapVirasoro(p), hw), window, level)
    assert report["relationChecks"] == checks
    assert report["pass"] is ok is False
    assert code == 1


@pytest.mark.parametrize("p", [2, 3, 4])
@pytest.mark.parametrize("full", [False, True])
def test_sugawara_sum_matches_the_pairwise_action(p, full):
    # seeded vectors of several monomials and levels, on the Fock module of J and inside the
    # unrestricted Verma module, for modes n on both sides of 0
    rng = random.Random(70 + p + full)
    _, hw = sugawara_case(p, 10 * p + 3)
    j_set = hw.j_set()
    module = VermaModule(GapVirasoro(p), hw, Sector.full(p) if full else Sector.heisenberg(j_set))
    for _ in range(6):
        basis = [m for d in range(0, 2 * p + 1) for m in module.pbw_basis(d)]
        vec = ModuleVector(module, {m: Scalar(rand_q(rng, nonzero=True), rand_q(rng))
                                    for m in rng.sample(basis, min(len(basis), 3))})
        for n in range(-3, 4):
            got = sugawara_sum(module, j_set, hw.c_value, n, vec)
            assert got == ref.sugawara_sum(module, j_set, hw.c_value, n, vec), (vec, n)
    assert sugawara_sum(module, j_set, hw.c_value, 1, ModuleVector(module)).is_zero()


def gaussian_rows(p, rng):
    """F(i, j) = lambda_i mu_{i+j} / mu_j with complex lambda and mu: valid, no zero entry."""
    def value():
        return Scalar(rand_q(rng, nonzero=True), rand_q(rng))
    lam, mu = [None] + [value() for _ in range(1, p)], [value() for _ in range(p)]
    return [[lam[i] * mu[(i + j) % p] / mu[j] for j in range(p)] for i in range(1, p)]


FIRST_FAILURES = [
    (3, "1/3", "1/2", "L", 2, 0),
    (3, "1/3", "1/2", "I2", -2, 1),
    (3, "-2/7", "3/2", "I1", 1, 2),
    (3, "1/3+1/2*i", "1/2-1/3*i", "L", 0, 2),
    (3, "1/3+1/2*i", "1/2-1/3*i", "I1", 2, 0),
    (2, "2/5-1*i", "1/3+2*i", "L", -2, 1),
    (2, "2/5-1*i", "1/3+2*i", "I1", 1, 0),
]


@pytest.mark.parametrize("p, a, b, g, k, j", FIRST_FAILURES)
@pytest.mark.parametrize("gaussian_f", [False, True])
def test_series_first_failure_at_p3_and_complex_weights(p, a, b, g, k, j, gaussian_f,
                                                        monkeypatch):
    alg = GapVirasoro(p)
    target = alg.L(k) if g == "L" else alg.I(k, int(g[1:]))
    rows = gaussian_rows(p, random.Random(p)) if gaussian_f else [["1"] * p] * (p - 1)
    act_basis = SeriesModule.act_basis

    def skewed(self, gen, kk, jj):
        coeff, to = act_basis(self, gen, kk, jj)
        return (coeff + 1, to) if (gen, kk, jj) == (target, k, j) else (coeff, to)

    module = SeriesModule(alg, a, b, FMatrix.make(p, rows))
    assert module.axiom_check(2) == ref.axiom_check(module, 2) == {"pass": True,
                                                                   "witness": None}
    monkeypatch.setattr(SeriesModule, "act_basis", skewed)
    got = module.axiom_check(2)
    assert not got["pass"]
    assert got == ref.axiom_check(module, 2, ref.module_action)


@pytest.mark.parametrize("p, g, k, j", [(2, "L", 1, 0), (2, "I1", -1, 1), (3, "I2", 0, 1),
                                        (3, "L", -2, 2)])
def test_series_terms_on_more_than_one_target(p, g, k, j, monkeypatch):
    # one image lands one step past its target, so the tuples reading it sum on two
    # targets; the witness is the first of them, as in the reference
    alg = GapVirasoro(p)
    target = alg.L(k) if g == "L" else alg.I(k, int(g[1:]))
    act_basis = SeriesModule.act_basis
    seen = []

    def moved(self, gen, kk, jj):
        coeff, to = act_basis(self, gen, kk, jj)
        return (coeff, (to[0] + 1, to[1])) if (gen, kk, jj) == (target, k, j) else (coeff, to)

    def spy(terms):
        seen.append(len({t[3] for t in terms}))
        return cancels(terms)

    monkeypatch.setattr(SeriesModule, "act_basis", moved)
    monkeypatch.setattr("gapvir.series.cancels", spy)
    rows = gaussian_rows(p, random.Random(5))
    module = SeriesModule(alg, "1/3", "1/2+1*i", FMatrix.make(p, rows))
    got = module.axiom_check(2)
    assert not got["pass"] and max(seen) > 1
    assert got == ref.axiom_check(module, 2, ref.module_action)


@pytest.mark.parametrize("a, b", [("L2", "L-1"), ("I1", "L0"), ("L1", "L1"), ("I-1", "I-1")])
def test_series_later_order_and_diagonal_test_the_bracket(a, b, monkeypatch):
    # a bracket broken only at (a, b), where a comes after b or is b: x y v - y x v there
    # is known from the earlier order (or is 0), and what is left must still fail
    alg = GapVirasoro(3)
    labels = {"L2": alg.L(2), "L-1": alg.L(-1), "I1": alg.I(1, 1), "L0": alg.L(0),
              "L1": alg.L(1), "I-1": alg.I(-1, 2)}
    pair = (labels[a], labels[b])
    bracket_gens = GapVirasoro.bracket_gens
    monkeypatch.setattr(GapVirasoro, "bracket_gens", lambda self, x, y: (
        bracket_gens(self, x, y) + [(x, Scalar(1, 0, 3))] if (x, y) == pair
        else bracket_gens(self, x, y)))
    rows = gaussian_rows(3, random.Random(9))
    module = SeriesModule(alg, "1/3", "1/2+1*i", FMatrix.make(3, rows))
    got = module.axiom_check(2)
    assert got["witness"]["x"] == str(pair[0]) and got["witness"]["y"] == str(pair[1])
    assert got == ref.axiom_check(module, 2)


def test_cancels_sums_each_target_on_its_own():
    half, third = (1, 0, 2), (1, 1, 3)
    assert cancels([(*half, "u"), (-2, 0, 4, "u")])
    assert cancels([(*half, "u"), (*third, "v"), (-1, 0, 2, "u"), (-2, -2, 6, "v")])
    assert not cancels([(*half, "u"), (-1, 0, 2, "v")])  # the same value on two targets
    assert not cancels([(*half, "u"), (*third, "v"), (-1, 0, 2, "u"), (-1, 1, 3, "v")])


def _corrupt(alg, rng, h, s):
    """One image (h, s) changed in one of five ways, chosen by rng."""
    way = rng.choice(("scale", "conj", "zero", "relabel", "central"))
    if way == "scale":
        return h, 3 * s
    if way == "conj":
        return h, s * Scalar(0, 1)
    if way == "zero":
        return h, Scalar(0)
    if way == "relabel":  # a label of the same kind, one mode further
        return Gen(h.kind, h.n + 1, h.i) if h.kind != "C" else alg.C(0), s
    return alg.C(alg.p // 2), s


@pytest.mark.parametrize("p", [2, 3, 4])
def test_involution_flags_match_reference_on_corrupted_images(p, monkeypatch):
    alg = GapVirasoro(p)
    rng = random.Random(40 + p)
    window = alg.basis_window(-2, 2)
    image_of = AntiInvolution.image_of
    failed = set()
    for trial in range(8):
        theta = sample_involution(alg, rng, "plus" if trial % 2 else "minus")
        wrong = {g: _corrupt(alg, rng, *image_of(theta, g)) for g in rng.sample(window, 2)}
        monkeypatch.setattr(AntiInvolution, "image_of",
                            lambda self, g: wrong.get(g) or image_of(self, g))
        got = involution_axiom_report(alg, theta, -2, 2)
        assert got == ref.involution_axiom_report(alg, theta, -2, 2), (trial, wrong)
        failed |= {flag for flag, ok in got.items() if not ok}
        monkeypatch.undo()
    assert {"square", "antiMultiplicative"} <= failed


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("wrong", ["label", "phase"])
def test_involution_square_compares_labels_and_phases(p, wrong, monkeypatch):
    # theta(L[1]) moved to L[2] with its coefficient 1, so theta(theta(L[1])) = L[-2] has
    # the right coefficient on the wrong label; or theta(L[1]) = (1 + i) L[-1], so
    # theta(theta(L[1])) = (1 - i) L[1] has the right real part only
    alg = GapVirasoro(p)
    theta = AntiInvolution.plus(p)
    image_of = AntiInvolution.image_of

    def skewed(self, g):
        h, s = image_of(self, g)
        if g != alg.L(1):
            return h, s
        return (alg.L(2), s) if wrong == "label" else (h, s * Scalar(1, 1))

    monkeypatch.setattr(AntiInvolution, "image_of", skewed)
    got = involution_axiom_report(alg, theta, -2, 2)
    assert got == ref.involution_axiom_report(alg, theta, -2, 2)
    assert not got["square"]


def element_texts(rng, p):
    """Rendered elements with real and Gaussian coefficients."""
    alg = GapVirasoro(p)
    labels = alg.basis_window(-3, 3)
    for _ in range(20):
        terms = {g: Scalar(rand_q(rng, nonzero=True), rand_q(rng) if rng.random() < 0.5 else 0)
                 for g in rng.sample(labels, rng.randint(1, 4))}
        yield str(Element(p, terms))


EDGE_TEXTS = ["", " + ", " +  + ", "L[1]", "L[1] + ", " + L[1]", "L[1] +  + I[0,1]",
              "(1+2*i)*L[1] + (3/4-1*i)*C[0]", "(1 + 2*i)*L[1] + C[1]", "((1 + 2)) + x",
              "(1 + 2", "1) + 2", "1) + (2 + 3", "(a + b) + (c + d", "x + (y + z)) + w",
              "a + + b", "( + ) + ()", ")( + )("]


def test_split_terms_matches_the_character_walk():
    rng = random.Random(63)
    texts = EDGE_TEXTS + [t for p in (2, 3, 5) for t in element_texts(rng, p)]
    texts += ["".join(rng.choice("()+ a1") for _ in range(rng.randint(0, 14)))
              for _ in range(400)]
    for text in texts:
        assert algebra._split_terms(text) == ref.split_terms(text), text


def test_parse_element_reads_its_own_rendering():
    rng = random.Random(7)
    for p in (2, 3, 4):
        alg = GapVirasoro(p)
        for text in element_texts(rng, p):
            assert str(alg.parse_element(text)) == text


TEXT_ARGVS = [
    ["bracket", "--p", "3", "--x", "(1+1*i)*L[1] + I[0,1]", "--y", "L[-1]"],
    ["verma-dims", "--p", "2", "--max-level", "6"],
    ["gram", "--p", "2", "--c1", "1", "--level", "2"],
    ["involution-check", "--p", "2", "--count", "2"],
    ["series-check", "--a", "1/3", "--b", "1/2", "--f", '[["1","1"]]', "--window", "1"],
    ["sugawara-check", "--c1", "1", "--mode-window", "1", "--max-level", "2"],
    ["unitary-check", "--c1", "1", "--l0", "1/16", "--c0", "3/2", "--max-level", "2"],
    ["reducibility", "--c1", "1", "--max-level", "2"],
    ["kac-scan", "--grid", "2/2", "--max-level", "1", "--max-ab", "1"],
    ["verma-dims", "--p", "3", "--max-level", "4", "--sector", "virasoro"],
]


def test_text_reports_leave_no_unreachable_objects(capsys):
    for argv in TEXT_ARGVS:  # fill the process-wide tables before counting
        cli.main(argv + ["--format", "text"])
    capsys.readouterr()
    gc.collect()
    gc.disable()
    try:
        for argv in TEXT_ARGVS:
            assert cli.main(argv + ["--format", "text"]) == 0
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0
    assert capsys.readouterr().out.count("command: ") == len(TEXT_ARGVS)
