import itertools
import json
from fractions import Fraction

import pytest

from gapvir import forms, unitarity
from gapvir.algebra import AntiInvolution, GapVirasoro
from gapvir.cli import main
from gapvir.errors import ConfigError
from gapvir.forms import definiteness, gram, split_inertia
from gapvir.oscillator import gap_weight_sum, shifted_weight, sugawara_sum
from gapvir.scalars import Scalar, scalar
from gapvir.unitarity import (classify, discrete_series, discrete_series_match,
                              heisenberg_condition, highest_weight_unitary,
                              full_gram_cross_check, lowest_weight_dualize,
                              oracle_is_psd, unitarity_oracle, unitarity_verdict)
from gapvir.verma import HighestWeight, Sector, VermaModule
from reference import pairing


def hw2(l0, c0, c1="1"):
    return HighestWeight.make(2, l0, [c0, c1])


def test_heisenberg_condition_flags():
    rep = heisenberg_condition(hw2("0", "2", "1"), ["1"])
    assert rep[1] == {"value": "1", "realNonzero": True, "positive": True}
    rep = heisenberg_condition(hw2("0", "2", "-1"), ["1"])
    assert rep[1]["realNonzero"] and not rep[1]["positive"]
    rep = heisenberg_condition(hw2("0", "2", "1"), ["1*i"])
    assert not rep[1]["realNonzero"]


def test_heisenberg_condition_validates_beta():
    with pytest.raises(ConfigError):
        heisenberg_condition(hw2("0", "2"), ["2"])


def test_discrete_series_m3_virasoro():
    pts = discrete_series(2, frozenset(), 3)
    assert [(str(p["c0"]), str(p["l0"])) for p in pts] == [
        ("1/2", "0"), ("1/2", "1/16"), ("1/2", "1/2")]


def test_discrete_series_m2_single_point():
    pts = discrete_series(2, frozenset(), 2)
    assert [(p["m"], p["r"], p["s"]) for p in pts] == [(2, 0, 1)]
    assert str(pts[0]["c0"]) == "0" and str(pts[0]["l0"]) == "0"


def test_discrete_series_shifted_for_gap_module():
    pts = discrete_series(2, frozenset({1}), 3)
    assert [str(p["c0"]) for p in pts] == ["3/2"] * 3
    assert [str(p["l0"]) for p in pts] == ["1/16", "1/8", "9/16"]


@pytest.mark.parametrize("p, j_set, c0, l0s", [
    (4, {1, 3}, "5/2", ["3/32", "5/32", "19/32"]),
    (4, {2}, "3/2", ["1/16", "1/8", "9/16"]),
    (3, {1, 2}, "5/2", ["1/9", "25/144", "11/18"]),
])
def test_discrete_series_pinned_for_partial_and_full_j(p, j_set, c0, l0s):
    # literal values: a wrong J-shift moves them, even though the closed form
    # and the split route both read it from shifted_weight
    pts = discrete_series(p, frozenset(j_set), 3)
    assert [(pt["r"], pt["s"]) for pt in pts] == [(0, 1), (0, 2), (1, 2)]
    assert [str(pt["c0"]) for pt in pts] == [c0] * 3
    assert [str(pt["l0"]) for pt in pts] == l0s


def test_continuum_floor_pinned_for_partial_j():
    # p = 4, J = {1, 3}: the floor is C_0 = |J| + 1 = 3 with L_0 = 3/32
    floor = highest_weight_unitary(HighestWeight.make(4, "3/32", ["3", "1", "0"]), ["1"] * 3)
    assert floor["continuum"] and floor["discreteSeries"] is None
    below = highest_weight_unitary(HighestWeight.make(4, "3/32", ["5/2", "1", "0"]),
                                   ["1"] * 3)
    assert not below["continuum"]
    assert below["discreteSeries"] == {"m": 3, "r": 0, "s": 1}


def test_discrete_series_rejects_small_m():
    with pytest.raises(ConfigError):
        discrete_series(2, frozenset(), 1)


def test_closed_form_boundary_point():
    rep = highest_weight_unitary(hw2("1/16", "2"), ["1"])
    assert rep["closedForm"] and rep["continuum"] and rep["discreteSeries"] is None


def test_closed_form_discrete_point():
    rep = highest_weight_unitary(hw2("1/16", "3/2"), ["1"])
    assert rep["closedForm"]
    assert rep["discreteSeries"] == {"m": 3, "r": 0, "s": 1}
    assert not rep["continuum"]


def test_closed_form_off_list_probe():
    rep = highest_weight_unitary(hw2("5/16", "3/2"), ["1"])
    assert not rep["closedForm"] and rep["discreteSeries"] is None


def test_discrete_match_requires_exact_equality():
    assert discrete_series_match(hw2("1/8", "3/2")) == {"m": 3, "r": 0, "s": 2}
    assert discrete_series_match(hw2("1/8", "1501/1000")) is None
    # near misses: C_0 off by 1/7, L_0 off by 1/9, a complex C_0 or L_0
    assert discrete_series_match(hw2("1/16", str(Fraction(3, 2) + Fraction(1, 7)))) is None
    assert discrete_series_match(hw2(str(Fraction(1, 16) + Fraction(1, 9)), "3/2")) is None
    assert discrete_series_match(hw2("1/16", "3/2+1/5*i")) is None
    assert discrete_series_match(hw2("1/16+1/5*i", "3/2")) is None
    # 2 - 6/7 gives N = 7, not of the form m(m+1)
    assert discrete_series_match(hw2("1/16", str(2 - Fraction(6, 7)))) is None
    # N = 6 (m = 2) has only (r, s) = (0, 1); k = 2 would give s = 0
    assert discrete_series_match(hw2(str(Fraction(1, 16) + Fraction(3, 24)), "1")) is None
    # at or above the continuum floor there is no discrete point
    assert discrete_series_match(hw2("1/16", "2")) is None
    assert discrete_series_match(hw2("1/16", "5")) is None


@pytest.mark.parametrize("p", [2, 3, 4])
def test_exact_match_finds_every_listed_point(p):
    # every J at p: each listed point for m = 2..12, 51 and 60, and the corner
    # points at m = 1000, far beyond any search bound
    for mask in itertools.product(["0", "1"], repeat=p // 2):
        j_set = HighestWeight.make(p, "0", ["0", *mask]).j_set()
        points = [pt for m in [*range(2, 13), 51, 60] for pt in discrete_series(p, j_set, m)]
        c0 = Scalar(len(j_set) + 1 - Fraction(6, 1000 * 1001))
        base = gap_weight_sum(p, j_set)
        for r, s in [(0, 1), (0, 999), (333, 500), (998, 999)]:
            l0 = base + Scalar(Fraction((1000 * r + s) ** 2 - 1, 4 * 1000 * 1001))
            points.append({"m": 1000, "r": r, "s": s, "c0": c0, "l0": l0})
        for pt in points:
            hw = HighestWeight(p, pt["l0"], (pt["c0"],) + tuple(scalar(v) for v in mask))
            assert discrete_series_match(hw) == {k: pt[k] for k in ("m", "r", "s")}


def test_variant_discrepancy_flag():
    rep = highest_weight_unitary(hw2("1", "3", "-1"), ["1"])
    assert rep["clause1Literal"] and not rep["clause1Strict"]
    assert rep["variantDiscrepancy"] and not rep["closedForm"]


def test_oracle_on_continuum_interior():
    alg = GapVirasoro(2)
    levels = unitarity_oracle(alg, hw2("1", "3"), ["1"], 6)
    assert all(e["verdict"] == "positive-definite" for e in levels)


def test_oracle_on_discrete_point_sees_kernel():
    alg = GapVirasoro(2)
    levels = unitarity_oracle(alg, hw2("1/16", "3/2"), ["1"], 6)
    assert oracle_is_psd(levels)
    assert any(e["verdict"] == "positive-semidefinite-singular" for e in levels)


def test_oracle_negative_heisenberg_diagonal():
    alg = GapVirasoro(2)
    levels = unitarity_oracle(alg, hw2("1", "3", "-1"), ["1"], 1)
    assert levels[1]["verdict"] == "negative-containing"


def test_oracle_flags_non_hermitian_form():
    alg = GapVirasoro(2)
    levels = unitarity_oracle(alg, hw2("1", "3", "1"), ["3/5+4/5*i"], 1)
    assert levels[1]["verdict"] == "not-hermitian"
    verdict = unitarity_verdict(alg, hw2("1", "3", "1"), ["3/5+4/5*i"], 1)
    assert verdict["verdict"] == "not-unitary" and verdict["agreement"]


SPLIT_CASES = [
    # p, l0, central values, beta: discrete, continuum, negative C_0 and
    # indefinite weights, beta of both signs, full, partial and empty J
    (2, "1/16", ["3/2", "1"], ["1"]),
    (2, "1/3", ["5/2", "1"], ["1"]),
    (2, "1/3", ["-2", "1"], ["1"]),
    (2, "-1/5", ["1/2", "1"], ["1"]),
    (2, "1/16", ["3/2", "-1"], ["-1"]),
    (2, "1/16", ["3/2", "1"], ["-1"]),
    (2, "1/3", ["5/2", "0"], ["1"]),
    (3, "25/144", ["5/2", "1"], ["2", "1/2"]),
    (3, "1/2", ["4", "1"], ["2", "1/2"]),
    (3, "1/3", ["-1", "-1"], ["-1", "-1"]),
    (3, "-1/5", ["1/2", "1"], ["-1", "-1"]),
    (3, "1/4", ["1/2", "0"], ["1", "1"]),
    (4, "1/4", ["5/2", "1", "1"], ["1", "1", "1"]),
    (4, "1/4", ["5/2", "0", "1"], ["1", "-1", "1"]),
    (4, "1/4", ["5/2", "1", "0"], ["-1", "1", "-1"]),
    (4, "0", ["-1", "1", "0"], ["1", "1", "1"]),
    (4, "1/8", ["1", "0", "0"], ["1", "1", "1"]),
]


@pytest.mark.parametrize("p, l0, central, beta", SPLIT_CASES)
def test_split_route_matches_full_gram(p, l0, central, beta):
    alg = GapVirasoro(p)
    hw = HighestWeight.make(p, l0, central)
    theta = AntiInvolution.plus(p, 1, [scalar(b) for b in beta])
    max_level = 12 if p == 2 else 10
    module = VermaModule(alg, hw)
    full = [definiteness(gram(module, theta, d)).inertia for d in range(max_level + 1)]
    assert split_inertia(alg, hw, theta, max_level)[0] == full


def test_split_route_falls_back_for_complex_data():
    # complex beta, complex L_0 and complex C_0 keep the full Gram route, with
    # the entries it gave before the split route existed
    cases = [
        (2, "1", ["3", "1"], ["3/5+4/5*i"], ["positive-definite"] + ["not-hermitian"] * 4),
        (2, "1/2+i", ["3", "1"], ["1"], ["positive-definite"] * 2 + ["not-hermitian"] * 3),
        (3, "1/3+1/2*i", ["4", "1"], ["2", "1/2"],
         ["positive-definite"] * 3 + ["not-hermitian"] * 2),
        (2, "1/16", ["3/2+1/5*i", "1"], ["1"],
         ["positive-definite"] * 2 + ["positive-semidefinite-singular"] * 2
         + ["not-hermitian"]),
    ]
    for p, l0, central, beta, verdicts in cases:
        hw = HighestWeight.make(p, l0, central)
        res = unitarity_verdict(GapVirasoro(p), hw, beta, 4)
        assert [e["route"] for e in res["oracle"]] == ["full"] * 5
        assert [e["verdict"] for e in res["oracle"]] == verdicts
        assert [e["kernelDim"] for e in res["oracle"]] == [
            {"positive-definite": 0, "positive-semidefinite-singular": 1}.get(v)
            for v in verdicts]
        assert res["crossCheck"] is None and res["agreement"]


@pytest.mark.parametrize("p, max_level, cap", [(2, 1, 1), (2, 4, 2), (2, 12, 6), (3, 9, 3),
                                               (4, 10, 2)])
def test_cross_check_covers_levels_no_larger_than_the_split(p, max_level, cap):
    # full levels of dimension at most that of the largest Virasoro-sector level
    hw = HighestWeight.make(p, "1", ["5"] + ["1"] * (p // 2))
    beta = ["1"] * (p - 1)
    oracle = unitarity_oracle(GapVirasoro(p), hw, beta, max_level)
    assert full_gram_cross_check(GapVirasoro(p), hw, beta, oracle) == {
        "fullGramMaxLevel": cap, "agreement": True}


def test_split_full_disagreement_exits_one(monkeypatch, capsys):
    def skewed(alg, hw, theta, max_level):
        out, certified = split_inertia(alg, hw, theta, max_level)
        pos, neg, zero = out[2]
        out[2] = (pos, neg + 1, zero - 1)
        return out, certified

    monkeypatch.setattr(unitarity, "split_inertia", skewed)
    argv = ["unitary-check", "--p", "2", "--l0", "1/16", "--c0", "3/2", "--c1", "1",
            "--max-level", "4"]
    assert main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["crossCheck"] == {"agreement": False, "fullGramMaxLevel": 2}
    assert report["clauses"]["closedForm"] and not report["agreement"]


def test_kac_wall_routes_name_the_certified_levels():
    # (1/3; 5/2, 1): psi = (13/48, 3/2) lies above every wall; the Ising
    # weight puts psi on h_{1,1} = 0, so its Virasoro levels need the LDL
    alg = GapVirasoro(2)
    continuum = unitarity_verdict(alg, hw2("1/3", "5/2"), ["1"], 8)
    assert [e["route"] for e in continuum["oracle"]] == ["split"] * 2 + ["kac-wall"] * 7
    ising = unitarity_verdict(alg, hw2("1/16", "3/2"), ["1"], 8)
    assert [e["route"] for e in ising["oracle"]] == ["split"] * 9
    # c' = 1/2, h' = 1/10: certified at Virasoro level 1 only, since the walls
    # h_{1,2} = 1/16 and h_{2,1} = 1/2 straddle it from level 2
    partial = unitarity_verdict(alg, hw2(Fraction(1, 10) + Fraction(1, 16), "3/2"), ["1"], 8)
    assert [e["route"] for e in partial["oracle"]] == ["split"] * 2 + ["kac-wall"] * 2 + [
        "split"] * 5
    for res in (continuum, ising, partial):
        assert res["crossCheck"]["agreement"] and res["agreement"]


def test_oracle_scans_the_kac_walls_once(monkeypatch):
    # split_inertia hands its certified prefix to the oracle, which names the
    # routes from it instead of scanning the walls again
    scans = []
    certified = forms.kac_wall_inertia

    def counted(psi, max_n):
        scans.append(max_n)
        return certified(psi, max_n)

    monkeypatch.setattr(forms, "kac_wall_inertia", counted)
    alg = GapVirasoro(2)
    for l0, c0, routes in (("1/3", "5/2", ["split"] * 2 + ["kac-wall"] * 7),
                           ("1/16", "3/2", ["split"] * 9)):
        scans.clear()
        oracle = unitarity_oracle(alg, hw2(l0, c0), ["1"], 8)
        assert scans == [4]
        assert [e["route"] for e in oracle] == routes
    scans.clear()
    unitarity_oracle(GapVirasoro(3), HighestWeight.make(3, "1", ["5", "1"]), ["1", "1"], 9)
    assert scans == [3]


def test_wrong_kac_wall_certificate_exits_one(monkeypatch, capsys):
    certified = forms.kac_wall_inertia

    def skewed(psi, max_n):
        out = certified(psi, max_n)
        out[1] = (0, 1, 0)
        return out

    argv = ["unitary-check", "--p", "2", "--l0", "1/3", "--c0", "5/2", "--c1", "1",
            "--max-level", "4"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["oracle"][2]["route"] == "kac-wall"
    monkeypatch.setattr(forms, "kac_wall_inertia", skewed)
    assert main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["oracle"][2]["inertia"] == [1, 1, 0]
    assert report["crossCheck"] == {"agreement": False, "fullGramMaxLevel": 2}
    assert not report["agreement"]


def test_dualize_swaps_beta_components():
    lw3 = HighestWeight.make(3, "-1", ["-3", "-1"])
    dual, beta = lowest_weight_dualize(lw3, ["2", "1/2"])
    assert dual.l0 == Scalar(1) and dual.c_value(0) == Scalar(3)
    assert [str(b) for b in beta] == ["1/2", "2"]
    lw2 = hw2("-1/16", "-2", "-1")
    dual2, beta2 = lowest_weight_dualize(lw2, ["1"])
    assert dual2.l0 == scalar("1/16") and [str(b) for b in beta2] == ["1"]


def test_dualize_is_involutive():
    lw = HighestWeight.make(3, "-1", ["-3", "-1"])
    dual, beta = lowest_weight_dualize(lw, ["2", "1/2"])
    back, beta_back = lowest_weight_dualize(dual, beta)
    assert back == lw and [str(b) for b in beta_back] == ["2", "1/2"]


def test_classify_intermediate_series():
    alg = GapVirasoro(2)
    res = classify(alg, {"type": "intermediate-series", "a": "1/3", "b": "1/2",
                         "f": [["1", "1"]], "beta": ["1"]})
    assert res["bucket"] == 1 and res["verdict"] == "unitary"


def test_classify_highest_weight_discrete():
    alg = GapVirasoro(2)
    res = classify(alg, {"type": "highest-weight", "l0": "1/16", "c0": "3/2",
                         "c1": "1", "beta": ["1"]}, max_level=4)
    assert res["bucket"] == 2 and res["clauses"]["discreteSeries"]["m"] == 3


def test_classify_lowest_weight():
    alg = GapVirasoro(2)
    res = classify(alg, {"type": "lowest-weight", "l0": "-1/16", "c0": "-2",
                         "c1": "-1", "beta": ["1"]}, max_level=4)
    assert res["bucket"] == 3 and res["verdict"] == "unitary"
    assert res["dualWeight"]["l0"] == "1/16"


def test_classify_not_unitary_reports_failing_clause():
    alg = GapVirasoro(2)
    res = classify(alg, {"type": "highest-weight", "l0": "5/16", "c0": "3/2",
                         "c1": "1", "beta": ["1"]}, max_level=4)
    assert res["bucket"] is None and res["verdict"] == "not-unitary"
    assert not res["clauses"]["clause2"]


def test_classify_flags_zero_a_discrepancy():
    alg = GapVirasoro(2)
    res = classify(alg, {"type": "intermediate-series", "a": "0", "b": "1/2",
                         "f": [["1", "1"]], "beta": ["1"]})
    assert res["bucket"] == 1 and res["notes"]


def test_dualization_preserves_verdicts():
    alg = GapVirasoro(3)
    samples = [
        ("1/9", "3", "1", True),     # continuum boundary for J = {1, 2}
        ("0", "3", "1", False),      # l0 below the vacuum energy
        ("1", "4", "-1", False),     # heisenberg sign violation
    ]
    for l0, c0, c1, expected in samples:
        hw = HighestWeight.make(3, l0, [c0, c1])
        direct = highest_weight_unitary(hw, ["2", "1/2"])["closedForm"]
        lw = HighestWeight.make(3, "-" + l0 if l0 != "0" else "0",
                                ["-" + c0, "-" + c1 if c1 != "-1" else "1"])
        dual, beta = lowest_weight_dualize(lw, ["2", "1/2"])
        assert dual.l0 == hw.l0 and dual.c == hw.c
        assert highest_weight_unitary(dual, beta)["closedForm"] == direct == expected


def test_empty_j_degenerates_to_virasoro_conditions():
    # with the J-part split off, the order clause at phi equals the pure
    # Virasoro clause at the shifted weight
    for l0, c0 in [("1/16", "2"), ("0", "2"), ("1/16", "3/2"), ("5/16", "3/2"),
                   ("9/16", "3/2"), ("2", "5")]:
        hw = hw2(l0, c0, "1")
        psi = shifted_weight(hw)
        rep_full = highest_weight_unitary(hw, ["1"])
        rep_vira = highest_weight_unitary(psi, ["1"])
        assert rep_full["clause2"] == rep_vira["clause2"]
        full_pt = rep_full["discreteSeries"]
        vira_pt = rep_vira["discreteSeries"]
        assert (full_pt is None) == (vira_pt is None)
        if full_pt:
            assert (full_pt["m"], full_pt["r"], full_pt["s"]) == \
                (vira_pt["m"], vira_pt["r"], vira_pt["s"])


def tensor_vector(module, hw, i_mono, l_mono):
    """Image of a split-basis pair inside the unrestricted Verma module.

    The Virasoro-type factors act through L_{-n} minus its quadratic
    Heisenberg part, so they commute with the Fock factors and generate the
    complementary tensor slot.
    """
    alg = module.alg
    vec = module.highest_vector()
    for n in reversed(l_mono.lparts):
        quad = sugawara_sum(module, hw.j_set(), hw.c_value, -n, vec)
        vec = module.act(alg.L(-n), vec) - quad
    for m, i in reversed(i_mono.iparts):
        vec = module.act(alg.I(-m, i), vec)
    return vec


def test_tensor_form_factorizes():
    # the contravariant form on the full module, written on the split basis,
    # is the product of the Fock-sector form and the Virasoro-sector form at
    # the shifted weight
    alg = GapVirasoro(2)
    hw = hw2("1/16", "2", "1")
    theta = AntiInvolution.plus(2)
    full = VermaModule(alg, hw)
    heis = VermaModule(alg, hw, Sector.heisenberg(hw.j_set()))
    vira = VermaModule(alg, shifted_weight(hw), Sector.virasoro())

    split = []
    for d in range(5):
        for a in range(d + 1):
            for xm in heis.pbw_basis(a):
                for ym in vira.pbw_basis(d - a):
                    split.append((d, xm, ym, tensor_vector(full, hw, xm, ym)))
    for d1, x1, y1, t1 in split:
        for d2, x2, y2, t2 in split:
            lhs = pairing(full, theta, t1, t2)
            rhs = (pairing(heis, theta, heis.basis_vector(x1),
                           heis.basis_vector(x2))
                   * pairing(vira, theta, vira.basis_vector(y1),
                             vira.basis_vector(y2)))
            assert lhs == rhs, (x1.text(), y1.text(), x2.text(), y2.text())
