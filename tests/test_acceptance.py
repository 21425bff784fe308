"""Acceptance suite: one test per criterion, one printed verdict line each.

Every assertion is exact; there are no tolerances anywhere.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import itertools
import json
import random
import time
from fractions import Fraction

from gapvir.algebra import (GapVirasoro, involution_axiom_report,
                            sample_involution)
from gapvir.cli import main as cli_main
from gapvir.forms import kac_scan
from gapvir.oscillator import OscillatorModule, virasoro_relation_check
from gapvir.scalars import Scalar, scalar
from gapvir.series import FMatrix, SeriesModule, series_predicates
from gapvir.unitarity import (discrete_series, highest_weight_unitary,
                              oracle_is_psd, unitarity_oracle)
from gapvir.verma import HighestWeight, VermaModule, partition_count


def report(number, name, detail=""):
    suffix = " (%s)" % detail if detail else ""
    print("criterion %d %s: PASS%s" % (number, name, suffix))


def test_criterion_1_jacobi_and_antisymmetry():
    start = time.time()
    triples = 0
    for p in (2, 3, 5):
        alg = GapVirasoro(p)
        gens = alg.basis_window(-4, 4)
        for a in gens:
            for b in gens:
                acc = dict(alg.bracket_gens(a, b))
                for g, c in alg.bracket_gens(b, a):
                    acc[g] = acc.get(g, Scalar.zero()) + c
                assert all(v.is_zero() for v in acc.values()), ("antisym", a, b)
        # antisymmetry holds, so the cyclic Jacobi sum is alternating and
        # unordered triples cover the full window
        for x, y, z in itertools.combinations_with_replacement(gens, 3):
            acc = {}
            for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
                for g1, c1 in alg.bracket_gens(b, c):
                    for g2, c2 in alg.bracket_gens(a, g1):
                        acc[g2] = acc.get(g2, Scalar.zero()) + c1 * c2
            assert all(v.is_zero() for v in acc.values()), ("jacobi", x, y, z)
            triples += 1
    elapsed = time.time() - start
    assert elapsed < 30
    report(1, "jacobi-antisymmetry-window",
           "%d triples, %.1fs" % (triples, elapsed))


def test_criterion_2_graded_dimensions():
    expected = [partition_count(d) for d in range(21)]
    assert expected[:11] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for p in (2, 3, 5):
        alg = GapVirasoro(p)
        hw = HighestWeight.make(p, "1/16", ["2"] + ["1"] * (p // 2))
        module = VermaModule(alg, hw)
        dims = [module.graded_dim(d) for d in range(21)]
        assert dims == expected, p
    report(2, "graded-dimensions-match-partitions", "p in {2,3,5}, d <= 20")


def test_criterion_3_involution_axioms():
    count = 0
    for idx in range(20):
        p = (2, 3, 5)[idx % 3]
        kind = "plus" if idx % 2 == 0 else "minus"
        alg = GapVirasoro(p)
        theta = sample_involution(alg, random.Random(42 * 100003 + idx), kind)
        checks = involution_axiom_report(alg, theta, -4, 4)
        assert all(checks.values()), (idx, kind, p, checks)
        count += 1
    assert count == 20
    report(3, "involution-axioms-20-seeded-instances", "window [-4,4]")


def nonempty_symmetric_j_sets(p):
    half = [i for i in range(1, p) if i <= p - i]
    out = []
    for mask in range(1, 1 << len(half)):
        j = set()
        for bit, i in enumerate(half):
            if mask >> bit & 1:
                j |= {i, p - i}
        out.append(frozenset(j))
    return out


def test_criterion_4_sugawara_realization():
    start = time.time()
    for p in (2, 3):
        alg = GapVirasoro(p)
        for j_set in nonempty_symmetric_j_sets(p):
            cvals = ["2"] + ["1" if min(i, p - i) in j_set else "0"
                             for i in range(1, p // 2 + 1)]
            hw = HighestWeight.make(p, "0", cvals)
            assert hw.j_set() == j_set
            osc = OscillatorModule(alg, hw)
            assert osc.central_charge() == len(j_set)
            for m in range(-3, 4):
                for n in range(-3, 4):
                    rep = virasoro_relation_check(osc, m, n, 10)
                    assert rep["pass"], (p, j_set, m, n, rep["failures"][:1])
    alg2 = GapVirasoro(2)
    osc2 = OscillatorModule(alg2, HighestWeight.make(2, "1/16", ["2", "1"]))
    v = osc2.vacuum()
    assert osc2.sugawara_l(0, v) == scalar("1/16") * v
    elapsed = time.time() - start
    assert elapsed < 120
    report(4, "sugawara-realization", "levels <= 10, %.1fs" % elapsed)


def test_criterion_5_virasoro_kac_cross_check():
    alg = GapVirasoro(2)
    c_values = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(26)]
    h_values = [Fraction(k, 48) for k in range(97)]
    scan = kac_scan(alg, c_values, h_values, max_vir_level=4, max_ab=4)
    assert scan["setsEqual"], scan
    assert scan["direction"] == "zero of the criterion marks a reducible module"
    for entry in scan["grid"]:
        assert entry["criterionZeroWeights"] == entry["singularVectorWeights"]
    sizes = {e["c"]: len(e["criterionZeroWeights"]) for e in scan["grid"]}
    report(5, "virasoro-kac-cross-check",
           "zero-set sizes %s, direction: reducible" % sizes)


def test_criterion_6_discrete_series_points():
    pure = discrete_series(2, frozenset(), 3)
    assert sorted(str(pt["l0"]) for pt in pure) == sorted(["0", "1/16", "1/2"])
    assert {str(pt["c0"]) for pt in pure} == {"1/2"}

    shifted = discrete_series(2, frozenset({1}), 3)
    assert {str(pt["c0"]) for pt in shifted} == {"3/2"}
    assert sorted(str(pt["l0"]) for pt in shifted) == sorted(["1/16", "1/8", "9/16"])

    alg = GapVirasoro(2)
    for pt in shifted:
        hw = HighestWeight(2, pt["l0"], (pt["c0"], Scalar(1)))
        levels = unitarity_oracle(alg, hw, ["1"], 8)
        assert oracle_is_psd(levels), pt
        assert any(e["verdict"] == "positive-semidefinite-singular"
                   for e in levels), pt
    probe = HighestWeight.make(2, str(Fraction(1, 16) + Fraction(1, 4)),
                               ["3/2", "1"])
    levels = unitarity_oracle(alg, probe, ["1"], 8)
    assert any(e["verdict"] in ("negative-containing", "indefinite")
               for e in levels)
    report(6, "discrete-series-points", "psd with kernel at each, probe rejected")


AGREEMENT_GRID = [
    # (category, p, l0, c0, c1, beta values)
    ("interior", 2, "1", "3", "1", ["1"]),
    ("interior", 2, "2", "3", "1", ["1"]),
    ("interior", 2, "1", "4", "2", ["1"]),
    ("interior", 2, "1/2", "5/2", "1/2", ["1"]),
    ("interior", 2, "1", "3", "-1", ["-1"]),
    ("interior", 2, "3", "7/2", "3", ["1"]),
    ("interior", 2, "1/8", "3", "1", ["1"]),
    ("interior", 2, "17/16", "9/4", "2", ["1"]),
    ("boundary", 2, "1/16", "2", "1", ["1"]),
    ("boundary", 2, "1/16", "3", "1", ["1"]),
    ("boundary", 2, "1", "2", "1", ["1"]),
    ("boundary", 2, "1/16", "2", "-2", ["-1"]),
    ("discrete", 2, "1/16", "1", "1", ["1"]),
    ("discrete", 2, "1/16", "3/2", "1", ["1"]),
    ("discrete", 2, "1/8", "3/2", "1", ["1"]),
    ("discrete", 2, "9/16", "3/2", "1", ["1"]),
    ("discrete", 2, "1/16", "17/10", "1", ["1"]),
    ("discrete", 2, "1/10", "17/10", "1", ["1"]),
    ("clause1-negative", 2, "1", "3", "-1", ["1"]),
    ("clause1-negative", 2, "1/16", "2", "1", ["-1"]),
    ("clause1-nonreal", 2, "1", "3", "1", ["3/5+4/5*i"]),
    ("clause1-negative", 2, "1", "3", "-2", ["1"]),
    ("clause1-negative", 2, "1/16", "3/2", "-1", ["1"]),
    ("clause1-nonreal", 2, "1", "3", "1", ["1*i"]),
    ("clause2-low-l0", 2, "0", "3", "1", ["1"]),
    ("clause2-low-l0", 2, "-1", "3", "1", ["1"]),
    ("clause2-off-discrete", 2, "5/16", "3/2", "1", ["1"]),
    ("clause2-off-discrete", 2, "9/16", "1", "1", ["1"]),
    ("clause2-low-c0", 2, "1/8", "0", "1", ["1"]),
    ("clause2-off-discrete", 2, "5/16", "1", "1", ["1"]),
    ("clause2-both", 2, "-1", "1", "1", ["1"]),
    ("clause2-both", 2, "0", "0", "1", ["1"]),
    ("empty-j-boundary", 2, "0", "1", "0", ["1"]),
    ("empty-j-interior", 2, "1", "2", "0", ["1"]),
    ("empty-j-discrete", 2, "1/2", "1/2", "0", ["1"]),
    ("empty-j-off-discrete", 2, "1/4", "1/2", "0", ["1"]),
    ("empty-j-low-l0", 2, "-1/16", "1", "0", ["1"]),
    ("p3-boundary", 3, "1/9", "3", "1", ["1", "1"]),
    ("p3-interior", 3, "1", "7/2", "1", ["1", "1"]),
    ("p3-low-l0", 3, "0", "3", "1", ["1", "1"]),
    ("p3-discrete", 3, "25/144", "5/2", "1", ["1", "1"]),
    ("p3-clause1", 3, "1", "3", "-1", ["1", "1"]),
]


def test_criterion_7_closed_form_oracle_agreement():
    start = time.time()
    assert len(AGREEMENT_GRID) >= 40
    categories = {tag.split("-")[0] for tag, *_ in AGREEMENT_GRID}
    assert {"interior", "boundary", "discrete", "clause1", "clause2"} <= categories
    discrepancies = []
    for tag, p, l0, c0, c1, beta in AGREEMENT_GRID:
        alg = GapVirasoro(p)
        hw = HighestWeight.make(p, l0, [c0, c1])
        closed = highest_weight_unitary(hw, beta)
        oracle = unitarity_oracle(alg, hw, beta, 8)
        agree = closed["closedForm"] == oracle_is_psd(oracle)
        if not agree:
            print("DISAGREEMENT at %s %s: closed=%s oracle=%s"
                  % (tag, (p, l0, c0, c1, beta), closed,
                     [(e["d"], e["verdict"]) for e in oracle]))
        assert agree, (tag, p, l0, c0, c1, beta)
        if closed["variantDiscrepancy"]:
            discrepancies.append({
                "point": {"p": p, "l0": l0, "c0": c0, "c1": c1, "beta": beta},
                "literal": closed["closedFormLiteral"],
                "strict": closed["closedForm"],
                "oraclePsd": oracle_is_psd(oracle),
            })
    elapsed = time.time() - start
    assert elapsed < 600
    print("variant discrepancy table (literal real-nonzero vs strict positive):")
    for row in discrepancies:
        print("  %s literal=%s strict=%s oracle-psd=%s"
              % (row["point"], row["literal"], row["strict"], row["oraclePsd"]))
    assert discrepancies, "grid must exercise the sign-variant discrepancy"
    for row in discrepancies:
        assert row["strict"] == row["oraclePsd"]
    report(7, "closed-form-oracle-agreement",
           "%d points, %d discrepancy rows, %.1fs"
           % (len(AGREEMENT_GRID), len(discrepancies), elapsed))


def test_criterion_8_intermediate_series():
    alg2, alg3 = GapVirasoro(2), GapVirasoro(3)
    samples = [
        (SeriesModule(alg2, "1/3", "1/2", FMatrix.make(2, [["1", "1"]])), ["1"]),
        (SeriesModule(alg2, "-2/5", "1/2", FMatrix.make(2, [["1", "-1"]])), ["-1"]),
        (SeriesModule(alg3, "1/3", "1/2",
                      FMatrix.make(3, [["1", "1", "1"], ["1", "1", "1"]])),
         ["1", "1"]),
    ]
    for module, beta in samples:
        assert module.axiom_check(6)["pass"]
        pred = series_predicates(module, beta)
        assert pred["unitary"] and pred["deltaFormSelfTest"]

    # worked verdicts
    first = series_predicates(samples[0][0], ["1"])
    assert first["unitary"] and not first["reducible"]
    forced = SeriesModule(alg2, 5, 1, FMatrix.make(2, [["1", "0"]]),
                          allow_invalid=True)
    assert series_predicates(forced, ["1"])["reducible"]
    complex_b = SeriesModule(alg2, 0, "1/2+1*i", FMatrix.make(2, [["1", "1"]]))
    assert series_predicates(complex_b, ["1"])["unitary"]
    report(8, "intermediate-series", "3 window-6 samples, worked verdicts")


DETERMINISM_COMMANDS = [
    ["bracket", "--p", "2", "--x", "L[2]", "--y", "L[-2]"],
    ["involution-check", "--p", "3", "--count", "6", "--seed", "7"],
    ["verma-dims", "--p", "3", "--max-level", "9"],
    ["gram", "--p", "2", "--l0", "1/16", "--c0", "2", "--c1", "1",
     "--level", "3"],
    ["reducibility", "--p", "2", "--l0", "0", "--c0", "1", "--c1", "1",
     "--max-level", "4"],
    ["sugawara-check", "--p", "2", "--c1", "1", "--mode-window", "1",
     "--max-level", "4"],
    ["series-check", "--p", "2", "--a", "1/3", "--b", "1/2",
     "--f", '[["1","1"]]', "--window", "3"],
    ["unitary-check", "--p", "2", "--c0", "2", "--l0", "1/16", "--c1", "1",
     "--beta1", "1", "--max-level", "4"],
    ["kac-scan", "--p", "2", "--central", "0,1/2", "--grid", "24/48",
     "--max-level", "2", "--max-ab", "2"],
]


def test_criterion_9_deterministic_reports(tmp_path, capsys):
    runs = list(DETERMINISM_COMMANDS)
    descriptor = tmp_path / "descriptor.json"
    descriptor.write_text(json.dumps({
        "type": "highest-weight", "l0": "1/16", "c0": "3/2", "c1": "1",
        "beta": ["1"]}))
    runs.append(["classify", "--p", "2", "--input", str(descriptor),
                 "--max-level", "4"])
    for argv in runs:
        outputs = []
        for _ in range(2):
            cli_main(argv)
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1], argv
        assert outputs[0].strip(), argv
    report(9, "byte-identical-reports",
           "%d subcommands run twice" % len(runs))
