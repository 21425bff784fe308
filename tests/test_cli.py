import json
import subprocess
import sys

import pytest

from gapvir import forms
from gapvir.cli import main
from gapvir.verma import Sector, VermaModule


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_bracket_golden_output(capsys):
    code, out = run_cli(capsys, ["bracket", "--p", "2", "--x", "L[2]", "--y", "L[-2]"])
    assert code == 0
    report = json.loads(out)
    assert report["result"] == "4*L[0] + 1/2*C[0]"
    assert report["schema"] == "gapvir/1"
    assert report["tool"]["name"] == "gapvir"


BRACKET_GOLDEN = """\
{
  "command": "bracket",
  "config": {
    "outputFormat": "json",
    "p": 2,
    "seed": 0,
    "x": "I[0,1]",
    "y": "I[-1,1]"
  },
  "result": "1/2*C[1]",
  "rules": [
    "defining-bracket-relations"
  ],
  "schema": "gapvir/1",
  "tool": {
    "name": "gapvir",
    "version": "0.1.0"
  }
}
"""


def test_report_schema_golden_file(capsys):
    # pins the versioned report envelope byte for byte
    code, out = run_cli(capsys, ["bracket", "--p", "2", "--x", "I[0,1]",
                                 "--y", "I[-1,1]"])
    assert code == 0
    assert out == BRACKET_GOLDEN


def test_dynamic_flags_inline_and_p3(capsys):
    code, out = run_cli(capsys, ["unitary-check", "--p", "3", "--c0", "3",
                                 "--l0", "1/9", "--c1=1", "--beta1", "2",
                                 "--beta2", "1/2", "--max-level", "3"])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "unitary"
    assert report["config"]["beta"] == ["2", "1/2"]
    assert report["config"]["weights"]["c1"] == "1"


def test_verma_dims_golden(capsys):
    code, out = run_cli(capsys, ["verma-dims", "--p", "2", "--max-level", "10"])
    assert code == 0
    assert json.loads(out)["dims"] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_unitary_check_agreement(capsys):
    code, out = run_cli(capsys, ["unitary-check", "--p", "2", "--c0", "2",
                                 "--l0", "1/16", "--c1", "1", "--beta1", "1",
                                 "--max-level", "6"])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "unitary" and report["agreement"]


def test_usage_error_exit_code(capsys, monkeypatch):
    for argv, env, line in (
            (["bracket", "--p", "2", "--x", "L[2]", "--y", "nope"], None,
             "--y nope: cannot parse term 'nope'"),
            (["unitary-check", "--p", "2", "--l0", "1/0x"], None,
             "--l0 1/0x: bad term '1/0x' in scalar '1/0x'"),
            # a zero denominator is reported with the text it is in, never a traceback
            (["gram", "--p", "2", "--l0", "1/0"], None,
             "--l0 1/0: zero denominator in scalar '1/0'"),
            (["kac-scan", "--central", "1/0"], None,
             "--central 1/0: zero denominator in scalar '1/0'"),
            (["bracket", "--x", "(1/0)*L[1]", "--y", "L[0]"], None,
             "--x (1/0)*L[1]: zero denominator in scalar '1/0'"),
            (["verma-dims", "--p", "2"], "abc", "GAPVIR_MAX_LEVEL abc: expected an integer")):
        if env is not None:
            monkeypatch.setenv("GAPVIR_MAX_LEVEL", env)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert (captured.out, captured.err) == ("", "gapvir: %s\n" % line)


@pytest.mark.parametrize("files, argv, line", [
    ({}, ["gram", "--p", "3", "--c1", "1/0"], "--c1 1/0: zero denominator in scalar '1/0'"),
    ({}, ["gram", "--p", "2", "--beta1=1/0"], "--beta1 1/0: zero denominator in scalar '1/0'"),
    ({}, ["unitary-check", "--p", "3", "--beta2", "x"], "--beta2 x: bad term 'x' in scalar 'x'"),
    ({}, ["bracket", "--p", "2", "--x", "(1/0)*L[1] + L[2]", "--y", "L[0]"],
     "--x (1/0)*L[1] + L[2]: zero denominator in scalar '1/0'"),
    ({}, ["bracket", "--p", "2", "--x", "L[1]", "--y", "2/0*I[0,1]"],
     "--y 2/0*I[0,1]: zero denominator in scalar '2/0'"),
    ({}, ["gram", "--p", "2", "--alpha", "1/0"], "--alpha 1/0: zero denominator in scalar '1/0'"),
    ({}, ["series-check", "--p", "2", "--a", "0", "--b", "1/0", "--f", '[["1","1"]]'],
     "--b 1/0: zero denominator in scalar '1/0'"),
    ({"run.json": {"weights": {"l0": "1/0"}}}, ["gram", "--p", "2", "--config", "run.json"],
     "config weights key 'l0': zero denominator in scalar '1/0'"),
    ({"run.json": {"beta": {"beta1": [1]}}}, ["gram", "--p", "2", "--config", "run.json"],
     "config beta key 'beta1': cannot coerce [1] to a scalar"),
    ({"d.json": {"type": "highest-weight", "l0": "1/0", "c0": "2", "c1": "1"}},
     ["classify", "--p", "2", "--input", "d.json"],
     "descriptor key 'l0': zero denominator in scalar '1/0'"),
], ids=["c-flag", "beta-flag-inline", "beta-flag-bad-term", "bracket-x", "bracket-y", "alpha",
        "series-b", "config-weights-key", "config-beta-key", "descriptor-key"])
def test_scalar_errors_name_their_flag_or_key(tmp_path, monkeypatch, capsys, files, argv, line):
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():
        (tmp_path / name).write_text(json.dumps(content))
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "gapvir: %s\n" % line)


def test_verdict_failure_exit_code(capsys):
    code, out = run_cli(capsys, ["series-check", "--p", "3", "--a", "1/3",
                                 "--b", "1/2", "--window", "2",
                                 "--f", '[["1","1","1"],["1","1","2"]]'])
    assert code == 1
    assert not json.loads(out)["pass"]


def test_reducibility_split_brute_disagreement_exits_one(capsys, monkeypatch):
    split_inertia = forms.split_inertia

    def skewed(alg, hw, theta, max_level):
        out, certified = split_inertia(alg, hw, theta, max_level)
        pos, neg, zero = out[2]
        out[2] = (pos - 1, neg, zero + 1)
        return out, certified

    argv = ["reducibility", "--p", "2", "--l0", "0", "--c0", "1", "--c1", "1", "--max-level", "4"]
    code, out = run_cli(capsys, argv)
    assert code == 0 and json.loads(out)["crossCheck"] == {"agreement": True, "bruteMaxLevel": 2}
    monkeypatch.setattr(forms, "split_inertia", skewed)
    code, out = run_cli(capsys, argv)
    report = json.loads(out)
    assert code == 1
    assert report["crossCheck"] == {"agreement": False, "bruteMaxLevel": 2}
    assert report["levels"][2]["gramKernel"] == 1 and report["firstSingularLevel"] == 2


def test_reducibility_complement_brute_disagreement_exits_one(capsys, monkeypatch):
    # a complex weight's singular counts come from psi's complement sector and
    # are cross-checked against the full module's
    singular_count = VermaModule.singular_count

    def skewed(self, d):
        out = singular_count(self, d)
        return out + 1 if self.sector != Sector.full(self.alg.p) and d == 2 else out

    argv = ["reducibility", "--p", "2", "--l0", "1/2+i", "--c0", "1", "--c1", "1",
            "--max-level", "4"]
    code, out = run_cli(capsys, argv)
    assert code == 0 and json.loads(out)["crossCheck"] == {"agreement": True, "bruteMaxLevel": 2}
    monkeypatch.setattr(VermaModule, "singular_count", skewed)
    code, out = run_cli(capsys, argv)
    report = json.loads(out)
    assert code == 1
    assert report["crossCheck"] == {"agreement": False, "bruteMaxLevel": 2}
    assert report["levels"][2]["singular"] == 1 and report["levels"][2]["gramKernel"] is None


def test_guardrail_on_max_level(capsys, monkeypatch):
    code, _ = run_cli(capsys, ["verma-dims", "--p", "2", "--max-level", "40"])
    assert code == 2
    monkeypatch.setenv("GAPVIR_MAX_LEVEL", "40")
    code, out = run_cli(capsys, ["verma-dims", "--p", "2", "--max-level", "26"])
    assert code == 0 and len(json.loads(out)["dims"]) == 27


def test_deep_verma_dims_counts_without_enumerating(capsys, monkeypatch):
    # level 200 has 3972999029388 monomials: only a count can reach it
    monkeypatch.setenv("GAPVIR_MAX_LEVEL", "200")
    code, out = run_cli(capsys, ["verma-dims", "--p", "2", "--max-level", "200"])
    assert code == 0
    dims = json.loads(out)["dims"]
    assert len(dims) == 201 and dims[-1] == 3972999029388


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "p": 2,
        "weights": {"l0": "1/16", "c0": "2", "c1": "1"},
        "beta": {"beta1": "1"},
        "maxLevel": 2,
        "seed": 5,
        "outputFormat": "json",
    }))
    code, out = run_cli(capsys, ["unitary-check", "--config", str(cfg)])
    assert code == 0
    report = json.loads(out)
    assert report["config"]["weights"]["l0"] == "1/16"
    assert report["config"]["maxLevel"] == 2
    assert report["config"]["seed"] == 5
    assert report["verdict"] == "unitary"


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"weights": {"l0": "0", "c0": "2", "c1": "1"}}))
    code, out = run_cli(capsys, ["unitary-check", "--config", str(cfg),
                                 "--l0", "1/16", "--max-level", "1"])
    assert code == 0
    assert json.loads(out)["config"]["weights"]["l0"] == "1/16"


def test_f_matrix_file_input(tmp_path, capsys):
    f_file = tmp_path / "f.json"
    f_file.write_text(json.dumps({"p": 2, "rows": [["1", "1"]]}))
    code, out = run_cli(capsys, ["series-check", "--p", "2", "--a", "1/3",
                                 "--b", "1/2", "--f-file", str(f_file),
                                 "--window", "3"])
    assert code == 0
    report = json.loads(out)
    assert report["predicates"]["unitary"] and report["axioms"]["pass"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"p": 3, "rows": [["1", "1"]]}))
    code, _ = run_cli(capsys, ["series-check", "--p", "2", "--a", "0",
                               "--b", "1/2", "--f-file", str(bad)])
    assert code == 2


def test_sector_flags(capsys):
    code, out = run_cli(capsys, ["reducibility", "--p", "2", "--l0", "0",
                                 "--c0", "1", "--sector", "virasoro",
                                 "--max-level", "4"])
    assert code == 0
    report = json.loads(out)
    assert report["firstSingularLevel"] == 2
    assert [e["dim"] for e in report["levels"]] == [1, 0, 1, 0, 2]
    code, out = run_cli(capsys, ["gram", "--p", "2", "--l0", "1/16", "--c1", "1",
                                 "--sector", "heisenberg", "--level", "3"])
    assert code == 0
    assert json.loads(out)["basis"] == ["I[-2,1]|hw", "I[-1,1]I[-1,1]I[-1,1]|hw"]


def test_gram_reports_non_hermitian_form(capsys):
    code, out = run_cli(capsys, ["gram", "--p", "2", "--l0", "1", "--c0", "3",
                                 "--c1", "1", "--beta1", "3/5+4/5*i",
                                 "--level", "1"])
    assert code == 0
    assert json.loads(out)["verdict"] == {"kind": "not-hermitian"}


def test_reports_carry_no_floats(capsys):
    for argv in (
        ["gram", "--p", "2", "--l0", "1/16", "--c0", "2", "--c1", "1",
         "--level", "3"],
        ["reducibility", "--p", "2", "--l0", "0", "--c0", "1", "--c1", "1",
         "--max-level", "4"],
    ):
        code, out = run_cli(capsys, argv)
        assert code == 0

        def no_floats(node):
            if isinstance(node, float):
                return False
            if isinstance(node, dict):
                return all(no_floats(v) for v in node.values())
            if isinstance(node, list):
                return all(no_floats(v) for v in node)
            return True

        assert no_floats(json.loads(out))


def test_output_file_and_text_format(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run_cli(capsys, ["bracket", "--p", "2", "--x", "I[0,1]",
                                 "--y", "I[-1,1]", "--output", str(target)])
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["result"] == "1/2*C[1]"
    code, out = run_cli(capsys, ["bracket", "--p", "2", "--x", "L[0]",
                                 "--y", "I[3,1]", "--format", "text"])
    assert code == 0 and "result: -7/2*I[3,1]" in out


@pytest.mark.parametrize("argv", [
    ["bracket", "--p", "3", "--x", "L[1]", "--y", "I[-1,2]"],
    ["involution-check", "--p", "2", "--count", "4", "--seed", "11"],
    ["verma-dims", "--p", "3", "--max-level", "8"],
    ["kac-scan", "--p", "2", "--central", "1/2", "--grid", "16/16",
     "--max-level", "2", "--max-ab", "2"],
])
def test_repeat_runs_are_byte_identical(capsys, argv):
    _, first = run_cli(capsys, argv)
    _, second = run_cli(capsys, argv)
    assert first == second


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "gapvir.cli", "verma-dims", "--p", "2",
         "--max-level", "4"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dims"] == [1, 1, 2, 3, 5]


@pytest.mark.parametrize("files, argv", [
    ({"run.json": [1, 2]}, ["unitary-check", "--config", "run.json"]),
    ({"run.json": {"weights": [1]}}, ["unitary-check", "--config", "run.json"]),
    ({"run.json": {"beta": ["1"]}}, ["unitary-check", "--config", "run.json"]),
    ({"f.json": [["1", "1"]]},
     ["series-check", "--p", "2", "--a", "0", "--b", "1/2", "--f-file", "f.json"]),
    ({"f.json": {"p": 2}},
     ["series-check", "--p", "2", "--a", "0", "--b", "1/2", "--f-file", "f.json"]),
    ({}, ["series-check", "--p", "2", "--a", "0", "--b", "1/2", "--f", "[1,2]"]),
    ({"d.json": {"type": "intermediate-series", "a": "1/3", "b": "1/2", "beta": ["1"]}},
     ["classify", "--p", "2", "--input", "d.json"]),
    ({}, ["unitary-check", "--p", "2", "--l0=-1", "--c0", "2", "--c1", "1",
          "--max-level", "-1"]),
    ({}, ["verma-dims", "--max-level", "-3"]),
    ({}, ["kac-scan", "--max-level", "-1"]),
    ({}, ["involution-check", "--count", "-2"]),
    ({}, ["series-check", "--p", "2", "--a", "1/3", "--b", "1/2", "--f", '[["1","1"]]',
          "--window", "-1"]),
    ({}, ["sugawara-check", "--p", "2", "--c1", "1", "--mode-window", "-1"]),
    ({}, ["reducibility", "--max-ab", "-1"]),
    ({}, ["kac-scan", "--max-ab", "-1"]),
    ({}, ["kac-scan", "--grid=-4/2"]),
    ({}, ["unitary-check", "--m-bound", "60"]),
    ({}, ["verma-dims", "--p", "x"]),
    ({}, ["verma-dims", "--sector", "bogus"]),
    ({}, ["bracket", "--p", "2"]),
    ({}, ["bogus"]),
    ({}, ["gram", "--p", "2", "--c5", "1"]),
    ({}, ["gram", "--p", "2", "--beta5", "2"]),
    ({}, ["unitary-check", "--p", "3", "--c1", "1", "--c2", "4"]),
    ({"run.json": {"p": 3, "weights": {"c7": "1"}}}, ["unitary-check", "--config", "run.json"]),
    ({"run.json": {"p": 2, "outputFormat": "xml"}},
     ["bracket", "--config", "run.json", "--x", "L[1]", "--y", "L[-1]"]),
    ({"d.json": {"type": "highest-weight", "l0": "1/16", "c0": "2", "c1": "1", "c7": "1",
                 "beta": ["1"]}}, ["classify", "--p", "2", "--input", "d.json"]),
    ({"d.json": {"type": "lowest-weight", "l0": "-1/16", "c0": "-2", "c1": "-1", "c7": "1",
                 "beta": ["1"]}}, ["classify", "--p", "2", "--input", "d.json"]),
    ({"d.json": {"type": "highest-weight", "l0": "1/16", "c0": "2", "c1": "1", "beta": "1"}},
     ["classify", "--p", "2", "--input", "d.json"]),
], ids=["config-list", "config-weights-list", "config-beta-list", "f-file-list", "f-file-no-rows",
        "f-flat-list", "descriptor-no-f", "negative-max-level", "negative-dims-level",
        "negative-kac-level", "negative-count", "negative-window", "negative-mode-window",
        "negative-max-ab", "negative-kac-max-ab", "negative-grid", "m-bound-removed",
        "p-not-an-integer", "sector-not-a-choice", "bracket-without-x-y", "unknown-subcommand",
        "c-index-above-p", "beta-index-above-p", "c-alias-conflict", "config-c-index-above-p",
        "config-format-not-a-choice", "descriptor-c-index-above-p",
        "lowest-descriptor-c-index-above-p", "descriptor-beta-not-a-list"])
def test_malformed_json_input_is_a_usage_error(tmp_path, monkeypatch, capsys, files, argv):
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():
        (tmp_path / name).write_text(json.dumps(content))
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("gapvir: ") and captured.err.count("\n") == 1


def test_kac_scan_errors_name_the_flag_and_value_given(capsys):
    # the guardrail bounds the p-level 26, but the message names what was typed
    for argv, named in ((["--max-level", "13"], "--max-level 13"),
                        (["--max-level", "-1"], "--max-level -1"),
                        (["--grid", "4"], "--grid 4")):
        assert main(["kac-scan", "--p", "2"] + argv) == 2
        assert named in capsys.readouterr().err


def test_version_and_help_exit_zero(capsys):
    for argv in (["--version"], ["--help"], ["verma-dims", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(("gapvir ", "usage: gapvir"))
