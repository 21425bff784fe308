"""The CLI shell around every handler: report writer and subcommand dispatch.

cli._dumps must give json.dumps(x, sort_keys=True, indent=2) byte for byte,
on every report the goldens produce and on seeded nested payloads built to
hit its edges.  cli.main hands an argv whose first word is a subcommand
straight to that subcommand's parser; with that table emptied, every argv
goes through the top-level parser as argparse alone would route it, and the
exit code, stdout and stderr must not change.
"""

import json
import random
from pathlib import Path

import pytest

from gapvir import cli

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def reference_dumps(value):
    return json.dumps(value, sort_keys=True, indent=2)


def test_writer_matches_json_on_every_golden_report(monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN)
    monkeypatch.delenv("GAPVIR_MAX_LEVEL", raising=False)
    written = []
    monkeypatch.setattr(cli, "_dumps", lambda value: written.append(value) or "")
    for name in sorted(CASES):
        before = len(written)
        cli.main(CASES[name]["argv"])
        text = "--format" in CASES[name]["argv"] or CASES[name]["exit"] == 2
        assert len(written) - before == (0 if text else 1), name
    capsys.readouterr()
    monkeypatch.undo()
    assert len(written) >= 30
    for payload in written:
        assert cli._dumps(payload) == reference_dumps(payload)


STRINGS = ["", "plain", "café", "☃ snow", "\U0001f600", 'quo"te', "back\\slash",
           "\x00\x01\x1f\x7f", "tab\tnew\nline\r", "/slash", "  ", "3/5+4/5*i"]
LEAVES = STRINGS + [0, 1, -7, 2 ** 70, -(10 ** 30), True, False, None,
                    -0.0, 0.0, 1e300, 0.1, float("nan"), float("inf"), float("-inf")]
EMPTIES = ([], (), {})


def build(rng, depth):
    """A random payload; containers get rarer with depth and stop at depth 5."""
    kind = rng.randrange(7) if depth < 5 else 0
    if kind <= 1:
        return rng.choice(LEAVES)
    if kind == 2:
        return rng.choice(EMPTIES)
    if kind == 3:
        return [build(rng, depth + 1) for _ in range(rng.randint(1, 4))]
    if kind == 4:
        return tuple(build(rng, depth + 1) for _ in range(rng.randint(1, 3)))
    if kind == 5:  # int keys: sorted as numbers, 10 after 9
        return {k: build(rng, depth + 1) for k in rng.sample(range(1, 13), rng.randint(1, 12))}
    return {rng.choice(STRINGS) + str(k): build(rng, depth + 1) for k in range(rng.randint(1, 4))}


NESTED_EMPTIES = [[], {}, (), [[]], [{}], {"a": []}, {"a": {"b": {}}}, [[[[()]]]],
                  {"x": [{}, [], ()]}, {1: {}, 2: [], 12: {"k": ()}}]


@pytest.mark.parametrize("seed", range(8))
def test_writer_matches_json_on_seeded_payloads(seed):
    rng = random.Random(seed)
    for _ in range(60):
        payload = build(rng, 0)
        assert cli._dumps(payload) == reference_dumps(payload), payload


@pytest.mark.parametrize("payload", NESTED_EMPTIES + [[leaf] for leaf in LEAVES]
                         + [{str(k): leaf for k, leaf in enumerate(LEAVES)},
                            {k: k for k in range(1, 13)}, {True: 1, False: 2}, {None: 1},
                            {1.5: 1, -0.5: 2}])
def test_writer_matches_json_on_edges(payload):
    assert cli._dumps(payload) == reference_dumps(payload)


def run(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse's own -h and --version
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


SHELL_ARGV = [
    ["bracket", "--p=2", "--x=L[1]", "--y", "L[-1]"],
    ["bracket", "--p", "2", "--x", "L[1]", "--y=L[-1]"],
    ["verma-dims", "--max-l", "3"],
    ["unitary-check", "--c", "1"],
    ["bracket", "--x", "1"],
    ["bracket", "--x", "1", "--y", "1", "--zzz", "3"],
    ["bracket", "--x", "1", "--y", "1", "--c1", "3"],
    ["unitary-check", "--l0", "-1/5"],
    ["unitary-check", "--l0=-1/5", "--c0", "1/2", "--c1", "1", "--max-level", "2"],
    ["unitary-check", "--c1", "1", "--", "--max-level", "2"],
    ["verma-dims", "--", "3"],
    ["verma-dims", "--max-level", "2", "--"],
    ["verma-dims", "--sector", "nope"],
    ["verma-dims", "stray"],
    ["bracket", "-h"],
    ["bracket", "--version"],
    ["--version"],
    ["-h"],
    [],
    ["nosuch"],
    ["--p", "2", "bracket", "--x", "1", "--y", "1"],
    ["Bracket", "--x", "1", "--y", "1"],
]


@pytest.mark.parametrize("argv", [case["argv"] for _, case in sorted(CASES.items())]
                         + SHELL_ARGV, ids=lambda argv: " ".join(argv)[:60] or "[]")
def test_dispatch_matches_the_top_level_parser(monkeypatch, capsys, argv):
    monkeypatch.chdir(GOLDEN)
    monkeypatch.delenv("GAPVIR_MAX_LEVEL", raising=False)
    direct = run(capsys, list(argv))
    monkeypatch.setattr(cli._parser(), "commands", {})
    assert run(capsys, list(argv)) == direct
