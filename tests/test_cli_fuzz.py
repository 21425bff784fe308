"""Seeded small-value fuzz of the command line.

About 300 argv over all ten subcommands, drawn with a fixed seed from small
values, valid and invalid: flags present or missing, written --flag value or
--flag=value, in any order, with --cN / --betaN flags in and out of range,
config and descriptor files that are valid, malformed or of the wrong shape,
and now and then a stray word.  Every run must end in exit 0 or 1 with a
report and nothing on stderr, or in exit 2 with exactly one ``gapvir: ``
line on stderr; no exception may escape main.
"""

import json
import random

from gapvir import cli

BAD = 0.07  # the chance that a value is drawn from the invalid ones

# (valid, invalid) values
SCALARS = (["0", "1", "2", "-1", "1/2", "-1/5", "1/16", "3/2", "5/2", "3/5+4/5*i", "i", "1+i"],
           ["1/0", "x", "", "2.5", "1/-2", "-"])
LEVELS = (["0", "1", "2", "3", "4"], ["-1", "x", "", "1/2"])
SMALL = (["0", "1", "2"], ["-1", "x"])
P = (["2", "2", "2", "3", "3", "4"], ["1", "0", "x"])
ELEMENTS = (["L[1]", "L[-1]", "L[0]", "I[0,1]", "I[-1,1]", "C[0]", "C[1]", "2*L[2]",
             "(1+i)*I[-1,1] + C[0]", "0", "1/2*L[-2] + I[1,1]"], ["L[", "I[0,5]", "nope"])
F_ROWS = (["F"], ['[[1, 1]]', '[["x","1"]]', '[]', '[[]]', '{"a": 1}', 'not json', '"1"',
                  '[["1","1"]]', '[["1","1","1"],["1","1","1"]]'])  # F: (p-1) x p, drawn
UNITS = (["1", "-1", "i", "3/5+4/5*i"], ["2", "1/2", "x", "1+i"])  # every beta_j takes one
SECTORS = (["full", "virasoro", "heisenberg"], ["nope"])

# per subcommand: (flag, values, chance it is given)
COMMANDS = {
    "bracket": [("--x", ELEMENTS, 0.97), ("--y", ELEMENTS, 0.97)],
    "involution-check": [("--count", (["0", "1", "2", "3"], ["-1", "x"]), 0.8),
                         ("--seed", (["0", "1", "7"], ["x"]), 0.5)],
    "verma-dims": [("--max-level", LEVELS, 0.8), ("--sector", SECTORS, 0.5)],
    "gram": [("--level", LEVELS, 0.8), ("--alpha", (["1"], ["2", "0", "x"]), 0.4),
             ("--sector", SECTORS, 0.4)],
    "reducibility": [("--max-level", LEVELS, 0.8), ("--max-ab", SMALL, 0.5),
                     ("--sector", SECTORS, 0.4)],
    "sugawara-check": [("--max-level", SMALL, 0.97), ("--mode-window", SMALL, 0.97)],
    "series-check": [("--a", SCALARS, 0.97), ("--b", SCALARS, 0.97), ("--f", F_ROWS, 0.95),
                     ("--window", SMALL, 0.97)],
    "unitary-check": [("--max-level", LEVELS, 0.8)],
    "classify": [("--input", (["descriptor"], ["bad descriptor"]), 0.97),
                 ("--max-level", LEVELS, 0.8)],
    "kac-scan": [("--central", (["0", "1/2", "0,1", "1,26"], ["x", "1/2,", "i"]), 0.97),
                 ("--grid", (["0/1", "4/4", "2/3"], ["x", "1/0", "-1/2", "3"]), 0.97),
                 ("--max-level", SMALL, 0.97), ("--max-ab", SMALL, 0.7)],
}
WEIGHTED = {"verma-dims", "gram", "reducibility", "sugawara-check", "unitary-check"}
WITH_BETA = {"gram", "series-check", "unitary-check", "classify"}

# (valid, invalid) file contents
DESCRIPTORS = ([
    {"type": "highest-weight", "l0": "1/16", "c0": "3/2", "c1": "1"},
    {"type": "highest-weight", "l0": "-1/2", "c0": "1", "c1": "1"},
    {"type": "highest-weight", "l0": "1/3", "c0": "5/2"},
    {"type": "lowest-weight", "l0": "-1/16", "c0": "-2", "c1": "-1"},
    {"type": "intermediate-series", "a": "1/3", "b": "1/2", "f": [["1", "1"]]},
], [
    {"type": "highest-weight", "l0": "-1/2", "c0": "1", "c1": "1", "beta": ["1"]},
    {"type": "intermediate-series", "a": "1/3", "b": "1/2"},
    {"type": "intermediate-series", "a": "x", "b": "1/2", "f": [["1", "1"]], "beta": ["1"]},
    {"type": "highest-weight", "l0": "1/16", "extra": "1"},
    {"type": "highest-weight", "l0": 3, "c0": None},
    {"type": "highest-weight", "beta": "1"},
    {"type": "nope"},
    {},
    [1, 2],
    "not an object",
])
CONFIGS = ([
    {"p": 2, "weights": {"l0": "1/16", "c0": "2", "c1": "1"}, "beta": {"beta1": "1"}},
    {"seed": 3, "maxLevel": 2},
    {"weights": {"l0": "1/2", "c1": "1"}},
], [
    {"weights": {"c5": "1"}},
    {"beta": {"beta0": "1"}},
    {"maxLevel": "x", "seed": 3},
    {"weights": ["l0"]},
    {"outputFormat": "yaml"},
    [],
])


def write_inputs(directory):
    """{"descriptor": ..., "config": ..., "bad descriptor": ..., "bad config": ...} file paths;
    the bad ones include a file that is not JSON and one that is missing."""
    paths = {}
    for kind, (good, bad) in (("descriptor", DESCRIPTORS), ("config", CONFIGS)):
        for name, docs in ((kind, good), ("bad " + kind, bad)):
            paths[name] = []
            for k, doc in enumerate(docs):
                path = directory / ("%s%d.json" % (name.replace(" ", "-"), k))
                path.write_text(json.dumps(doc))
                paths[name].append(str(path))
        (directory / ("%s-text.json" % kind)).write_text("{not json")
        paths["bad " + kind] += [str(directory / ("%s-text.json" % kind)),
                                 str(directory / "missing.json")]
    return paths


def draw(rng, paths):
    """One argv: a subcommand, some of its flags, maybe shared and indexed flags, maybe junk."""
    def pick(values):
        return rng.choice(values[rng.random() < BAD])

    command = rng.choice(sorted(COMMANDS))
    p = pick(P)
    pairs = [("--p", p)] if rng.random() < 0.7 or p != "2" else []
    q = int(p) if p.isdigit() else 2
    for flag, values, chance in COMMANDS[command]:
        if rng.random() < chance:
            value = pick(values)
            if value == "F":
                value = json.dumps([[rng.choice(("1", "1/2", "0", "2")) for _ in range(q)]
                                    for _ in range(q - 1)])
            pairs.append((flag, rng.choice(paths[value]) if value in paths else value))
    if rng.random() < 0.1:
        pairs.append(("--config", rng.choice(paths[pick((["config"], ["bad config"]))])))
    if command in WEIGHTED:  # --cN past floor(p/2) is out of range
        for j in range(-1, q // 2 + 2):
            if rng.random() < (0.03 if j > q // 2 else 0.6):
                pairs.append(("--l0" if j < 0 else "--c%d" % j, pick(SCALARS)))
    if command in WITH_BETA:  # --beta0 and --beta<p> are out of range
        unit = pick(UNITS)
        for j in range(q + 1):
            if rng.random() < (0.03 if j in (0, q) else 0.3):
                pairs.append(("--beta%d" % j, unit if rng.random() > BAD else pick(SCALARS)))
    rng.shuffle(pairs)
    argv = [command]
    for flag, value in pairs:  # a value led by "-" is read as a flag unless joined by "="
        joined = rng.random() < 0.3 or value.startswith("-")
        argv += ["%s=%s" % (flag, value)] if joined else [flag, value]
    if rng.random() < 0.03:
        argv.insert(rng.randrange(1, len(argv) + 1), rng.choice(["stray", "--zzz", "-q", "--"]))
    return argv


def test_small_value_argv_end_in_a_report_or_one_usage_line(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("GAPVIR_MAX_LEVEL", raising=False)
    paths = write_inputs(tmp_path)
    rng = random.Random(20261021)
    codes = {0: 0, 1: 0, 2: 0}
    commands = set()
    for _ in range(300):
        argv = draw(rng, paths)
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # an escape from main is the failure reported
            raise AssertionError("%r escaped main on %r" % (exc, argv)) from exc
        out, err = capsys.readouterr()
        assert code in codes, argv
        codes[code] += 1
        commands.add(argv[0])
        if code == 2:
            assert err.startswith("gapvir: ") and err.count("\n") == 1, (argv, err)
            assert out == "", argv
        else:
            assert err == "" and json.loads(out)["command"] == argv[0], argv
    assert commands == set(COMMANDS)
    assert min(codes.values()) > 0, codes
