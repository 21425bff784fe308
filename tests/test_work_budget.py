"""The work budget: cli._work prices every size knob before any work runs.

Each knob at 10^k, k <= 9, must end in exit 0, 1 or 2 with at most one
stderr line, and a request exits 2 naming its estimate exactly when the
estimate is over cli.WORK_BUDGET.  The first over-budget power of ten of each
knob is pinned below, so the requests this test lets run are bounded by the
estimate, not by a clock.
"""

import re

import pytest

from gapvir import cli

F2 = '[["1","1"]]'
OVER = re.compile(r"^gapvir: [a-z-]+: the estimated work, (\d+) steps, is over the budget "
                  r"of (\d+)\n$")

# (argv without the knob's value, the knob's flag, the first k with 10^k over the budget)
KNOBS = [
    (["series-check", "--a", "1/3", "--b", "1/2", "--f", F2], "--window", 2),
    (["sugawara-check", "--c1", "1", "--max-level", "1"], "--mode-window", 2),
    (["involution-check", "--p", "16"], "--count", 2),
    (["kac-scan", "--central", "0", "--max-level", "0", "--max-ab", "20"], "--grid", 5),
    (["kac-scan", "--grid", "0/1", "--central", "0", "--max-level", "0"], "--max-ab", 6),
    (["verma-dims", "--max-level", "2"], "--p", 6),
    (["series-check", "--a", "1/3", "--b", "1/2", "--f", F2, "--window", "1"], "--p", 2),
]

# the size knobs that once ran until they were killed
UNBOUNDED = [
    ["sugawara-check", "--mode-window", "100000"],
    ["series-check", "--a", "1/3", "--b", "1/2", "--f", F2, "--window", "100000"],
    ["involution-check", "--count", "100000000"],
    ["kac-scan", "--grid", "100000000/3"],
    ["kac-scan", "--max-ab", "1000000000"],
    ["series-check", "--p", "100000000", "--a", "1/3", "--b", "1/2", "--f", F2, "--window", "1"],
    ["verma-dims", "--p", "100000000", "--max-level", "24"],
]


def run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().err


@pytest.mark.parametrize("argv, flag, first_over", KNOBS)
def test_each_knob_at_every_power_of_ten(capsys, argv, flag, first_over):
    for k in range(10):
        value = "%d/3" % 10 ** k if flag == "--grid" else str(10 ** k)
        code, err = run(capsys, argv + [flag, value])
        assert code in (0, 1, 2), (flag, k)
        assert err.count("\n") == (code == 2), (flag, k, err)
        over = OVER.match(err)
        assert bool(over) == (k >= first_over), (flag, k, err)
        if over:
            assert int(over.group(1)) > int(over.group(2)) == cli.WORK_BUDGET


@pytest.mark.parametrize("argv", UNBOUNDED)
def test_unbounded_requests_exit_two_naming_the_estimate(capsys, argv):
    code, err = run(capsys, argv)
    assert code == 2
    assert OVER.match(err), err
