"""Report bytes and exit codes pinned for a fixed argv set.

Each entry of golden/cases.json gives an argv and the exit code it must
return; golden/<name>.out holds the exact stdout.  Paths in an argv are
relative to the golden directory.  A golden file changes only on purpose,
with a line in CHANGES.md that says why.
"""

import json
from pathlib import Path

import pytest

from gapvir.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, capsys, monkeypatch):
    case = CASES[name]
    monkeypatch.chdir(GOLDEN)
    monkeypatch.delenv("GAPVIR_MAX_LEVEL", raising=False)
    code = main(case["argv"])
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert out.encode() == (GOLDEN / (name + ".out")).read_bytes()
