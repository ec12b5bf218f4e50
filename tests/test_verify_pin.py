"""Seeded ``gek verify`` reports, replayed byte for byte.

``golden/verify_pin.json`` was written by ``golden/record_verify.py``: with
``--suite all``, twelve families at 1, 255, 256, 257 and 2500 trials (on both
sides of the 256-trial chunk) and seeds 7 and 99, recorded before the trial
loops were batched; then each standalone suite for four families at 257
trials and seed 7, recorded before the sampled checks became rows of one
table.  The stdout and exit code of every run must stay exactly as pinned.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
_spec = importlib.util.spec_from_file_location("record_verify", GOLDEN / "record_verify.py")
record_verify = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_verify)

PIN = json.loads((GOLDEN / "verify_pin.json").read_text())


@pytest.fixture(autouse=True)
def _no_env_seed(monkeypatch):
    monkeypatch.delenv("GEK_SEED", raising=False)


def test_pin_covers_the_recorded_grid():
    assert [e["argv"] for e in PIN] == record_verify.argvs()


@pytest.mark.parametrize("entry", PIN, ids=[" ".join(e["argv"][2:]) for e in PIN])
def test_verify_report_is_unchanged(entry):
    assert record_verify.run(entry["argv"]) == (entry["exit"], entry["stdout"])


def test_diff_mode_names_only_the_entries_that_moved():
    entry = PIN[0]
    assert record_verify.moved([entry]) == []
    lines = entry["stdout"].splitlines(keepends=True)
    doctored = dict(entry, exit=1, stdout="".join(lines[:1] + ['  "all_passed": false,\n'] + lines[2:]))
    (line,) = record_verify.moved([doctored])
    assert line.startswith(" ".join(entry["argv"]) + ": exit 1 -> 0; line 2: ")
    assert line.endswith("""'  "all_passed": false,' -> '  "all_passed": true,'""")
    (line,) = record_verify.moved([dict(entry, exit=1)])
    assert line.endswith("exit 1 -> 0; stdout unchanged")
