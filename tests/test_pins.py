"""The three golden pins of ``gek``'s output, replayed byte for byte.

``golden/pins.py`` holds the pins' grids, runner and replay; its docstring
says what each pin holds.  The corpus was pinned before the Z-families became
aliases of ``zg``, the verify pin before the trial loops were batched and the
sampled checks became rows, and the series pin before ``gek.series`` moved to
integer-numerator arithmetic, Lagrange inversion and content-free powers.
"""

import importlib.util
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
_spec = importlib.util.spec_from_file_location("pins", GOLDEN / "pins.py")
pins = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pins)

ENTRIES = [(pin, entry) for pin in pins.FILES for entry in pins.load(pin)]


def _id(pin, entry):
    return f"{pin}:{entry.get('id') or entry.get('name') or ' '.join(entry['argv'])}"


@pytest.fixture(autouse=True)
def _no_env_seed(monkeypatch):
    monkeypatch.delenv("GEK_SEED", raising=False)


@pytest.mark.parametrize("pin", ["verify", "series"])
def test_pin_covers_the_recorded_grid(pin):
    assert [{key: e[key] for key in pins.NAMES if key in e} for e in pins.load(pin)] == pins.grid(pin)


@pytest.mark.parametrize("pin, entry", ENTRIES, ids=[_id(pin, entry) for pin, entry in ENTRIES])
def test_entry_replays_byte_for_byte(pin, entry):
    assert pins.moved([entry]) == []


@pytest.mark.parametrize("pin", list(pins.FILES))
def test_record_writes_each_pinned_entry_as_pinned(pin):
    # the first and last entry through --record's own path, so it can neither drop nor add a field;
    # the series pin's last entry is an axiom report
    entries, names = pins.load(pin), pins.grid(pin)
    assert pins.record(pin, [names[0], names[-1]]) == pins.dump(pin, [entries[0], entries[-1]])
    assert pins.dump(pin, entries) == (GOLDEN / pins.FILES[pin]).read_text()


def test_diff_names_each_moved_verify_or_corpus_entry(monkeypatch):
    entry = pins.load("verify")[0]
    lines = entry["stdout"].splitlines(keepends=True)
    doctored = dict(entry, exit=1, stdout="".join(lines[:1] + ['  "all_passed": false,\n'] + lines[2:]))
    (line,) = pins.moved([doctored])
    assert line.startswith(" ".join(entry["argv"]) + ": exit 1 -> 0; stdout line 2: ")
    assert line.endswith("""'  "all_passed": false,' -> '  "all_passed": true,'""")
    (line,) = pins.moved([dict(entry, exit=1)])
    assert line.endswith("exit 1 -> 0; output unchanged")
    probe = next(e for e in pins.load("corpus") if e["id"] == "probe-zk-alpha-inf")
    (line,) = pins.moved([dict(probe, exit=1, exception="ZeroDivisionError")])
    assert line.endswith(": exit 1 -> 2; exception line 1: 'ZeroDivisionError' -> 'None'")
    # an exception that escapes where the entry pins none moves it, with the same exit code and stdout
    monkeypatch.setattr("gek.cli.main", lambda argv: 1 / 0)
    (line,) = pins.moved([dict(entry, exit=1, stdout="")])
    assert line.endswith("exit 1 -> 1; exception line 1: 'None' -> 'ZeroDivisionError'")


def test_diff_reports_each_moved_series_entry():
    cli, axioms = pins.load("series")[0], pins.load("series")[-1]
    extra = dict(cli, stdout=cli["stdout"] + "extra\n")
    law = dict(axioms, repr="moved")
    assert pins.moved([extra, cli, law, axioms]) == [
        f"{' '.join(cli['argv'])}: exit 0 -> 0; stdout line {len(extra['stdout'].splitlines())}: 'extra' -> '<end>'",
        f"axioms {law['name']}: line 1: 'moved' -> {axioms['repr']!r}",
    ]
