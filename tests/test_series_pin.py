"""Exact-series outputs, replayed byte for byte.

``golden/series_pin.json`` was written by ``golden/record_series.py`` before
``gek.series`` moved to integer-numerator arithmetic and Lagrange inversion:
``gek series invert`` at orders 1 to 22, ``gek grouplaw expand`` for every
group-function name at orders 8 to 14, and the ``repr`` of
``verify_group_axioms`` on exact laws and on non-laws that break identity,
commutativity and associativity first.  The entries at the CLI's top orders
(``series invert`` at 30 and 40, ``grouplaw expand`` for abel, tsallis and
kaniadakis at 20, 30 and 40) were added before the kernel began dividing
out each power's content.  Every output must stay as pinned.
"""

import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
_spec = importlib.util.spec_from_file_location("record_series", GOLDEN / "record_series.py")
record_series = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_series)

PIN = json.loads((GOLDEN / "series_pin.json").read_text())


def test_pin_covers_the_recorded_grid():
    assert [e["argv"] for e in PIN["cli"]] == record_series.argvs()
    laws = record_series.laws()
    assert [e["name"] for e in PIN["axioms"]] == [name for name, _, _ in laws]
    for entry, (_, coeffs, order) in zip(PIN["axioms"], laws):
        assert entry["order"] == order
        assert {(i, j): Fraction(c) for i, j, c in entry["coeffs"]} == coeffs


@pytest.mark.parametrize("entry", PIN["cli"], ids=[" ".join(e["argv"]) for e in PIN["cli"]])
def test_cli_output_is_unchanged(entry):
    assert record_series.run(entry["argv"]) == (entry["exit"], entry["stdout"], entry["stderr"])


@pytest.mark.parametrize("entry", PIN["axioms"], ids=[e["name"] for e in PIN["axioms"]])
def test_axiom_report_is_unchanged(entry):
    coeffs = {(i, j): Fraction(c) for i, j, c in entry["coeffs"]}
    assert record_series.axiom_repr(coeffs, entry["order"]) == entry["repr"]


def test_diff_reports_each_moved_entry():
    cli = dict(PIN["cli"][0], stdout=PIN["cli"][0]["stdout"] + "extra\n")
    axioms = dict(PIN["axioms"][0], repr="moved")
    lines = record_series.moved({"cli": [cli, PIN["cli"][1]], "axioms": [axioms, PIN["axioms"][1]]})
    assert lines == [
        f"{' '.join(cli['argv'])}: exit 0 -> 0; stdout line {len(cli['stdout'].splitlines())}: 'extra' -> '<end>'",
        f"axioms {axioms['name']}: line 1: 'moved' -> {PIN['axioms'][0]['repr']!r}",
    ]
