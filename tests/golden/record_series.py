"""Record exact-series outputs: ``gek series invert``, ``gek grouplaw expand`` and axiom reports.

The pin, ``series_pin.json`` beside this script, holds two lists:

* ``cli``: one entry per ``gek`` run, with its argv, exit code, stdout and
  stderr.  Compositional inverses at orders 1 to 22 (plus the rejected,
  unnormalized inputs) and one at the CLI's top orders 30 and 40; group-law
  expansions for every group-function name at orders 8 to 14, abel with
  a = b included, and for tsallis, kaniadakis and abel at orders 20, 30
  and 40.
* ``axioms``: the ``repr`` of ``verify_group_axioms`` on exact laws and on
  perturbed non-laws whose first broken axiom is identity, commutativity and
  associativity.  Each law is stored as ``[i, j, "p/q"]`` triples with its
  total degree.

``tests/test_series_pin.py`` replays every entry and requires the same output
byte for byte, so a change to how ``gek.series`` computes cannot move an exact
coefficient or a reported first failure.

Usage (from the repository root)::

    PYTHONPATH=src python tests/golden/record_series.py
    PYTHONPATH=src python tests/golden/record_series.py --diff

Re-record only on a commit whose series results are known to be right.
``--diff`` writes nothing: it replays the pin and prints one line per entry
whose output moved, with its argv (or the law's name), the old and new exit
code and the first differing line, and exits 1 if any entry moved.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

PIN = Path(__file__).parent / "series_pin.json"

# monomial coefficients c0,c1,... of the series to invert, and their orders
INVERT = [
    ("0,1,1", (1, 2, 3, 8, 15, 22)),
    ("0,1,5/13,-7/11,1/3", (4, 9, 14, 22)),
    ("0,1,0,-2/3,0,1/5", (5, 12, 22)),
    ("0,1,-1/2,1/3,-1/4,1/5,-1/6,1/7,-1/8", (8, 16, 22)),
    ("0,1,7", (22,)),
    ("0,1,5/13,-7/11,3/17", (30, 40)),
    ("1,1", (3,)),
    ("0,2,1", (3,)),
    ("0", (2,)),
]
# (group-function name, exact --params) for grouplaw expand
LAWS = [
    ("id", ""),
    ("identity", ""),
    ("tsallis", "q=8/13"),
    ("multiplicative", "q=18/13"),
    ("kaniadakis", "k=5/13"),
    ("kaniadakis", "k=-5/13"),
    ("abel", "a=5/13,b=-7/11"),
    ("abel", "a=5/13,b=5/13"),
]
LAW_ORDERS = range(8, 15)
# the laws pinned again up to the CLI's top order, where exact integers grow most
TOP_LAWS = [("abel", "a=5/13,b=-7/11"), ("tsallis", "q=8/13"), ("kaniadakis", "k=5/13")]
TOP_LAW_ORDERS = (20, 30, 40)


def argvs() -> list[list[str]]:
    out = []
    for coeffs, orders in INVERT:
        for order in orders:
            out.append(["series", "invert", "--coeffs", coeffs, "--order", str(order)])
    for laws, orders in ((LAWS, LAW_ORDERS), (TOP_LAWS, TOP_LAW_ORDERS)):
        for family, params in laws:
            for order in orders:
                argv = ["grouplaw", "expand", "--family", family, "--order", str(order)]
                if params:
                    argv += ["--params", params]
                out.append(argv)
    return out


def run(argv: list[str]) -> tuple[int, str, str]:
    """Run ``gek`` in-process and return (exit code, stdout, stderr)."""
    from gek.cli import main

    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _perturbed(law: dict, order: int, delta: dict) -> dict:
    out = dict(law)
    for key, d in delta.items():
        out[key] = out.get(key, Fraction(0)) + d
    return out


def laws() -> list[tuple[str, dict, int]]:
    """(name, coefficient dict, total degree) of every law whose axiom report is pinned."""
    from gek.series import abel_exp_series, group_law_from_G, kaniadakis_exp_series

    abel = group_law_from_G(abel_exp_series(Fraction(5, 13), Fraction(-7, 11), 10), 10).coeffs
    kan = group_law_from_G(kaniadakis_exp_series(Fraction(5, 13), 9), 9).coeffs
    return [
        ("abel-o10", dict(abel), 10),
        ("kaniadakis-o9", dict(kan), 9),
        # identity breaks first: a symmetric x^3 + y^3 term
        ("abel-o10-identity", _perturbed(abel, 10, {(3, 0): Fraction(1, 7), (0, 3): Fraction(1, 7)}), 10),
        # commutativity breaks first: x^2 y without x y^2
        ("abel-o10-commutativity", _perturbed(abel, 10, {(2, 1): Fraction(-2, 9)}), 10),
        # associativity breaks first: a symmetric x^2 y^2 term
        ("kaniadakis-o9-associativity", _perturbed(kan, 9, {(2, 2): Fraction(3, 11)}), 9),
        ("tsallis-o10-associativity",
         {(1, 0): Fraction(1), (0, 1): Fraction(1), (1, 1): Fraction(5, 13), (2, 2): Fraction(-5, 13)}, 10),
    ]


def axiom_repr(coeffs: dict, order: int) -> str:
    from gek.series import BivariateTruncatedSeries, verify_group_axioms

    return repr(verify_group_axioms(BivariateTruncatedSeries(coeffs, order)))


def record() -> dict:
    cli = []
    for argv in argvs():
        code, stdout, stderr = run(argv)
        cli.append({"argv": argv, "exit": code, "stdout": stdout, "stderr": stderr})
    axioms = []
    for name, coeffs, order in laws():
        axioms.append({
            "name": name,
            "order": order,
            "coeffs": [[i, j, str(c)] for (i, j), c in sorted(coeffs.items())],
            "repr": axiom_repr(coeffs, order),
        })
    return {"cli": cli, "axioms": axioms}


def _first_difference(old: str, new: str) -> str:
    old_lines, new_lines = (text.splitlines() + ["<end>"] for text in (old, new))
    differ = (f"line {i + 1}: {a!r} -> {b!r}" for i, (a, b) in enumerate(zip(old_lines, new_lines)) if a != b)
    return next(differ, "unchanged")


def moved(pin: dict) -> list[str]:
    """Replay each pinned entry; one line per entry whose exit code, stdout, stderr or report moved."""
    lines = []
    for entry in pin["cli"]:
        code, stdout, stderr = run(entry["argv"])
        if (code, stdout, stderr) == (entry["exit"], entry["stdout"], entry["stderr"]):
            continue
        if stdout != entry["stdout"]:
            first = "stdout " + _first_difference(entry["stdout"], stdout)
        else:
            first = "stderr " + _first_difference(entry["stderr"], stderr)
        lines.append(f"{' '.join(entry['argv'])}: exit {entry['exit']} -> {code}; {first}")
    for entry in pin["axioms"]:
        coeffs = {(i, j): Fraction(c) for i, j, c in entry["coeffs"]}
        got = axiom_repr(coeffs, entry["order"])
        if got != entry["repr"]:
            lines.append(f"axioms {entry['name']}: {_first_difference(entry['repr'], got)}")
    return lines


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        pinned = json.loads(PIN.read_text())
        lines = moved(pinned)
        for line in lines:
            print(line)
        total = len(pinned["cli"]) + len(pinned["axioms"])
        print(f"{len(lines)} of {total} entries moved", file=sys.stderr)
        sys.exit(1 if lines else 0)
    if sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]} [--diff]")
    pin = record()
    PIN.write_text(json.dumps(pin, indent=1) + "\n")
    print(f"wrote {len(pin['cli'])} runs and {len(pin['axioms'])} axiom reports to {PIN}", file=sys.stderr)
