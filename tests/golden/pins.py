"""The three golden pins of ``gek``'s output: their grids, one runner, one replay.

Each pin is a JSON file beside this script, written with ``indent=1``:

* ``cli_corpus.json``: one entry per command of a fixed list, with its id,
  argv (``{data}`` stands for this directory), exit code, stdout and the class
  name of the exception that escaped ``main`` (null if none did).  The list has
  no grid: the pinned entries are their own.
* ``verify_pin.json``: seeded ``gek verify`` runs, with their argv, exit code
  and stdout.  With ``--suite all``, twelve families at 1, 1023, 1024, 1025
  and 2500 trials (on both sides of the 1024-trial chunk, ``properties._CHUNK``),
  at 255, 256 and 257 (on both sides of the 256-trial chunk it replaced), and
  seeds 7 and 99; then each standalone suite for four families at 257 trials
  and seed 7.
* ``series_pin.json``: ``cli`` holds ``gek series invert`` at orders 1 to 22
  (plus rejected, unnormalized inputs) and at 30 and 40, and ``gek grouplaw
  expand`` for every group-function name at orders 8 to 14 and for tsallis,
  kaniadakis and abel at 20, 30 and 40, each with argv, exit code, stdout and
  stderr.  ``axioms`` holds the ``repr`` of ``verify_group_axioms`` on exact
  laws and on perturbed non-laws whose first broken axiom is identity,
  commutativity and associativity (one breaking only at its top degree), each
  law as ``[i, j, "p/q"]`` triples with its total degree.

Every entry replays byte for byte: each field it pins must be the same, and no
exception may escape ``main`` unless the entry names it.

Usage (from the repository root)::

    PYTHONPATH=src python tests/golden/pins.py
    PYTHONPATH=src python tests/golden/pins.py --record corpus|verify|series

With no argument it writes nothing: it replays all three pins, prints one line
per moved entry (its argv or law name, the old and new exit code and the first
differing line), then per pin ``k of n entries moved`` and ``m verdicts
flipped``, and exits 1 if any entry moved.  A verdict flipped where an entry's
exit code, the ``passed`` of any property of its verify report, or the truth
value of any axiom in its axiom report changed, so a re-record that moves
numbers can be told from one that changes a decision.  Re-record a pin only
on a commit whose output is known to be right; ``--record corpus`` re-runs
the argv of every pinned corpus entry.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

GOLDEN = Path(__file__).parent
FILES = {"corpus": "cli_corpus.json", "verify": "verify_pin.json", "series": "series_pin.json"}
# the fields that name an entry; every other field is an output
NAMES = ("id", "argv", "name", "order", "coeffs")
# the outputs of a gek run that each pin keeps; an axiom entry keeps its report's repr
KEEPS = {"corpus": ("exit", "stdout", "exception"), "verify": ("exit", "stdout"),
         "series": ("exit", "stdout", "stderr")}

# (family, --params): the nine families of the verify-trials benchmark plus
# boltzmann, landsberg_vedral and altz, at orders on both sides of 1
FAMILIES = [
    ("renyi", "alpha=0.5"),
    ("zq", "q=0.5,alpha=2"),
    ("zk", "k=0.3,alpha=0.7"),
    ("zab", "a=0.3,b=-0.2,alpha=0.3"),
    ("zg", "g=kaniadakis,k=0.4,alpha=5"),
    ("zg", "g=abel,a=0.3,b=-0.2,alpha=0.7"),
    ("tsallis_aq", "a=0.8,q=0.5"),
    ("control", ""),
    ("zg", "g=abel,a=2,b=1,alpha=0.5"),
    ("boltzmann", ""),
    ("landsberg_vedral", "q=0.5"),
    ("altz", "g=tsallis,q=0.5,alpha=0.7"),
]
TRIALS = (1, 255, 256, 257, 1023, 1024, 1025, 2500)
SEEDS = (7, 99)
# (family, --params, suites): each standalone suite on its own, at 257 trials
# and seed 7, so a slip in how ``verify`` picks a suite's checks moves an
# entry; extensivity only where the family has a growth law
STANDALONE = [
    ("renyi", "alpha=0.5", ("composability", "sk", "schur", "extensivity")),
    ("zg", "g=abel,a=0.3,b=-0.2,alpha=0.7", ("composability", "sk", "schur", "extensivity")),
    ("control", "", ("composability", "sk", "schur")),
    ("tsallis_aq", "a=0.8,q=0.5", ("composability", "sk", "schur", "extensivity")),
]

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


def _with_params(argv: list[str], params: str) -> list[str]:
    return argv + ["--params", params] if params else argv


def verify_argvs() -> list[list[str]]:
    out = []
    for family, params in FAMILIES:
        for trials in TRIALS:
            for seed in SEEDS:
                argv = ["verify", "--family", family, "--suite", "all", "--trials", str(trials), "--seed", str(seed)]
                out.append(_with_params(argv, params))
    for family, params, suites in STANDALONE:
        for suite in suites:
            argv = ["verify", "--family", family, "--suite", suite, "--trials", "257", "--seed", "7"]
            out.append(_with_params(argv, params))
    return out


def series_argvs() -> list[list[str]]:
    out = []
    for coeffs, orders in INVERT:
        for order in orders:
            out.append(["series", "invert", "--coeffs", coeffs, "--order", str(order)])
    for laws, orders in ((LAWS, LAW_ORDERS), (TOP_LAWS, TOP_LAW_ORDERS)):
        for family, params in laws:
            for order in orders:
                out.append(_with_params(["grouplaw", "expand", "--family", family, "--order", str(order)], params))
    return out


def _perturbed(law: dict, delta: dict) -> dict:
    return {**law, **{key: law.get(key, Fraction(0)) + d for key, d in delta.items()}}


def laws() -> list[tuple[str, dict, int]]:
    """(name, coefficient dict, total degree) of every law whose axiom report is pinned."""
    import random

    from gek.series import abel_exp_series, group_law_from_G, kaniadakis_exp_series, series_from_b_sequence

    def abel_law(order):
        return dict(group_law_from_G(abel_exp_series(Fraction(5, 13), Fraction(-7, 11), order), order).coeffs)

    abel = abel_law(10)
    abel12 = abel_law(12)
    kan = group_law_from_G(kaniadakis_exp_series(Fraction(5, 13), 9), 9).coeffs
    rng = random.Random(25)
    b_law = group_law_from_G(series_from_b_sequence(
        [1] + [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(11)], 12), 12).coeffs
    return [
        ("abel-o10", dict(abel), 10),
        ("kaniadakis-o9", dict(kan), 9),
        # identity breaks first: a symmetric x^3 + y^3 term
        ("abel-o10-identity", _perturbed(abel, {(3, 0): Fraction(1, 7), (0, 3): Fraction(1, 7)}), 10),
        # commutativity breaks first: x^2 y without x y^2
        ("abel-o10-commutativity", _perturbed(abel, {(2, 1): Fraction(-2, 9)}), 10),
        # associativity breaks first: a symmetric x^2 y^2 term
        ("kaniadakis-o9-associativity", _perturbed(kan, {(2, 2): Fraction(3, 11)}), 9),
        ("tsallis-o10-associativity",
         {(1, 0): Fraction(1), (0, 1): Fraction(1), (1, 1): Fraction(5, 13), (2, 2): Fraction(-5, 13)}, 10),
        ("abel-o16", abel_law(16), 16),
        ("b-sequence-o12", dict(b_law), 12),
        # associativity breaks at the top degree only: a symmetric x^6 y^6 term
        ("abel-o12-associativity", _perturbed(abel12, {(6, 6): Fraction(2, 17)}), 12),
        # identity holds, commutativity and associativity break: x^5 y^7 without x^7 y^5
        ("abel-o12-commutativity", _perturbed(abel12, {(5, 7): Fraction(-3, 19)}), 12),
    ]


def load(pin: str) -> list[dict]:
    """The entries of a pin, in file order: the series pin's runs, then its axiom reports."""
    data = json.loads((GOLDEN / FILES[pin]).read_text())
    return data["cli"] + data["axioms"] if pin == "series" else data


def dump(pin: str, entries: list[dict]) -> str:
    """The text of the file of ``pin`` holding ``entries``."""
    if pin == "series":
        entries = {"cli": [e for e in entries if "argv" in e], "axioms": [e for e in entries if "argv" not in e]}
    return json.dumps(entries, indent=1) + "\n"


def grid(pin: str) -> list[dict]:
    """The naming fields of every entry of ``pin``, in its order; the corpus's come from the corpus itself."""
    if pin == "corpus":
        return [{"id": e["id"], "argv": e["argv"]} for e in load(pin)]
    if pin == "verify":
        return [{"argv": argv} for argv in verify_argvs()]
    return [{"argv": argv} for argv in series_argvs()] + [
        {"name": name, "order": order, "coeffs": [[i, j, str(c)] for (i, j), c in sorted(coeffs.items())]}
        for name, coeffs, order in laws()
    ]


def run(argv: list[str]) -> dict:
    """Run ``gek`` in-process: its exit code, stdout, stderr, and the class name of an exception escaping ``main``."""
    from gek.cli import main

    out, err = io.StringIO(), io.StringIO()
    code, exception = 0, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main([tok.replace("{data}", str(GOLDEN)) for tok in argv])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an uncaught exception exits the interpreter with 1
            code, exception = 1, type(exc).__name__
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "exception": exception}


def outputs(entry: dict) -> dict:
    """Every output of the entry named by ``entry``'s naming fields, as the code gives it today."""
    if "argv" in entry:
        return run(entry["argv"])
    from gek.series import BivariateTruncatedSeries, verify_group_axioms

    coeffs = {(i, j): Fraction(c) for i, j, c in entry["coeffs"]}
    return {"repr": repr(verify_group_axioms(BivariateTruncatedSeries(coeffs, entry["order"])))}


def record(pin: str, names: list[dict]) -> str:
    """The text ``--record`` writes for the entries ``names``: each with the outputs ``pin`` keeps."""
    entries = []
    for entry in names:
        got = outputs(entry)
        entries.append({**entry, **{key: got[key] for key in (KEEPS[pin] if "argv" in entry else ("repr",))}})
    return dump(pin, entries)


def _first_difference(old: str, new: str) -> str:
    old_lines, new_lines = (text.splitlines() + ["<end>"] for text in (old, new))
    differ = (f"line {i + 1}: {a!r} -> {b!r}" for i, (a, b) in enumerate(zip(old_lines, new_lines)) if a != b)
    return next(differ, "unchanged")


def verdicts(run: dict) -> tuple:
    """What a run decided: its exit code and each property's ``passed``, or each axiom's truth value in a repr."""
    if "repr" in run:
        return tuple(re.findall(r"(\w+)=(True|False)", run["repr"]))
    try:
        report = json.loads(run["stdout"])
    except ValueError:
        report = None
    properties = report.get("properties", []) if isinstance(report, dict) else []
    return run["exit"], [(p.get("property"), p.get("passed")) for p in properties]


def replay(entries: list[dict]) -> tuple[list[str], int]:
    """``moved(entries)``, and how many of the moved entries flipped a verdict (see ``verdicts``)."""
    lines, flipped = [], 0
    for entry in entries:
        pinned = {"exception": None, **entry} if "argv" in entry else entry
        got = outputs(entry)
        now = {key: got[key] for key in pinned if key not in NAMES}
        if all(pinned[key] == value for key, value in now.items()):
            continue
        flipped += verdicts(pinned) != verdicts(now)
        if "argv" not in entry:
            lines.append(f"axioms {entry['name']}: {_first_difference(entry['repr'], now['repr'])}")
            continue
        texts = (f"{key} {_first_difference(str(pinned[key]), str(now[key]))}"
                 for key in ("stdout", "stderr", "exception") if key in now and pinned[key] != now[key])
        first = next(texts, "output unchanged")
        lines.append(f"{' '.join(entry['argv'])}: exit {pinned['exit']} -> {now['exit']}; {first}")
    return lines, flipped


def moved(entries: list[dict]) -> list[str]:
    """Replay each entry; one line per entry with a pinned field, or an unpinned escaping exception, that moved."""
    return replay(entries)[0]


if __name__ == "__main__":
    os.environ.pop("GEK_SEED", None)
    if len(sys.argv) == 3 and sys.argv[1] == "--record" and sys.argv[2] in FILES:
        pin = sys.argv[2]
        names = grid(pin)
        (GOLDEN / FILES[pin]).write_text(record(pin, names))
        print(f"wrote {len(names)} entries to {GOLDEN / FILES[pin]}", file=sys.stderr)
        sys.exit(0)
    if sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]} [--record {'|'.join(FILES)}]")
    any_moved = False
    for pin in FILES:
        entries = load(pin)
        lines, flipped = replay(entries)
        for line in lines:
            print(line)
        print(f"{pin}: {len(lines)} of {len(entries)} entries moved, {flipped} verdicts flipped")
        any_moved = any_moved or bool(lines)
    sys.exit(1 if any_moved else 0)
