"""Record the stdout and exit code of seeded ``gek verify`` runs.

The pin, ``verify_pin.json`` beside this script, holds one entry per run: its
argv, exit code and stdout.  ``tests/test_verify_pin.py`` replays every entry
and requires the same output byte for byte, so a change to how the trial
loops draw, evaluate or fold their trials cannot move a seeded report.

Usage (from the repository root)::

    PYTHONPATH=src python tests/golden/record_verify.py
    PYTHONPATH=src python tests/golden/record_verify.py --diff

Re-record only on a commit whose reports are known to be right.  ``--diff``
writes nothing: it replays the pin and prints one line per entry whose output
moved, with its argv, the old and new exit code and the first differing line,
and exits 1 if any entry moved.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

PIN = Path(__file__).parent / "verify_pin.json"

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
TRIALS = (1, 255, 256, 257, 2500)
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


def argvs() -> list[list[str]]:
    out = []
    for family, params in FAMILIES:
        for trials in TRIALS:
            for seed in SEEDS:
                argv = ["verify", "--family", family, "--suite", "all", "--trials", str(trials), "--seed", str(seed)]
                if params:
                    argv += ["--params", params]
                out.append(argv)
    for family, params, suites in STANDALONE:
        for suite in suites:
            argv = ["verify", "--family", family, "--suite", suite, "--trials", "257", "--seed", "7"]
            if params:
                argv += ["--params", params]
            out.append(argv)
    return out


def run(argv: list[str]) -> tuple[int, str]:
    """Run ``gek`` in-process and return (exit code, stdout)."""
    from gek.cli import main

    out = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def record() -> list[dict]:
    entries = []
    for argv in argvs():
        code, stdout = run(argv)
        entries.append({"argv": argv, "exit": code, "stdout": stdout})
    return entries


def moved(pinned: list[dict]) -> list[str]:
    """Replay each pinned entry; one line per entry whose exit code or stdout moved."""
    lines = []
    for entry in pinned:
        code, stdout = run(entry["argv"])
        if (code, stdout) == (entry["exit"], entry["stdout"]):
            continue
        old, new = (text.splitlines() + ["<end>"] for text in (entry["stdout"], stdout))
        differ = (f"line {i + 1}: {a!r} -> {b!r}" for i, (a, b) in enumerate(zip(old, new)) if a != b)
        first = next(differ, "stdout unchanged")
        lines.append(f"{' '.join(entry['argv'])}: exit {entry['exit']} -> {code}; {first}")
    return lines


if __name__ == "__main__":
    os.environ.pop("GEK_SEED", None)
    if sys.argv[1:] == ["--diff"]:
        pinned = json.loads(PIN.read_text())
        lines = moved(pinned)
        for line in lines:
            print(line)
        print(f"{len(lines)} of {len(pinned)} entries moved", file=sys.stderr)
        sys.exit(1 if lines else 0)
    if sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]} [--diff]")
    entries = record()
    PIN.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {len(entries)} entries to {PIN}", file=sys.stderr)
