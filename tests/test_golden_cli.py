"""Golden CLI corpus: stdout and exit code of a fixed command list, pinned before
the Z-families became aliases of ``zg``.

``golden/cli_corpus.json`` holds one entry per command: its argv (``{data}``
stands for the ``golden`` directory), the exit code, the stdout, and the name of
the exception that escaped ``main`` if one did.  Every entry must reproduce
byte for byte, except the 18 in TOLERANT.  The zq/zk/zab entries (and ``lmg
demo``, which evaluates zab with b = 0) now run through their group function,
and zg with the identity G now composes by the exact additive law that renyi
always used; in those 18 entries this moved the last digit of some values.
For them the exit code, the JSON keys and the verdict fields must be equal,
values must agree within 2e-14 relative and worst residuals within 1e-13
absolute.  The residuals that are finite-difference quotients divide a
last-digit change of the value by a small step; they must agree within 1e-5
relative.  Witnesses are compared by their keys only, since a rounding-level
change may pick another worst trial.  The entries in
INTENDED_EXIT are behaviour this change meant to alter.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

from gek.cli import main

GOLDEN = Path(__file__).parent / "golden"
CORPUS = json.loads((GOLDEN / "cli_corpus.json").read_text())
REL_TOL = 2e-14
RESIDUAL_ABS_TOL = 1e-13
FD_REL_TOL = 1e-5
FD_PROPERTIES = ("sk-continuity-proxy", "schur-ostrowski-criterion")

# the entries whose stdout moved in the last digits; every other entry is compared byte for byte
TOLERANT = {
    "eval-zq-q0.5-alpha0.5-0.5,0.3,0.2",
    "sweep-zq-q0.5-alpha0.5",
    "verify-zq-q0.5-alpha0.5",
    "eval-zq-q1.5-alpha2-d5",
    "verify-zq-q1.5-alpha2",
    "verify-zq-q2-alpha0.3",
    "sweep-zk-k0.3-alpha0.5",
    "verify-zk-k0.3-alpha0.5",
    "eval-zk-k-0.4-alpha1.5-d5",
    "sweep-zk-k-0.4-alpha1.5",
    "verify-zk-k-0.4-alpha1.5",
    "verify-zk-k0.6-alpha0.7",
    "verify-zab-a0.8-b0-alpha0.7",
    "eval-zab-a0.6-b0.2-alpha2-u4",
    "verify-zab-a0.9-b-0.4-alpha0.3",
    "verify-zg-gid-alpha0.3",
    "verify-zg-gidentity-alpha1.7",
    "lmg-m1-N14-sweep",
}

# entry id -> the exit code the entry now has (stdout empty, no exception)
INTENDED_EXIT = {
    # non-finite parameters are rejected as bad input (were a silent pass / a traceback)
    "probe-renyi-alpha-nan": 2,
    "probe-zk-alpha-inf": 2,
    "probe-entropy-renyi-alpha-nan": 2,
    # --trials below 1 is bad input (was a vacuous pass)
    "probe-trials-0": 2,
    "probe-trials-minus-5": 2,
}


def run_cli(argv: list) -> tuple[int, str, str | None]:
    """Run ``gek`` in-process: (exit code, stdout, name of an escaping exception or None)."""
    argv = [tok.replace("{data}", str(GOLDEN)) for tok in argv]
    out = io.StringIO()
    code, exc_name = 0, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an uncaught exception exits the interpreter with 1
            code, exc_name = 1, type(exc).__name__
    return code, out.getvalue(), exc_name


def _assert_close(old, new, where: str) -> None:
    if isinstance(old, dict):
        assert isinstance(new, dict) and old.keys() == new.keys(), where
        for key in old:
            if key == "worst_residual":
                _assert_residual(old[key], new[key], old.get("property"), f"{where}.{key}")
                continue
            if key == "witness":
                assert old[key].keys() == new[key].keys(), f"{where}.witness"
                continue
            _assert_close(old[key], new[key], f"{where}.{key}")
    elif isinstance(old, list):
        assert isinstance(new, list) and len(old) == len(new), where
        for i, (a, b) in enumerate(zip(old, new)):
            _assert_close(a, b, f"{where}[{i}]")
    elif isinstance(old, float) and isinstance(new, float):
        assert old == new or abs(old - new) <= REL_TOL * max(abs(old), abs(new)), f"{where}: {old} vs {new}"
    else:
        assert old == new, f"{where}: {old!r} vs {new!r}"


def _assert_residual(old, new, name, where: str) -> None:
    if not (isinstance(old, float) and math.isfinite(old)):
        assert old == new, f"{where}: {old!r} vs {new!r}"
        return
    bound = max(RESIDUAL_ABS_TOL, FD_REL_TOL * abs(old) if name in FD_PROPERTIES else 0.0)
    assert isinstance(new, float) and abs(new - old) <= bound, f"{where}: {old} vs {new}"


def _parse(text: str):
    """JSON reports as they are; numbers and CSV as a list of rows of floats or strings."""
    if text.startswith("{"):
        return json.loads(text)

    def cell(tok):
        try:
            return float(tok)
        except ValueError:
            return tok

    return [[cell(tok) for tok in line.split(",")] for line in text.splitlines()]


@pytest.fixture(autouse=True)
def _no_env_seed(monkeypatch):
    monkeypatch.delenv("GEK_SEED", raising=False)


def test_tolerant_entries_are_in_the_corpus():
    # an id left over from a removed entry would widen nothing, but would read as if it did
    assert TOLERANT <= {e["id"] for e in CORPUS}


@pytest.mark.parametrize("entry", CORPUS, ids=[e["id"] for e in CORPUS])
def test_golden(entry):
    code, stdout, exc_name = run_cli(entry["argv"])
    if entry["id"] in INTENDED_EXIT:
        assert (code, stdout, exc_name) == (INTENDED_EXIT[entry["id"]], "", None)
        assert (entry["exit"], entry["exception"]) != (code, exc_name)
        return
    assert (code, exc_name) == (entry["exit"], entry["exception"])
    if entry["id"] not in TOLERANT:
        assert stdout == entry["stdout"]
        return
    _assert_close(_parse(entry["stdout"]), _parse(stdout), entry["id"])
