"""Smoke test of tools/loop_phases.py, the per-row phase split of the trial loop."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]


def test_loop_phases_prints_every_row_and_phase():
    result = subprocess.run([sys.executable, str(ROOT / "tools" / "loop_phases.py"), "--trials", "3", "--cycles", "1"],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert "9 families, 3 trials, median of 1 cycles" in lines[0]
    assert lines[1].split()[:6] == ["row", "draw", "build", "reduce", "tails", "judge"]
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:]}
    assert set(rows) == {"composability", "sk-continuity-proxy", "sk-maximum-on-uniform", "sk-expansibility",
                         "schur-majorization-ordering", "schur-ostrowski-criterion", "all", "share"}
    for name, cells in rows.items():
        if name not in ("all", "share"):
            assert len(cells) == 6 and all(float(c) >= 0 for c in cells), name
    assert sum(float(c.rstrip("%")) for c in rows["share"]) > 95
