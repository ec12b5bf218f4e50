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
    assert lines[1].split()[:7] == ["row", "draw", "build", "reduce", "tails", "law", "judge"]
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:]}
    assert set(rows) == {"composability", "sk-continuity-proxy", "sk-maximum-on-uniform", "sk-expansibility",
                         "schur-majorization-ordering", "schur-ostrowski-criterion", "all", "share"}
    for name, cells in rows.items():
        if name not in ("all", "share"):
            assert len(cells) == 7 and all(float(c) >= 0 for c in cells), name
            assert (float(cells[4]) > 0) == (name == "composability"), name  # the one row with a law
    assert sum(float(c.rstrip("%")) for c in rows["share"]) > 95


def test_the_draw_phase_times_one_draw_per_chunk():
    # 1025 trials are a chunk of 1024 and one of 1, for each of the six rows of each of the nine families
    script = f"""
import sys
sys.path.insert(0, {str(ROOT / "tools")!r})
import loop_phases

sizes, timed = [], loop_phases.timed


def counting(fn, spent, phase):
    wrapper = timed(fn, spent, phase)
    return (lambda rng, n, w_values: sizes.append(n) or wrapper(rng, n, w_values)) if phase == "draw" else wrapper


loop_phases.timed = counting
split = loop_phases.cycle(1025, 0)
print(len(split), sorted(set(sizes)), len(sizes))
"""
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["6", "[1,", "1024]", str(2 * 6 * 9)]
