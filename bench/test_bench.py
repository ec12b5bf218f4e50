"""Self-tests of the benchmark.  From the checkout root: ``python3 -m pytest bench -q``.

They run real workloads, so they take a couple of minutes; a broken workload
or a wrong known answer fails here instead of reporting a number.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
sys.path.insert(0, BENCH)

import calibration  # noqa: E402
import known  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# Ops that sit at a listed defect instead of the contract answer at the seed commit.
SEED_DEFECTS = {
    "cli-oneshot": {p[0] for p in known.PROBES},
    "verify-trials": {"zg-abel-2-1"},
    "spectra-sweep": set(),
    "exact-series": set(),
}


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _worker(workload: str, seed: int, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload, "--seed", str(seed), *extra],
        cwd=ROOT, env=run.worker_env(ROOT), capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return _last_json(proc.stdout)


def test_known_answer_table_is_consistent():
    assert known.self_check() == []


def test_per_op_latency_is_adjusted_for_host_speed():
    ref = calibration.REFERENCE_S
    latencies = [1.0, 3.0, 2.0, 6.0, 1.5, 4.5]  # three cycles of two ops
    # a host at half speed throughout halves every time
    assert calibration.per_op(latencies, [2 * ref] * 7, 2) == pytest.approx([0.75, 2.25])
    # one stray calibration is outvoted by its neighbours
    assert calibration.per_op(latencies, [ref] * 3 + [10 * ref] + [ref] * 3, 2) == pytest.approx([1.5, 4.5])
    assert calibration.adjusted(5.0, 2 * ref) == 2.5


def test_fast_selftest_passes():
    proc = subprocess.run([sys.executable, "bench/run.py", "--selftest", "--seed", "3"], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_known_answer_holds_on_two_seeds(workload, seed):
    report = _worker(workload, seed, "--ops", "cycle")
    assert report["attempted"] == report["ops_per_cycle"]
    assert report["failures"] == []
    assert set(report["defects"]) <= SEED_DEFECTS[workload]


def test_end_to_end_output_matches_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert spec["paths"] == ["bench"] and [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "exact-series", "--seed", "5",
                           "--seconds", "2", "--trace", "0"], cwd=ROOT, capture_output=True, text=True, timeout=170)
    result = _last_json(proc.stdout)
    assert proc.returncode == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert [m["name"] for m in spec["end_to_end"]] == list(result["metrics"])
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"] and result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", ["cli-oneshot", "verify-trials"])
def test_traced_run_reports_every_per_layer_metric(workload):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
                           "--seconds", "2", "--trace", "1"], cwd=ROOT, capture_output=True, text=True, timeout=170)
    result = _last_json(proc.stdout)
    assert proc.returncode == 0 and result["correct"]
    assert [m["name"] for m in spec["per_layer"]] == list(result["metrics"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["cli.parse_ms"] > 0 and metrics["cli.run_ms"] > 0 and metrics["entropy.value_calls"] > 0
    if workload == "verify-trials":
        assert metrics["properties.composability_ms"] > 0 and metrics["grouplog.inverse_calls_numeric"] > 0
    else:
        assert metrics["cli.import_share"] > 0.5


def test_refuses_to_run_without_the_program():
    bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "exact-series", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
