"""The summaries that ``tools/bench_pairs.py`` writes into a BENCH file, on made-up runs."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "op_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
           {"name": "trials_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]


def run(p50, rate, failed=0, correct=None):
    return {"result": {"metrics": {"op_p50_s": {"value": p50}, "trials_per_s": {"value": rate}},
                       "correct": failed == 0 if correct is None else correct, "attempted": 100, "failed": failed}}


def pairs(parent, change):
    return [{"seed": i, "parent": run(*p), "change": run(*c)} for i, (p, c) in enumerate(zip(parent, change))]


def test_sides_alternate_which_runs_first():
    assert [bench_pairs.order_of(i)[0] for i in range(4)] == ["parent", "change", "parent", "change"]


def test_stats_are_exclusive_quartiles():
    got = bench_pairs.stats([1.0, 2.0, 3.0, 4.0, 5.0])
    assert got == {"median": 3.0, "iqr": 3.0, "q1": 1.5, "q3": 4.5, "min": 1.0, "max": 5.0}
    assert bench_pairs.stats([2.0])["iqr"] == 0.0


def test_summary_counts_wins_in_each_metric_direction():
    runs = pairs([(1.0, 100.0)] * 4, [(0.5, 150.0), (0.5, 90.0), (1.0, 100.0), (2.0, 200.0)])
    summary = bench_pairs.summarize(runs, METRICS)
    assert summary["op_p50_s"]["change_wins"] == "2/4"  # the tie counts for neither side
    assert summary["trials_per_s"]["change_wins"] == "2/4"
    assert summary["op_p50_s"]["change_rel"] == pytest.approx(-0.25)
    assert not summary["op_p50_s"]["worse_than_bound"]
    slower = bench_pairs.summarize(pairs([(1.0, 100.0)] * 2, [(1.3, 70.0)] * 2), METRICS)
    assert slower["op_p50_s"]["worse_than_bound"] and slower["trials_per_s"]["worse_than_bound"]


def test_section_sums_failed_ops_and_reads_correctness_per_side():
    got = bench_pairs.section(pairs([(1.0, 100.0, 2), (1.0, 100.0)], [(0.7, 100.0)] * 2), METRICS)
    assert got["failed_ops"] == {"parent": 2, "change": 0}
    assert got["attempted_ops"] == {"parent": 200, "change": 200}
    assert got["all_correct"] == {"parent": False, "change": True}


def test_claim_needs_nine_wins_a_gap_past_the_parent_iqr_and_the_held_out_pairs():
    def claim(parent, change, held_parent=(1.0, 100.0), held_change=(0.7, 100.0)):
        held = bench_pairs.section(pairs([held_parent], [held_change]), METRICS)
        return bench_pairs.claim("exact-series", "op_p50_s", bench_pairs.section(pairs(parent, change), METRICS), held)

    parent = [(1.0 + 0.01 * i, 100.0) for i in range(10)]
    change = [(0.7, 100.0)] * 9 + [(1.2, 100.0)]
    got = claim(parent, change)
    assert got["met"] and got["change_wins"] == "9/10" and got["gain_rel"] > 0.25
    assert not claim(parent, change, held_change=(1.1, 100.0))["met"]
    assert not claim(parent, [(0.7, 100.0)] * 8 + [(1.2, 100.0)] * 2)["met"]
    # a gain inside the parent's spread does not count
    spread = [(1.0 + 0.1 * i, 100.0) for i in range(10)]
    assert not claim(spread, [(p - 0.05, 100.0) for p, _ in spread])["met"]
    # nor one where a change run is not correct or fails more ops than the parent, held out or not
    assert not claim(parent, change[:-1] + [(1.2, 100.0, 1)])["met"]
    assert not claim(parent, change, held_change=(0.7, 100.0, 1))["met"]
    assert not claim(parent, change[:-1] + [(1.2, 100.0, 0, False)])["met"]
    assert not claim(parent, change[:-1] + [(1.2, 100.0, 1, True)])["met"]
    assert claim([(p, r, 3) for p, r in parent], change)["met"]


@pytest.mark.parametrize("claim", ["exact-series", "exact-series:op_p50_s:x", ":op_p50_s", "exact-series:"])
def test_a_claim_not_workload_colon_metric_is_a_usage_error(claim, capsys):
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--pr", "0", "--claim", claim])
    assert exc.value.code == 2
    assert f"--claim {claim}: not a declared workload and end-to-end metric" in capsys.readouterr().err


def test_host_says_whether_the_runs_could_write_bytecode(monkeypatch):
    provenance = {"python": "3.11.7", "nproc": 2, "extra": 1}
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    got = bench_pairs.host(provenance)
    assert got["python"] == "3.11.7" and got["nproc"] == 2 and "extra" not in got
    assert got["writes_pyc"] is False
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
    assert bench_pairs.host(provenance)["writes_pyc"] is True
    assert got["pyc_precompiled"] is True


def test_export_compiles_the_copy_even_where_no_bytecode_is_written(monkeypatch, tmp_path):
    # the runs of a BENCH file read .pyc files as an installed gek does, whatever PYTHONDONTWRITEBYTECODE says
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    dest = tmp_path / "copy"
    sha = bench_pairs.export("HEAD", str(dest))
    assert len(sha) == 40
    compiled = {p.name.split(".")[0] for p in (dest / "src" / "gek" / "__pycache__").glob("*.pyc")}
    assert compiled == {p.stem for p in (dest / "src" / "gek").glob("*.py")}


def test_host_records_the_numpy_simd_dispatch_in_use():
    from numpy._core import _multiarray_umath as umath

    got = bench_pairs.host({})
    assert got["numpy_simd_baseline"] == list(umath.__cpu_baseline__)
    assert got["numpy_simd_dispatch"] == [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__[t]]
    assert json.loads(json.dumps(got)) == got
    if not got["numpy_simd_dispatch"]:
        return
    # a target switched off for the process drops out of the record
    top = got["numpy_simd_dispatch"][-1]
    code = "import json, sys; sys.path.insert(0, 'tools'); import bench_pairs; print(json.dumps(bench_pairs.host({})))"
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": top}
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    switched_off = json.loads(out.stdout)
    assert switched_off["numpy_simd_dispatch"] == got["numpy_simd_dispatch"][:-1]
    assert switched_off["numpy_simd_baseline"] == got["numpy_simd_baseline"]


@pytest.mark.filterwarnings("ignore:numpy.core._multiarray_umath is deprecated:DeprecationWarning")
def test_simd_tables_come_from_numpy_core_before_numpy_2(monkeypatch):
    # numpy < 2.0 has no numpy._core: blocking it leaves only the numpy.core module to read
    from numpy._core import _multiarray_umath as umath

    expected = bench_pairs.numpy_simd()
    assert expected["numpy_simd_baseline"] == list(umath.__cpu_baseline__)
    monkeypatch.setitem(sys.modules, "numpy._core._multiarray_umath", None)
    with pytest.raises(ImportError):
        importlib.import_module("numpy._core._multiarray_umath")
    assert bench_pairs.numpy_simd() == expected
    assert bench_pairs.host({})["numpy_simd_dispatch"] == expected["numpy_simd_dispatch"]


def test_main_reads_the_simd_tables_before_the_first_run(monkeypatch, tmp_path):
    order = []
    simd, run_pairs = bench_pairs.numpy_simd, bench_pairs.run_pairs
    monkeypatch.setattr(bench_pairs, "numpy_simd", lambda: order.append("simd") or simd())
    monkeypatch.setattr(bench_pairs, "run_pairs", lambda *args: order.append("run") or run_pairs(*args))
    report, _ = fake_main(monkeypatch, tmp_path, [])
    assert order[0] == "simd" and order.count("simd") == 1 and "run" in order
    assert report["host"]["numpy_simd_baseline"] == simd()["numpy_simd_baseline"]


def fake_main(monkeypatch, tmp_path, argv):
    """``main`` on made-up runs of every declared workload: the BENCH file it writes, and the runs it asked for."""
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(bench_pairs, "ROOT", str(tmp_path))
    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: rev)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    calls = []

    def bench_run(copy, workload, seed, seconds, trace):
        calls.append((workload, seed, trace))
        value = 1.0 if copy.endswith("parent") else 0.9
        metrics = {m["name"]: {"value": value} for m in declared["end_to_end"]}
        return {"provenance": {"src_sha256": copy[-6:]},
                "result": {"metrics": metrics, "correct": True, "attempted": 10, "failed": 0}}

    monkeypatch.setattr(bench_pairs, "bench_run", bench_run)
    assert bench_pairs.main(["--pr", "0", "--parent", "p", "--change", "c", *argv]) == 0
    return json.loads((tmp_path / "BENCH_0.json").read_text()), calls


def test_without_a_claim_only_the_pairs_are_run_and_the_claim_is_null(monkeypatch, tmp_path):
    report, calls = fake_main(monkeypatch, tmp_path, [])
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert report["claim"] is None
    assert not any(key.startswith("held_out") or key.startswith("traced") for key in report)
    assert list(report["workloads"]) == workloads
    for workload in workloads:
        summary = report["workloads"][workload]["summary"]
        assert all(entry["worse_than_bound"] is False for entry in summary.values())
    assert len(calls) == 2 * bench_pairs.PAIRS * len(workloads)
    first = bench_pairs.FIRST_SEED
    assert {seed for _, seed, _ in calls} == set(range(first, first + bench_pairs.PAIRS))
    assert all(trace == 0 for _, _, trace in calls)
    assert "No gain is claimed" in report["about"]


def test_with_a_claim_the_held_out_and_traced_runs_follow(monkeypatch, tmp_path):
    report, calls = fake_main(monkeypatch, tmp_path, ["--claim", "exact-series:op_p50_s"])
    assert report["claim"]["workload"] == "exact-series" and report["claim"]["metric"] == "op_p50_s"
    assert report["held_out_exact_series"]["summary"]["op_p50_s"]["change_wins"] == "2/2"
    assert set(report["traced"]) == {"parent", "change"}
    assert [c for c in calls if c[2] == 1] == [("exact-series", bench_pairs.TRACED_SEED, 1)] * 2
    assert "No gain is claimed" not in report["about"]
