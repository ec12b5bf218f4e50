"""Run one workload of the gek benchmark and print its metrics.

From the root of a gek checkout:

    python3 bench/run.py --workload verify-trials --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --selftest          # one op per workload + known-answer table

The program is run from the checkout's own ``src`` (nothing is installed).
Each workload runs in a fresh worker process (bench/worker.py) with BLAS
pinned to one thread.  ``--trace 0`` reports the end-to-end metrics; the
set-up time is the median over several fresh workers.  ``--trace 1`` runs
an untraced phase and a traced phase in one worker and reports per-layer
metrics.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import calibration  # noqa: E402  (stdlib only)
import known  # noqa: E402

WORKLOADS = ("cli-oneshot", "verify-trials", "spectra-sweep", "exact-series")
SETUP_REPEATS = 3
DEADLINE_S = 170.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
NOISE_NOTE = (
    "the benchmark's own processes are pinned to one CPU so that the host-speed calibration runs where the "
    "ops run; no cgroup is touched, no cache is dropped; remaining noise: other tenants of a shared host "
    "with few cores where the calibration loop and the op feel them differently, process spawn jitter "
    "(every cli-oneshot op and every set-up starts a process), page-cache state on the first run in a checkout"
)
CPUS_USABLE = sorted(os.sched_getaffinity(0))


def pin_to_one_cpu() -> int:
    """Run this process and every process it starts on one CPU, the one the calibration measures."""
    cpu = CPUS_USABLE[-1]
    os.sched_setaffinity(0, {cpu})
    return cpu


class BenchError(RuntimeError):
    pass


def worker_env(root: str) -> dict:
    env = dict(os.environ)
    env.pop("GEK_SEED", None)  # the program gets only the generated argv and inputs
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(BLAS_ENV)
    return env


def spawn(args: list, env: dict, deadline: float) -> dict:
    """Run one worker to completion; returns its JSON report plus ``setup_s`` (reference s) and ``setup_raw_s``."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py")] + args
    host = calibration.calibrate()
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} passed the {DEADLINE_S:.0f} s deadline")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{err[-3000:]}")
    report = json.loads(lines[-1])
    report["setup_raw_s"] = report["ready"] - t0
    report["setup_s"] = calibration.adjusted(report["setup_raw_s"], (host + report["host_at_ready"]) / 2)
    return report


def provenance(root: str) -> dict:
    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    digest = hashlib.sha256()
    src = os.path.join(root, "src", "gek")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_sha": git_sha(root),
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "cpus_usable": len(CPUS_USABLE),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "blas_threads": BLAS_ENV,
        "note": NOISE_NOTE,
    }


def git_sha(root: str) -> str | None:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as handle:
        ref = handle.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(root, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path) as handle:
            return handle.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return None


def percentile90(values: list) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def end_to_end(main: dict, setups: list) -> dict:
    """Times in reference seconds; latencies are per op of a cycle, each its median over the repetitions."""
    per_op = main["per_op"]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_s": (statistics.median(per_op), "s"),
        "op_p90_s": (percentile90(per_op), "s"),
        "trials_per_s": (main["trials"] / main["cycles"] / sum(per_op), "1/s"),
        "peak_rss_mb": (main["maxrss_kb"] / 1024.0, "MB"),
    }


def selftest(env: dict, seed: int, deadline: float) -> int:
    problems = known.self_check()
    for name in WORKLOADS:
        report = spawn(["--workload", name, "--seed", str(seed), "--ops", "1"], env, deadline)
        print(f"selftest {name}: {report['attempted']} op, {report['failed']} failed, {report['latencies'][0]:.3f} s")
        problems += [f"{name}: {f}" for f in report["failures"]]
    for problem in problems:
        print(f"selftest FAIL {problem}")
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    start = time.monotonic()
    deadline = start + DEADLINE_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gek", "__init__.py")):
        print(f"error: {root} is not a gek checkout (src/gek/__init__.py is missing); run from its root",
              file=sys.stderr)
        return 2
    env = worker_env(root)
    pin_to_one_cpu()
    if args.selftest:
        return selftest(env, args.seed, deadline)
    if args.workload is None:
        parser.error("--workload is required")

    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    try:
        if args.trace:
            main_report = spawn(common + ["--trace", "1"], env, deadline)
            metrics = main_report["per_layer"]
            metrics["bench.fail_frac"] = (main_report["failed"] / main_report["attempted"], "frac")
            metrics["bench.defect_frac"] = (sum(main_report["defects"].values()) / main_report["attempted"], "frac")
        else:
            setup_reports = [spawn(common + ["--setup-only"], env, deadline) for _ in range(SETUP_REPEATS - 1)]
            main_report = spawn(common, env, deadline)
            setup_reports.append(main_report)
            setups = [r["setup_s"] for r in setup_reports]
            setups_raw = [r["setup_raw_s"] for r in setup_reports]
            metrics = end_to_end(main_report, setups)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    lat = main_report["latencies"]
    defects = ", ".join(f"{k} x{v}" for k, v in sorted(main_report["defects"].items())) or "none"
    print(f"gek benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("provenance:", json.dumps(provenance(root), sort_keys=True))
    print(f"ops: {len(lat)} timed in {main_report['cycles']} whole cycles of {main_report['ops_per_cycle']}"
          + f"; op_p50_s and op_p90_s over the n={len(main_report['per_op'])} ops of a cycle, each its median"
          + f" over {main_report['cycles']} repetitions"
          + (f", then {main_report['traced_ops']} traced" if args.trace else "")
          + f"; attempted {main_report['attempted']}, failed {main_report['failed']}")
    print(f"fail_frac: {main_report['failed'] / main_report['attempted']:.4f} "
          f"(ops that missed their known answer)")
    print(f"defect_frac: {sum(main_report['defects'].values()) / main_report['attempted']:.4f} "
          f"(ops at a listed seed-commit defect instead of the contract answer: {defects})")
    for failure in main_report["failures"]:
        print(f"FAILED {failure}")
    if not args.trace:
        print(f"set-ups (reference s): {', '.join(f'{s:.4f}' for s in setups)};"
              f" measured (s): {', '.join(f'{s:.4f}' for s in setups_raw)}")
        raw = sorted(statistics.median(main_report["latencies"][i::main_report["ops_per_cycle"]])
                     for i in range(main_report["ops_per_cycle"]))
        cal = main_report["calibrations"]
        print(f"measured op latency (s), median repetition per op: p50 {statistics.median(raw):.6g},"
              f" p90 {percentile90(raw):.6g}; host calibration {min(cal) * 1e3:.4g}-{max(cal) * 1e3:.4g} ms"
              f" (median {statistics.median(cal) * 1e3:.4g} ms, reference {calibration.REFERENCE_S * 1e3:g} ms)")
    else:
        print(f"spans: {main_report['spans_file']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}" + (f"   (n={len(main_report['per_op'])})" if name.startswith("op_p") else ""))
    print(json.dumps({
        "correct": main_report["failed"] == 0,
        "attempted": main_report["attempted"],
        "failed": main_report["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
