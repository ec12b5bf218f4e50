"""One workload process: set up, then run whole cycles of ops, closed loop.

Started by run.py with PYTHONPATH pointing at the checkout's ``src`` and BLAS
pinned to one thread.  Prints one JSON line on stdout:

* ``--setup-only``: just ``{"ready": <monotonic time set-up ended>, "host_at_ready": <calibration then>}``;
* otherwise op latencies, work done, failures, known defects, peak memory,
  and with ``--trace 1`` the per-layer metrics of a traced second phase.

``--ops N`` (or ``--ops cycle``) runs exactly that many ops instead of timing
for ``--seconds``; the self-tests use it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

import calibration
import tracing
import workloads
from known import DEFECT, FAIL
from workloads import Verdict

TRACE_LAYERS = ("cli", "properties", "entropy", "grouplog", "series", "quantum")
SHIM = os.path.join(os.path.dirname(os.path.abspath(__file__)), "gek_traced.py")


class Phase:
    """Latencies and verdicts of the ops run in one phase."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.calibrations: list[float] = []  # host speed before each op and after the last
        self.trials = 0
        self.failures: list[str] = []
        self.defects: Counter = Counter()
        self.cycles = 0
        self.ops_per_cycle = 0

    def per_op(self) -> list[float]:
        return calibration.per_op(self.latencies, self.calibrations, self.ops_per_cycle)


def _run_op(op, tracer, launcher, spans_path):
    """Time one op (inside a span when tracing); an op that raises is a failed op, not a crashed run."""
    with tracer.span(tracing.OP_SPAN) if tracer else contextlib.nullcontext(-1) as sid:
        if launcher is not None:
            launcher.extra_env = {"GEK_BENCH_SPANS": spans_path}
        t0 = time.perf_counter()
        try:
            result, error = op.run(), None
        except Exception as exc:
            result, error = None, exc
        dt = time.perf_counter() - t0
    if launcher is not None and os.path.exists(spans_path):
        tracer.absorb(spans_path, sid)
        os.remove(spans_path)
    return result, error, dt


def run_phase(wl, seconds: float, max_ops: int | None, min_cycles: int, tracer=None, workdir: str = ".") -> Phase:
    """At least ``min_cycles`` whole cycles, then more until the next would end over half a cycle past ``seconds``."""
    phase = Phase()
    phase.ops_per_cycle = len(wl.ops)
    launcher = wl.launcher if tracer is not None else None
    spans_path = os.path.join(workdir, "child-spans.json")
    if launcher is not None:
        plain_prefix, launcher.prefix = launcher.prefix, [sys.executable, SHIM]
    start = time.perf_counter()
    done = 0
    while True:
        for op in wl.ops:
            if max_ops is not None and done >= max_ops:
                break
            phase.calibrations.append(calibration.calibrate())
            result, error, dt = _run_op(op, tracer, launcher, spans_path)
            done += 1
            if error is None:
                try:
                    verdict = op.check(result)
                except Exception as exc:
                    verdict = Verdict(FAIL, f"check raised {exc!r}")
            else:
                verdict = Verdict(FAIL, f"raised {error!r}")
            phase.latencies.append(dt)
            phase.trials += verdict.trials
            if verdict.status == FAIL:
                phase.failures.append(f"{op.name}: {verdict.detail}")
            elif verdict.status == DEFECT:
                phase.defects[verdict.detail] += 1
        else:
            phase.cycles += 1
        if max_ops is not None:
            if done >= max_ops:
                break
            continue
        elapsed = time.perf_counter() - start
        if phase.cycles >= min_cycles and elapsed + 0.5 * elapsed / phase.cycles >= seconds:
            break
    phase.calibrations.append(calibration.calibrate())
    if launcher is not None:
        launcher.prefix, launcher.extra_env = plain_prefix, {}
    return phase


def import_times(env: dict, runs: int = 3) -> dict:
    """Self time of numpy.*, scipy.* and gek.* modules from 'python -X importtime' (reference s), median of runs."""
    samples: dict[str, list[float]] = {"numpy": [], "scipy": [], "gek": []}
    for _ in range(runs):
        host = calibration.calibrate()
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import gek.cli"],
                              env=env, capture_output=True, text=True, timeout=60)
        totals = dict.fromkeys(samples, 0.0)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[0].strip().split(":")[-1].strip().isdigit():
                continue
            top = parts[2].strip().split(".")[0]
            if top in totals:
                totals[top] += calibration.adjusted(int(parts[0].split(":")[-1]) / 1e6, host)
        for key, value in totals.items():
            samples[key].append(value)
    return {key: statistics.median(values) for key, values in samples.items()}


def per_layer(summary: tracing.Summary, traced: Phase, untraced_p50: float, imports: dict, workload: str) -> dict:
    n = max(len(traced.latencies), 1)
    total = sum(traced.latencies) or 1.0

    def per_op_ms(name: str) -> float:
        return sum(summary.select(name)) / n * 1e3

    def calls(name: str) -> float:
        return len(summary.select(name)) / n

    def mean(durations: list, scale: float) -> float:
        return sum(durations) / len(durations) * scale if durations else 0.0

    import_total = imports["numpy"] + imports["scipy"] + imports["gek"]
    m = {
        "cli.import_numpy_s": (imports["numpy"], "s"),
        "cli.import_scipy_s": (imports["scipy"], "s"),
        "cli.import_gek_s": (imports["gek"], "s"),
        "cli.import_share": (import_total / untraced_p50 if workload == "cli-oneshot" else 0.0, "frac"),
        "cli.parse_ms": (per_op_ms("cli.parse_args"), "ms"),
        "cli.run_ms": (per_op_ms("cli.run"), "ms"),
        "properties.composability_ms": (per_op_ms("properties.composability"), "ms"),
        "properties.sk_ms": (per_op_ms("properties.sk"), "ms"),
        "properties.schur_ms": (per_op_ms("properties.schur"), "ms"),
        "properties.extensivity_ms": (per_op_ms("properties.extensivity"), "ms"),
        "entropy.value_calls": (calls("entropy.value"), "count/op"),
        "entropy.value_us": (mean(summary.select("entropy.value", lambda size: size < 1000), 1e6), "us"),
        "entropy.large_value_ms": (mean(summary.select("entropy.value", lambda size: size >= 1000), 1e3), "ms"),
        "entropy.distribution_calls": (calls("entropy.distribution"), "count/op"),
        "entropy.distribution_us": (mean(summary.select("entropy.distribution"), 1e6), "us"),
        "entropy.phi_us": (mean(summary.select("entropy.phi"), 1e6), "us"),
        "grouplog.inverse_calls_numeric": (calls("grouplog.inverse_numeric"), "count/op"),
        "grouplog.inverse_calls_closed": (calls("grouplog.inverse_closed"), "count/op"),
        "grouplog.inverse_us_numeric": (mean(summary.select("grouplog.inverse_numeric"), 1e6), "us"),
        "grouplog.inverse_us_closed": (mean(summary.select("grouplog.inverse_closed"), 1e6), "us"),
        "grouplog.chi_us_numeric": (mean(summary.select("grouplog.chi_numeric"), 1e6), "us"),
        "series.reversion_ms_o12": (mean(summary.select("series.reversion", lambda o: o == 12), 1e3), "ms"),
        "series.reversion_ms_o20": (mean(summary.select("series.reversion", lambda o: o == 20), 1e3), "ms"),
        "series.group_law_ms_o10": (mean(summary.select("series.group_law", lambda o: o == 10), 1e3), "ms"),
        "series.axioms_ms_o10": (mean(summary.select("series.axioms", lambda o: o == 10), 1e3), "ms"),
        "series.compose_calls": (calls("series.compose"), "count/op"),
        "series.mul_calls": (calls("series.mul"), "count/op"),
        "quantum.density_matrix_ms": (mean(summary.select("quantum.density_matrix"), 1e3), "ms"),
        "quantum.dicke_closed_us": (mean(summary.select("quantum.dicke_closed"), 1e6), "us"),
        "quantum.dicke_dense_ms": (mean(summary.select("quantum.dicke_dense"), 1e3), "ms"),
        "quantum.asymptotic_us": (mean(summary.select("quantum.asymptotic"), 1e6), "us"),
    }
    for layer in TRACE_LAYERS:
        m[f"{layer}.self_share"] = (summary.layer_self(layer) / total, "frac")
    m["trace.overhead_frac"] = (statistics.median(traced.per_op()) / untraced_p50 - 1.0, "frac")
    return m


def main(argv=None) -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--ops", default=None, help="run exactly N ops, or 'cycle' for one whole cycle")
    args = parser.parse_args(argv)

    build_dir = os.path.join(os.getcwd(), ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    workdir = os.path.join(build_dir, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = workloads.BUILDERS[args.workload](args.seed, workdir, dict(os.environ))
        wl.warmup()
        ready = time.monotonic()
        host_at_ready = calibration.calibrate()
        if args.setup_only:
            print(json.dumps({"ready": ready, "host_at_ready": host_at_ready}))
            return
        max_ops = None if args.ops is None else (len(wl.ops) if args.ops == "cycle" else int(args.ops))
        seconds = args.seconds / 2 if args.trace else args.seconds
        # three cycles give every op a median over three repetitions or more; a traced run, which times
        # two phases and only reports per-layer figures, takes one each to stay within its deadline
        min_cycles = 1 if args.trace else 3
        phase = run_phase(wl, seconds, max_ops, min_cycles, workdir=workdir)
        phases = [phase]
        out = {"ready": ready, "host_at_ready": host_at_ready, "ops_per_cycle": len(wl.ops), "cycles": phase.cycles, "latencies": phase.latencies,
               "calibrations": phase.calibrations, "per_op": phase.per_op(), "trials": phase.trials}
        if args.trace:
            tracer = tracing.Tracer()
            if wl.launcher is None:  # cli-oneshot ops trace themselves, in the gek process
                tracer.install()
            try:
                traced = run_phase(wl, seconds, max_ops, min_cycles, tracer=tracer, workdir=workdir)
            finally:
                tracer.uninstall()
            phases.append(traced)
            summary = tracing.Summary(tracer)
            imports = import_times(dict(os.environ))
            metrics = per_layer(summary, traced, statistics.median(phase.per_op()), imports, args.workload)
            spans_file = os.path.join(build_dir, f"trace-{args.workload}-seed{args.seed}.json")
            tracer.dump(spans_file)
            out.update(per_layer=metrics, spans_file=spans_file, traced_ops=len(traced.latencies))
        attempted = sum(len(p.latencies) for p in phases)
        defects = sum((p.defects for p in phases), Counter())
        failures = [f for p in phases for f in p.failures]
        usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        out.update(attempted=attempted, failed=len(failures), failures=failures[:10], defects=dict(defects),
                   maxrss_kb=usage_self + usage_children)
        print(json.dumps(out))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
