"""Write a BENCH_<pr>.json: parent/change pairs of the gek benchmark, run in fresh copies of two commits.

From the root of a git checkout of gek:

    python3 tools/bench_pairs.py --pr 24 --parent HEAD~1 --change HEAD

Each side is a ``git archive`` copy of its commit in a scratch directory, so
neither run sees the work tree, and its ``src`` is compiled to bytecode with
``python -m compileall -q src`` as an installed package is, so a cold ``gek``
process reads ``.pyc`` files whether or not it may write them.  For every
workload of ``BENCHMARK.json`` the script runs the unchanged ``python3
bench/run.py --workload W --seed S --seconds T --trace 0`` once per side on
each of ``PAIRS`` seeds, with T the ``run_seconds`` of ``BENCHMARK.json``,
the two sides alternating which runs first, and keeps each run's provenance
line and result line.  With ``--claim WORKLOAD:METRIC`` it then runs the
claimed workload on the held-out seeds, and in ``TRACED_PAIRS`` alternating
pairs with ``--trace 1``.  It writes ``BENCH_<pr>.json`` at the repository
root in the layout of ``BENCH_20.json``: pairs with their median and
interquartile range per end-to-end metric, provenance, and with a claim its
verdict, the held-out pairs, the traced runs and each traced metric's median
per side; without one, ``"claim": null``.

Only the standard library is used, and numpy only to read its SIMD dispatch
into the ``host`` section.  The copies are removed at the end.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
# the seeds of BENCH_20.json: the pairs are FIRST_SEED .. FIRST_SEED + PAIRS - 1,
# and none of these is a seed that a change is tried on while it is written
FIRST_SEED = 2001
PAIRS = 10
HELD_OUT_SEEDS = (2021, 2022)
TRACED_SEED = 2031
# traced runs per side: a per-layer metric moves by up to about 20% between single runs of one tree
TRACED_PAIRS = 3


def git(*args: str, repo: str = ROOT) -> bytes:
    return subprocess.run(["git", "-C", repo, *args], check=True, capture_output=True).stdout


def export(rev: str, dest: str, repo: str = ROOT) -> str:
    """Extract ``git archive rev`` of ``repo`` into ``dest`` and compile its ``src``; returns the full sha of rev."""
    sha = git("rev-parse", "--verify", rev + "^{commit}", repo=repo).decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", sha, repo=repo))) as tar:
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=dest, check=True)
    return sha


def bench_run(copy: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``bench/run.py`` run in ``copy``: its parsed provenance line and result line."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=copy, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {copy} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    provenance = next(json.loads(line[len("provenance: "):]) for line in lines if line.startswith("provenance: "))
    return {"provenance": provenance, "result": json.loads(lines[-1])}


def order_of(index: int) -> tuple[str, str]:
    """The parent runs first in even pairs, the change in odd ones."""
    return SIDES if index % 2 == 0 else SIDES[::-1]


def run_pairs(copies: dict, workload: str, seeds: list[int], seconds: float, log) -> list[dict]:
    pairs = []
    for index, seed in enumerate(seeds):
        pair = {"seed": seed, "first": order_of(index)[0]}
        for side in order_of(index):
            pair[side] = bench_run(copies[side], workload, seed, seconds, 0)
            log(f"{workload} seed {seed} {side}: {_brief(pair[side]['result'])}")
        pairs.append({key: pair[key] for key in ("seed", "first", *SIDES)})
    return pairs


def _brief(result: dict) -> str:
    return ", ".join(f"{name} {entry['value']:.6g}" for name, entry in result["metrics"].items())


def stats(values: list[float]) -> dict:
    """Median, interquartile range (statistics.quantiles, n=4, exclusive), quartiles and extremes."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "iqr": q3 - q1, "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def better(a: float, b: float, direction: str) -> bool:
    """Whether ``a`` reads better than ``b``; a tie is better for neither."""
    return a > b if direction == "higher" else a < b


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric: each side's stats, the change's relative move of the median and its wins."""
    out = {}
    for metric in metrics:
        name, direction = metric["name"], metric["better"]
        values = {side: [p[side]["result"]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        parent, change = stats(values["parent"]), stats(values["change"])
        rel = (change["median"] - parent["median"]) / parent["median"]
        wins = sum(better(c, p, direction) for p, c in zip(values["parent"], values["change"]))
        worse = rel > metric["bound"] if direction == "lower" else rel < -metric["bound"]
        out[name] = {"unit": metric["unit"], "better": direction, "bound": metric["bound"],
                     "parent": parent, "change": change, "change_rel": rel,
                     "change_wins": f"{wins}/{len(pairs)}", "worse_than_bound": worse}
    return out


def section(pairs: list[dict], metrics: list[dict]) -> dict:
    """The pairs of one workload, their summary, and each side's failed and attempted ops and correctness."""
    return {
        "pairs": pairs,
        "summary": summarize(pairs, metrics),
        **{key: {side: sum(p[side]["result"][field] for p in pairs) for side in SIDES}
           for key, field in (("failed_ops", "failed"), ("attempted_ops", "attempted"))},
        "all_correct": {side: all(p[side]["result"]["correct"] for p in pairs) for side in SIDES},
    }


def claim(workload: str, metric: str, measured: dict, held_out: dict) -> dict:
    """Met when the change wins 9 of 10 pairs (or more), its median gap exceeds the parent's IQR,
    it also reads better in every held-out pair, and in both sets of pairs every change run is
    correct and fails no more ops than the parent."""
    entry = measured["summary"][metric]
    parent, change = entry["parent"], entry["change"]
    wins, count = map(int, entry["change_wins"].split("/"))
    met = wins >= math.ceil(0.9 * count) and abs(change["median"] - parent["median"]) > parent["iqr"]
    met = met and better(change["median"], parent["median"], entry["better"])
    held_wins, held_count = map(int, held_out["summary"][metric]["change_wins"].split("/"))
    met = met and held_wins == held_count
    met = met and all(part["all_correct"]["change"] and part["failed_ops"]["change"] <= part["failed_ops"]["parent"]
                      for part in (measured, held_out))
    return {"workload": workload, "metric": metric, "better": entry["better"],
            "parent_median": parent["median"], "parent_iqr": parent["iqr"],
            "change_median": change["median"], "change_iqr": change["iqr"],
            "gain_rel": entry["change_rel"] if entry["better"] == "higher" else -entry["change_rel"],
            "change_wins": entry["change_wins"], "met": met}


def numpy_simd() -> dict:
    """numpy's compiled-in SIMD baseline and the dispatch targets its kernels run on, which change
    pinned float output, not only speed (``NPY_DISABLE_CPU_FEATURES`` switches targets off)."""
    try:
        umath = importlib.import_module("numpy._core._multiarray_umath")
    except ImportError:  # numpy before 2.0
        umath = importlib.import_module("numpy.core._multiarray_umath")
    return {"numpy_simd_baseline": list(umath.__cpu_baseline__),
            "numpy_simd_dispatch": [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]}


def host(provenance: dict, simd: dict | None = None) -> dict:
    """The host fields of a run's provenance; whether the runs could write ``.pyc`` files, and that
    ``export`` compiled each copy's ``src``, so no cold ``gek`` process compiles the modules it
    imports; and ``simd``, read now when not given, as ``numpy_simd`` gives it."""
    out = {key: provenance.get(key)
           for key in ("python", "numpy", "scipy", "nproc", "cpus_usable", "pinned_cpu", "note")}
    out["writes_pyc"] = not os.environ.get("PYTHONDONTWRITEBYTECODE")
    out["pyc_precompiled"] = True
    out.update(numpy_simd() if simd is None else simd)
    return out


def about(seconds: float, seeds: list[int], claim_workload: str | None, held_key: str | None) -> str:
    text = (
        f"Written by tools/bench_pairs.py. Parent/change pairs of `python3 bench/run.py --workload W --seed S "
        f"--seconds {seconds:g} --trace 0`, each run in a fresh copy of the tree (`git archive` of the parent and "
        f"of the change commit, its src compiled by `python -m compileall -q src`), the two sides alternating "
        f"which runs first. Each run keeps its provenance line (parsed) and its last stdout line (the result "
        f"JSON, parsed). Summaries give the median, the "
        f"interquartile range (statistics.quantiles, n=4, exclusive), the quartiles and the extremes of each "
        f"end-to-end metric over the pairs, the change's relative move of the median, and in how many pairs the "
        f"change read better (ties count for neither side); each workload also sums the failed and attempted "
        f"ops per side and says whether every run of a side was correct. Seeds {seeds[0]}-{seeds[-1]} are the "
        f"pairs of every workload"
    )
    if claim_workload is None:
        return text + ". No gain is claimed, so there are no held-out or traced runs and `claim` is null."
    return text + (
        f"; `{held_key}` holds {len(HELD_OUT_SEEDS)} more {claim_workload} pairs on seeds "
        f"{', '.join(map(str, HELD_OUT_SEEDS))}; `traced` holds {TRACED_PAIRS} `--trace 1` {claim_workload} runs "
        f"per side on seed {TRACED_SEED}, run in pairs that alternate which side runs first, and "
        f"`traced_side_by_side` the median of each of their metrics per side. The claim is met when "
        f"the change reads better in at least 9 of {len(seeds)} pairs, its median differs from the parent's by "
        f"more than the parent's interquartile range, it reads better in every held-out pair, and in the pairs and "
        f"the held-out pairs every change run is correct and fails no more ops than the parent."
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="the number in the output file name")
    parser.add_argument("--parent", default="HEAD~1")
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--claim", help="WORKLOAD:METRIC of a claimed gain; without it no gain is claimed")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    metrics, seconds = declared["end_to_end"], declared["run_seconds"]
    workloads = [w["name"] for w in declared["workloads"]]
    claim_workload = claim_metric = held_key = None
    if args.claim is not None:
        claim_workload, _, claim_metric = args.claim.partition(":")
        if claim_workload not in workloads or claim_metric not in {m["name"] for m in metrics}:
            parser.error(f"--claim {args.claim}: not a declared workload and end-to-end metric")
        held_key = "held_out_" + claim_workload.replace("-", "_")
    seeds = list(range(FIRST_SEED, FIRST_SEED + PAIRS))

    def log(message: str) -> None:
        print(f"[{time.strftime('%H:%M:%S')}] {message}", file=sys.stderr, flush=True)

    simd = numpy_simd()  # before the runs, so a numpy that cannot report them stops the script at once
    work = tempfile.mkdtemp(prefix="bench_pairs_")
    try:
        copies = {side: os.path.join(work, side) for side in SIDES}
        shas = {side: export(rev, copies[side]) for side, rev in zip(SIDES, (args.parent, args.change))}
        sections: dict = {"workloads": {}}
        for workload in workloads:
            sections["workloads"][workload] = section(run_pairs(copies, workload, seeds, seconds, log), metrics)
        if claim_workload is not None:
            sections[held_key] = section(run_pairs(copies, claim_workload, HELD_OUT_SEEDS, seconds, log), metrics)
            traced = sections["traced"] = {side: [] for side in SIDES}
            for index in range(TRACED_PAIRS):
                for side in order_of(index):
                    traced[side].append({"seed": TRACED_SEED, "workload": claim_workload,
                                         **bench_run(copies[side], claim_workload, TRACED_SEED, seconds, 1)})
                    log(f"traced {claim_workload} {side} {index + 1}/{TRACED_PAIRS}")
            sections["traced_side_by_side"] = {
                name: {side: statistics.median(run["result"]["metrics"][name]["value"] for run in traced[side])
                       for side in SIDES}
                for name in traced["parent"][0]["result"]["metrics"]
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    first = sections["workloads"][workloads[0]]["pairs"][0]
    report = {
        "about": about(seconds, seeds, claim_workload, held_key),
        "parent": shas["parent"],
        "change": shas["change"],
        "parent_src_sha256": first["parent"]["provenance"]["src_sha256"],
        "change_src_sha256": first["change"]["provenance"]["src_sha256"],
        "host": host(first["parent"]["provenance"], simd),
        "claim": None if claim_workload is None
        else claim(claim_workload, claim_metric, sections["workloads"][claim_workload], sections[held_key]),
        **sections,
    }
    out_path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    log(f"wrote {out_path}; " + ("no claim" if report["claim"] is None else f"claim met: {report['claim']['met']}"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
