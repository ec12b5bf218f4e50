"""Print the per-row split of gek's trial loop into its phases, for the nine families of the verify-trials workload.

From the root of a checkout of gek:

    python3 tools/loop_phases.py --trials 1000 --cycles 5

The families are those of ``bench/workloads.py``'s ``VERIFY_FAMILIES``, at
alpha = 0.5.  Each runs the six sampled rows of ``verify --suite all``
(composability, the three SK rows and the two Schur rows) through
``properties._run_rows``, one row per call, on the default W ranges and
tolerance of the checks that ``verify`` calls, read from their signatures.  The
phases are timed by wrapping each ``_Row``'s callables with ``_replace``, by
swapping the module's ``_chunk_values`` and ``EntropySpec.from_row_sums`` for
timed ones, so nothing under ``src/`` changes:

- draw: ``row.draw``, once per chunk, which draws every variate of the chunk's
  trials in a few numpy calls per shape;
- build: ``row.build``, once per shape of a chunk;
- reduce: ``_chunk_values`` less its tails, which validates each vector
  slot's blocks by one decision and reduces them with
  ``EntropySpec.block_sums``;
- tails: ``EntropySpec.from_row_sums``, the scalar tails, once per vector
  slot of a chunk, over the sums of all its blocks;
- law: ``row.law``, once per chunk over every shape, after ``_chunk_values``
  and before the judges; only the composability row has one, whose
  ``EntropySpec.phis`` runs G's block law;
- judge + fold: the rest of the row's wall time, which is its judges (which
  ``properties._judged`` runs after the law), its witnesses, the fold of
  each chunk and the loop's own bookkeeping.  No chunk of these rows
  raises, so no figure holds the trial-by-trial replay that a chunk which
  raises gets.

A cycle runs every family once; each figure is the median over ``--cycles``
cycles in this one process, in ms, summed over the nine families.  Each
wrapper adds its own call to the phase it times, and a one-row call draws
from a fresh generator, so a row's draws are not those of a full ``verify``
run; the split, not the reports, is the output.
"""

from __future__ import annotations

import argparse
import inspect
import os
import platform
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import numpy as np  # noqa: E402
from workloads import VERIFY_FAMILIES  # noqa: E402

from gek import properties  # noqa: E402
from gek.cli import _float_params  # noqa: E402
from gek.entropy import EntropySpec, entropy_spec  # noqa: E402

# (family, params) of the verify-trials workload, as ``verify --params`` reads them, at alpha = 0.5
FAMILIES = [(family, _float_params(template.format(alpha=0.5))) for family, template, *_ in VERIFY_FAMILIES]
PHASES = ("draw", "build", "reduce", "tails", "law", "judge + fold")


def default(check, name: str):
    return inspect.signature(check).parameters[name].default


def suite():
    """(row, W values, tol) of each sampled row of ``verify --suite all``, with the defaults of its check."""
    composability = properties.check_composability
    rows = [(row, properties._w_upto(default(composability, "max_w")), default(composability, "tol"))
            for row in properties._COMPOSABILITY]
    rows += [(row, default(properties.check_sk_axioms, "w_values"), None) for row in properties._SK_AXIOMS]
    rows += [(row, default(properties.check_schur_concavity, "w_values"), None) for row in properties._SCHUR]
    return rows


def timed(fn, spent: dict, phase: str):
    def wrapper(*args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            spent[phase] += time.perf_counter() - start

    return wrapper


def cycle(trials: int, seed: int) -> dict:
    """{row name: {phase: seconds}}, summed over the families, for one run of every family from ``seed``."""
    rows = suite()
    split = {row.name: dict.fromkeys(PHASES, 0.0) for row, _, _ in rows}
    chunk_values, from_row_sums = properties._chunk_values, EntropySpec.from_row_sums
    try:
        for family, params in FAMILIES:
            spec = entropy_spec(family, params)
            for row, w_values, tol in rows:
                spent = split[row.name]
                before = dict(spent)
                properties._chunk_values = timed(chunk_values, spent, "reduce")
                EntropySpec.from_row_sums = timed(from_row_sums, spent, "tails")
                row = row._replace(draw=timed(row.draw, spent, "draw"), build=timed(row.build, spent, "build"),
                                   law=timed(row.law, spent, "law") if row.law else None)
                start = time.perf_counter()
                properties._run_rows(spec, (row,), trials, seed, w_values, tol)
                wall = time.perf_counter() - start
                spent["reduce"] -= spent["tails"] - before["tails"]  # the tails run inside _chunk_values
                spent["judge + fold"] += wall - sum(spent[p] - before[p] for p in PHASES)
    finally:
        properties._chunk_values, EntropySpec.from_row_sums = chunk_values, from_row_sums
    return split


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=1000)
    parser.add_argument("--cycles", type=int, default=5)
    args = parser.parse_args(argv)
    if args.trials < 1 or args.cycles < 1:
        parser.error("--trials and --cycles must be at least 1")
    cycles = [cycle(args.trials, c) for c in range(args.cycles)]
    names = list(cycles[0])
    median = {n: {p: statistics.median(c[n][p] for c in cycles) for p in PHASES} for n in names}
    totals = {p: statistics.median(sum(c[n][p] for n in names) for c in cycles) for p in PHASES}
    loop = statistics.median(sum(sum(c[n].values()) for n in names) for c in cycles)
    print(f"python {platform.python_version()}, numpy {np.__version__}; {len(FAMILIES)} families, "
          f"{args.trials} trials, median of {args.cycles} cycles; ms")
    width = max(map(len, names))
    print(f"{'row':<{width}}  " + "  ".join(f"{p:>12}" for p in PHASES) + f"  {'row total':>12}")
    for n in names:
        print(f"{n:<{width}}  " + "  ".join(f"{1e3 * median[n][p]:12.1f}" for p in PHASES)
              + f"  {1e3 * sum(median[n].values()):12.1f}")
    print(f"{'all rows':<{width}}  " + "  ".join(f"{1e3 * totals[p]:12.1f}" for p in PHASES) + f"  {1e3 * loop:12.1f}")
    print(f"{'share':<{width}}  " + "  ".join(f"{totals[p] / loop:12.0%}" for p in PHASES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
