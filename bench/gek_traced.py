"""The gek command with benchmark spans around its public functions.

Used by the traced phase of the cli-oneshot workload in place of the plain
entry point: ``GEK_BENCH_SPANS=<file> python3 bench/gek_traced.py <gek argv>``.
Behaves like ``gek`` (same output, same exit code) and writes its spans to
the named file once, when the command ends.
"""

import os
import sys

import tracing
from gek import cli


def main() -> None:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cli.main(sys.argv[1:])
    finally:
        tracer.dump(os.environ["GEK_BENCH_SPANS"])


if __name__ == "__main__":
    main()
