#!/usr/bin/env python3
"""In-process latency of the jobs the ROADMAP baseline quotes.

    python3 perfbench/baseline.py

Runs each job REPEATS times through `wavefock.cli.main` (the pyramid through
the library) with the benchmark's BLAS and bytecode settings, and prints the
median.  It reads the program's builtins, as the ROADMAP commands do, and
checks nothing; the workloads in run.py carry the checked measurements.
"""

import contextlib
import io
import statistics
import sys
from time import perf_counter

import run  # sets the BLAS thread count before numpy loads

import numpy as np

REPEATS = 3
JOBS = [
    ("loop --builtin random-biorthogonal N=7", 2.1),
    ("fock --builtin stretched-haar-dual --grid 16 --levels 2", 15.4),
    ("acceptance", 7.0),
]
PYRAMID_LENGTH = 100_000
PYRAMID_BANKS = [
    ("haar", {}),
    ("random-orthogonal", {"N": "3"}),
    ("random-biorthogonal", {"N": "2"}),
    ("random-causal-pair", {"N": "3"}),
]


def timed(fn) -> float:
    start = perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        fn()
    return perf_counter() - start


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    from wavefock import cli, corpus
    from wavefock.subdivision import SignalWindow, pyramid, pyramid_reconstruct

    print(f"# machine {run.machine()}")
    for command, roadmap_s in JOBS:
        argv = command.split()
        seconds = statistics.median(timed(lambda: cli.main(argv)) for _ in range(REPEATS))
        print(f"{command}: {seconds:.3f} s in-process (ROADMAP {roadmap_s} s)")

    rng = np.random.default_rng(0)
    x = SignalWindow(0, rng.standard_normal(PYRAMID_LENGTH) + 1j * rng.standard_normal(PYRAMID_LENGTH))
    for name, params in PYRAMID_BANKS:
        bank = corpus.builtin_bank(name, params)
        seconds = statistics.median(
            timed(lambda: pyramid_reconstruct(bank, pyramid(bank, x, run.PYRAMID_DEPTH))) for _ in range(REPEATS)
        )
        print(f"pyramid + reconstruct, {name} {params}, L={PYRAMID_LENGTH}: {PYRAMID_LENGTH / seconds:.0f} samples/s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
