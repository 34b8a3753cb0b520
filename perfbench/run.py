#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of wavefock.

    python3 perfbench/run.py --workload {gate,banks,fock,pyramid} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root; the program is imported from ./src.  Each
workload is a closed loop with one client in this one process: a job
starts when the previous one has finished and been checked.  Jobs go
through `wavefock.cli.main(argv)` in-process, except pyramid jobs, which no
subcommand covers and which call the library directly.

Set-up (import wavefock, generate the seeded inputs, warm up) runs
SETUP_REPEATS times and reports its median.  The measured phase repeats
passes over the generated jobs while another pass still fits in --seconds.
Every job's output is checked against values known by construction
(checks.py).  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 half of
the time runs untraced and half traced, and the metrics are per layer
(spans.py) plus the tracing slowdown.  Spans are written to
.perfbench-work/trace-<workload>.jsonl.
"""

import os
import sys

sys.dont_write_bytecode = True  # every run compiles the same way; nothing is left in src/
# One BLAS thread: on a 2-vCPU box the default two threads made dense eigh
# both slower and far noisier (see NOTES.md).  Set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import contextlib
import gc
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import gen
import spans

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 5
TAIL_BEYOND = 10
PYRAMID_DEPTH = 3


# ----------------------------------------------------------------------
# jobs


class CliJob:
    """`wavefock <argv> --output <report>` in-process, checked by `check(rc, report)`."""

    root = "cli"

    def __init__(self, argv, check, size):
        self.argv, self.check, self.size = [str(a) for a in argv], check, size
        self.name = " ".join(self.argv)

    def call(self, env):
        if env.report.exists():
            env.report.unlink()
        with contextlib.redirect_stderr(io.StringIO()):
            try:
                return env.cli.main(self.argv + ["--output", str(env.report)])
            except SystemExit as exc:
                return exc.code

    def verify(self, env, rc):
        report = json.loads(env.report.read_text()) if env.report.exists() else None
        return self.check(rc, report)


class PyramidJob:
    """Analysis then synthesis of one signal, checked in numpy."""

    root = "job"

    def __init__(self, bank, offset, samples):
        self.bank, self.offset, self.samples = bank, offset, samples
        self.size = len(samples)
        self.name = f"pyramid N={bank.N} L={self.size}"

    def call(self, env):
        sub = env.subdivision
        x = sub.SignalWindow(self.offset, self.samples)
        return sub.pyramid_reconstruct(self.bank, sub.pyramid(self.bank, x, PYRAMID_DEPTH))

    def verify(self, env, y):
        return checks.check_pyramid(self.offset, self.samples, y.offset, y.samples)


class Env:
    """The freshly imported program and the run's scratch paths."""

    def __init__(self, workdir: Path):
        for name in [n for n in sys.modules if n.split(".")[0] == "wavefock"]:
            del sys.modules[name]
        self.cli = importlib.import_module("wavefock.cli")
        self.filterbank = sys.modules["wavefock.filterbank"]
        self.subdivision = sys.modules["wavefock.subdivision"]
        self.inputs = workdir / "inputs"
        shutil.rmtree(self.inputs, ignore_errors=True)
        self.inputs.mkdir(parents=True)
        self.report = workdir / "report.json"
        self._count = 0

    def write(self, doc) -> str:
        self._count += 1
        return gen.write_json(self.inputs / f"{self._count:04d}.json", doc)


def _bank_size(doc) -> int:
    return sum(len(p) for p in doc["filters"] + (doc["dual_filters"] or []))


def bank_jobs(env, bank: gen.Bank, anchor: bool) -> list:
    doc, primary, loop = bank.json(), bank.primary_json(), gen.loop_json(bank.A)
    f_bank, f_primary, f_loop = env.write(doc), env.write(primary), env.write(loop)
    jobs = [
        CliJob(["verify", "--input", f_bank], lambda rc, r: checks.check_verify(rc, r, bank), _bank_size(doc)),
        # primary filters only, so the dual loop is computed from A
        CliJob(["loop", "--input", f_primary], lambda rc, r: checks.check_to_loop(rc, r, bank), _bank_size(primary)),
        CliJob(
            ["loop", "--direction", "from-loop", "--input", f_loop],
            lambda rc, r: checks.check_from_loop(rc, r, bank),
            sum(len(p) for row in loop["entries"] for p in row),
        ),
    ]
    if anchor:
        jobs.append(
            CliJob(["anchor", "--input", f_bank], lambda rc, r: checks.check_anchor(rc, r, bank), _bank_size(doc))
        )
    return jobs


def fock_job(env, doc, dims, extra=()) -> CliJob:
    size = _bank_size(doc) if "filters" in doc else len(doc["blocks"]) ** 2
    return CliJob(
        ["fock", "--input", env.write(doc), "--levels", len(dims) - 1, *extra],
        lambda rc, r: checks.check_fock(rc, r, dims),
        size,
    )


# Workload mixes.  Sizes were set from in-process timings on a 2-core
# Xeon (see NOTES.md) so one pass fits the run length with room to repeat.

FAMILIES = ("orthogonal", "biorthogonal", "causal")
BANKS_PER_FAMILY = {2: 3, 3: 3, 4: 2, 5: 2, 6: 2}
# anchor runs on orthogonal and causal banks only: a random biorthogonal
# bank's anchor is empty and the command exits 1 with EMPTY_ANCHOR
ANCHOR_MAX_N = 4


def build_gate(env, rng):
    # the gate as CI runs it, at its default seed: at other seeds its
    # scalar-kernel-law criterion can fail (see NOTES.md)
    return [CliJob(["acceptance"], checks.check_gate, 1)]


def build_banks(env, rng):
    jobs = []
    for N, count in BANKS_PER_FAMILY.items():
        for family in FAMILIES:
            for _ in range(count):
                bank = gen.Bank.random(family, N, rng)
                jobs += bank_jobs(env, bank, N <= ANCHOR_MAX_N and family != "biorthogonal")
    # the O(N!) cofactor dual loop at N = 7, as in `loop --builtin random-biorthogonal N=7`
    jobs += bank_jobs(env, gen.Bank.random("biorthogonal", 7, rng), False)
    rng.shuffle(jobs)
    return jobs


STRETCHED_GRID = 8
SAMPLED_BANKS = [  # (family, N, grid)
    ("orthogonal", 2, 8), ("orthogonal", 2, 12), ("orthogonal", 2, 16),
    ("biorthogonal", 2, 8), ("biorthogonal", 2, 12), ("biorthogonal", 2, 16),
]
SCALAR_CHOIS = (
    [("cuntz", N, K) for N in (2, 3, 4) for K in (2, 3, 4)]
    + [("collapse", 2, K) for K in (2, 3, 4)] + [("collapse", 3, K) for K in (2, 3)]
    + [("random-psd", N, K) for N in (2, 3, 4) for K in (2, 3, 4)]
)
COMMUTING_SHAPES = [(N, d, K) for N, Ks in ((2, (2, 3, 4)), (3, (2, 3, 4)), (4, (2, 3))) for d in (2, 3, 4) for K in Ks]
COMMUTING_REPEATS = 2


def build_fock(env, rng):
    jobs = []
    for bank, grid in [(gen.Bank.stretched_haar_dual(), STRETCHED_GRID)] + [
        (gen.Bank.random(family, N, rng), grid) for family, N, grid in SAMPLED_BANKS
    ]:
        dims = [grid * bank.N**k for k in range(3)]
        jobs.append(fock_job(env, bank.json(), dims, ["--grid", grid]))
    # ranks follow fixed patterns, so the seed changes values but not sizes
    for i, (kind, N, K) in enumerate(SCALAR_CHOIS):
        matrix, rank = gen.scalar_choi(kind, N, 1 + i % N, rng)
        jobs.append(fock_job(env, gen.choi_json(matrix, 1), [rank**k for k in range(K + 1)]))
    for N, d, K in COMMUTING_SHAPES * COMMUTING_REPEATS:
        ranks = [int(r) for r in rng.permutation(1 + np.arange(d) % N)]
        matrix = gen.commuting_choi(N, d, ranks, rng)
        jobs.append(fock_job(env, gen.choi_json(matrix, d), [sum(r**k for r in ranks) for k in range(K + 1)]))
    rng.shuffle(jobs)
    return jobs


PYRAMID_SIGNALS = 50
PYRAMID_MAX_LENGTH = 30_000  # short enough for three passes a run; baseline.py times 1e5
PYRAMID_BANKS = [(family, N) for family in FAMILIES for N in (2, 3)]


def build_pyramid(env, rng):
    banks = []
    for family, N in PYRAMID_BANKS:
        path = env.write(gen.Bank.random(family, N, rng).json())
        banks.append(env.filterbank.FilterBank.from_json(json.loads(Path(path).read_text())))
    jobs = []
    # banks take turns down the sorted lengths, so each sees the same spread of lengths
    for i, length in enumerate(gen.signal_lengths(PYRAMID_SIGNALS, rng, hi=PYRAMID_MAX_LENGTH)):
        x = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        path = env.inputs / f"signal{i:03d}.npy"
        np.save(path, x)
        jobs.append(PyramidJob(banks[i % len(banks)], -(length // 2), np.load(path)))
    rng.shuffle(jobs)
    return jobs


BUILDERS = {"gate": build_gate, "banks": build_banks, "fock": build_fock, "pyramid": build_pyramid}


def warmup_jobs(env, rng):
    """Small jobs on every path the workloads take, run once before timing."""
    bank = gen.Bank.random("orthogonal", 2, rng)
    x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    lib_bank = env.filterbank.FilterBank.from_json(bank.json())
    return bank_jobs(env, bank, True) + [
        fock_job(env, gen.choi_json(np.eye(2), 1), [1, 2, 4]),
        PyramidJob(lib_bank, -32, x),
    ]


# ----------------------------------------------------------------------
# measurement


def run_one(env, job, tracer=None, job_id=0):
    """(seconds, failure reason or None) for one job."""
    rec = None
    if tracer is not None:
        tracer.job = job_id
        rec = tracer.open(job.root)
    raised = None
    start = perf_counter()
    try:
        out = job.call(env)
    except Exception:  # a program fault fails this job, not the run
        raised = traceback.format_exc()
    elapsed = perf_counter() - start
    if rec is not None:
        tracer.close(rec)
        tracer.job = None
    if raised:
        print(raised, file=sys.stderr)
        return elapsed, "raised"
    return elapsed, job.verify(env, out)


class Phase:
    def __init__(self, jobs):
        self.jobs = jobs
        self.latencies = [[] for _ in jobs]
        self.failures = []
        self.passes = 0
        self.wall = 0.0

    @property
    def attempted(self) -> int:
        return sum(len(x) for x in self.latencies)

    @property
    def busy(self) -> float:
        return sum(sum(x) for x in self.latencies)

    def per_input(self) -> list:
        return [statistics.median(x) for x in self.latencies]


def measure(env, jobs, budget: float, tracer=None) -> Phase:
    """Whole passes over `jobs` while the next one is expected to end within `budget` seconds."""
    phase = Phase(jobs)
    start = perf_counter()
    while True:
        for i, job in enumerate(jobs):
            elapsed, reason = run_one(env, job, tracer, phase.attempted)
            phase.latencies[i].append(elapsed)
            if reason:
                phase.failures.append((job.name, reason))
        phase.passes += 1
        phase.wall = perf_counter() - start
        if phase.wall * (phase.passes + 1) / phase.passes > budget:
            return phase


def tail_latency(samples) -> tuple:
    """(percentile, value, n): the highest percentile with at least
    TAIL_BEYOND samples above it, i.e. the (TAIL_BEYOND+1)-th largest
    sample.  With fewer samples than that, the maximum (p100)."""
    values = sorted(samples)
    n = len(values)
    if n <= TAIL_BEYOND:
        return 100.0, values[-1], n
    return 100.0 * (n - TAIL_BEYOND) / n, values[n - TAIL_BEYOND - 1], n


# ----------------------------------------------------------------------
# machine record


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def blas_threads():
    """OpenBLAS thread count, asked of the library numpy loaded."""
    import ctypes

    libs = {line.split()[-1] for line in _read("/proc/self/maps").splitlines() if "openblas" in line}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine() -> dict:
    cpu = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines() if line.startswith("model name")),
        platform.processor(),
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        if kind != "Instruction":
            caches[f"L{level}"] = _read(f"{index}/size")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "scope": "this process only; no cache dropping, no system-wide tracing",
    }


# ----------------------------------------------------------------------
# main


def setup(workload: str, seed: int, workdir: Path):
    """One set-up: import the program, generate and write the inputs, warm up."""
    env = Env(workdir)
    rng = np.random.default_rng([seed, list(BUILDERS).index(workload)])
    jobs = BUILDERS[workload](env, rng)
    warm = [run_one(env, job)[1] for job in warmup_jobs(env, rng)]
    return env, jobs, warm


def end_to_end(phase: Phase, setup_s: float) -> dict:
    """Each input's latency is its median over the passes, which keeps a
    burst of machine noise in one pass from moving any metric."""
    per_input = phase.per_input()
    pct, tail, n = tail_latency(per_input)
    busy = sum(per_input)
    print(f"# latency over {n} per-input medians ({phase.passes} passes); tail is p{pct:.4g}")
    return {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (len(per_input) / busy, "1/s"),
        "samples_per_s": (sum(job.size for job in phase.jobs) / busy, "samples/s"),
        "latency_p50_ms": (1e3 * statistics.median(per_input), "ms"),
        "latency_tail_ms": (1e3 * tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(env, jobs, seconds: float, workload: str):
    plain = measure(env, jobs, seconds / 2)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = measure(env, jobs, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    tracer.write(WORK / f"trace-{workload}.jsonl")
    layers = spans.layer_metrics(tracer, traced.passes)
    metrics = {name: (layers.get(name, 0), unit) for name, unit in spans.layer_metric_units()}
    slowdown = (plain.attempted / plain.busy) / (traced.attempted / traced.busy)
    metrics["trace.slowdown"] = (slowdown, "ratio")
    print(f"# traced {traced.passes} passes against {plain.passes} untraced; slowdown {slowdown:.4f}")
    return metrics, [plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(BUILDERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    workdir = WORK / f"run-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            env = jobs = None  # free the previous set-up's inputs first
            start = perf_counter()
            env, jobs, warm = setup(args.workload, args.seed, workdir)
            setups.append(perf_counter() - start)
        setup_s = statistics.median(setups)
        # the pre-built jobs and inputs are the benchmark's heap, not the
        # program's: keep them out of every garbage collection from here on
        gc.collect()
        gc.freeze()
        print("# machine " + json.dumps(machine()))
        if args.trace:
            metrics, phases = per_layer(env, jobs, args.seconds, args.workload)
        else:
            phase = measure(env, jobs, args.seconds)
            metrics, phases = end_to_end(phase, setup_s), [phase]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # the last set-up's warm-up jobs are checked and counted with the measured ones
    failures = [f for p in phases for f in p.failures] + [("warm-up", r) for r in warm if r]
    attempted = sum(p.attempted for p in phases) + len(warm)
    for where, reason in failures:
        print(f"FAILED {where}: {reason}", file=sys.stderr)
    wall = sum(p.wall for p in phases)
    print(
        f"# {args.workload} seed {args.seed}: {attempted} jobs in {wall:.1f} s, "
        f"fail_ratio {len(failures) / attempted:.4g} ({len(failures)}/{attempted}), setup runs {setups}"
    )
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
