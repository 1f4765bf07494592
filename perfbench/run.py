"""hostile-pac benchmark: one workload per process, metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace 0|1]

With ``--trace 0`` a run measures, with tracing off:

- ``setup_s`` (s): median time of fresh interpreters that import
  ``hostile_pac`` and load the workload's configs, what every CLI call pays
  before any work;
- ``reps_per_s`` (datasets/s): datasets generated and certified or
  moment-evaluated per second, the median over the rounds of a closed loop
  that runs for ``--seconds`` (and at least one round); a round runs items
  for ``ROUND_S``;
- ``peak_rss_mb`` (MiB): peak resident memory of this process.

Both times are in reference seconds: the wall time of each round and each
interpreter is scaled by the speed of a fixed calibration kernel timed just
before and after it (see ``calibration.py``), which cancels most of a shared
host's drift. ``coverage_scale`` is the exception: its one item per run lasts
longer than the host's speed phases, so its rate is in wall seconds. The
wall-second rate and the machine speed are printed with every run.

With ``--trace 1`` it runs a fixed number of items, each once untraced and
once traced, and reports per-function calls and self time, the computed loss
table bytes and the tracing overhead (see ``tracing.py``). For
``coverage_iid`` it then reruns one item with one and with two workers and
requires equal output.

Workload names and metric units come from ``BENCHMARK.json``. Every output
is compared with the stored reference (see ``workloads.py``); ``failed``
counts the units whose output was missing, raised or differed, and
``error_frac`` = failed / attempted is printed with the metrics. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--workload all`` runs every workload in its own
process and prints a table.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy loads, so runs compare on any machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import ctypes
import itertools
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "perfbench" / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])
UNITS = {m["name"]: m["unit"] for m in (*SPEC["end_to_end"], *SPEC["per_layer"])}
SETUP_REPEATS = 3
ROUND_S = 1.0        # a round runs items until this much wall time has passed
KERNEL_REPEATS = 5   # calibration kernel runs around each round and each setup

SETUP_SNIPPET = """
import sys
sys.path.insert(0, sys.argv[1])
import hostile_pac
from hostile_pac.harness import load_config
for path, overrides in __import__("json").loads(sys.argv[2]):
    load_config(path, overrides)
"""


def load_package():
    """Import hostile_pac from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import hostile_pac
    if Path(hostile_pac.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"hostile_pac was imported from {hostile_pac.__file__}, not {SRC}")
    return hostile_pac


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, read back from the library;
    None where it exports no ``get_num_threads`` under a known name."""
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps
                       if "openblas" in os.path.basename(line.split()[-1]).lower()})
    counts = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        names = [f"{prefix}openblas_get_num_threads{suffix}"
                 for prefix in ("scipy_", "") for suffix in ("64_", "", "_")]
        getter = next((getattr(lib, n) for n in names if hasattr(lib, n)), None)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
        counts[os.path.basename(path)] = getter() if getter else None
    return counts


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_requested": int(BLAS_THREADS), "blas_threads": blas_threads(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def measure_setup(wl) -> float:
    """Median time, in reference seconds, of fresh interpreters doing
    import + load_config."""
    import calibration
    configs = json.dumps([[str(ROOT / path), [*overrides, "experiment.seed=0"]]
                          for path, overrides in wl.configs])
    times = []
    before = calibration.speed(KERNEL_REPEATS)
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC), configs],
                       check=True, cwd=ROOT, stdin=subprocess.DEVNULL)
        wall_s = time.perf_counter() - start
        after = calibration.speed(KERNEL_REPEATS)
        times.append(wall_s * (before + after) / 2)
        before = after
    return statistics.median(times)


class Tally:
    """Units attempted and failed, checked against the reference."""

    def __init__(self, wl, reference: dict) -> None:
        self.wl, self.reference = wl, reference
        self.attempted = self.failed = 0

    def run(self, seed: int):
        """Run one item and check it; None when it raised."""
        self.attempted += self.wl.units
        try:
            result = self.wl.run(seed, OUT_DIR)
        except Exception:
            traceback.print_exc()
            self.failed += self.wl.units
            return None
        self.failed += self.wl.failures(result.check, self.reference[seed])
        return result


def seeds_from(wl, seed: int):
    """Item seeds of a run: the workload pool, cyclically from a seeded start."""
    start = seed % len(wl.pool)
    return itertools.cycle(wl.pool[start:] + wl.pool[:start])


def timed_run(wl, tally: Tally, seed: int, seconds: float) -> dict:
    """Closed loop of rounds of items; each round's rate is in datasets per
    reference second, timed with the kernel before and after it."""
    import calibration
    setup_s = measure_setup(wl)
    rates, wall_rates, speeds = [], [], []
    items = seeds_from(wl, seed)
    deadline = time.perf_counter() + seconds
    before = calibration.speed(KERNEL_REPEATS)
    while True:
        datasets, busy_s = 0, 0.0
        round_end = time.perf_counter() + ROUND_S
        while True:
            result = tally.run(next(items))
            if result is not None:
                datasets += result.datasets
                busy_s += result.seconds
            if time.perf_counter() >= round_end:
                break
        after = calibration.speed(KERNEL_REPEATS)
        speed = (before + after) / 2
        before = after
        if busy_s:
            rates.append(datasets / (busy_s * (speed if wl.calibrated else 1.0)))
            wall_rates.append(datasets / busy_s)
            speeds.append(speed)
        if time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"rounds: {len(rates)}, {tally.attempted // wl.units} items of "
          f"{wl.units} x {wl.unit}")
    if rates:
        print(f"median over rounds: {statistics.median(wall_rates)} datasets per wall "
              f"second, machine speed {statistics.median(speeds)}")
    return {"reps_per_s": statistics.median(rates) if rates else 0.0,
            "peak_rss_mb": peak_rss_mb, "setup_s": setup_s}


def traced_run(wl, tally: Tally, seed: int) -> dict:
    import calibration
    import tracing
    tracer = tracing.Tracer()
    ratios = []   # (traced - untraced) / untraced in reference seconds, one per item
    items = seeds_from(wl, seed)
    before = calibration.speed(KERNEL_REPEATS)
    for index in range(wl.trace_items):
        item = next(items)
        # Alternate which pass runs first, so warm-up favours neither.
        passes = (False, True) if index % 2 == 0 else (True, False)
        outputs, seconds = {}, {}
        for traced in passes:
            with tracer.installed() if traced else contextlib.nullcontext():
                outputs[traced] = tally.run(item)
            after = calibration.speed(KERNEL_REPEATS)
            if outputs[traced] is not None:
                seconds[traced] = outputs[traced].seconds * (before + after) / 2
            before = after
        if len(seconds) < 2:
            continue
        if outputs[False].full != outputs[True].full:
            print(f"traced output differs from untraced output for seed {item}", file=sys.stderr)
            tally.failed += wl.units
        ratios.append((seconds[True] - seconds[False]) / seconds[False])
    tracer.write(OUT_DIR / f"{wl.name}.spans.json")
    if wl.name == "coverage_iid":
        import workloads
        tally.attempted += wl.units
        if not workloads.coverage_records_match_across_workers(item, OUT_DIR):
            print("worker-independence guard: workers=2 records differ", file=sys.stderr)
            tally.failed += wl.units
    metrics = {f"{name}.{key}": value for name, totals in tracer.layer_totals().items()
               for key, value in totals.items()}
    metrics.update(tracer.work)
    metrics["trace.overhead_frac"] = statistics.median(ratios) if ratios else 0.0
    # Items differ by more than the tracer costs. The median of n ratios is
    # uncertain by about their IQR / sqrt(n); below that it says nothing.
    q1, _, q3 = statistics.quantiles(ratios, n=4) if len(ratios) >= 4 else (0.0, 0.0, float("inf"))
    uncertainty = (q3 - q1) / len(ratios) ** 0.5
    resolved = abs(metrics["trace.overhead_frac"]) > uncertainty
    print(f"trace.overhead_frac: median of {len(ratios)} item ratios, uncertain by "
          f"{uncertainty:.4g}: {'resolved' if resolved else 'unresolved'}")
    return metrics


def run_one(args) -> int:
    try:
        load_package()
        import reference
        import workloads
        ref = reference.load(args.workload)
    except (ImportError, OSError) as exc:
        print(f"cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    tally = Tally(wl, ref)
    if args.trace:
        measured = traced_run(wl, tally, args.seed)
    else:
        measured = timed_run(wl, tally, args.seed, args.seconds)
    metrics = {m["name"]: measured[m["name"]]
               for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    for key, value in environment().items():
        print(f"env {key}: {json.dumps(value)}")
    for name, value in metrics.items():
        print(f"{wl.name} {name}: {value} {UNITS[name]}")
    print(f"{wl.name} error_frac: {tally.failed / tally.attempted} ratio "
          f"({tally.failed} of {tally.attempted} {wl.unit}s)")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; one table of every metric."""
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name}: failed with exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        for metric, entry in result["metrics"].items():
            print(f"{name:15s} {metric:40s} {entry['value']:>14.6g} {entry['unit']}")
        print(f"{name:15s} {'error_frac':40s} "
              f"{result['failed'] / result['attempted']:>14.6g} ratio")
        status = status or (0 if result["correct"] else 1)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="hostile-pac benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
