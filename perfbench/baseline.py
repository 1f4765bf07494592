"""Repeat benchmark runs over seeds, twice, and record the seed baseline.

    python3 perfbench/baseline.py [--write]

It makes two sets of ``--trace 0`` runs, one run per seed 0-9 and workload
in each set, then two ``--trace 1`` runs per workload with seed 0, each in a
fresh process, exactly as ``BENCHMARK.json`` describes them. Per end-to-end
metric and set it prints the median and quartiles of the runs and their
spread, the distance between the quartiles as a share of the median, next to
the metric's bound, and whether the second set's median is worse than the
first's by more than the bound. It also checks that the two traced runs
report the same call counts.

It exits 0 when every spread but that of ``setup_s`` is within its bound,
the second set agrees with the first within every bound, and call counts
repeat. ``steady`` marks a spread below a third of its bound, for every
metric. ``--write`` stores everything in ``perfbench/baseline.json``, with
the seeds and environment stamp of each workload's runs and which per-layer
metric is predicted to move which end-to-end metric on which workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = range(10)
SETS = 2

# Which per-layer metrics should move which end-to-end metric, on which
# workloads, and where the same change should leave the numbers unchanged.
PREDICTIONS = [
    {"layers": ["aggregation.solve_rbar.self_s", "aggregation.verify_complexity.self_s",
                "harness.run_coverage.self_s"],
     "moves": ["reps_per_s"], "on": ["coverage_iid"],
     "unchanged_on": ["coverage_scale", "moment_mc"]},
    {"layers": ["risk.compute_loss_table.self_s", "risk.empirical_risk.self_s",
                "risk.compute_loss_table.bytes"],
     "moves": ["reps_per_s", "peak_rss_mb"], "on": ["coverage_scale"],
     "unchanged_on": ["coverage_iid"]},
    {"layers": ["harness.run_coverage.self_s"],
     "moves": ["peak_rss_mb"], "on": ["coverage_scale"],
     "why": "the K x K identity of the ERM margin is allocated in run_coverage's self time"},
    {"layers": ["datagen.generate.self_s", "moments.empirical_moment_estimate.self_s"],
     "moves": ["reps_per_s"], "on": ["moment_mc"]},
    {"layers": ["divergence.f_divergence.self_s", "aggregation.evaluate_bound.self_s",
                "harness.run_aggregate.self_s", "harness.write_records.self_s",
                "harness.dump_record.self_s", "risk.compute_loss_table.calls"],
     "moves": ["reps_per_s"], "on": ["certify"],
     "why": "the loss table is built twice per dataset, once in run_bound and once in "
            "run_aggregate"},
    {"layers": ["import hostile_pac", "harness.load_config"],
     "moves": ["setup_s"], "on": ["coverage_iid", "coverage_scale", "moment_mc", "certify"]},
]


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict, float]:
    """The run's result object, its environment stamp and its wall time."""
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall_s = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    env = {key: json.loads(value) for key, value in
           (line[len("env "):].split(": ", 1) for line in lines if line.startswith("env "))}
    expected = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != expected:
        raise RuntimeError(f"{workload}: metrics {sorted(result['metrics'])} "
                           f"do not match BENCHMARK.json")
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} of "
                           f"{result['attempted']} units failed")
    return result, env, wall_s


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "runs": values}


def worse_by(metric: dict, first: float, second: float) -> float:
    """How much worse the second median is than the first, as a share of it."""
    change = (second - first) / first
    return -change if metric["better"] == "higher" else change


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    names = [w["name"] for w in SPEC["workloads"]]
    runs = {name: [] for name in names}   # one list of (result, env, wall_s) per set
    for set_index in range(SETS):
        for name in names:
            runs[name].append([run_once(name, s, 0) for s in SEEDS])
            print(f"set {set_index + 1} {name} done", flush=True)
    accepted = True
    report = {}
    for name in names:
        e2e = {}
        for metric in SPEC["end_to_end"]:
            sets = [spread([r["metrics"][metric["name"]]["value"] for r, _, _ in s])
                    for s in runs[name]]
            worse = worse_by(metric, sets[0]["median"], sets[1]["median"])
            agree = worse <= metric["bound"]
            for stats in sets:
                stats["steady"] = stats["spread"] < metric["bound"] / 3
                accepted = accepted and agree and (
                    metric["name"] == "setup_s" or stats["spread"] <= metric["bound"])
            e2e[metric["name"]] = {"sets": sets, "second_worse_by": worse,
                                   "second_within_bound": agree}
            for i, stats in enumerate(sets):
                print(f"{name:15s} {metric['name']:12s} set {i + 1} "
                      f"median {stats['median']:12.6g} {metric['unit']:10s} "
                      f"spread {stats['spread']:.4f} (bound {metric['bound']}) "
                      f"{'steady' if stats['steady'] else 'WIDE'} "
                      f"runs {[float(f'{v:.4g}') for v in stats['runs']]}")
            print(f"{name:15s} {metric['name']:12s} second set worse by {worse:+.4f}: "
                  f"{'within' if agree else 'OUTSIDE'} bound", flush=True)
        traced_runs = [run_once(name, SEEDS[0], 1) for _ in range(2)]
        traced = [result for result, _, _ in traced_runs]
        calls = [{k: v["value"] for k, v in t["metrics"].items() if k.endswith(".calls")}
                 for t in traced]
        overhead = [t["metrics"]["trace.overhead_frac"]["value"] for t in traced]
        print(f"{name:15s} traced call counts repeat: {calls[0] == calls[1]}, "
              f"overhead {overhead}", flush=True)
        accepted = accepted and calls[0] == calls[1]
        report[name] = {
            "seeds": list(SEEDS),
            "environment": runs[name][0][0][1],
            "end_to_end": e2e,
            "per_layer": {k: statistics.median(t["metrics"][k]["value"] for t in traced)
                          for k in traced[0]["metrics"]},
            "call_counts_repeat": calls[0] == calls[1],
            "mean_wall_s": {"untraced": statistics.mean(w for s in runs[name] for _, _, w in s),
                            "traced": statistics.mean(w for _, _, w in traced_runs)},
        }
    if args.write:
        doc = {"run_seconds": SPEC["run_seconds"], "predictions": PREDICTIONS,
               "baseline": report}
        (BENCH_DIR / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if accepted else 1


if __name__ == "__main__":
    raise SystemExit(main())
