"""The benchmark's four workloads and the output checks that feed ``failed``.

Each workload is a closed loop with one client: it runs *items* one after
another, and an item is a fixed piece of work keyed by the ``experiment.seed``
it hands to the program. The seeds come from a fixed pool per workload, so
every output can be compared with reference values stored under
``perfbench/reference/``; the benchmark seed only chooses where in the pool a
run starts. Only the region between the first call into the package and the
last returned output is timed; loading the item's config, computing
moment_mc's per-regime constants and checking outputs are not.

The package is driven through its public functions only, looked up as module
attributes at call time so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from hostile_pac import datagen, harness, moments, param_space, risk

ROOT = Path(__file__).resolve().parent.parent
REL_TOL = 1e-9

COVERAGE_FIELDS = ("rn_min", "erm_index", "rbar", "rho_hat_rn_integral",
                   "rho_hat_true_integral", "margin_rho_hat", "margin_erm",
                   "hit_rho_hat", "hit_erm", "hit_oracle", "complexity_d")
COVERAGE_SUMMARY_FIELDS = ("coverage_two_sided", "coverage_oracle", "coverage_erm")

MOMENT_REGIMES = ("iid_variance", "subgaussian", "mixing_bounded", "mixing_unbounded")
MOMENT_DATASETS = 500


@dataclass
class ItemResult:
    seconds: float   # wall time of the timed region
    datasets: int    # datasets generated and certified or moment-evaluated
    check: dict      # the fields compared with the stored reference
    full: object     # the whole output, timestamps removed


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str                                    # what one attempted unit is
    units: int                                   # units per item
    pool: tuple[int, ...]                        # experiment seeds with a reference entry
    trace_items: int                             # items per pass of the traced run
    configs: tuple[tuple[str, tuple[str, ...]], ...]  # (path, overrides) loaded at set-up
    run: Callable[[int, Path], ItemResult]
    failures: Callable[[dict, dict], int]        # (check, reference) -> failed units
    calibrated: bool = True                      # rate in reference seconds (calibration.py)


def same(a, b) -> bool:
    """Floats equal to relative 1e-9; everything else exactly, type included."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)
    return type(a) is type(b) and a == b


def _load(path: str, overrides: tuple[str, ...], seed: int, *extra: str):
    return harness.load_config(ROOT / path, [*overrides, f"experiment.seed={seed}", *extra])


def _without_timestamp(record: dict) -> dict:
    return {k: v for k, v in record.items() if k != "timestamp"}


# ---------------------------------------------------------------------------
# Coverage: run_coverage on one config per item
# ---------------------------------------------------------------------------

def _coverage_runner(path: str, overrides: tuple[str, ...]):
    def run(seed: int, out_dir: Path, workers: int = 1) -> ItemResult:
        config = _load(path, overrides, seed, f"experiment.workers={workers}")
        start = time.perf_counter()
        report = harness.run_coverage(config)
        seconds = time.perf_counter() - start
        check = {"rows": [[rec[f] for f in COVERAGE_FIELDS] for rec in report.records],
                 "summary": [report.summary[f] for f in COVERAGE_SUMMARY_FIELDS]}
        full = {"records": report.records, "summary": _without_timestamp(report.summary)}
        return ItemResult(seconds, config.replications, check, full)
    return run


def _coverage_failures(check: dict, ref: dict) -> int:
    """Failed replications: a missing or differing record, or a broken
    identity rho_hat_rn_integral + margin_rho_hat == rbar. A differing
    summary fails every replication of the item."""
    expected = len(ref["rows"])
    if not all(same(a, b) for a, b in zip(check["summary"], ref["summary"])):
        return expected
    col = {f: i for i, f in enumerate(COVERAGE_FIELDS)}
    failed = max(0, expected - len(check["rows"]))
    for row, ref_row in zip(check["rows"], ref["rows"]):
        identity = math.isclose(row[col["rho_hat_rn_integral"]] + row[col["margin_rho_hat"]],
                                row[col["rbar"]], rel_tol=REL_TOL, abs_tol=0.0)
        if not (identity and len(row) == len(ref_row)
                and all(same(a, b) for a, b in zip(row, ref_row))):
            failed += 1
    return min(failed, expected)


def coverage_records_match_across_workers(seed: int, out_dir: Path) -> bool:
    """Worker-independence guard: coverage_iid gives the same records and
    summary, timestamp excepted, with one worker and with two."""
    run = WORKLOADS["coverage_iid"].run
    return run(seed, out_dir, workers=1).full == run(seed, out_dir, workers=2).full


# ---------------------------------------------------------------------------
# Moment Monte Carlo: one estimate per regime per item
# ---------------------------------------------------------------------------

def _moment_config(regime: str) -> str:
    return f"perfbench/configs/moment_{regime}.yaml"


@functools.cache
def _moment_constants(regime: str):
    """Prior, true risks and moment constant of one regime, computed once per
    process, as acceptance criterion 10 does once per config: the configs fix
    ``prior.seed``, so none of them depends on ``experiment.seed``."""
    config = _load(_moment_config(regime), (), 0)
    atoms, pi = param_space.build_prior(config.prior, config.seed)
    true_values = datagen.true_risk_closed_form(config.generator, atoms, config.loss)
    cfg, _ = harness.resolve_moment(config, atoms, pi)
    return atoms, pi, true_values, cfg


def _moment_run(seed: int, out_dir: Path) -> ItemResult:
    configs = [_load(_moment_config(r), (), seed) for r in MOMENT_REGIMES]
    constants = [_moment_constants(r) for r in MOMENT_REGIMES]
    start = time.perf_counter()
    estimates = {}
    for regime, config, (atoms, pi, true_values, cfg) in zip(MOMENT_REGIMES, configs, constants):
        tables = [
            risk.compute_loss_table(
                datagen.generate(config.generator, config.n,
                                 np.random.SeedSequence([config.seed, 0, i])),
                atoms, config.loss)
            for i in range(MOMENT_DATASETS)
        ]
        estimate = moments.empirical_moment_estimate(tables, true_values, pi, cfg.q)
        estimates[regime] = [estimate, bool(estimate <= cfg.moment.value)]
    seconds = time.perf_counter() - start
    return ItemResult(seconds, MOMENT_DATASETS * len(MOMENT_REGIMES), estimates, estimates)


def _moment_failures(check: dict, ref: dict) -> int:
    """Failed estimates: value to relative 1e-9, pass/fail exactly."""
    return sum(1 for regime, (value, passed) in ref.items()
               if regime not in check
               or not (same(check[regime][0], value) and check[regime][1] is passed))


# ---------------------------------------------------------------------------
# Certify: run_bound then run_aggregate on one dataset, written as --out does
# ---------------------------------------------------------------------------

CERTIFY_CONFIG = ("configs/bound_demo.yaml", ("prior.count=2000",))


def _write_out(records: list[dict], summary: dict, prefix: Path) -> Path:
    """The files the CLI writes for ``--out PREFIX``."""
    path = prefix.with_suffix(".records.jsonl")
    harness.write_records(records, path)
    prefix.with_suffix(".summary.json").write_text(harness.dump_record(summary) + "\n")
    return path


def _certify_run(seed: int, out_dir: Path) -> ItemResult:
    config = _load(*CERTIFY_CONFIG, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    bound = harness.run_bound(config)
    bound_path = _write_out(bound.records, bound.summary, out_dir / "certify_bound")
    atoms, summary = harness.run_aggregate(config)
    atoms_path = _write_out(atoms, summary, out_dir / "certify_aggregate")
    seconds = time.perf_counter() - start
    written = [len(p.read_text().splitlines()) for p in (bound_path, atoms_path)]
    check = {"bound": {r["rho"]: [r["upper"], r["divergence_plus_one"]] for r in bound.records},
             "rho_hat_weight": [r["rho_hat_weight"] for r in atoms],
             "written": written}
    full = {"bound": bound.records, "bound_summary": _without_timestamp(bound.summary),
            "atoms": atoms, "atoms_summary": _without_timestamp(summary)}
    return ItemResult(seconds, 1, check, full)


def _certify_failures(check: dict, ref: dict) -> int:
    bound_ok = check["bound"].keys() == ref["bound"].keys() and all(
        same(a, b) for rho in ref["bound"] for a, b in zip(check["bound"][rho], ref["bound"][rho]))
    weights_ok = len(check["rho_hat_weight"]) == len(ref["rho_hat_weight"]) and all(
        same(a, b) for a, b in zip(check["rho_hat_weight"], ref["rho_hat_weight"]))
    return 0 if bound_ok and weights_ok and check["written"] == ref["written"] else 1


# ---------------------------------------------------------------------------

COVERAGE_IID = ("configs/coverage_iid_t5.yaml", ())
COVERAGE_SCALE = ("configs/coverage_iid_t5.yaml",
                  ("prior.count=10000", "experiment.n=5000", "experiment.replications=50"))

# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="coverage_iid", unit="replication", units=500, pool=tuple(range(606, 614)),
        trace_items=16, configs=(COVERAGE_IID,), run=_coverage_runner(*COVERAGE_IID),
        failures=_coverage_failures),
    Workload(
        name="coverage_scale", unit="replication", units=50, pool=tuple(range(606, 614)),
        trace_items=1, configs=(COVERAGE_SCALE,), run=_coverage_runner(*COVERAGE_SCALE),
        failures=_coverage_failures,
        # One item per run, longer than the host's speed phases: two kernel
        # timings around it say little about the speed during it, and its
        # large-array rate drifts far less than the small-table workloads'.
        calibrated=False),
    Workload(
        name="moment_mc", unit="estimate", units=len(MOMENT_REGIMES),
        pool=tuple(range(111, 143)), trace_items=12,
        configs=tuple((_moment_config(r), ()) for r in MOMENT_REGIMES),
        run=_moment_run, failures=_moment_failures),
    Workload(
        name="certify", unit="dataset", units=1, pool=tuple(range(42, 58)),
        trace_items=32, configs=(CERTIFY_CONFIG,), run=_certify_run,
        failures=_certify_failures),
)}
