#!/usr/bin/env python3
"""Run the bundled experiments end to end and summarize the results.

Coverage runs for the bundled configurations land in results/ as JSONL
records plus summaries, followed by a sample-size sweep whose fitted
log-log margin slope should sit near -1/2.

Usage: python3 scripts/run_experiments.py [--fast] [--results DIR]
"""

import argparse
import dataclasses
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from hostile_pac import harness  # noqa: E402

CONFIGS = [
    "coverage_iid_t5.yaml",
    "coverage_ar1_t7.yaml",
    "oracle_rate_gaussian.yaml",
    "erm_finite_class.yaml",
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true",
                        help="cut replication counts to 50 for a smoke run")
    parser.add_argument("--results", default=str(ROOT / "results"))
    args = parser.parse_args()

    results_dir = Path(args.results)
    results_dir.mkdir(parents=True, exist_ok=True)

    for name in CONFIGS:
        config = harness.load_config(ROOT / "configs" / name)
        if args.fast:
            config = dataclasses.replace(config, replications=50)
        report = harness.run_coverage(config)
        harness.write_outputs(results_dir / Path(name).stem, report.records, report.summary)
        summary = report.summary
        print(f"{name}: coverage_two_sided={summary['coverage_two_sided']:.3f} "
              f"coverage_oracle={summary['coverage_oracle']:.3f} "
              f"coverage_erm={summary['coverage_erm']:.3f} "
              f"mean_slack={summary['mean_slack']:.4g}")

    sweep_base = harness.load_config(ROOT / "configs" / "coverage_iid_t5.yaml")
    sweep_base = dataclasses.replace(sweep_base, replications=50)
    values = [100, 400] if args.fast else [100, 400, 1600, 6400]
    rows = harness.run_sweep(sweep_base, "n", values)
    harness.write_sweep_csv(rows, results_dir / "sweep_n.csv")
    slope = harness.fit_loglog_slope([row["n"] for row in rows],
                                     [row["median_margin"] for row in rows])
    print(f"sweep over n={values}: median-margin log-log slope {slope:.4f} "
          f"(theory: -0.5)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
