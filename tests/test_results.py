"""The committed results/ files are what the current code produces.

Each bundled coverage config is rerun at its full replication count. Bools,
ints, strings and nulls must match exactly and floats to a relative 1e-9;
the summary must carry exactly the keys ``run_coverage`` emits. The files
are regenerated with ``python3 scripts/run_experiments.py``.
"""

import json
import math
from pathlib import Path

import pytest

from hostile_pac.harness import dump_record, load_config, run_coverage

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ["coverage_iid_t5", "coverage_ar1_t7", "oracle_rate_gaussian", "erm_finite_class"]


def _assert_same(committed: dict, fresh: dict, where: str) -> None:
    assert committed.keys() == fresh.keys(), where
    for key, new in fresh.items():
        old = committed[key]
        if type(new) is float and type(old) is float:
            assert old == new or math.isclose(old, new, rel_tol=1e-9), (where, key)
        else:
            assert type(old) is type(new) and old == new, (where, key)


@pytest.mark.parametrize("name", CONFIGS)
def test_committed_results_match_current_code(name):
    report = run_coverage(load_config(ROOT / "configs" / f"{name}.yaml"))
    # Round-trip through the output format so types compare as written.
    fresh = [json.loads(dump_record(r)) for r in report.records]
    lines = (ROOT / "results" / f"{name}.records.jsonl").read_text().splitlines()
    committed = [json.loads(line) for line in lines]
    assert len(committed) == len(fresh)
    for old, new in zip(committed, fresh):
        _assert_same(old, new, f"{name} replication {new['index']}")

    summary = json.loads((ROOT / "results" / f"{name}.summary.json").read_text())
    fresh_summary = json.loads(dump_record(report.summary))
    _assert_same(summary, fresh_summary, f"{name} summary")


@pytest.mark.parametrize("name", CONFIGS)
def test_population_oracle_bounds_the_population_level(name):
    summary = json.loads((ROOT / "results" / f"{name}.summary.json").read_text())
    oracle = summary["oracle_population_bound"]
    assert oracle is None or oracle >= summary["rbar_population"]
