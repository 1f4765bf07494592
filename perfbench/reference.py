"""Reference outputs for the benchmark's output checks.

One gzipped JSON file per workload holds, for every seed in the workload's
pool, the fields its check compares. Floats are stored to 12 significant
digits, well inside the relative 1e-9 the check allows.

Regenerate only when a change moves outputs on purpose, and say so in
CHANGES.md:

    python3 perfbench/reference.py [--workload NAME ...]
"""

from __future__ import annotations

import argparse
import gzip
import json
import sys
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def path_for(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load(workload: str) -> dict[int, dict]:
    """Reference check payloads keyed by experiment seed."""
    with gzip.open(path_for(workload), "rt") as fh:
        return {int(seed): check for seed, check in json.load(fh).items()}


def _rounded(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    return value


def main(argv: list[str] | None = None) -> int:
    import run  # puts the checkout's src/ on the path
    run.load_package()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in args.workload or sorted(workloads.WORKLOADS):
        wl = workloads.WORKLOADS[name]
        checks = {}
        for seed in wl.pool:
            checks[str(seed)] = _rounded(wl.run(seed, run.OUT_DIR).check)
            print(f"{name} seed {seed} done", file=sys.stderr)
        # mtime=0 keeps the file byte-identical across regenerations.
        with gzip.GzipFile(path_for(name), "wb", mtime=0) as fh:
            fh.write(json.dumps(checks, sort_keys=True).encode())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
