"""Command line interface.

Subcommands::

    hostile-pac bound     --config cfg.yaml [--seed N] [--out PREFIX] [--set k=v]
    hostile-pac aggregate --config cfg.yaml ...
    hostile-pac coverage  --config cfg.yaml ...
    hostile-pac sweep     --config cfg.yaml --axis n --values 100,400,1600 ...

Every command returns records and a summary record, written as canonical JSON
lines that depend on the configuration and seed alone: to stdout, summary
last, or with ``--out PREFIX`` to ``PREFIX.records.jsonl`` and ``PREFIX.summary.json``.

Exit codes: 0 success, 1 configuration or usage error, 2 numerical failure,
3 assumption violated.
"""

from __future__ import annotations

import argparse
import sys

from . import harness
from .aggregation import SolverError
from .harness import AssumptionError


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, the configuration-error code, not argparse's 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hostile-pac", description="PAC-Bayesian certificates for hostile data")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="YAML experiment configuration")
        p.add_argument("--seed", type=int, default=None, help="override experiment.seed")
        p.add_argument("--out", default=None, help="output file prefix")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a dotted config key")

    add_common(sub.add_parser("bound", help="certify one dataset"))
    add_common(sub.add_parser("aggregate", help="optimal aggregation weights for one dataset"))
    add_common(sub.add_parser("coverage", help="Monte Carlo coverage experiment"))
    sweep = sub.add_parser("sweep", help="coverage along one axis")
    add_common(sweep)
    sweep.add_argument("--axis", required=True, choices=harness.SWEEP_AXES)
    sweep.add_argument("--values", required=True,
                       help="comma-separated axis values, e.g. 100,400,1600")
    return parser


def _load(args: argparse.Namespace) -> harness.ExperimentConfig:
    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(f"experiment.seed={args.seed}")
    return harness.load_config(args.config, overrides)


def _emit(records: list[dict], summary: dict, out: str | None) -> None:
    if out is None:
        sys.stdout.write(harness.records_text([*records, summary]))
        return
    try:
        paths = harness.write_outputs(out, records, summary)
    except (OSError, ValueError) as exc:  # a prefix under a file, or ending in a separator
        raise harness.ConfigError(f"--out {out}: {exc}") from exc
    print("wrote " + " and ".join(map(str, paths)))


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load(args)
        if args.command == "sweep":
            values = [harness.yaml_value(v, f"sweep {args.axis}: --values item: {v!r}")
                      for v in args.values.split(",")]
            result = harness.run_sweep(config, args.axis, values)
        else:  # bound, aggregate and coverage
            result = getattr(harness, f"run_{args.command}")(config)
        _emit(*result, args.out)
    except ValueError as exc:  # ConfigError and the library's own value checks
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except AssumptionError as exc:
        print(f"assumption violated: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
