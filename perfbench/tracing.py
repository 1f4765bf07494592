"""Span tracing of the package's public functions, installed from outside.

The tracer replaces each traced function by a wrapper in every
``hostile_pac`` module namespace that holds it: the harness binds functions
with ``from .x import f``, so ``harness.solve_rbar`` and
``aggregation.f_divergence`` are replaced where they are looked up. Nothing
under ``src/`` changes, and leaving the ``installed()`` block restores every
original binding.

Spans are kept in memory as ``(name, start, end, parent)`` and written out
once, at the end of the run. A function's self time is the sum of its span
durations minus the durations of their direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

PACKAGE = "hostile_pac"

# (module, function) pairs, named by the module that defines the function.
TRACED = (
    ("datagen", "generate"),
    ("datagen", "true_risk_closed_form"),
    ("risk", "compute_loss_table"),
    ("risk", "empirical_risk"),
    ("param_space", "build_prior"),
    ("param_space", "expectation"),
    ("moments", "empirical_moment_estimate"),
    ("divergence", "f_divergence"),
    ("aggregation", "solve_rbar"),
    ("aggregation", "rho_hat"),
    ("aggregation", "verify_complexity"),
    ("aggregation", "evaluate_bound"),
    ("aggregation", "catoni_pi_gamma"),
    ("harness", "load_config"),
    ("harness", "resolve_moment"),
    ("harness", "run_coverage"),
    ("harness", "run_bound"),
    ("harness", "run_aggregate"),
    ("harness", "write_records"),
    ("harness", "dump_record"),
)


def _loss_table_bytes(data, atoms, loss) -> int:
    """Size of the n x K float64 table, computed from the arguments."""
    return 8 * len(data) * len(atoms)


# Work computed from a call's arguments and summed per function.
WORK = {"risk.compute_loss_table": ("bytes", _loss_table_bytes)}


class Tracer:
    """Collects spans and per-function work counters while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []  # None while open
        self.work: dict[str, int] = {f"{name}.{unit}": 0 for name, (unit, _) in WORK.items()}
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                self.work[f"{name}.{counter[0]}"] += counter[1](*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return wrapper

    @contextmanager
    def installed(self):
        """Replace every binding of each traced function; restore on exit."""
        namespaces = [m for n, m in sys.modules.items()
                      if n == PACKAGE or n.startswith(PACKAGE + ".")]
        patches = []
        try:
            for module_name, fn_name in TRACED:
                original = getattr(importlib.import_module(f"{PACKAGE}.{module_name}"), fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for module in namespaces:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            patches.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patches):
                setattr(module, attr, original)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Calls and self time per traced function, zero for uncalled ones.

        Call only outside ``installed()``, when every span is closed.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {f"{m}.{f}": {"calls": 0, "self_s": 0.0} for m, f in TRACED}
        for (name, start, end, _), child_s in zip(self.spans, child):
            totals[name]["calls"] += 1
            totals[name]["self_s"] += (end - start) - child_s
        return totals

    def write(self, path: Path) -> None:
        """Spans as ``[name, start, end, parent]`` rows, parent -1 at the root."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent"],
                                    "spans": self.spans}))
