"""The record writer gives exactly ``dump_record`` of each record, one per line.

``records_text`` encodes field by field, with one line template per run of
records that share a key set; ``dump_record`` is the encoder that defines the
format, so every file and every stdout line must equal its per-record output.
"""

import contextlib
import io
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hostile_pac import cli
from hostile_pac.harness import (dump_record, load_config, records_text, run_aggregate, run_bound,
                                 run_coverage, write_records)

ROOT = Path(__file__).resolve().parents[1]

SPECIAL_FLOATS = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310,
                                  1e308, 0.1, 1.0 / 3.0])
FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | SPECIAL_FLOATS.filter(
    math.isfinite)
FLOATS = st.floats() | SPECIAL_FLOATS
TEXT = st.text(st.sampled_from('ab%"\\/\n\té€ 😀') | st.characters(), max_size=6)
SCALARS = (FLOATS | FLOATS.map(np.float64) | st.integers() | st.booleans() | st.none() | TEXT)
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3), max_leaves=6)
KEYS = st.text(st.sampled_from('ab%"é_'), max_size=4)


@st.composite
def _shaped(draw, size, items):
    """``size`` lists nested to one drawn shape, with entries from ``items``."""
    shape = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))

    def nested(widths):
        if not widths:
            return items
        return st.lists(nested(widths[1:]), min_size=widths[0], max_size=widths[0])
    return draw(st.lists(nested(shape), min_size=size, max_size=size))


# Values that compare equal, which the writer may fold into a line template
# only where dump_record writes them alike.
EQUAL_VALUES = ([0.0, -0.0], [0.0, -0.0, 0, False], [1, True, 1.0], [math.nan], [2.5],
                [-2.5, np.float64(-2.5)], [math.inf], [10**30], [2**53, 2.0**53], ["ab"], [None],
                [[1.5, "x"]])


def _fresh(value):
    """An equal value in a new object, where Python does not share the value."""
    if type(value) in (int, float):
        return type(value)(repr(value))
    if type(value) is str:
        return "".join(list(value))
    if type(value) is list:
        return list(value)
    return value


# A column of a run, as a strategy of ``size`` values: the shapes the writer
# encodes in one pass, and the mixed values it hands to dump_record.
COLUMNS = (
    lambda size: st.lists(FINITE_FLOATS, min_size=size, max_size=size),
    lambda size: st.lists(FLOATS, min_size=size, max_size=size),
    lambda size: st.lists(st.integers(), min_size=size, max_size=size),
    lambda size: st.lists(st.booleans() | st.none(), min_size=size, max_size=size),
    lambda size: VALUES.map(lambda value: [value] * size),  # the same object in every record
    lambda size: _shaped(size, FINITE_FLOATS),
    lambda size: _shaped(size, FLOATS | st.integers()),
    lambda size: st.lists(st.lists(VALUES, max_size=3), min_size=size, max_size=size),  # ragged
    lambda size: st.lists(VALUES, min_size=size, max_size=size),
    lambda size: st.sampled_from(EQUAL_VALUES).flatmap(  # equal, in distinct objects
        lambda equal: st.lists(st.sampled_from(equal).map(_fresh), min_size=size, max_size=size)),
)


@st.composite
def runs(draw):
    """Records that share one key set, each with its keys in its own order."""
    keys = draw(st.lists(KEYS, max_size=6, unique=True)
                | st.lists(st.integers(-3, 3), min_size=1, max_size=3, unique=True))
    size = draw(st.integers(1, 6))
    columns = [draw(draw(st.sampled_from(COLUMNS))(size)) for _ in keys]
    rows = list(zip(*columns)) if columns else [()] * size
    return [dict(draw(st.permutations(list(zip(keys, row))))) for row in rows]


RECORDS = st.lists(runs(), max_size=4).map(lambda chunks: [r for chunk in chunks for r in chunk])


def _reference(records):
    return "".join(dump_record(r) + "\n" for r in records)


def _stdout(records, summary):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(records, summary, None)
    return out.getvalue()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(RECORDS)
def test_writer_matches_dump_record(tmp_path, records):
    expected = _reference(records)
    assert records_text(records) == expected
    path = tmp_path / "run.records.jsonl"
    write_records(records, path)
    assert path.read_text() == expected
    summary = {"type": "summary", "%": math.nan}
    assert _stdout(records, summary) == _reference([*records, summary])


def _bound():
    return run_bound(load_config(ROOT / "configs" / "bound_demo.yaml", ["prior.count=2000"]))


def _aggregate():
    return run_aggregate(load_config(ROOT / "configs" / "bound_demo.yaml", ["prior.count=2000"]))


def _coverage():
    return run_coverage(load_config(ROOT / "configs" / "erm_finite_class.yaml",
                                    ["experiment.replications=50"]))


@pytest.mark.parametrize("run", [_bound, _aggregate, _coverage])
def test_writer_matches_dump_record_on_real_records(run, tmp_path):
    records, summary = run()
    path = tmp_path / "run.records.jsonl"
    write_records(records, path)
    assert path.read_text() == _reference(records)
    assert _stdout(records, summary) == _reference([*records, summary])
