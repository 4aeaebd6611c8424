"""``RunningStat``: exact moments beside a quantile sketch.

The one streaming summary behind ``/metrics`` histograms and sweep
cells.  Splitting a stream and merging the parts gives the sketch of
the whole stream exactly, the exact count/min/max, and a payload that
round-trips through JSON.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.continuum import CellAggregate
from repro.errors import MonteCarloError, StatsError
from repro.stats import RunningStat

# Finite, within a range where the float moments cannot overflow.
VALUES = st.lists(
    st.floats(allow_nan=False, allow_infinity=False,
              min_value=-1e12, max_value=1e12),
    max_size=120,
)


def stat_of(values) -> RunningStat:
    stat = RunningStat()
    for value in values:
        stat.add(value)
    return stat


@given(values=VALUES, split=st.integers(0, 120))
def test_merge_of_split_stream_equals_single_stream(values, split):
    split = min(split, len(values))
    merged = stat_of(values[:split]).merge(stat_of(values[split:]))
    whole = stat_of(values)
    assert merged.sketch == whole.sketch
    assert merged.sketch.to_dict() == whole.sketch.to_dict()
    assert merged.count == whole.count == len(values)
    assert (merged.min, merged.max) == (whole.min, whole.max)
    if values:
        scale = max(map(abs, values))
        assert merged.mean == pytest.approx(whole.mean, abs=1e-9 * scale)


@given(values=VALUES)
def test_payload_round_trips_through_json(values):
    stat = stat_of(values)
    payload = json.loads(json.dumps(stat.to_dict()))
    clone = RunningStat.from_dict(payload)
    assert clone.to_dict() == stat.to_dict()
    assert clone.sketch == stat.sketch
    assert clone.variance == stat.variance


def test_quantile_reads_the_sketch():
    stat = stat_of([1.0, 2.0, 3.0, 4.0])
    for q in (0.0, 0.5, 0.99, 1.0):
        assert stat.quantile(q) == stat.sketch.quantile(q)
    with pytest.raises(StatsError):
        RunningStat().quantile(0.5)


def test_copy_is_independent():
    stat = stat_of([1.0, 5.0])
    clone = stat.copy()
    clone.add(100.0)
    assert stat.to_dict() == stat_of([1.0, 5.0]).to_dict()
    assert clone.to_dict() == stat_of([1.0, 5.0, 100.0]).to_dict()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_value_changes_nothing(value):
    stat = stat_of([2.0, 3.0])
    before = stat.to_dict()
    with pytest.raises(StatsError):
        stat.add(value)
    assert stat.to_dict() == before


def _valid_payload() -> dict:
    return stat_of([1.0, 2.0, 4.0]).to_dict()


def _without(key):
    payload = _valid_payload()
    del payload[key]
    return payload


def _with(**changes):
    return {**_valid_payload(), **changes}


@pytest.mark.parametrize("payload", [
    None,
    [1, 2, 3],
    _without("count"),
    _without("sketch"),
    _with(mean="high"),
    _with(count=None),
    _with(min=None),
    _with(count=2),
    _with(count=-1),
    _with(sketch={"format": 99}),
    _with(sketch="buckets"),
], ids=[
    "none", "list", "no-count", "no-sketch", "text-mean", "null-count",
    "null-min", "count-beside-sketch", "negative-count", "sketch-format",
    "sketch-not-a-mapping",
])
def test_malformed_payload_raises_stats_error(payload):
    with pytest.raises(StatsError):
        RunningStat.from_dict(payload)


def test_malformed_cell_aggregate_raises_monte_carlo_error():
    payload = CellAggregate().to_dict()
    payload["stats"]["makespan"] = {"count": "many"}
    with pytest.raises(MonteCarloError):
        CellAggregate.from_dict(payload)
    with pytest.raises(MonteCarloError):
        CellAggregate.from_dict({"stats": {}})
