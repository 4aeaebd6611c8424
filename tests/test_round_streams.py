"""Bulk-seeded generators against NumPy's own SeedSequence.

``repro.stats.rounds.round_rngs`` builds the generators of a run of
indices of a unit's stream without constructing a SeedSequence per
index.  Every sweep's results rest on it being exactly
``tests/oracles.py::unit_stream_rng``: the same PCG64 state and so the
same draws.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StatsError
from repro.stats.rounds import round_rng, round_rngs, unit_entropy
from tests.oracles import unit_stream_rng

#: Entropies whose word count or top words are edge cases: 0 and 1, one
#: word, three words with a zero top word, and the largest accepted.
EDGE_ENTROPIES = [
    0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96 - 1, 2**96,
    2**127, 2**128 - 1,
]

entropies = st.one_of(
    st.sampled_from(EDGE_ENTROPIES),
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**96 - 1),
    st.integers(0, 2**128 - 1),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=3).map(
        unit_entropy
    ),
)


def _assert_same(generator, expected):
    assert generator.bit_generator.state == expected.bit_generator.state
    assert generator.random(3).tolist() == expected.random(3).tolist()
    assert int(generator.integers(2**63)) == int(expected.integers(2**63))


@settings(max_examples=150, deadline=None)
@given(
    entropy=entropies,
    start=st.one_of(st.integers(0, 300), st.integers(0, 2**32 - 200)),
    count=st.integers(0, 130),
)
def test_bulk_generators_match_the_oracle(entropy, start, count):
    generators = round_rngs(entropy, start, count)
    assert len(generators) == count
    for index, generator in zip(range(start, start + count), generators):
        _assert_same(generator, unit_stream_rng(entropy, index))


@settings(max_examples=60, deadline=None)
@given(entropy=entropies, index=st.integers(0, 2**32 - 1))
def test_round_rng_is_the_oracle(entropy, index):
    _assert_same(round_rng(entropy, index), unit_stream_rng(entropy, index))


@settings(max_examples=60, deadline=None)
@given(
    entropy=entropies,
    start=st.integers(0, 200),
    sizes=st.lists(st.integers(1, 70), min_size=2, max_size=5),
)
def test_runs_split_anywhere_give_the_same_generators(entropy, start, sizes):
    """Chunked index runs (a sweep's rounds, which cross every chunk
    boundary) build the generators one long run builds."""
    whole = round_rngs(entropy, start, sum(sizes))
    pieces = []
    for size in sizes:
        pieces += round_rngs(entropy, start + len(pieces), size)
    for a, b in zip(whole, pieces, strict=True):
        assert a.bit_generator.state == b.bit_generator.state


def test_largest_index_matches():
    entropy = unit_entropy({"unit": "last"})
    last = round_rngs(entropy, 2**32 - 2, 2)
    _assert_same(last[0], unit_stream_rng(entropy, 2**32 - 2))
    _assert_same(last[1], unit_stream_rng(entropy, 2**32 - 1))


@pytest.mark.parametrize("entropy", [-1, 2**128, 2**160])
def test_out_of_range_entropy_raises(entropy):
    with pytest.raises(StatsError, match="entropy"):
        round_rngs(entropy, 0, 1)
    with pytest.raises(StatsError, match="entropy"):
        round_rng(entropy, 0)


@pytest.mark.parametrize("start, count", [
    (2**32, 1), (2**32 - 1, 2), (-1, 1), (0, -1),
])
def test_out_of_range_indices_raise(start, count):
    with pytest.raises(StatsError, match="indices"):
        round_rngs(1, start, count)


def test_round_rng_rejects_index_past_32_bits():
    with pytest.raises(StatsError, match="indices"):
        round_rng(1, 2**32)
