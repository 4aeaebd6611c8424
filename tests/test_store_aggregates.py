"""Aggregate reads of :class:`CorpusStore`: scan parity, caching, plans.

``stats``, ``year_range``, ``by_year`` and ``by_venue`` read the sorted
indexes and keep their SQL rows per data version.  Every mutation kind
must move that version, so after each one the answers equal the full-scan
oracles in ``tests/oracles.py`` — checked with the cache warmed *before*
the mutation, which is the case a stale cache would get wrong.
"""

import pytest

from repro.corpus.publication import Publication
from repro.corpus.store import _STATS_SQL, _YEAR_RANGE_SQL, CorpusStore
from repro.corpus.venues import VenueNormalizer
from repro.data.synthetic import synthetic_corpus
from repro.errors import CorpusError
from tests.oracles import (
    store_by_venue_reference,
    store_by_year_reference,
    store_stats_reference,
)


def _pub(key, title, year=2020, **kwargs):
    return Publication(key=key, title=title, year=year, **kwargs)


def _answer(call):
    """A call's result, or its CorpusError message."""
    try:
        return call()
    except CorpusError as exc:
        return ("CorpusError", str(exc))


def _aggregates(store):
    return (
        store.stats(),
        _answer(store.year_range),
        _answer(store.by_year),
        _answer(store.by_venue),
    )


def _references(store):
    stats = store_stats_reference(store)
    span = stats["year_range"]
    return (
        stats,
        span if span is not None else ("CorpusError", "no publication has a year"),
        _answer(lambda: store_by_year_reference(store)),
        _answer(lambda: store_by_venue_reference(store)),
    )


def assert_matches_scan(store):
    assert _aggregates(store) == _references(store)


@pytest.fixture
def store():
    store = CorpusStore()
    store.extend(list(synthetic_corpus(60, seed=4)))
    assert_matches_scan(store)  # warms the cache
    return store


class TestScanParity:
    def test_add(self, store):
        store.add(_pub("new", "Serverless workflow brokers", 1999,
                       venue="Brand New Venue"))
        assert_matches_scan(store)
        assert store.year_range()[0] == 1999

    def test_extend(self, store):
        store.extend(list(synthetic_corpus(20, seed=5)), on_collision="suffix")
        assert_matches_scan(store)
        assert store.stats()["records"] == 80

    def test_ingest_bibtex_suffix(self, store):
        key = store.keys[0]
        report = store.ingest_bibtex(
            f"@article{{{key}, title = {{Quantum workflow ledgers}},"
            " year = {2031}, journal = {FGCS}}\n"
            "@article{fresh, title = {Edge pipelines}, year = {2002}}",
            on_collision="suffix",
        )
        assert (report.ingested, report.renamed) == (2, 1)
        assert_matches_scan(store)
        assert store.year_range()[1] == 2031

    def test_deduplicate(self):
        store = CorpusStore()
        store.extend(list(synthetic_corpus(120, seed=2, duplicate_fraction=0.25)))
        assert_matches_scan(store)
        assert store.deduplicate().dropped > 0
        assert_matches_scan(store)

    def test_commit_through_second_store(self, tmp_path):
        path = tmp_path / "corpus.sqlite3"
        with CorpusStore(path) as reader, CorpusStore(path) as writer:
            writer.extend(list(synthetic_corpus(30, seed=6)))
            assert_matches_scan(reader)
            writer.add(_pub("late", "Late arrival", 2040, venue="Other"))
            assert_matches_scan(reader)
            assert reader.stats()["records"] == 31
            assert reader.year_range()[1] == 2040

    def test_direct_connection_writes(self, store):
        key = store.keys[0]
        store.db.execute("DELETE FROM pubs WHERE key = ?", (key,))
        store.db.commit()
        assert_matches_scan(store)
        store.db.execute("UPDATE pubs SET year = 1900")
        assert_matches_scan(store)  # uncommitted, seen by this connection
        store.db.rollback()
        assert_matches_scan(store)

    def test_rolled_back_extend_leaves_no_stale_counts(self, store):
        before = store.stats()
        mid_batch = []

        def records():
            yield _pub("x1", "Rollback probe one", 2050)
            yield _pub("x2", "Rollback probe two", 2051)
            yield _pub("x3", "Rollback probe three", 2052)
            mid_batch.append(store.stats())
            raise RuntimeError("abort the batch")

        with pytest.raises(RuntimeError):
            store.extend(records(), batch_size=2)
        # Mid-batch, the open transaction's own rows were visible...
        assert mid_batch[0]["records"] == before["records"] + 3
        assert mid_batch[0]["year_range"][1] == 2052
        # ...but only the committed first batch survives the rollback.
        assert_matches_scan(store)
        assert store.stats()["records"] == before["records"] + 2
        assert store.year_range()[1] == 2051

    def test_empty_store(self):
        store = CorpusStore()
        assert_matches_scan(store)
        stats = store.stats()
        assert (stats["records"], stats["postings"], stats["terms"]) == (0, 0, 0)
        assert stats["year_range"] is None
        with pytest.raises(CorpusError):
            store.by_year()
        with pytest.raises(CorpusError):
            store.by_venue()

    def test_records_without_years(self):
        store = CorpusStore()
        store.extend([Publication(key="a", title="T"),
                      Publication(key="b", title="U", venue="FGCS")])
        assert_matches_scan(store)
        assert store.stats()["year_range"] is None
        with pytest.raises(CorpusError):
            store.year_range()
        with pytest.raises(CorpusError):
            store.by_year()
        store.add(_pub("c", "V", 2012))
        assert_matches_scan(store)
        assert store.by_year().to_dict() == {2012: 1}


class TestWarmReads:
    def _statements(self, store, call):
        statements = []
        store.db.set_trace_callback(statements.append)
        try:
            call()
        finally:
            store.db.set_trace_callback(None)
        return statements

    def test_second_stats_issues_only_data_version(self, store):
        store.add(_pub("w", "Warm probe", 2020))
        cold = self._statements(store, store.stats)
        assert any("postings" in sql for sql in cold)
        warm = self._statements(store, store.stats)
        assert warm and set(warm) == {"PRAGMA data_version"}

    @pytest.mark.parametrize("name", ["year_range", "by_year", "by_venue"])
    def test_other_aggregates_warm(self, store, name):
        getattr(store, name)()
        warm = self._statements(store, getattr(store, name))
        assert warm and set(warm) == {"PRAGMA data_version"}

    def test_write_invalidates(self, store):
        store.stats()
        store.add(_pub("w", "Warm probe", 2020))
        again = self._statements(store, store.stats)
        assert any("postings" in sql for sql in again)

    def test_callers_do_not_share_state(self, store):
        first = store.stats()
        first["records"] = -1
        first["year_range"] = None
        second = store.stats()
        assert second == store_stats_reference(store)
        assert second is not first

    def test_cached_venue_rows_serve_any_normalizer(self, store):
        default = store.by_venue()
        folded = VenueNormalizer(aliases={"everything": ("",)})
        assert store.by_venue(folded).to_dict() == {"everything": len(store)}
        assert store.by_venue() == default
        assert store.by_venue(folded) == store_by_venue_reference(store, folded)


class TestPlans:
    def _plan(self, store, sql):
        return [row[3] for row in store.db.execute("EXPLAIN QUERY PLAN " + sql)]

    def test_stats_walks_the_term_index_without_a_temp_btree(self, store):
        plan = self._plan(store, _STATS_SQL)
        assert not any("TEMP B-TREE" in step for step in plan), plan

    def test_year_range_seeks_the_year_index(self, store):
        plan = self._plan(store, _YEAR_RANGE_SQL)
        seeks = [step for step in plan if "idx_pubs_year" in step]
        assert len(seeks) == 2, plan
        assert all(step.startswith("SEARCH") for step in seeks), plan
