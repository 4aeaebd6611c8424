"""Unit tests for the persistent :class:`CorpusStore`.

The store's contract is *parity*: on the same records, ``search`` and
``deduplicate`` must return bit-identical results to the references over
a plain record list — ``Query(q).filter(records)`` and
:func:`tests.oracles.deduplicate_reference`.  The index and the SQL
merge are allowed to be faster, never different.
"""

import pytest

from repro.corpus.bibtex import publications_from_bibtex, to_bibtex
from repro.corpus.publication import Publication
from repro.corpus.query import MAX_QUERY_DEPTH, Query
from repro.corpus.store import CorpusStore, SCHEMA_VERSION
from repro.data.bibliography import bibliography_bibtex, paper_bibliography
from repro.data.synthetic import synthetic_corpus
from repro.errors import (
    CorpusError,
    CorpusStoreError,
    DuplicateEntityError,
    QueryError,
)
from tests.oracles import (
    deduplicate_reference,
    store_by_venue_reference,
    store_by_year_reference,
)

QUERIES = [
    "workflow",
    "workflow*",
    "workflow AND NOT survey",
    "(workflow OR pipeline) AND (hpc OR cloud)",
    '"workflow management"',
    "NOT workflow",
    "stream* OR batch*",
    '"task-based" OR runtime',
]


def _pub(key, title, year=2020, **kwargs):
    return Publication(key=key, title=title, year=year, **kwargs)


def _filled(corpus_like):
    store = CorpusStore()
    store.extend(list(corpus_like))
    return store


class TestStoreBasics:
    def test_add_and_getitem(self):
        store = CorpusStore()
        store.add(_pub("a", "A Title"))
        assert store["a"].title == "A Title"
        assert "a" in store
        assert "b" not in store
        assert 42 not in store
        assert len(store) == 1

    def test_getitem_unknown(self):
        with pytest.raises(CorpusError):
            CorpusStore()["zzz"]

    def test_iteration_preserves_insertion_order(self):
        pubs = [_pub(f"k{i}", f"Title {i}") for i in range(10)]
        store = _filled(pubs)
        assert [p.key for p in store] == [p.key for p in pubs]
        assert store.keys == tuple(p.key for p in pubs)

    def test_roundtrips_all_fields(self):
        pub = Publication(
            key="full", title="Full Record", authors=("Rossi, A.", "Verdi, B."),
            year=2021, venue="FGCS", abstract="Long abstract.",
            doi="10.1/x", url="https://example.org", keywords=("k1", "k2"),
            kind="article", language="en",
        )
        store = CorpusStore()
        store.add(pub)
        assert store["full"] == pub

    def test_duplicate_key_rejected_by_default(self):
        store = CorpusStore()
        store.add(_pub("a", "T"))
        with pytest.raises(DuplicateEntityError):
            store.add(_pub("a", "T2"))

    def test_collision_suffix_and_skip(self):
        store = CorpusStore()
        store.add(_pub("a", "First"))
        assert store.add(_pub("a", "Second"), on_collision="suffix") == "a-2"
        assert store.add(_pub("a", "Third"), on_collision="skip") is None
        assert store.keys == ("a", "a-2")

    def test_unknown_collision_policy(self):
        with pytest.raises(CorpusError):
            CorpusStore().add(_pub("a", "T"), on_collision="merge")

    def test_closed_store_raises(self):
        store = CorpusStore()
        store.close()
        store.close()  # idempotent
        with pytest.raises(CorpusStoreError):
            len(store)

    def test_context_manager_closes(self):
        with CorpusStore() as store:
            store.add(_pub("a", "T"))
        with pytest.raises(CorpusStoreError):
            len(store)

    def test_bad_batch_size(self):
        with pytest.raises(CorpusStoreError):
            CorpusStore().extend([], batch_size=0)


class TestIngestion:
    def test_ingest_bibtex_lenient_reports_rejects(self):
        store = CorpusStore()
        report = store.ingest_bibtex(
            """
            @misc{good, title = {Kept}}
            @misc{notitle, year = {2020}}
            @misc{uni, title = {Unicode Year}, year = {²⁰²⁰}}
            """,
            strict=False,
        )
        assert report.ingested == 2
        assert [r.key for r in report.rejected] == ["notitle"]
        assert store["uni"].year is None

    def test_ingest_bibtex_strict_rolls_back_batch(self):
        store = CorpusStore()
        from repro.errors import BibTeXError

        with pytest.raises(BibTeXError):
            store.ingest_bibtex(
                "@misc{good, title = {Kept}}\n@misc{bad, year = {2020}}"
            )
        # The failed batch was never committed.
        assert len(store) == 0

    def test_ingest_collision_policy(self):
        store = CorpusStore()
        report = store.ingest_bibtex(
            "@misc{k, title = {One}}\n@misc{k, title = {Two}}",
            on_collision="suffix",
        )
        assert report.ingested == 2
        assert report.renamed == 1
        assert store.keys == ("k", "k-2")

    def test_extend_accepts_generator(self):
        store = CorpusStore()
        report = store.extend(
            (_pub(f"k{i}", f"T {i}") for i in range(25)), batch_size=10
        )
        assert report.ingested == 25
        assert len(store) == 25

    def test_report_to_dict(self):
        report = CorpusStore().ingest_bibtex(
            "@misc{notitle, year = {2020}}", strict=False
        )
        payload = report.to_dict()
        assert payload["ingested"] == 0
        assert payload["rejected"][0][0] == "notitle"


class TestSearchParity:
    @pytest.fixture(scope="class")
    def seed_records(self):
        return publications_from_bibtex(bibliography_bibtex())

    @pytest.fixture(scope="class")
    def seed_store(self, seed_records):
        return _filled(seed_records)

    @pytest.mark.parametrize("query", QUERIES)
    def test_bit_identical_to_in_memory(self, seed_records, seed_store, query):
        assert seed_store.search(query) == Query(query).filter(seed_records)

    @pytest.mark.parametrize("query", QUERIES)
    def test_parity_on_synthetic(self, query):
        store = synthetic_corpus(150, seed=7)
        records = list(store)
        assert store.search(query) == Query(query).filter(records)

    def test_multiword_term_with_punctuation(self):
        pubs = [
            _pub("a", "A task-based runtime"),
            _pub("b", "A task based runtime"),
            _pub("c", "Databased runtimes"),
        ]
        store = _filled(pubs)
        assert [p.key for p in store.search("task-based")] == \
            [p.key for p in Query("task-based").filter(pubs)]

    def test_empty_result(self):
        store = _filled([_pub("a", "Workflows")])
        assert store.search("zzzqqq") == []

    @pytest.mark.parametrize("nested", [
        pytest.param("(" * 1200 + "workflow" + ")" * 1200, id="parens"),
        pytest.param("NOT " * 1200 + "workflow", id="not"),
        pytest.param("(workflow AND " * (MAX_QUERY_DEPTH + 1) + "x"
                     + ")" * (MAX_QUERY_DEPTH + 1), id="and-parens"),
    ])
    def test_nesting_past_the_bound_is_a_query_error(self, nested):
        store = _filled([_pub("a", "Workflows")])
        with pytest.raises(QueryError, match="nests deeper"):
            store.search(nested)

    def test_nesting_at_the_bound_searches(self):
        # Alternating AND/OR levels keep every level in the AST, so the
        # candidate planner recurses MAX_QUERY_DEPTH deep.
        depth = MAX_QUERY_DEPTH
        ops = ("OR", "AND") * (depth // 2) + ("OR",) * (depth % 2)
        nested = "".join(f"(workflow {op} " for op in ops)
        nested += "workflow" + ")" * depth
        pubs = [_pub("a", "Workflow engines"), _pub("b", "Other")]
        store = _filled(pubs)
        assert store.search(nested) == Query(nested).filter(pubs)
        assert [p.key for p in store.search(nested)] == ["a"]


class TestDedupParity:
    def test_parity_on_seed_corpus(self):
        store = paper_bibliography()
        expected = deduplicate_reference(store)
        store.deduplicate()
        assert list(store) == expected

    @pytest.mark.parametrize("seed, threshold", [
        pytest.param(0, 0.75, id="0"),
        pytest.param(3, 0.75, id="3"),
        pytest.param(3, 0.5, id="3-threshold0.5"),
        pytest.param(3, 1.0, id="3-threshold1.0"),
    ])
    def test_parity_on_synthetic_with_duplicates(self, seed, threshold):
        store = synthetic_corpus(120, seed=seed, duplicate_fraction=0.25)
        records = list(store)
        summary = store.deduplicate(threshold=threshold)
        deduped = deduplicate_reference(records, threshold=threshold)
        assert list(store) == deduped
        assert summary.dropped == len(records) - len(deduped)
        assert summary.pairs_scored > 0

    def test_index_updated_after_merge(self):
        pubs = [
            _pub("a", "A very repeated workflow title"),
            _pub("b", "A VERY REPEATED WORKFLOW TITLE"),
            _pub("c", "Something unrelated"),
        ]
        store = _filled(pubs)
        summary = store.deduplicate()
        assert summary.clusters == 1
        assert [p.key for p in store.search("workflow*")] == ["a"]
        assert "b" not in store

    def test_validates_params(self):
        with pytest.raises(CorpusError):
            CorpusStore().deduplicate(threshold=0.0)

    def test_empty_store(self):
        summary = CorpusStore().deduplicate()
        assert summary.clusters == 0


class TestGrouping:
    def test_by_year_fills_gap_years(self):
        store = _filled([_pub("a", "T", 2020), _pub("b", "U", 2020),
                         _pub("c", "V", 2022)])
        assert store.by_year().to_dict() == {2020: 2, 2021: 0, 2022: 1}

    def test_by_year_matches_in_memory(self):
        store = synthetic_corpus(100, seed=1)
        assert store.by_year().to_dict() == \
            store_by_year_reference(store).to_dict()

    def test_by_year_requires_years(self):
        store = _filled([Publication(key="a", title="T")])
        with pytest.raises(CorpusError):
            store.by_year()

    def test_by_venue_matches_in_memory(self):
        store = paper_bibliography()
        assert store.by_venue().to_dict() == \
            store_by_venue_reference(store).to_dict()

    def test_by_venue_empty(self):
        with pytest.raises(CorpusError):
            CorpusStore().by_venue()

    def test_by_venue_sql_groups_then_normalizer_folds(self):
        # Distinct raw spellings share one canonical venue: the SQL
        # GROUP BY sees them as separate rows, the normalizer must fold
        # them afterwards — identical to the in-memory path.
        pubs = [
            _pub("a", "T1", venue="Future Generation Computer Systems"),
            _pub("b", "T2", venue="FGCS"),
            _pub("c", "T3", venue="Future generation computer systems "),
            _pub("d", "T4", venue=""),
            _pub("e", "T5"),
        ]
        store = _filled(pubs)
        table = store.by_venue()
        assert table.to_dict() == store_by_venue_reference(store).to_dict()
        raw_venues = {
            row[0]
            for row in store.db.execute("SELECT DISTINCT venue FROM pubs")
        }
        # More raw spellings than table rows proves folding happened
        # after (not instead of) the SQL aggregation.
        assert len(raw_venues) > len(table.labels)

    def test_year_range(self):
        store = _filled([_pub("a", "T", 2005), _pub("b", "U", 2021)])
        assert store.year_range() == (2005, 2021)

    def test_to_bibtex_roundtrip(self):
        store = paper_bibliography()
        assert store.to_bibtex() == to_bibtex(
            publications_from_bibtex(bibliography_bibtex())
        )


class TestPersistence:
    def test_warm_reopen_serves_queries(self, tmp_path):
        path = tmp_path / "corpus.db"
        corpus = paper_bibliography()
        with CorpusStore(path) as store:
            store.extend(list(corpus))
            expected = store.search("workflow*")
        # Re-open: no re-ingestion, same contents, same query results.
        with CorpusStore(path) as store:
            assert len(store) == len(corpus)
            assert store.search("workflow*") == expected
            assert store.keys == corpus.keys

    def test_schema_version_mismatch_refused(self, tmp_path):
        path = tmp_path / "corpus.db"
        with CorpusStore(path) as store:
            store.db.execute(
                "UPDATE meta SET v = ? WHERE k = 'schema_version'",
                (str(SCHEMA_VERSION + 1),),
            )
            store.db.commit()
        with pytest.raises(CorpusStoreError):
            CorpusStore(path)

    def test_stats(self, tmp_path):
        path = tmp_path / "corpus.db"
        with CorpusStore(path) as store:
            store.add(_pub("a", "Workflow engines", 2020))
            stats = store.stats()
        assert stats["records"] == 1
        assert stats["terms"] >= 2
        assert stats["year_range"] == (2020, 2020)
        assert stats["path"] == str(path)


class TestTelemetry:
    def test_counters_and_spans_recorded(self):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        store = CorpusStore(telemetry=telemetry)
        store.ingest_bibtex(
            "@misc{a, title = {Workflow one}}\n"
            "@misc{b, title = {WORKFLOW ONE}}\n"
            "@misc{c, title = {Unrelated text}}\n"
        )
        store.search("workflow")
        store.deduplicate()
        snapshot = telemetry.metrics.snapshot()
        assert snapshot["corpus.records_ingested"]["value"] == 3
        assert snapshot["corpus.query_hits"]["value"] == 2
        assert snapshot["corpus.dedup_clusters"]["value"] == 1
        spans = {span.name: span for span in telemetry.tracer.spans()}
        assert {
            "corpus.ingest", "corpus.search", "corpus.dedup",
            "corpus.dedup.cluster", "corpus.dedup.merge",
        } <= set(spans)
        dedup_id = spans["corpus.dedup"].span_id
        assert spans["corpus.dedup.cluster"].parent_id == dedup_id
        assert spans["corpus.dedup.merge"].parent_id == dedup_id

    def test_full_scan_counter(self):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        store = CorpusStore(telemetry=telemetry)
        store.add(_pub("a", "Workflows"))
        store.search("NOT nothing")
        snapshot = telemetry.metrics.snapshot()
        assert snapshot["corpus.query_full_scans"]["value"] == 1


class TestLedgerRecord:
    def test_build_corpus_record(self):
        from repro.obs import build_corpus_record
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        store = CorpusStore(telemetry=telemetry)
        report = store.ingest_bibtex("@misc{a, title = {T}}")
        record = build_corpus_record(
            store, telemetry=telemetry, operation="ingest",
            summary=report.to_dict(), meta={"source": "unit-test"},
        )
        assert record.kind == "corpus-store"
        assert record.metrics["corpus.records"] == 1.0
        assert record.metrics["corpus.ingest.ingested"] == 1.0
        assert record.metrics["corpus.records_ingested"] == 1.0
        assert record.artifacts["corpus_keys"].n_items == 1
        assert record.meta["operation"] == "ingest"
        assert record.meta["source"] == "unit-test"

    def test_key_digest_pins_membership_and_order(self):
        from repro.obs import build_corpus_record

        a = _filled([_pub("x", "T1"), _pub("y", "T2")])
        b = _filled([_pub("y", "T2"), _pub("x", "T1")])
        ra = build_corpus_record(a)
        rb = build_corpus_record(b)
        digest_a = ra.artifacts["corpus_keys"]
        digest_b = rb.artifacts["corpus_keys"]
        assert digest_a.sha256 != digest_b.sha256
        assert digest_a.content_sha256 == digest_b.content_sha256
