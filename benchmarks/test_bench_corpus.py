"""Corpus-substrate benchmark: parsing, querying, deduplication at scale.

Exercises the harvesting machinery an SMS pipeline runs before analysis:
BibTeX parse throughput on the paper's bibliography, boolean-query filtering,
and near-duplicate detection on synthetic corpora with known injected
duplicates (reporting the recovery rate alongside the timing).
"""

from __future__ import annotations

import pytest
from conftest import report

from repro.corpus.dedup import find_duplicates
from repro.corpus.query import Query
from repro.corpus.store import CorpusStore
from repro.data.bibliography import bibliography_bibtex, paper_bibliography
from repro.data.synthetic import synthetic_corpus


def test_bench_bibtex_parse(benchmark):
    """Parse the paper's 49-entry bibliography into an in-memory store."""
    text = bibliography_bibtex()

    def parse() -> CorpusStore:
        store = CorpusStore()
        store.ingest_bibtex(text)
        return store

    store = benchmark(parse)
    assert len(store) == 49
    assert store.year_range() == (2000, 2023)


def test_bench_query_engine(benchmark):
    """Run the paper-harvest query over a 2000-record synthetic corpus."""
    store = synthetic_corpus(2000, seed=11)
    query = Query(
        '(workflow* OR orchestration OR scheduling) AND '
        '("computing continuum" OR HPC OR edge) AND NOT checkpointing'
    )

    hits = benchmark(query.filter, list(store))
    assert 0 < len(hits) < len(store)
    report("Corpus — boolean query over 2000 records",
           [f"{len(hits)} hits"])


@pytest.mark.parametrize("n_records", [200, 1000, 4000])
def test_bench_dedup_scaling(benchmark, n_records):
    """Dedup scaling with 15% injected near-duplicates; verify recovery."""
    store = synthetic_corpus(
        n_records, seed=5, duplicate_fraction=0.15
    )
    records = list(store)

    clusters = benchmark(find_duplicates, records)
    # Ground truth: each injected duplicate's key names its source; count
    # how many ended up clustered with that source (true recall, immune to
    # coincidental template collisions among synthetic originals).
    cluster_of: dict[str, int] = {}
    for idx, cluster in enumerate(clusters):
        for pub in cluster:
            cluster_of[pub.key] = idx
    injected = [p.key for p in records if p.key.startswith("dup-")]
    recovered = sum(
        1
        for key in injected
        if cluster_of.get(key) is not None
        and cluster_of.get(key.split("-of-", 1)[1]) == cluster_of[key]
    )
    assert recovered >= 0.9 * len(injected)
    report(
        f"Corpus — dedup on {n_records} records",
        [f"injected={len(injected)} recovered={recovered} "
         f"clusters={len(clusters)}"],
    )


def test_bench_venue_distribution(benchmark):
    """Venue normalization + counting over the paper bibliography."""
    store = paper_bibliography()

    table = benchmark(store.by_venue)
    assert table.total == len(store)
    report(
        "Corpus — top venues of the paper's bibliography",
        [f"{venue}: {count}" for venue, count in table.ranked()[:5]],
    )
