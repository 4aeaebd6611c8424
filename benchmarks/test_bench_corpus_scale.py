"""Corpus-at-scale benchmark: the persistent store on a 100k-record corpus.

Gates the ``repro.corpus.store`` engine against the scale an SMS harvest
actually produces (raw exports from four digital libraries, pre-dedup):

* streaming BibTeX ingestion holds O(batch) Python heap, not O(corpus);
* inverted-index query resolution beats a linear ``Query.filter`` scan by
  >= 10x with bit-identical hits;
* a warm re-open of the store file serves queries immediately, without
  re-ingesting anything;
* near-duplicate detection, with its exact prefix filter, runs at full
  scale with bounded memory and recovers every injected duplicate.

The corpus is generated here rather than via ``repro.data.synthetic``:
that generator's small title vocabulary is tuned for <=4k-record suites
and degenerates the rarest-first prefix filter at 100k (every shingle
becomes common, so any shingle-indexed dedup goes quadratic).  Real bibliographies have
diverse titles; the generator below emulates that with a wide sampled
vocabulary plus a unique per-record study tag, while injecting the same
three duplicate mutations ``synthetic_corpus`` uses (case folding,
subtitle truncation, off-by-one year).

Timings land in ``output/BENCH_corpus_scale.json`` via the session-end
aggregation in ``conftest.py``.
"""

from __future__ import annotations

import random
import time
import tracemalloc

from conftest import report

from repro.corpus.query import Query
from repro.corpus.store import CorpusStore

N_RECORDS = 100_000
DUP_FRACTION = 0.02
SEED = 17

_N_DUPS = int(N_RECORDS * DUP_FRACTION)
_N_ORIGINALS = N_RECORDS - _N_DUPS

_VOCAB_SIZE = 20_000
_WORD_LEN = 7

_SURNAMES = (
    "Aldinucci", "Bianchi", "Colonnelli", "Danelutto", "Esposito",
    "Ferrari", "Greco", "Lombardi", "Marino", "Ricci", "Romano", "Torquati",
)
_VENUES = (
    "Future Generation Computer Systems", "IEEE TPDS", "JPDC",
    "Euro-Par", "CCGrid", "PDP", "Journal of Supercomputing",
)

# Module-level cache so the expensive corpus build and ingest happen once
# per session; tests run in definition order (ingest populates the store
# the later tests reuse, dedup mutates it and therefore runs last), and
# each test falls back to building its own store when run in isolation.
_STATE: dict = {}


def _study_tag(i: int) -> str:
    """Unique little-endian base-26 tag: low letters vary fastest, so every
    4-gram shingle of the tag is unique across 100k records — this is what
    keeps the rarest-first prefixes selective, the way real titles do."""
    return "".join(chr(97 + (i // 26**k) % 26) for k in range(6))


def _entry(key: str, title: str, author: str, year: int, venue: str) -> str:
    return (
        f"@article{{{key},\n"
        f"  title = {{{title}}},\n"
        f"  author = {{{author}}},\n"
        f"  year = {{{year}}},\n"
        f"  journal = {{{venue}}}\n"
        f"}}"
    )


def _build_corpus() -> tuple[str, list[str]]:
    """Return (bibtex text, vocabulary) for the 100k-record corpus."""
    rng = random.Random(SEED)
    vocab = [
        "".join(chr(97 + rng.randrange(26)) for _ in range(_WORD_LEN))
        for _ in range(_VOCAB_SIZE)
    ]
    entries: list[str] = []
    originals: list[tuple[str, str, int, str]] = []
    for i in range(_N_ORIGINALS):
        w = [vocab[rng.randrange(_VOCAB_SIZE)] for _ in range(5)]
        title = (
            f"{w[0]} {w[1]} {w[2]} for {w[3]} {w[4]}:"
            f" evidence from study {_study_tag(i)}"
        )
        author = f"{_SURNAMES[i % len(_SURNAMES)]}, {chr(65 + i % 26)}."
        year = 2005 + i % 19
        venue = _VENUES[i % len(_VENUES)]
        entries.append(_entry(f"syn-{i:06d}", title, author, year, venue))
        originals.append((title, author, year, venue))
    for j in range(_N_DUPS):
        src = rng.randrange(_N_ORIGINALS)
        title, author, year, venue = originals[src]
        kind = j % 3
        if kind == 0:
            title = title.upper()
        elif kind == 1:
            title = title.split(":")[0]
        else:
            year += 1
        entries.append(
            _entry(f"dup-{j:05d}-of-syn-{src:06d}", title, author, year, venue)
        )
    return "\n\n".join(entries), vocab


def _corpus_text() -> str:
    if "text" not in _STATE:
        _STATE["text"], _STATE["vocab"] = _build_corpus()
    return _STATE["text"]


def _scale_query() -> Query:
    _corpus_text()
    vocab = _STATE["vocab"]
    return Query(f"({vocab[0]} OR {vocab[1]}) AND NOT {vocab[2]}")


def _ensure_store(tmp_path_factory):
    if "store_path" not in _STATE:
        path = tmp_path_factory.mktemp("corpus_scale") / "corpus.sqlite3"
        with CorpusStore(path) as store:
            store.ingest_bibtex(_corpus_text(), batch_size=2000)
        _STATE["store_path"] = path
    return _STATE["store_path"]


def test_bench_ingest_100k_streaming(benchmark, tmp_path_factory):
    """Ingest 100k records into a file store with O(batch) Python heap."""
    text = _corpus_text()
    path = tmp_path_factory.mktemp("corpus_scale") / "corpus.sqlite3"
    peaks: list[int] = []

    def run():
        tracemalloc.start()
        try:
            with CorpusStore(path) as store:
                return store.ingest_bibtex(text, batch_size=2000)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)
    assert outcome.ingested == N_RECORDS
    assert outcome.renamed == 0 and outcome.skipped == 0
    assert outcome.rejected == ()
    peak_mb = peaks[-1] / 2**20
    # The generator pipeline must never materialize the parsed corpus:
    # a Publication list alone would be tens of MB at this scale.
    assert peak_mb < 64.0
    _STATE["store_path"] = path
    report(
        f"Corpus scale — ingest {N_RECORDS} records ({len(text) / 2**20:.1f} MB BibTeX)",
        [f"peak Python heap during ingest: {peak_mb:.2f} MB "
         "(timing includes tracemalloc overhead)"],
    )


def test_bench_indexed_query_vs_linear(benchmark, tmp_path_factory):
    """Inverted-index search must beat a linear filter scan by >= 10x."""
    path = _ensure_store(tmp_path_factory)
    query = _scale_query()
    with CorpusStore(path) as store:
        records = list(store)

        t0 = time.perf_counter()
        linear_hits = query.filter(records)
        linear_s = time.perf_counter() - t0

        indexed_s = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            indexed_hits = store.search(query)
            indexed_s = min(indexed_s, time.perf_counter() - t0)

        benchmark.pedantic(store.search, args=(query,), rounds=5, iterations=1)

    assert [p.key for p in indexed_hits] == [p.key for p in linear_hits]
    assert 0 < len(indexed_hits) < N_RECORDS
    assert linear_s >= 10.0 * indexed_s
    report(
        f"Corpus scale — query over {N_RECORDS} records",
        [f"hits={len(indexed_hits)}  indexed={indexed_s * 1e3:.1f} ms  "
         f"linear={linear_s * 1e3:.1f} ms  "
         f"speedup={linear_s / indexed_s:.0f}x"],
    )


def test_bench_warm_reopen(benchmark, tmp_path_factory):
    """Re-opening the store file serves queries with no re-ingestion."""
    path = _ensure_store(tmp_path_factory)
    query = _scale_query()

    def reopen():
        with CorpusStore(path) as store:
            assert len(store) == N_RECORDS
            return store.search(query)

    t0 = time.perf_counter()
    hits = reopen()
    warm_s = time.perf_counter() - t0
    benchmark.pedantic(reopen, rounds=3, iterations=1)

    assert hits  # index pages are on disk, not rebuilt
    # Ingest takes tens of seconds at this scale; a warm open that answers
    # a query in under two seconds cannot have re-ingested anything.
    assert warm_s < 2.0
    report(
        f"Corpus scale — warm re-open of {N_RECORDS} records",
        [f"open + query: {warm_s * 1e3:.0f} ms, {len(hits)} hits"],
    )


def test_bench_dedup_100k(benchmark, tmp_path_factory):
    """Exact dedup at 100k: full recovery, memory bounded by records."""
    path = _ensure_store(tmp_path_factory)
    peaks: list[int] = []

    def run():
        tracemalloc.start()
        try:
            with CorpusStore(path) as store:
                summary = store.deduplicate()
                leftover = [k for k in store.keys if k.startswith("dup-")]
                return summary, leftover, len(store)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    summary, leftover, remaining = benchmark.pedantic(run, rounds=1, iterations=1)
    # Every injected duplicate passes a threshold against its source, so
    # the exact prefix filter must surface each pair and merging must
    # keep the original's key.
    assert leftover == []
    assert summary.dropped >= _N_DUPS
    assert remaining == N_RECORDS - summary.dropped
    peak_mb = peaks[-1] / 2**20
    # The kernel counts each candidate pair once without a seen-pair set;
    # Python heap holds only per-record shingle tuples and the blocks,
    # never an O(pairs) structure.
    assert summary.pairs_scored > 0
    assert peak_mb < 512.0
    report(
        f"Corpus scale — dedup over {N_RECORDS} records",
        [f"pairs_scored={summary.pairs_scored}  clusters={summary.clusters}  "
         f"dropped={summary.dropped}  remaining={remaining}  "
         f"peak heap={peak_mb:.1f} MB"],
    )


def test_bench_batched_postings_insert(benchmark, tmp_path_factory):
    """Batched ``extend`` — postings buffered across records, one
    ``executemany`` + commit per batch — beats the per-record ``add``
    path >= 2x on an identical 10k-record ingest."""
    from repro.corpus.bibtex import publications_from_bibtex

    n = 10_000
    text = "\n\n".join(_corpus_text().split("\n\n")[:n])
    publications = list(publications_from_bibtex(text))
    assert len(publications) == n
    root = tmp_path_factory.mktemp("corpus_batch")

    def batched():
        with CorpusStore(root / "batched.sqlite3") as store:
            return store.extend(publications, batch_size=2000)

    outcome = benchmark.pedantic(batched, rounds=1, iterations=1)
    assert outcome.ingested == n
    (root / "batched.sqlite3").unlink()
    start = time.perf_counter()
    batched()
    batched_s = time.perf_counter() - start

    start = time.perf_counter()
    with CorpusStore(root / "single.sqlite3") as store:
        for publication in publications:
            store.add(publication)
        single_count = len(store)
    single_s = time.perf_counter() - start
    assert single_count == n

    speedup = single_s / batched_s
    report(
        f"Corpus scale — batched postings insert ({n} records)",
        [
            f"extend (batched): {batched_s * 1e3:9.1f} ms "
            f"({batched_s / n * 1e6:6.1f} µs/record)",
            f"add loop:         {single_s * 1e3:9.1f} ms "
            f"({single_s / n * 1e6:6.1f} µs/record)",
            f"speedup:          {speedup:9.2f}x (identical records)",
        ],
    )
    assert speedup >= 2.0, (
        f"batched ingest only {speedup:.2f}x faster than add loop (< 2x)"
    )
