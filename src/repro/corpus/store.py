"""The corpus: a persistent, indexed publication store.

:class:`CorpusStore` is the one container the paper's corpus phase
(database search → dedup → screening) runs on.  It keeps records in a
stdlib-``sqlite3`` database — in memory when opened without a path, in a
file otherwise — so the same code serves the 49-entry bibliography the
study cites and million-record multi-database harvests:

* **streaming ingestion** — :meth:`CorpusStore.ingest_bibtex` drives the
  generator-based BibTeX parser and commits in batches, so memory stays
  O(batch) regardless of corpus size; rejected entries are collected,
  not fatal, under ``strict=False``;
* **inverted term index** — every record's searchable text is tokenized
  into a ``postings(term, pub_id)`` table.  :meth:`CorpusStore.search`
  walks the query AST (:attr:`repro.corpus.query.Query.ast`) and
  resolves a candidate *superset* from the index (exact-term lookups,
  range scans for ``prefix*`` wildcards, intersections for phrases),
  then post-filters only the candidates with the compiled matcher — no
  full scan unless the query is negation-rooted;
* **in-memory deduplication, SQL merge** — :meth:`CorpusStore.deduplicate`
  reads ``(id, title, year)`` in one ``SELECT`` and hands the rows to
  :func:`repro.corpus.dedup.cluster_titles`, the one filtering, scoring
  and clustering kernel, in O(records) memory; only the merge, delete
  and re-index run in SQL;
* **aggregates from the sorted indexes, cached per data version** —
  :meth:`CorpusStore.stats` counts distinct terms by walking the
  ``(term, pub_id)`` primary key in term order (no temp B-tree) and
  reads the year span with two ``idx_pubs_year`` seeks.  ``stats``,
  ``year_range``, ``by_year`` and ``by_venue`` keep their SQL rows until
  the data version moves (a commit by another connection, or any write
  through this one), so repeated reads of an unchanged store cost one
  ``PRAGMA data_version``.

Every phase is instrumented with :mod:`repro.telemetry` spans and
``corpus.*`` counters behind the usual zero-overhead null default.
"""

from __future__ import annotations

import json
import re
import sqlite3
from collections.abc import Container, Iterable, Iterator
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from repro.corpus.bibtex import (
    RejectedEntry,
    iter_publications_from_bibtex,
    to_bibtex,
)
from repro.corpus.dedup import cluster_titles, merge_cluster
from repro.corpus.publication import Publication, normalize_title
from repro.corpus.query import (
    AndNode,
    NotNode,
    OrNode,
    PhraseNode,
    Query,
    QueryNode,
    TermNode,
)
from repro.corpus.venues import VenueNormalizer
from repro.errors import CorpusError, CorpusStoreError, DuplicateEntityError
from repro.stats.frequency import FrequencyTable
from repro.telemetry import ensure

__all__ = ["CorpusStore", "DedupSummary", "IngestReport", "SCHEMA_VERSION"]

#: Bump when the on-disk schema changes incompatibly.
SCHEMA_VERSION = 1

#: Records per committed transaction during batched ingestion.
DEFAULT_BATCH_SIZE = 1000

#: Tokenizer for the inverted index: the ``\w+`` runs of the lowercased
#: searchable text.  The query matchers' ``\b`` word boundaries align
#: with these runs, which is what makes exact-term index lookups sound.
_WORD_RE = re.compile(r"\w+")

#: SQLite's default variable limit is 999; stay safely under it when
#: expanding ``IN (...)`` placeholders.
_IN_CHUNK = 500

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    k TEXT PRIMARY KEY,
    v TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS pubs (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    key TEXT NOT NULL UNIQUE,
    title TEXT NOT NULL,
    authors TEXT NOT NULL,
    year INTEGER,
    venue TEXT NOT NULL DEFAULT '',
    abstract TEXT NOT NULL DEFAULT '',
    doi TEXT NOT NULL DEFAULT '',
    url TEXT NOT NULL DEFAULT '',
    keywords TEXT NOT NULL,
    kind TEXT NOT NULL,
    language TEXT
);
CREATE INDEX IF NOT EXISTS idx_pubs_year ON pubs(year);
CREATE TABLE IF NOT EXISTS postings (
    term TEXT NOT NULL,
    pub_id INTEGER NOT NULL,
    PRIMARY KEY (term, pub_id)
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS idx_postings_pub ON postings(pub_id);
"""

#: Records, postings and distinct terms.  ``SELECT DISTINCT term`` walks
#: the ``(term, pub_id)`` primary key in term order; the one-pass
#: ``COUNT(DISTINCT term)`` form scans ``idx_postings_pub`` instead and
#: sorts every posting through a temp B-tree (52 vs 13 ms on a 5,000-record
#: store, SQLite 3.40, 2-core VM).
_STATS_SQL = (
    "SELECT (SELECT COUNT(*) FROM pubs), (SELECT COUNT(*) FROM postings),"
    " COUNT(*) FROM (SELECT DISTINCT term FROM postings)"
)

#: Earliest and latest year.  Each subquery is one ``idx_pubs_year``
#: seek; ``SELECT MIN(year), MAX(year)`` in one query scans the index.
_YEAR_RANGE_SQL = (
    "SELECT (SELECT MIN(year) FROM pubs), (SELECT MAX(year) FROM pubs)"
)


#: Valid ``on_collision`` policies for ingestion: ``"error"`` raises,
#: ``"suffix"`` disambiguates the key with ``-2``, ``-3``, ..., ``"skip"``
#: drops the colliding record.
_COLLISION_POLICIES = ("error", "suffix", "skip")


def _resolve_collision(
    key: str, taken: Container[str], policy: str
) -> str | None:
    """Resolve a citation-key collision under a policy.

    Returns the key to store under (``key`` itself when free, a
    ``key-2``/``key-3``... variant under ``"suffix"``), or ``None`` when
    the record should be skipped.  ``"error"`` raises
    :class:`~repro.errors.DuplicateEntityError`.
    """
    if policy not in _COLLISION_POLICIES:
        raise CorpusError(
            f"unknown collision policy {policy!r}; pick one of "
            f"{', '.join(_COLLISION_POLICIES)}"
        )
    if key not in taken:
        return key
    if policy == "error":
        raise DuplicateEntityError(f"duplicate publication key {key!r}")
    if policy == "skip":
        return None
    n = 2
    while f"{key}-{n}" in taken:
        n += 1
    return f"{key}-{n}"


def _index_terms(publication: Publication) -> set[str]:
    """The inverted-index terms of one record's searchable text."""
    return set(_WORD_RE.findall(publication.searchable_text().lower()))


@dataclass(frozen=True, slots=True)
class IngestReport:
    """Outcome of one :meth:`CorpusStore.ingest_bibtex` call.

    Attributes
    ----------
    ingested:
        Records stored (including suffix-renamed ones).
    renamed:
        Records stored under a ``key-N`` variant (``on_collision="suffix"``).
    skipped:
        Records dropped by ``on_collision="skip"``.
    rejected:
        Unusable entries skipped by ``strict=False`` (key + reason each).
    """

    ingested: int = 0
    renamed: int = 0
    skipped: int = 0
    rejected: tuple[RejectedEntry, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready summary (rejects as ``[key, reason]`` pairs)."""
        return {
            "ingested": self.ingested,
            "renamed": self.renamed,
            "skipped": self.skipped,
            "rejected": [[r.key, r.reason] for r in self.rejected],
        }


@dataclass(frozen=True, slots=True)
class DedupSummary:
    """Outcome of one :meth:`CorpusStore.deduplicate` call.

    Attributes
    ----------
    clusters:
        Near-duplicate clusters found (size >= 2).
    dropped:
        Records deleted (cluster members beyond the first).
    pairs_scored:
        Distinct candidate pairs the prefix filter of
        :func:`~repro.corpus.dedup.cluster_titles` produced, each scored
        once (pairs the year gate rejects included).
    """

    clusters: int = 0
    dropped: int = 0
    pairs_scored: int = 0

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready summary."""
        return {
            "clusters": self.clusters,
            "dropped": self.dropped,
            "pairs_scored": self.pairs_scored,
        }


class CorpusStore:
    """A SQLite-backed, insertion-ordered, key-indexed publication store.

    Parameters
    ----------
    path:
        Database file (created if missing).  ``None`` keeps the store in
        memory — same engine, no persistence.  Re-opening an existing
        path serves queries immediately; nothing is re-ingested.
    telemetry:
        Optional :class:`repro.telemetry.Telemetry`; ingest/search/dedup
        phases emit spans and ``corpus.*`` counters through it.
    threadsafe:
        Allow the connection to be used from threads other than the one
        that opened it (``check_same_thread=False``).  The store itself
        does NOT serialize access — callers sharing one store across
        threads must hold their own lock around every call (the serve
        layer does exactly that).

    Examples
    --------
    >>> store = CorpusStore()
    >>> report = store.ingest_bibtex('@article{k1, title={Workflow engines}}')
    >>> (report.ingested, len(store))
    (1, 1)
    >>> [pub.key for pub in store.search("workflow*")]
    ['k1']
    """

    def __init__(
        self,
        path: str | Path | None = None,
        *,
        telemetry: Any = None,
        threadsafe: bool = False,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self._telemetry = ensure(telemetry)
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._db: sqlite3.Connection | None = sqlite3.connect(
            str(self.path) if self.path is not None else ":memory:",
            check_same_thread=not threadsafe,
        )
        #: Aggregate SQL -> (data version it was read at, its rows).
        self._aggregates: dict[str, tuple[tuple[int, int], tuple]] = {}
        if self.path is not None:
            self._db.execute("PRAGMA journal_mode=WAL")
            self._db.execute("PRAGMA synchronous=NORMAL")
        self._db.executescript(_SCHEMA)
        row = self._db.execute(
            "SELECT v FROM meta WHERE k = 'schema_version'"
        ).fetchone()
        if row is None:
            self._db.execute(
                "INSERT INTO meta (k, v) VALUES ('schema_version', ?)",
                (str(SCHEMA_VERSION),),
            )
            self._db.commit()
        elif int(row[0]) != SCHEMA_VERSION:
            raise CorpusStoreError(
                f"store at {self.path} has schema v{row[0]}, "
                f"this build expects v{SCHEMA_VERSION}"
            )

    # -- lifecycle ---------------------------------------------------------------

    @property
    def db(self) -> sqlite3.Connection:
        """The live connection (raises once :meth:`close`\\ d)."""
        if self._db is None:
            raise CorpusStoreError("corpus store is closed")
        return self._db

    def close(self) -> None:
        """Commit and release the underlying connection (idempotent)."""
        if self._db is not None:
            self._db.commit()
            self._db.close()
            self._db = None

    def __enter__(self) -> "CorpusStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- construction -----------------------------------------------------------

    def add(
        self, publication: Publication, *, on_collision: str = "error"
    ) -> str | None:
        """Register one record; returns the key stored under.

        With the default ``on_collision="error"`` a duplicate key raises
        :class:`~repro.errors.DuplicateEntityError`; ``"suffix"`` stores
        the record under a disambiguated ``key-2``/``key-3``... variant
        (multi-database exports reuse citation keys); ``"skip"`` drops
        the record and returns ``None``.
        """
        key = _resolve_collision(publication.key, self, on_collision)
        if key is None:
            return None
        if key != publication.key:
            publication = replace(publication, key=key)
        self._insert(publication)
        self.db.commit()
        return key

    def extend(
        self,
        publications: Iterable[Publication],
        *,
        on_collision: str = "error",
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> IngestReport:
        """Register many records with batched commits.

        *publications* may be any iterable — a generator streams through
        in O(*batch_size*) memory.  Postings rows are buffered across the
        whole batch and written with one ``executemany`` per commit —
        one statement-compilation and index update pass per ~thousands of
        rows instead of one per record (micro-benchmarked in
        ``benchmarks/test_bench_corpus_scale.py``).  Returns an
        :class:`IngestReport` (``rejected`` is always empty here;
        parse-level rejection lives in :meth:`ingest_bibtex`).
        """
        if batch_size < 1:
            raise CorpusStoreError(f"batch_size must be >= 1, got {batch_size}")
        tel = self._telemetry
        ingested = renamed = skipped = pending = 0
        db = self.db
        postings: list[tuple[str, int]] = []

        def flush() -> None:
            if postings:
                db.executemany(
                    "INSERT INTO postings (term, pub_id) VALUES (?, ?)",
                    postings,
                )
                postings.clear()

        with tel.tracer.span("corpus.ingest"):
            try:
                for publication in publications:
                    key = _resolve_collision(
                        publication.key, self, on_collision
                    )
                    if key is None:
                        skipped += 1
                        continue
                    if key != publication.key:
                        publication = replace(publication, key=key)
                        renamed += 1
                    pub_id = self._insert_pub(publication)
                    postings.extend(
                        (term, pub_id) for term in _index_terms(publication)
                    )
                    ingested += 1
                    pending += 1
                    if pending >= batch_size:
                        flush()
                        db.commit()
                        tel.metrics.counter("corpus.batches_committed").inc()
                        pending = 0
            except BaseException:
                db.rollback()
                raise
            flush()
            db.commit()
            if pending:
                tel.metrics.counter("corpus.batches_committed").inc()
        tel.metrics.counter("corpus.records_ingested").inc(ingested)
        return IngestReport(ingested=ingested, renamed=renamed, skipped=skipped)

    def ingest_bibtex(
        self,
        text: str,
        *,
        strict: bool = True,
        on_collision: str = "error",
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> IngestReport:
        """Stream a BibTeX export into the store.

        Drives the generator-based parser, so entry objects never pile up
        in memory; commits every *batch_size* records.  With
        ``strict=False`` unusable entries are skipped and reported in
        :attr:`IngestReport.rejected` instead of aborting the import.
        """
        rejected: list[RejectedEntry] = []
        report = self.extend(
            iter_publications_from_bibtex(
                text, strict=strict, rejected=rejected
            ),
            on_collision=on_collision,
            batch_size=batch_size,
        )
        self._telemetry.metrics.counter("corpus.records_rejected").inc(
            len(rejected)
        )
        return replace(report, rejected=tuple(rejected))

    def _insert(self, publication: Publication) -> int:
        """Insert one record row plus its inverted-index postings."""
        pub_id = self._insert_pub(publication)
        self.db.executemany(
            "INSERT INTO postings (term, pub_id) VALUES (?, ?)",
            [(term, pub_id) for term in _index_terms(publication)],
        )
        return pub_id

    def _insert_pub(self, publication: Publication) -> int:
        """Insert just the record row; index postings are the caller's job.

        The batched ingest path buffers postings across many records and
        writes them with one ``executemany`` per commit.
        """
        cursor = self.db.execute(
            "INSERT INTO pubs (key, title, authors, year, venue, abstract,"
            " doi, url, keywords, kind, language)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                publication.key,
                publication.title,
                json.dumps(list(publication.authors)),
                publication.year,
                publication.venue,
                publication.abstract,
                publication.doi,
                publication.url,
                json.dumps(list(publication.keywords)),
                publication.kind,
                publication.language,
            ),
        )
        return cursor.lastrowid

    # -- container protocol -------------------------------------------------------

    def __len__(self) -> int:
        return self.db.execute("SELECT COUNT(*) FROM pubs").fetchone()[0]

    def __iter__(self) -> Iterator[Publication]:
        for row in self.db.execute(
            "SELECT key, title, authors, year, venue, abstract, doi, url,"
            " keywords, kind, language FROM pubs ORDER BY id"
        ):
            yield self._row_to_publication(row)

    def __contains__(self, key: object) -> bool:
        if not isinstance(key, str):
            return False
        return (
            self.db.execute(
                "SELECT 1 FROM pubs WHERE key = ?", (key,)
            ).fetchone()
            is not None
        )

    def __getitem__(self, key: str) -> Publication:
        row = self.db.execute(
            "SELECT key, title, authors, year, venue, abstract, doi, url,"
            " keywords, kind, language FROM pubs WHERE key = ?",
            (key,),
        ).fetchone()
        if row is None:
            raise CorpusError(f"unknown publication {key!r}")
        return self._row_to_publication(row)

    @property
    def keys(self) -> tuple[str, ...]:
        """Record keys in insertion order (materialized — O(n))."""
        return tuple(
            key for (key,) in self.db.execute("SELECT key FROM pubs ORDER BY id")
        )

    @staticmethod
    def _row_to_publication(row: tuple) -> Publication:
        (key, title, authors, year, venue, abstract, doi, url,
         keywords, kind, language) = row
        return Publication(
            key=key,
            title=title,
            authors=tuple(json.loads(authors)),
            year=year,
            venue=venue,
            abstract=abstract,
            doi=doi,
            url=url,
            keywords=tuple(json.loads(keywords)),
            kind=kind,
            language=language,
        )

    # -- queries ---------------------------------------------------------------------

    def search(self, query: str | Query) -> list[Publication]:
        """Records matching a boolean *query*, in insertion order.

        Candidate ids are resolved from the inverted index by walking the
        query AST; only candidates are materialized and post-filtered
        with the compiled matcher, so results are identical to
        ``Query.filter`` over the same records without the full scan.  A
        query that cannot be bounded by the index (negation-rooted, or a
        phrase/term with no word characters) falls back to scanning.
        """
        compiled = Query(query) if isinstance(query, str) else query
        tel = self._telemetry
        with tel.tracer.span("corpus.search"):
            candidates = self._candidates(compiled.ast)
            if candidates is None:
                tel.metrics.counter("corpus.query_full_scans").inc()
                hits = [pub for pub in self if compiled.matches(pub)]
            else:
                tel.metrics.counter("corpus.query_candidates").inc(
                    len(candidates)
                )
                hits = [
                    pub
                    for pub in self._fetch_by_ids(sorted(candidates))
                    if compiled.matches(pub)
                ]
            tel.metrics.counter("corpus.query_hits").inc(len(hits))
        return hits

    def _fetch_by_ids(self, ids: list[int]) -> Iterator[Publication]:
        """Yield records for sorted row ids, preserving id order."""
        for start in range(0, len(ids), _IN_CHUNK):
            chunk = ids[start : start + _IN_CHUNK]
            placeholders = ",".join("?" * len(chunk))
            for row in self.db.execute(
                "SELECT key, title, authors, year, venue, abstract, doi,"
                " url, keywords, kind, language FROM pubs"
                f" WHERE id IN ({placeholders}) ORDER BY id",
                chunk,
            ):
                yield self._row_to_publication(row)

    def _term_ids(self, term: str) -> set[int]:
        """Row ids whose index contains *term* exactly."""
        return {
            pub_id
            for (pub_id,) in self.db.execute(
                "SELECT pub_id FROM postings WHERE term = ?", (term,)
            )
        }

    def _prefix_ids(self, prefix: str) -> set[int]:
        """Row ids whose index contains a term starting with *prefix*."""
        return {
            pub_id
            for (pub_id,) in self.db.execute(
                "SELECT pub_id FROM postings WHERE term >= ? AND term < ?",
                (prefix, prefix + chr(0x10FFFF)),
            )
        }

    def _candidates(self, node: QueryNode) -> set[int] | None:
        """Candidate row-id superset for an AST node (None = all rows).

        Soundness: every record the node's matcher accepts is in the
        returned set.  A term's ``\\w+`` chunks each appear as full
        tokens in any text the term regex matches (the regex requires
        the term's non-word characters — token delimiters — verbatim),
        so intersecting their postings can only over-approximate.
        Negations return the universe; the caller post-filters.
        """
        if isinstance(node, TermNode):
            chunks = _WORD_RE.findall(node.term)
            if not chunks:
                return None
            if node.prefix and node.term.endswith(chunks[-1]):
                sets = [self._term_ids(chunk) for chunk in chunks[:-1]]
                sets.append(self._prefix_ids(chunks[-1]))
            else:
                sets = [self._term_ids(chunk) for chunk in chunks]
            return set.intersection(*sets)
        if isinstance(node, PhraseNode):
            chunks = _WORD_RE.findall(node.phrase)
            if not chunks:
                return None
            return set.intersection(
                *(self._term_ids(chunk) for chunk in chunks)
            )
        if isinstance(node, NotNode):
            return None
        if isinstance(node, AndNode):
            bounded = [
                candidates
                for candidates in map(self._candidates, node.operands)
                if candidates is not None
            ]
            return set.intersection(*bounded) if bounded else None
        if isinstance(node, OrNode):
            union: set[int] = set()
            for operand in node.operands:
                candidates = self._candidates(operand)
                if candidates is None:
                    return None
                union |= candidates
            return union
        raise CorpusError(f"unknown query node {node!r}")  # pragma: no cover

    def _aggregate(self, sql: str) -> tuple[tuple, ...]:
        """The rows of a fixed aggregate ``SELECT``, cached per data version.

        The version is ``(PRAGMA data_version, total_changes)``: the
        first moves when another connection commits, the second on every
        write through this one (``store.db`` included).  Nothing is
        cached inside an open transaction, whose rows a rollback could
        still discard.
        """
        db = self.db
        version = (db.execute("PRAGMA data_version").fetchone()[0],
                   db.total_changes)
        cached = self._aggregates.get(sql)
        if cached is not None and cached[0] == version:
            return cached[1]
        rows = tuple(db.execute(sql))
        if not db.in_transaction:
            self._aggregates[sql] = (version, rows)
        return rows

    def by_year(self) -> FrequencyTable:
        """Publication counts per year over the full corpus range.

        Zero-publication gap years are kept (a trend series with silently
        missing years distorts Fig-2-style plots); unknown years dropped.
        """
        first, last = self.year_range()
        counts = {year: 0 for year in range(first, last + 1)}
        counts.update(self._aggregate(
            "SELECT year, COUNT(*) FROM pubs WHERE year IS NOT NULL"
            " GROUP BY year"
        ))
        return FrequencyTable(counts)

    def by_venue(
        self, normalizer: VenueNormalizer | None = None
    ) -> FrequencyTable:
        """Publication counts per (normalized) venue, most frequent first.

        Aggregation happens in SQL (``GROUP BY venue``), so only the
        distinct raw venue strings — not every publication row — cross
        into Python; the normalizer then folds raw spellings together on
        every call, so the cached SQL rows serve any *normalizer*.
        Records without a venue count under ``"(unknown)"``.
        """
        normalizer = normalizer or VenueNormalizer()
        counts: dict[str, int] = {}
        for venue, count in self._aggregate(
            "SELECT venue, COUNT(*) FROM pubs GROUP BY venue"
        ):
            name = normalizer.normalize(venue) or "(unknown)"
            counts[name] = counts.get(name, 0) + count
        if not counts:
            raise CorpusError("corpus store is empty")
        ordered = dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))
        return FrequencyTable(ordered)

    def year_range(self) -> tuple[int, int]:
        """(earliest, latest) publication year."""
        span = self._year_span()
        if span is None:
            raise CorpusError("no publication has a year")
        return span

    def _year_span(self) -> tuple[int, int] | None:
        """(earliest, latest) year, or ``None`` when no record has one."""
        ((first, last),) = self._aggregate(_YEAR_RANGE_SQL)
        return None if first is None else (first, last)

    # -- deduplication ----------------------------------------------------------------

    def deduplicate(
        self,
        *,
        threshold: float = 0.75,
    ) -> DedupSummary:
        """Merge near-duplicate clusters in place.

        Reads ``(id, title, year)`` for every record in one ``SELECT``,
        clusters them with :func:`repro.corpus.dedup.cluster_titles` —
        the kernel behind :func:`~repro.corpus.dedup.find_duplicates`,
        in O(records) memory — and merges each cluster with
        :func:`~repro.corpus.dedup.merge_cluster` in one transaction.
        Non-duplicates keep their insertion order; each cluster's merged
        record takes its first member's row.  Spans: ``corpus.dedup``
        with children
        ``corpus.dedup.cluster`` (read and kernel) and
        ``corpus.dedup.merge`` (the SQL merge).
        """
        tel = self._telemetry
        db = self.db
        with tel.tracer.span("corpus.dedup"):
            with tel.tracer.span("corpus.dedup.cluster"):
                rows = db.execute(
                    "SELECT id, title, year FROM pubs ORDER BY id"
                ).fetchall()
                clusters, pairs_scored = cluster_titles(
                    [normalize_title(title) for _, title, _ in rows],
                    [year for _, _, year in rows],
                    threshold=threshold,
                )
                duplicate_clusters = [
                    [rows[i][0] for i in members] for members in clusters
                ]
                del rows
            tel.metrics.counter("corpus.dedup_pairs_scored").inc(pairs_scored)

            with tel.tracer.span("corpus.dedup.merge"):
                dropped = 0
                try:
                    for members in duplicate_clusters:
                        merged = merge_cluster(
                            tuple(self._fetch_by_ids(members))
                        )
                        head = members[0]
                        tail = members[1:]
                        placeholders = ",".join("?" * len(tail))
                        db.execute(
                            f"DELETE FROM pubs WHERE id IN ({placeholders})",
                            tail,
                        )
                        all_members = ",".join("?" * len(members))
                        db.execute(
                            "DELETE FROM postings"
                            f" WHERE pub_id IN ({all_members})",
                            members,
                        )
                        db.execute(
                            "UPDATE pubs SET key = ?, title = ?, authors = ?,"
                            " year = ?, venue = ?, abstract = ?, doi = ?,"
                            " url = ?, keywords = ?, kind = ?, language = ?"
                            " WHERE id = ?",
                            (
                                merged.key,
                                merged.title,
                                json.dumps(list(merged.authors)),
                                merged.year,
                                merged.venue,
                                merged.abstract,
                                merged.doi,
                                merged.url,
                                json.dumps(list(merged.keywords)),
                                merged.kind,
                                merged.language,
                                head,
                            ),
                        )
                        db.executemany(
                            "INSERT INTO postings (term, pub_id)"
                            " VALUES (?, ?)",
                            [(term, head) for term in _index_terms(merged)],
                        )
                        dropped += len(tail)
                except BaseException:
                    db.rollback()
                    raise
                db.commit()
            tel.metrics.counter("corpus.dedup_clusters").inc(
                len(duplicate_clusters)
            )
            tel.metrics.counter("corpus.dedup_dropped").inc(dropped)
        return DedupSummary(
            clusters=len(duplicate_clusters),
            dropped=dropped,
            pairs_scored=pairs_scored,
        )

    # -- serialization -------------------------------------------------------------------

    def to_bibtex(self) -> str:
        """Serialize the whole store to BibTeX (streaming iteration)."""
        return to_bibtex(self)

    # -- introspection -------------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Store size snapshot: records, index size, year span, location.

        The counts come from the sorted indexes (see :data:`_STATS_SQL`)
        and are cached per data version, so a repeat call on an unchanged
        store issues only ``PRAGMA data_version``.  Each call returns a
        fresh dict.
        """
        ((records, postings, terms),) = self._aggregate(_STATS_SQL)
        return {
            "records": records,
            "postings": postings,
            "terms": terms,
            "year_range": self._year_span(),
            "path": str(self.path) if self.path is not None else None,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = self.path if self.path is not None else ":memory:"
        return f"CorpusStore({len(self)} publications at {where})"
