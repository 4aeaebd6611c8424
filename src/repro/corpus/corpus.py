"""The :class:`Corpus` container: an indexed publication collection.

Ties the corpus substrate together: add/parse records, search with boolean
queries, deduplicate, group by venue and year, and produce the screening
inputs for the SMS pipeline.  For corpora too large to hold in memory, the
same API is served by the persistent :class:`repro.corpus.store.CorpusStore`.
"""

from __future__ import annotations

from collections.abc import Container, Iterable, Iterator
from dataclasses import replace

from repro.corpus.bibtex import RejectedEntry, publications_from_bibtex, to_bibtex
from repro.corpus.dedup import find_duplicates, merge_cluster
from repro.corpus.publication import Publication
from repro.corpus.query import Query
from repro.corpus.venues import VenueNormalizer
from repro.errors import CorpusError, DuplicateEntityError
from repro.stats.frequency import FrequencyTable

__all__ = ["Corpus", "COLLISION_POLICIES", "resolve_collision"]

#: Valid ``on_collision`` policies for :meth:`Corpus.add`/:meth:`Corpus.extend`
#: (and store ingestion): ``"error"`` raises, ``"suffix"`` disambiguates the
#: key with ``-2``, ``-3``, ..., ``"skip"`` drops the colliding record.
COLLISION_POLICIES = ("error", "suffix", "skip")


def resolve_collision(
    key: str,
    taken: Container[str],
    policy: str,
) -> str | None:
    """Resolve a citation-key collision under a policy.

    Returns the key to store under (``key`` itself when free, a
    ``key-2``/``key-3``... variant under ``"suffix"``), or ``None`` when
    the record should be skipped.  ``"error"`` raises
    :class:`~repro.errors.DuplicateEntityError` — the historical
    behaviour, still the default.  Shared by :class:`Corpus` and
    :class:`repro.corpus.store.CorpusStore` so multi-database merges
    behave identically in memory and on disk.
    """
    if policy not in COLLISION_POLICIES:
        raise CorpusError(
            f"unknown collision policy {policy!r}; pick one of "
            f"{', '.join(COLLISION_POLICIES)}"
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


class Corpus:
    """An insertion-ordered, key-indexed publication collection."""

    def __init__(self, publications: Iterable[Publication] = ()) -> None:
        self._records: dict[str, Publication] = {}
        for pub in publications:
            self.add(pub)

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_bibtex(
        cls,
        text: str,
        *,
        strict: bool = True,
        rejected: list[RejectedEntry] | None = None,
        on_collision: str = "error",
    ) -> "Corpus":
        """Parse BibTeX source into a corpus.

        ``strict``/``rejected`` follow
        :func:`~repro.corpus.bibtex.publications_from_bibtex`;
        ``on_collision`` follows :meth:`extend`.
        """
        corpus = cls()
        corpus.extend(
            publications_from_bibtex(text, strict=strict, rejected=rejected),
            on_collision=on_collision,
        )
        return corpus

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
        key = resolve_collision(publication.key, self._records, on_collision)
        if key is None:
            return None
        if key != publication.key:
            publication = replace(publication, key=key)
        self._records[key] = publication
        return key

    def extend(
        self,
        publications: Iterable[Publication],
        *,
        on_collision: str = "error",
    ) -> list[str]:
        """Register many records; returns the keys actually stored."""
        stored: list[str] = []
        for pub in publications:
            key = self.add(pub, on_collision=on_collision)
            if key is not None:
                stored.append(key)
        return stored

    # -- container protocol -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Publication]:
        return iter(self._records.values())

    def __contains__(self, key: object) -> bool:
        return key in self._records

    def __getitem__(self, key: str) -> Publication:
        try:
            return self._records[key]
        except KeyError:
            raise CorpusError(f"unknown publication {key!r}") from None

    @property
    def keys(self) -> tuple[str, ...]:
        """Record keys in insertion order."""
        return tuple(self._records)

    # -- queries ---------------------------------------------------------------------

    def search(self, query: str | Query) -> list[Publication]:
        """Records matching a boolean *query* (string or compiled)."""
        compiled = Query(query) if isinstance(query, str) else query
        return compiled.filter(self)

    def by_year(self) -> FrequencyTable:
        """Publication counts per year over the full corpus range.

        Zero-publication gap years are kept (a trend series with silently
        missing years distorts Fig-2-style plots); unknown years dropped.
        """
        first, last = self.year_range()
        counts = {year: 0 for year in range(first, last + 1)}
        for pub in self:
            if pub.year is not None:
                counts[pub.year] += 1
        return FrequencyTable(counts)

    def by_venue(
        self, normalizer: VenueNormalizer | None = None
    ) -> FrequencyTable:
        """Publication counts per (normalized) venue, most frequent first."""
        normalizer = normalizer or VenueNormalizer()
        counts: dict[str, int] = {}
        for pub in self:
            venue = normalizer.normalize(pub.venue) or "(unknown)"
            counts[venue] = counts.get(venue, 0) + 1
        ordered = dict(
            sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        )
        return FrequencyTable(ordered)

    def year_range(self) -> tuple[int, int]:
        """(earliest, latest) publication year."""
        years = [pub.year for pub in self if pub.year is not None]
        if not years:
            raise CorpusError("no publication has a year")
        return min(years), max(years)

    # -- deduplication ----------------------------------------------------------------

    def deduplicate(self, *, threshold: float = 0.75) -> "Corpus":
        """Return a new corpus with near-duplicate clusters merged.

        Non-duplicates keep their insertion order; each cluster is replaced
        by its merged record at the position of its first member.
        """
        records = list(self)
        clusters = find_duplicates(records, threshold=threshold)
        replaced: dict[str, Publication] = {}
        dropped: set[str] = set()
        for cluster in clusters:
            merged = merge_cluster(cluster)
            replaced[cluster[0].key] = merged
            dropped.update(pub.key for pub in cluster[1:])
        out = Corpus()
        for pub in records:
            if pub.key in dropped:
                continue
            out.add(replaced.get(pub.key, pub))
        return out

    # -- serialization -------------------------------------------------------------------

    def to_bibtex(self) -> str:
        """Serialize the whole corpus to BibTeX."""
        return to_bibtex(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Corpus({len(self)} publications)"
