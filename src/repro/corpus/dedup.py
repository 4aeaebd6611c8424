"""Near-duplicate detection for bibliographic corpora.

Merging exports from several databases (Scopus, WoS, DBLP, ...) yields
duplicate records with slightly different titles.  One index-level
kernel, :func:`cluster_titles`, serves both containers: it picks
candidates with an exact prefix filter, scores them with title
similarity, and clusters matches with a union-find structure:

1. **Prefix filter** — a matching pair shares at least ``o_min(s)``
   shingles, ``s`` the smaller record's shingle count, so that record's
   first ``s - o_min(s) + 1`` shingles meet the other's set (AllPairs,
   Bayardo et al., WWW 2007).  Each record indexes only that prefix,
   rarest shingles first so blocks stay small, and probes with its full
   set; no matching pair is missed, and only the pairs probed are scored.
2. **Scoring** — two complementary measures over title shingles: Jaccard
   similarity (catches spelling/case variants) and containment
   (``|A∩B| / min(|A|,|B|)``, catches subtitle truncation where one title
   is a prefix of the other), gated by year compatibility (missing years
   are compatible with everything).
3. **Clustering** — union-find over pairs passing either measure.

Only the Jaccard ``threshold`` is a parameter; the containment threshold,
shingle size and year slack are the module constants
:data:`CONTAINMENT_THRESHOLD`, :data:`SHINGLE_SIZE` and
:data:`YEAR_SLACK`, so every entry point takes the same one knob.

:func:`find_duplicates` runs the kernel over :class:`Publication`
records; :meth:`repro.corpus.store.CorpusStore.deduplicate` runs it over
the rows of one ``SELECT`` and merges in SQL.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Collection, Sequence, Set

from repro.corpus.publication import Publication
from repro.errors import CorpusError

__all__ = [
    "CONTAINMENT_THRESHOLD",
    "SHINGLE_SIZE",
    "YEAR_SLACK",
    "DuplicateCluster",
    "cluster_titles",
    "find_duplicates",
    "merge_cluster",
    "pair_similarity",
    "title_shingles",
    "years_compatible",
]

#: Minimum shingle containment ``|A∩B| / min(|A|,|B|)`` for a match
#: (subtitle truncation); a pair merges when either measure passes.
CONTAINMENT_THRESHOLD = 0.9
#: Character n-gram size for title shingling.
SHINGLE_SIZE = 4
#: Maximum year difference still considered the same work (preprint vs.
#: camera-ready).
YEAR_SLACK = 1


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:  # path compression
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1


def title_shingles(normalized_title: str) -> frozenset[str]:
    """Character :data:`SHINGLE_SIZE`-gram shingles of a normalized title."""
    text = normalized_title.replace(" ", "_")
    k = SHINGLE_SIZE
    if len(text) <= k:
        return frozenset((text,)) if text else frozenset()
    return frozenset([text[i : i + k] for i in range(len(text) - k + 1)])


def years_compatible(a: int | None, b: int | None) -> bool:
    """Whether two publication years may belong to the same work.

    Missing years are compatible with everything; otherwise the absolute
    difference must be within :data:`YEAR_SLACK` (preprint vs
    camera-ready).
    """
    if a is None or b is None:
        return True
    return abs(a - b) <= YEAR_SLACK


def pair_similarity(
    sa: Set[str], sb: Collection[str]
) -> tuple[float, float]:
    """(Jaccard, containment) similarity of two shingle sets.

    Containment is ``|A∩B| / min(|A|, |B|)`` — the subtitle-truncation
    detector.  Either set empty yields ``(0.0, 0.0)``.  *sb* may be any
    collection of distinct shingles (the kernel passes a tuple).
    """
    if not sa or not sb:
        return 0.0, 0.0
    intersection = len(sa.intersection(sb))
    return (
        intersection / (len(sa) + len(sb) - intersection),
        intersection / min(len(sa), len(sb)),
    )


DuplicateCluster = tuple[Publication, ...]


def cluster_titles(
    titles: Sequence[str],
    years: Sequence[int | None],
    *,
    threshold: float = 0.75,
) -> tuple[list[list[int]], int]:
    """Cluster near-duplicate records given by index.

    Parameters
    ----------
    titles:
        Titles as :func:`~repro.corpus.publication.normalize_title`
        returns them.
    years:
        Publication years, aligned with *titles*; ``None`` when unknown.
    threshold:
        As for :func:`find_duplicates`; :class:`CorpusError` unless in
        ``(0, 1]``.

    Returns
    -------
    (clusters, pairs_scored)
        One ascending index list per duplicate cluster (size >= 2),
        ordered by first member; and the number of distinct candidate
        pairs (each scored once, year gate included).

    Memory is O(records): one tuple of interned shingles per record, and
    no set of seen pairs.  ``o_min(s)`` is the least overlap ``o`` that
    passes ``o / s >= CONTAINMENT_THRESHOLD`` or, against an equal-size
    partner (the most similar a larger one can be), ``o / (2*s - o) >=
    threshold``: the scoring's own expressions.  Records are visited in
    ``(size, index)`` order; each probes the blocks with its full set,
    scores every record indexed there, then indexes its prefix, so each
    pair is scored once, from its larger record.
    """
    if not 0 < threshold <= 1:
        raise CorpusError(f"threshold must be in (0, 1], got {threshold}")
    n = len(titles)
    # One string object per distinct shingle: setdefault(s, s) returns
    # the first copy seen.
    interned: dict[str, str] = {}
    records = [
        tuple(map(interned.setdefault, shingles, shingles))
        for shingles in (
            title_shingles(title) for title in titles
        )
    ]
    del interned
    frequency: Counter[str] = Counter()
    for shingles in records:
        frequency.update(shingles)
    # s - o_min(s) + 1 per shingle count s; nothing for an empty record.
    prefix_length = {
        size: size + 1 - next((
            o for o in range(1, size + 1)
            if o / size >= CONTAINMENT_THRESHOLD
            or o / (2 * size - o) >= threshold
        ), size + 1)
        for size in set(map(len, records))
    }

    union_find = _UnionFind(n)
    pairs_scored = 0
    blocks: dict[str, list[int]] = {}
    for x in sorted(range(n), key=lambda i: len(records[i])):
        shingles = records[x]
        probe = frozenset(shingles)
        partners = set().union(*map(blocks.__getitem__, blocks.keys() & probe))
        pairs_scored += len(partners)
        for y in partners:
            if not years_compatible(years[x], years[y]):
                continue
            jaccard, containment = pair_similarity(probe, records[y])
            if jaccard >= threshold or containment >= CONTAINMENT_THRESHOLD:
                union_find.union(x, y)
        # Rarest first, ties by the shingle string: a stable sort by
        # frequency over the string-sorted shingles.
        ordered = sorted(sorted(shingles), key=frequency.__getitem__)
        for shingle in ordered[: prefix_length[len(shingles)]]:
            blocks.setdefault(shingle, []).append(x)

    clusters: dict[int, list[int]] = {}
    for i in range(n):
        clusters.setdefault(union_find.find(i), []).append(i)
    return (
        [members for members in clusters.values() if len(members) >= 2],
        pairs_scored,
    )


def find_duplicates(
    publications: Sequence[Publication],
    *,
    threshold: float = 0.75,
) -> list[DuplicateCluster]:
    """Cluster near-duplicate records.

    Parameters
    ----------
    publications:
        The corpus to scan.
    threshold:
        Minimum shingle-Jaccard similarity for a match (case/spelling
        variants); a pair also merges when its containment reaches
        :data:`CONTAINMENT_THRESHOLD`, and never when its years differ
        by more than :data:`YEAR_SLACK`.

    Returns
    -------
    list of tuples
        One tuple per duplicate cluster (size >= 2), records in input
        order; singletons are omitted.
    """
    clusters, _ = cluster_titles(
        [pub.normalized_title for pub in publications],
        [pub.year for pub in publications],
        threshold=threshold,
    )
    return [tuple(publications[i] for i in members) for members in clusters]


def merge_cluster(cluster: DuplicateCluster) -> Publication:
    """Merge a duplicate cluster into one best record.

    Field policy: keep the record with the most metadata as the base, then
    fill every missing field from the others (longest abstract wins, author
    list of the base wins, keywords are unioned).
    """
    if not cluster:
        raise CorpusError("cannot merge an empty cluster")

    def richness(pub: Publication) -> int:
        return sum(
            bool(field)
            for field in (
                pub.abstract, pub.doi, pub.url, pub.venue,
                pub.authors, pub.year, pub.keywords,
            )
        )

    base = max(cluster, key=richness)
    abstract = max((p.abstract for p in cluster), key=len)
    keywords: dict[str, None] = {}
    for pub in cluster:
        for keyword in pub.keywords:
            keywords.setdefault(keyword, None)
    return Publication(
        key=base.key,
        title=base.title,
        authors=base.authors or next(
            (p.authors for p in cluster if p.authors), ()
        ),
        year=base.year if base.year is not None else next(
            (p.year for p in cluster if p.year is not None), None
        ),
        venue=base.venue or next((p.venue for p in cluster if p.venue), ""),
        abstract=abstract,
        doi=base.doi or next((p.doi for p in cluster if p.doi), ""),
        url=base.url or next((p.url for p in cluster if p.url), ""),
        keywords=tuple(keywords),
        kind=base.kind,
        language=base.language,
    )
