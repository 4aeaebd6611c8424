"""Near-duplicate detection for bibliographic corpora.

Merging exports from several databases (Scopus, WoS, DBLP, ...) yields
duplicate records with slightly different titles.  One index-level
kernel, :func:`cluster_titles`, serves both containers: it blocks
candidates cheaply, scores them with title similarity, and clusters
matches with a union-find structure:

1. **Blocking** — records sharing one of their *rarest* normalized-title
   4-gram shingles land in the same block; only within-block pairs are
   scored.  Indexing only the rare shingles (rather than all of them) keeps
   block sizes small — ubiquitous shingles like ``tion`` would otherwise
   put most of the corpus into one block and reintroduce the O(n²)
   all-pairs comparison.  True near-duplicates share the large majority of
   their shingles, so they share rare ones too.
2. **Scoring** — two complementary measures over title shingles: Jaccard
   similarity (catches spelling/case variants) and containment
   (``|A∩B| / min(|A|,|B|)``, catches subtitle truncation where one title
   is a prefix of the other), gated by year compatibility (missing years
   are compatible with everything).
3. **Clustering** — union-find over pairs passing either measure.

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
    "BLOCKING_KEYS",
    "DuplicateCluster",
    "cluster_titles",
    "find_duplicates",
    "merge_cluster",
    "pair_similarity",
    "title_shingles",
    "validate_dedup_params",
    "years_compatible",
]

#: Rare shingles indexed per record by the blocking stage of
#: :func:`cluster_titles`: the record's BLOCKING_KEYS least frequent
#: shingles, ties broken by the shingle string.
BLOCKING_KEYS = 10


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


def title_shingles(normalized_title: str, k: int = 4) -> frozenset[str]:
    """Character *k*-gram shingles of a normalized title."""
    text = normalized_title.replace(" ", "_")
    if len(text) <= k:
        return frozenset((text,)) if text else frozenset()
    return frozenset([text[i : i + k] for i in range(len(text) - k + 1)])


def years_compatible(a: int | None, b: int | None, slack: int = 1) -> bool:
    """Whether two publication years may belong to the same work.

    Missing years are compatible with everything; otherwise the absolute
    difference must be within *slack* (preprint vs camera-ready).
    """
    if a is None or b is None:
        return True
    return abs(a - b) <= slack


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


def validate_dedup_params(
    threshold: float, containment_threshold: float, shingle_size: int
) -> None:
    """Validate shared dedup knobs (raises :class:`CorpusError`)."""
    if not 0 < threshold <= 1:
        raise CorpusError(f"threshold must be in (0, 1], got {threshold}")
    if not 0 < containment_threshold <= 1:
        raise CorpusError(
            f"containment_threshold must be in (0, 1], got {containment_threshold}"
        )
    if shingle_size < 2:
        raise CorpusError(f"shingle_size must be >= 2, got {shingle_size}")


DuplicateCluster = tuple[Publication, ...]


def cluster_titles(
    titles: Sequence[str],
    years: Sequence[int | None],
    *,
    threshold: float = 0.75,
    containment_threshold: float = 0.9,
    shingle_size: int = 4,
    year_slack: int = 1,
) -> tuple[list[list[int]], int]:
    """Cluster near-duplicate records given by index.

    Parameters
    ----------
    titles:
        Titles as :func:`~repro.corpus.publication.normalize_title`
        returns them.
    years:
        Publication years, aligned with *titles*; ``None`` when unknown.
    threshold, containment_threshold, shingle_size, year_slack:
        As for :func:`find_duplicates`.

    Returns
    -------
    (clusters, pairs_scored)
        One ascending index list per duplicate cluster (size >= 2),
        ordered by first member; and the number of distinct candidate
        pairs blocking produced (each scored once, year gate included).

    Memory is O(records): each record keeps its shingles as one tuple of
    interned strings, sorted rarest first, and no set of seen pairs is
    kept.  A pair ``{x, y}`` is a candidate when a rare key of one is a
    shingle of the other.  Record *x* probes the blocks of every shingle
    it has and scores each partner ``y > x``; a partner ``y < x`` is
    scored only when none of *x*'s rare keys is a shingle of *y* —
    otherwise *y*'s own probe already reached *x* and scored the pair.
    """
    validate_dedup_params(threshold, containment_threshold, shingle_size)
    n = len(titles)
    # One string object per distinct shingle: setdefault(s, s) returns
    # the first copy seen.
    interned: dict[str, str] = {}
    records = [
        tuple(map(interned.setdefault, shingles, shingles))
        for shingles in (
            title_shingles(title, shingle_size) for title in titles
        )
    ]
    del interned
    frequency: Counter[str] = Counter()
    for shingles in records:
        frequency.update(shingles)
    # Rarest first, ties by the shingle string: a stable sort by
    # frequency over the string-sorted shingles.
    blocks: dict[str, list[int]] = {}
    for i, shingles in enumerate(records):
        ordered = tuple(sorted(sorted(shingles), key=frequency.__getitem__))
        records[i] = ordered
        for shingle in ordered[:BLOCKING_KEYS]:
            blocks.setdefault(shingle, []).append(i)
    del frequency

    union_find = _UnionFind(n)
    pairs_scored = 0
    for x, shingles in enumerate(records):
        probe = frozenset(shingles)
        partners: set[int] = set()
        for shingle in blocks.keys() & probe:
            partners.update(blocks[shingle])
        partners.discard(x)
        rare = frozenset(shingles[:BLOCKING_KEYS])
        for y in partners:
            other = records[y]
            if y < x and not rare.isdisjoint(other):
                continue
            pairs_scored += 1
            if not years_compatible(years[x], years[y], year_slack):
                continue
            jaccard, containment = pair_similarity(probe, other)
            if jaccard >= threshold or containment >= containment_threshold:
                union_find.union(x, y)

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
    containment_threshold: float = 0.9,
    shingle_size: int = 4,
    year_slack: int = 1,
) -> list[DuplicateCluster]:
    """Cluster near-duplicate records.

    Parameters
    ----------
    publications:
        The corpus to scan.
    threshold:
        Minimum shingle-Jaccard similarity for a match (case/spelling
        variants).
    containment_threshold:
        Minimum shingle containment ``|A∩B| / min(|A|,|B|)`` for a match
        (subtitle truncation); a pair merges when *either* measure passes.
    shingle_size:
        Character n-gram size for title shingling.
    year_slack:
        Maximum year difference still considered the same work (preprint
        vs. camera-ready).

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
        containment_threshold=containment_threshold,
        shingle_size=shingle_size,
        year_slack=year_slack,
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
