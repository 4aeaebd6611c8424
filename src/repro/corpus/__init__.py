"""Bibliographic corpus substrate: records, BibTeX, venues, queries, dedup.

The corpus itself is one container, the SQLite-backed
:class:`~repro.corpus.store.CorpusStore`: ``CorpusStore()`` holds a
study-scale record set in memory, and ``CorpusStore(path)`` keeps a
million-record multi-database merge on disk behind the same API.
"""

from repro.corpus.bibtex import (
    RejectedEntry,
    iter_publications_from_bibtex,
    make_key_if_missing,
    parse_bibtex,
    publications_from_bibtex,
    to_bibtex,
)
from repro.corpus.dedup import (
    find_duplicates,
    merge_cluster,
    pair_similarity,
    title_shingles,
    years_compatible,
)
from repro.corpus.publication import Publication, make_pub_key, normalize_title
from repro.corpus.query import Query
from repro.corpus.store import CorpusStore, DedupSummary, IngestReport
from repro.corpus.trends import (
    TrendFit,
    category_year_matrix,
    cumulative_series,
    fit_linear_trend,
    yearly_series,
)
from repro.corpus.venues import DEFAULT_ALIASES, VenueNormalizer

__all__ = [
    "CorpusStore",
    "DEFAULT_ALIASES",
    "DedupSummary",
    "IngestReport",
    "Publication",
    "Query",
    "RejectedEntry",
    "TrendFit",
    "VenueNormalizer",
    "category_year_matrix",
    "cumulative_series",
    "find_duplicates",
    "fit_linear_trend",
    "iter_publications_from_bibtex",
    "make_key_if_missing",
    "make_pub_key",
    "merge_cluster",
    "normalize_title",
    "pair_similarity",
    "parse_bibtex",
    "publications_from_bibtex",
    "title_shingles",
    "to_bibtex",
    "years_compatible",
    "yearly_series",
]
