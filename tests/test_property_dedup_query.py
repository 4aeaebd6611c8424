"""Property-based tests for deduplication and the query engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.dedup import cluster_titles, find_duplicates, merge_cluster
from repro.corpus.publication import Publication, normalize_title
from repro.corpus.query import Query
from repro.errors import QueryError
from tests.oracles import cluster_titles_reference

words = st.sampled_from(
    "workflow orchestration scheduling energy cloud edge hpc data stream "
    "placement migration analytics portable kernel notebook".split()
)
titles = st.lists(words, min_size=3, max_size=8, unique=True).map(" ".join)
# A small vocabulary so kernel titles share many shingles; "" and very
# short words give empty and sub-shingle titles, "é" is dropped by
# normalization.
kernel_titles = st.lists(
    st.sampled_from(["", "a", "hpc", "flow", "work", "workflow",
                     "grid", "edge", "cloud", "stream", "é", "data"]),
    max_size=7,
).map(lambda parts: normalize_title(" ".join(parts)))


class TestDedupProperties:
    @given(titles, st.integers(min_value=1990, max_value=2024),
           st.sampled_from(["upper", "truncate", "year"]))
    @settings(max_examples=60)
    def test_injected_mutation_always_detected(self, title, year, mutation):
        original = Publication(key="orig", title=title + ": extra subtitle",
                               year=year)
        if mutation == "upper":
            dup_title, dup_year = original.title.upper(), year
        elif mutation == "truncate":
            dup_title, dup_year = original.title.split(":")[0], year
        else:
            dup_title, dup_year = original.title, year + 1
        duplicate = Publication(key="dup", title=dup_title, year=dup_year)
        clusters = find_duplicates([original, duplicate])
        assert len(clusters) == 1
        assert {p.key for p in clusters[0]} == {"orig", "dup"}

    @given(st.lists(titles, min_size=2, max_size=8, unique=True))
    @settings(max_examples=40)
    def test_merge_preserves_one_record_per_cluster(self, unique_titles):
        pubs = [
            Publication(key=f"p{i}", title=f"{title} study number {i}",
                        year=2000 + i)
            for i, title in enumerate(unique_titles)
        ]
        clusters = find_duplicates(pubs)
        for cluster in clusters:
            merged = merge_cluster(cluster)
            assert merged.key in {p.key for p in cluster}

    @given(titles)
    def test_self_duplicate_found(self, title):
        a = Publication(key="a", title=title, year=2020)
        b = Publication(key="b", title=title, year=2020)
        assert len(find_duplicates([a, b])) == 1

    @given(
        st.lists(
            st.tuples(kernel_titles,
                      st.sampled_from([None, 2000, 2001, 2003])),
            max_size=30,
        ),
        st.sampled_from([0.5, 0.75, 1.0]),
        st.sampled_from([0.6, 0.9, 1.0]),
        st.sampled_from([2, 3, 4]),
        st.sampled_from([0, 1]),
    )
    @settings(max_examples=150, deadline=None)
    def test_kernel_matches_pair_oracle(
        self, records, threshold, containment, shingle_size, year_slack
    ):
        titles = [title for title, _ in records]
        years = [year for _, year in records]
        knobs = dict(threshold=threshold, containment_threshold=containment,
                     shingle_size=shingle_size, year_slack=year_slack)
        assert cluster_titles(titles, years, **knobs) == (
            cluster_titles_reference(titles, years, **knobs)
        )


class TestQueryProperties:
    @given(words)
    def test_term_matches_itself(self, word):
        assert Query(word).matches_text(f"a study of {word} systems")

    @given(words, words)
    def test_and_implies_both(self, a, b):
        query = Query(f"{a} AND {b}")
        text_both = f"{a} meets {b}"
        assert query.matches_text(text_both)
        if a != b:
            assert not query.matches_text(f"only {a} here")

    @given(words, words)
    def test_or_superset_of_and(self, a, b):
        texts = [f"{a} only", f"{b} only", f"{a} and {b}", "neither thing"]
        and_hits = [t for t in texts if Query(f"{a} AND {b}").matches_text(t)]
        or_hits = [t for t in texts if Query(f"{a} OR {b}").matches_text(t)]
        assert set(and_hits) <= set(or_hits)

    @given(words)
    def test_double_negation_is_identity(self, word):
        texts = [f"{word} present", "absent entirely"]
        plain = [t for t in texts if Query(word).matches_text(t)]
        double = [t for t in texts
                  if Query(f"NOT NOT {word}").matches_text(t)]
        assert plain == double

    @given(words)
    def test_demorgan(self, word):
        other = "zzz"
        for text in (f"{word} here", f"{other} here", f"{word} {other}", "none"):
            lhs = Query(f"NOT ({word} OR {other})").matches_text(text)
            rhs = Query(f"NOT {word} AND NOT {other}").matches_text(text)
            assert lhs == rhs
