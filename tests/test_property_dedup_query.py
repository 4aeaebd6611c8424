"""Property-based tests for deduplication and the query engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.dedup import cluster_titles, find_duplicates, merge_cluster
from repro.corpus.publication import Publication, normalize_title
from repro.corpus.query import Query
from repro.errors import QueryError
from tests.oracles import cluster_titles_all_pairs, cluster_titles_reference

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
years = st.sampled_from([None, 2000, 2001, 2003])
# Long titles (over 66 normalized characters, so more than 63 4-gram
# shingles): up to three shared stems, each record ending in its own
# spelling of four suffix words.
_SPELLINGS = (("workflowz", "workflows"), ("kubernetz", "kubernetes"),
              ("pipelinez", "pipelines"), ("schedulerz", "schedulers"))
long_stems = st.lists(words, min_size=7, max_size=12).map(" ".join)


@st.composite
def long_variant_records(draw):
    stems = draw(st.lists(long_stems, min_size=1, max_size=3))
    return [
        (normalize_title(" ".join(
            [stem] + [draw(st.sampled_from(pair)) for pair in _SPELLINGS]
        )), year)
        for stem, year in draw(st.lists(
            st.tuples(st.sampled_from(stems), years), max_size=12
        ))
    ]


knob_grid = st.fixed_dictionaries({
    "threshold": st.sampled_from([0.5, 0.75, 1.0]),
})


def assert_kernel_matches_oracles(records, knobs):
    titles = [title for title, _ in records]
    years = [year for _, year in records]
    clusters, pairs_scored = cluster_titles(titles, years, **knobs)
    assert (clusters, pairs_scored) == (
        cluster_titles_reference(titles, years, **knobs)
    )
    assert clusters == cluster_titles_all_pairs(titles, years, **knobs)


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

    @given(st.lists(st.tuples(kernel_titles, years), max_size=30), knob_grid)
    @settings(max_examples=150, deadline=None)
    def test_kernel_matches_pair_oracle(self, records, knobs):
        assert_kernel_matches_oracles(records, knobs)

    @given(long_variant_records(), knob_grid)
    @settings(max_examples=100, deadline=None)
    def test_kernel_matches_oracles_on_long_variants(self, records, knobs):
        assert all(len(title) > 66 for title, _ in records)
        assert_kernel_matches_oracles(records, knobs)


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
