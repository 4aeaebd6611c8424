"""Unit tests for Publication, the corpus store, venues, queries, and dedup."""

import pytest

from repro.corpus.dedup import find_duplicates, merge_cluster
from repro.corpus.publication import Publication, make_pub_key, normalize_title
from repro.corpus.query import MAX_QUERY_DEPTH, Query
from repro.corpus.store import CorpusStore
from repro.corpus.venues import VenueNormalizer
from repro.errors import CorpusError, DuplicateEntityError, QueryError, ValidationError
from tests.oracles import (
    deduplicate_reference,
    store_by_venue_reference,
    store_by_year_reference,
)


def _pub(key, title, year=2020, **kwargs):
    return Publication(key=key, title=title, year=year, **kwargs)


def _parens(depth):
    return "(" * depth + "workflow" + ")" * depth


def _nots(depth):
    return "NOT " * depth + "workflow"


def _corpus(pubs):
    corpus = CorpusStore()
    corpus.extend(pubs)
    return corpus


class TestPublication:
    def test_normalize_title(self):
        assert normalize_title("StreamFlow: Cross-Breeding  Cloud with HPC!") == \
            "streamflow cross breeding cloud with hpc"

    def test_make_pub_key(self):
        assert make_pub_key("Colonnelli, Iacopo", 2021, "StreamFlow: x") == \
            "colonnelli2021streamflow"

    def test_make_pub_key_missing_parts(self):
        assert make_pub_key("", None, "") == "anon0000untitled"

    def test_requires_title(self):
        with pytest.raises(ValidationError):
            Publication(key="k", title="  ")

    def test_cite(self):
        pub = _pub("k", "A Title", authors=("Rossi, Anna", "Bianchi, B."))
        assert pub.cite() == "Rossi et al. (2020). A Title."

    def test_searchable_text_includes_fields(self):
        pub = _pub("k", "Title", abstract="Abs", venue="V", keywords=("kw",))
        text = pub.searchable_text()
        for fragment in ("Title", "Abs", "V", "kw"):
            assert fragment in text


class TestQuery:
    CORPUS = [
        _pub("1", "Workflow orchestration on clouds"),
        _pub("2", "A survey of workflow systems"),
        _pub("3", "Energy management", abstract="edge workflow pipelines"),
        _pub("4", "Streaming dataflow engines"),
    ]

    def test_and_or_not(self):
        query = Query("workflow AND NOT survey")
        assert [p.key for p in query.filter(self.CORPUS)] == ["1", "3"]

    def test_or(self):
        query = Query("survey OR streaming")
        assert [p.key for p in query.filter(self.CORPUS)] == ["2", "4"]

    def test_juxtaposition_is_and(self):
        assert Query("workflow orchestration").matches(self.CORPUS[0])
        assert not Query("workflow orchestration").matches(self.CORPUS[1])

    def test_phrase(self):
        query = Query('"workflow orchestration"')
        assert query.matches(self.CORPUS[0])
        assert not query.matches(self.CORPUS[2])

    def test_prefix_wildcard(self):
        query = Query("orchestr*")
        assert query.matches(self.CORPUS[0])

    def test_parentheses(self):
        query = Query("(survey OR streaming) AND NOT dataflow")
        assert [p.key for p in query.filter(self.CORPUS)] == ["2"]

    def test_whole_word_matching(self):
        assert not Query("flow").matches_text("workflow systems")
        assert Query("flow").matches_text("the flow of data")

    @pytest.mark.parametrize(
        "bad", ["", "   ", "(a", "a)", "AND", '""', "*", "a AND"]
    )
    def test_malformed(self, bad):
        with pytest.raises(QueryError):
            Query(bad)

    @pytest.mark.parametrize("depth", [MAX_QUERY_DEPTH + 1, 1200])
    @pytest.mark.parametrize("nest", [_parens, _nots], ids=["parens", "not"])
    def test_nesting_past_the_bound_is_a_query_error(self, nest, depth):
        with pytest.raises(QueryError, match="nests deeper"):
            Query(nest(depth))

    @pytest.mark.parametrize("nest", [_parens, _nots], ids=["parens", "not"])
    def test_nesting_at_the_bound_parses(self, nest):
        query = Query(nest(MAX_QUERY_DEPTH))
        assert query.matches_text("a workflow") == (
            nest is _parens or MAX_QUERY_DEPTH % 2 == 0
        )

    def test_sibling_groups_do_not_add_up(self):
        siblings = " AND ".join(
            f"(NOT t{i})" for i in range(2 * MAX_QUERY_DEPTH)
        )
        assert Query(siblings).matches_text("workflow")

    def test_long_flat_or_chain_parses(self):
        query = Query(" OR ".join(f"t{i}" for i in range(20_000)))
        assert query.matches_text("t19999")
        assert not query.matches_text("t20000")


class TestVenueNormalizer:
    def test_alias_table(self):
        normalizer = VenueNormalizer()
        assert normalizer.normalize(
            "IEEE Transactions on Parallel and Distributed Systems"
        ) == "tpds"
        assert normalizer.normalize("Future Generation Computer Systems") == "fgcs"

    def test_acronym_extraction(self):
        normalizer = VenueNormalizer()
        assert normalizer.normalize(
            "Fancy New Conference (FNC)"
        ) == "fnc"

    def test_blank(self):
        assert VenueNormalizer().normalize("  ") == ""

    def test_add_alias(self):
        normalizer = VenueNormalizer()
        normalizer.add_alias("myconf", "my special conference")
        assert normalizer.normalize("Proc. of My Special Conference") == "myconf"

    def test_add_alias_validation(self):
        with pytest.raises(ValueError):
            VenueNormalizer().add_alias("", "x")

    def test_group(self):
        normalizer = VenueNormalizer()
        grouped = normalizer.group(
            ["IEEE TPDS", "IEEE Trans. on Parallel and Distributed Systems"]
        )
        assert len(grouped) == 1


class TestDedup:
    def test_case_variant_detected(self):
        a = _pub("a", "Scalable Workflows for HPC Systems")
        b = _pub("b", "SCALABLE WORKFLOWS FOR HPC SYSTEMS")
        clusters = find_duplicates([a, b])
        assert len(clusters) == 1

    def test_subtitle_truncation_detected(self):
        a = _pub("a", "Scalable workflows for HPC: a longitudinal case study")
        b = _pub("b", "Scalable workflows for HPC")
        assert len(find_duplicates([a, b])) == 1

    def test_year_slack(self):
        a = _pub("a", "Identical title here", year=2020)
        b = _pub("b", "Identical title here", year=2021)
        c = _pub("c", "Identical title here", year=2024)
        clusters = find_duplicates([a, b, c])
        assert len(clusters) == 1
        assert {p.key for p in clusters[0]} == {"a", "b"}

    def test_distinct_papers_kept_apart(self):
        a = _pub("a", "Energy-aware placement of virtual machines")
        b = _pub("b", "Continuous stream processing on multicores")
        assert find_duplicates([a, b]) == []

    def test_threshold_validation(self):
        with pytest.raises(CorpusError):
            find_duplicates([], threshold=0.0)

    def test_long_spelling_variants_detected(self):
        # 249 characters, Jaccard 0.900 and containment 0.949: every one
        # of the ten rarest shingles of either title lies in its own
        # spelling of the last four words.
        stem = (
            "A systematic mapping study of Italian research on workflows"
            " for scientific computing across the cloud edge continuum"
            " with provenance tracing energy aware placement and"
            " reproducible execution of data intensive "
        )
        a = _pub("a", stem + "workflowz kubernetz pipelinez schedulerz")
        b = _pub("b", stem + "workflows kubernetes pipelines schedulers")
        assert len(a.normalized_title) == 249
        assert find_duplicates([a, b]) == [(a, b)]

    def test_merge_prefers_richest(self):
        a = _pub("a", "T", abstract="long abstract here", doi="10.1/x",
                 keywords=("k1",))
        b = _pub("b", "T", keywords=("k2",))
        merged = merge_cluster((b, a))
        assert merged.key == "a"  # richer record wins as base
        assert set(merged.keywords) == {"k1", "k2"}
        assert merged.abstract == "long abstract here"

    def test_merge_empty_cluster(self):
        with pytest.raises(CorpusError):
            merge_cluster(())


class TestCorpus:
    """The in-memory ``CorpusStore()`` against the dict-backed reference."""

    def test_duplicate_key_rejected(self):
        corpus = _corpus([_pub("a", "T")])
        with pytest.raises(DuplicateEntityError):
            corpus.add(_pub("a", "T2"))

    def test_search(self):
        pubs = [_pub("a", "Workflow things"), _pub("b", "Other")]
        corpus = _corpus(pubs)
        assert [p.key for p in corpus.search("workflow")] == ["a"]
        assert corpus.search("workflow") == Query("workflow").filter(pubs)

    def test_by_year_fills_gap_years(self):
        # 2021 has no publications but must appear with a zero count — a
        # trend series with silently missing years distorts Fig-2 plots.
        corpus = _corpus([_pub("a", "T", 2020), _pub("b", "U", 2020),
                          _pub("c", "V", 2022)])
        assert corpus.by_year().to_dict() == {2020: 2, 2021: 0, 2022: 1}
        assert corpus.by_year() == store_by_year_reference(corpus)

    def test_by_year_single_year(self):
        corpus = _corpus([_pub("a", "T", 2020)])
        assert corpus.by_year().to_dict() == {2020: 1}

    def test_by_year_requires_years(self):
        corpus = _corpus([Publication(key="a", title="T")])
        with pytest.raises(CorpusError):
            corpus.by_year()

    def test_year_range(self):
        corpus = _corpus([_pub("a", "T", 2005), _pub("b", "U", 2021)])
        assert corpus.year_range() == (2005, 2021)

    def test_deduplicate_keeps_order(self):
        pubs = [
            _pub("a", "Unique title one"),
            _pub("b", "A very repeated title"),
            _pub("c", "A VERY REPEATED TITLE"),
            _pub("d", "Unique title two"),
        ]
        corpus = _corpus(pubs)
        corpus.deduplicate()
        assert corpus.keys == ("a", "b", "d")
        assert list(corpus) == deduplicate_reference(pubs)

    def test_getitem_unknown(self):
        with pytest.raises(CorpusError):
            _corpus([_pub("a", "T")])["zzz"]

    def test_by_venue_ranked(self):
        corpus = _corpus([
            _pub("a", "T", venue="IEEE TPDS"),
            _pub("b", "U", venue="IEEE TPDS"),
            _pub("c", "V", venue="FGCS"),
        ])
        table = corpus.by_venue()
        assert table.mode() == "tpds"
        assert table == store_by_venue_reference(corpus)


class TestCollisionPolicies:
    def test_suffix_disambiguates(self):
        corpus = _corpus([_pub("a", "First")])
        key = corpus.add(_pub("a", "Second"), on_collision="suffix")
        assert key == "a-2"
        assert corpus["a"].title == "First"
        assert corpus["a-2"].title == "Second"

    def test_suffix_chains(self):
        corpus = _corpus([_pub("a", "First")])
        corpus.add(_pub("a", "Second"), on_collision="suffix")
        key = corpus.add(_pub("a", "Third"), on_collision="suffix")
        assert key == "a-3"

    def test_skip_drops_record(self):
        corpus = _corpus([_pub("a", "First")])
        assert corpus.add(_pub("a", "Second"), on_collision="skip") is None
        assert len(corpus) == 1
        assert corpus["a"].title == "First"

    def test_unknown_policy(self):
        with pytest.raises(CorpusError):
            CorpusStore().add(_pub("a", "T"), on_collision="merge")

    def test_extend_reports_stored_keys(self):
        corpus = CorpusStore()
        report = corpus.extend(
            [_pub("a", "First"), _pub("a", "Second"), _pub("b", "Third")],
            on_collision="suffix",
        )
        assert (report.ingested, report.renamed) == (3, 1)
        assert corpus.keys == ("a", "a-2", "b")

    def test_resolve_collision_shared_helper(self):
        from repro.corpus.store import _resolve_collision

        assert _resolve_collision("x", {"a"}, "error") == "x"
        assert _resolve_collision("a", {"a"}, "skip") is None
        assert _resolve_collision("a", {"a", "a-2"}, "suffix") == "a-3"
        with pytest.raises(DuplicateEntityError):
            _resolve_collision("a", {"a"}, "error")

    def test_from_bibtex_with_collisions(self):
        corpus = CorpusStore()
        corpus.ingest_bibtex(
            "@misc{k, title = {One}}\n@misc{k, title = {Two}}",
            on_collision="suffix",
        )
        assert corpus.keys == ("k", "k-2")
