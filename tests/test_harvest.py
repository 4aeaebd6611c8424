"""Integration tests for the optional harvest stage of the pipeline."""

import pytest

from repro.core.protocol import ResearchQuestion, StudyProtocol
from repro.core.study import MappingStudy, StudyStage
from repro.core.taxonomy import workflow_directions
from repro.corpus.query import Query
from repro.corpus.store import CorpusStore
from repro.data.icsc import icsc_applications, icsc_institutions, icsc_tools
from repro.data.synthetic import synthetic_corpus
from repro.errors import StudyError
from repro.screening import has_any_keyword, year_between
from tests.oracles import deduplicate_reference


def _protocol(queries=()):
    return StudyProtocol(
        "Harvest test",
        (ResearchQuestion("q1", "What exists?"),),
        workflow_directions(),
        search_queries=tuple(queries),
    )


class TestHarvest:
    def test_full_flow_recorded(self):
        corpus = synthetic_corpus(300, seed=9, duplicate_fraction=0.1)
        query = "workflow* OR orchestration OR scheduling"
        criterion = year_between(2010, 2023) & has_any_keyword(
            ["hpc", "cloud", "edge", "continuum"]
        )
        study = MappingStudy(_protocol())
        study.harvest(corpus, query=query, criterion=criterion)
        flow = study.flow
        stage_names = [stage.name for stage in flow.stages]
        assert stage_names == [
            "records identified",
            "after deduplication",
            "matched search queries",
            "passed screening criteria",
        ]
        assert flow.initial == 300
        assert flow.final == len(study.harvested_publications)
        assert 0 < flow.final < flow.initial
        deduped = deduplicate_reference(corpus)
        hits = Query(query).filter(deduped)
        included = [p for p in hits if criterion.evaluate(p).included]
        assert [stage.count for stage in flow.stages] == [
            300, len(deduped), len(hits), len(included),
        ]
        assert study.harvested_publications == included

    def test_protocol_queries_used_when_none_given(self):
        corpus = synthetic_corpus(100, seed=2)
        study = MappingStudy(_protocol(queries=("scheduling",)))
        study.harvest(corpus)
        assert "matched search queries" in [
            stage.name for stage in study.flow.stages
        ]

    def test_no_queries_no_query_stage(self):
        corpus = synthetic_corpus(50, seed=1)
        study = MappingStudy(_protocol())
        study.harvest(corpus)
        assert [stage.name for stage in study.flow.stages] == [
            "records identified", "after deduplication",
        ]

    def test_harvest_keeps_planned_stage(self):
        corpus = synthetic_corpus(50, seed=1)
        study = MappingStudy(_protocol())
        study.harvest(corpus)
        assert study.stage is StudyStage.PLANNED
        # Collection still works afterwards.
        study.collect(icsc_institutions(), icsc_tools(), icsc_applications())
        assert study.stage is StudyStage.COLLECTED

    def test_harvest_leaves_a_store_unchanged(self):
        records = list(synthetic_corpus(200, seed=1))
        store = CorpusStore()
        store.extend(records)
        keys = store.keys
        from_store = MappingStudy(_protocol()).harvest(store)
        from_records = MappingStudy(_protocol()).harvest(records)
        assert (len(store), store.keys) == (200, keys)
        assert [
            (stage.name, stage.count) for stage in from_store.flow.stages
        ] == [
            (stage.name, stage.count) for stage in from_records.flow.stages
        ] == [
            ("records identified", 200),
            ("after deduplication", len(deduplicate_reference(records))),
        ]

    def test_harvest_after_collect_rejected(self):
        study = MappingStudy(_protocol())
        study.collect(icsc_institutions(), icsc_tools(), icsc_applications())
        with pytest.raises(StudyError):
            study.harvest(synthetic_corpus(10, seed=0))

    def test_flow_before_harvest_rejected(self):
        study = MappingStudy(_protocol())
        with pytest.raises(StudyError):
            study.flow
        with pytest.raises(StudyError):
            study.harvested_publications


class TestThreatsSection:
    def test_threats_in_report(self):
        from repro import run_icsc_study, workflow_directions
        from repro.reporting import study_report, threats_to_validity

        results = run_icsc_study()
        section = threats_to_validity(results)
        assert "28 selection votes" in section
        assert "not statistically significant" in section
        assert "## Threats to validity" in study_report(
            results, workflow_directions()
        )
