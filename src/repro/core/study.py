"""The mapping-study pipeline.

:class:`MappingStudy` drives a protocol through the SMS stages::

    protocol → collect → classify → survey → analyze

Each stage validates its precondition (you cannot analyze before
surveying), so a study object is always in a well-defined state.
:func:`run_icsc_study` replays the paper end to end from the encoded
dataset and returns a :class:`StudyResults` holding everything the
evaluation section reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.core.analysis import SupplyDemandComparison
from repro.core.catalog import (
    ApplicationCatalog,
    InstitutionRegistry,
    ToolCatalog,
    validate_ecosystem,
)
from repro.core.classification import (
    ClassifierEvaluation,
    KeywordClassifier,
    evaluate_classifier,
)
from repro.core.protocol import StudyProtocol, icsc_protocol
from repro.core.questions import (
    Q1Answer,
    Q2Answer,
    Q3Answer,
    answer_q1,
    answer_q2,
    answer_q3,
)
from repro.core.selection import SelectionMatrix
from repro.errors import StudyError
from repro.survey.aggregate import (
    run_tool_selection_survey,
    selection_matrix_from_responses,
)
from repro.survey.response import ResponseSet
from repro.tables.render import TextTable
from repro.tables.table1 import build_table1
from repro.tables.table2 import build_table2

__all__ = [
    "StudyStage",
    "StudyResults",
    "MappingStudy",
    "run_icsc_study",
    "classify_tools",
    "survey_selection",
    "analyze_study",
]


def classify_tools(
    tools: ToolCatalog, scheme
) -> ClassifierEvaluation | None:
    """Cross-check the collected labels with the keyword classifier.

    Re-derives each described tool's direction from its description and
    scores the agreement with the published (manual) labels — the
    simulated-manual-classification experiment.  Returns ``None`` when no
    tool carries a description.
    """
    classifier = KeywordClassifier(scheme)
    described = [t for t in tools if t.description.strip()]
    if not described:
        return None
    predictions = classifier.classify_many([t.description for t in described])
    return evaluate_classifier(
        predictions, [t.primary_direction for t in described], scheme
    )


def survey_selection(
    tools: ToolCatalog, applications: ApplicationCatalog, scheme
) -> tuple[ResponseSet, SelectionMatrix]:
    """Run the tool-selection survey and build the Table 2 matrix."""
    _, responses = run_tool_selection_survey(tools, applications)
    ordered_tools = [
        t.key
        for direction in scheme.keys
        for t in tools.by_direction(direction)
    ]
    matrix = selection_matrix_from_responses(
        responses,
        ordered_tools,
        name_to_key={t.name: t.key for t in tools},
    )
    return responses, matrix


def analyze_study(
    tools: ToolCatalog,
    applications: ApplicationCatalog,
    selection: SelectionMatrix,
    scheme,
    *,
    seed: int = 2023,
    classifier_evaluation: ClassifierEvaluation | None = None,
) -> StudyResults:
    """Answer the research questions and regenerate every artifact."""
    q1 = answer_q1(tools, scheme)
    q2 = answer_q2(tools, scheme)
    q3 = answer_q3(tools, applications, scheme, seed=seed)
    return StudyResults(
        q1=q1,
        q2=q2,
        q3=q3,
        table1=build_table1(tools, scheme),
        table2=build_table2(
            tools, applications, scheme, selection=selection
        ),
        selection=selection,
        comparison=q3.comparison,
        classifier_evaluation=classifier_evaluation,
    )


class StudyStage(Enum):
    """Pipeline position of a :class:`MappingStudy`."""

    PLANNED = "planned"
    COLLECTED = "collected"
    CLASSIFIED = "classified"
    SURVEYED = "surveyed"
    ANALYZED = "analyzed"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class StudyResults:
    """Everything the evaluation section reports.

    Attributes
    ----------
    q1, q2, q3:
        Structured answers to the three research questions.
    table1, table2:
        The regenerated paper tables.
    selection:
        The Table 2 matrix.
    comparison:
        The supply-vs-demand analysis behind Q3.
    classifier_evaluation:
        Agreement of the automatic classifier with the published labels
        (the simulated manual-classification experiment), when the study
        ran auto-classification.
    """

    q1: Q1Answer
    q2: Q2Answer
    q3: Q3Answer
    table1: TextTable
    table2: TextTable
    selection: SelectionMatrix
    comparison: SupplyDemandComparison
    classifier_evaluation: ClassifierEvaluation | None = None


class MappingStudy:
    """A mapping study executing a :class:`StudyProtocol` stage by stage."""

    def __init__(self, protocol: StudyProtocol) -> None:
        self.protocol = protocol
        self.stage = StudyStage.PLANNED
        self._institutions: InstitutionRegistry | None = None
        self._tools: ToolCatalog | None = None
        self._applications: ApplicationCatalog | None = None
        self._responses: ResponseSet | None = None
        self._selection: SelectionMatrix | None = None
        self._classifier_evaluation: ClassifierEvaluation | None = None
        self._flow = None
        self._harvested: list | None = None

    # -- stage 0 (optional): harvest ---------------------------------------------

    def harvest(self, corpus, *, query=None, criterion=None) -> "MappingStudy":
        """Optionally harvest a bibliographic corpus before collection.

        Copies *corpus* (any iterable of publications, a
        :class:`~repro.corpus.store.CorpusStore` included, which is left
        unchanged) into an in-memory store and deduplicates it there,
        applies the protocol's (or the given) search *query* and an
        optional screening *criterion*, and records the narrowing as a
        PRISMA-style :class:`~repro.reporting.prisma.StudyFlow` available
        at :attr:`flow`.  The included publications are kept at
        :attr:`harvested_publications`.  The study remains in the PLANNED
        stage: harvesting informs collection, it does not replace it (the
        ICSC study collected tools by consortium instead).
        """
        from repro.corpus.query import Query
        from repro.corpus.store import CorpusStore
        from repro.reporting.prisma import StudyFlow

        self._require(StudyStage.PLANNED)
        with CorpusStore() as identified:
            identified.extend(corpus)
            flow = StudyFlow("records identified", len(identified))
            identified.deduplicate()
            records = list(identified)
        flow.narrow("after deduplication", len(records), "duplicate records")
        queries = [query] if query is not None else list(
            self.protocol.search_queries
        )
        if queries:
            compiled = [
                Query(q) if isinstance(q, str) else q for q in queries
            ]
            records = [
                publication
                for publication in records
                if any(q.matches(publication) for q in compiled)
            ]
            flow.narrow("matched search queries", len(records), "off-topic")
        if criterion is not None:
            records = [
                publication
                for publication in records
                if criterion.evaluate(publication).included
            ]
            flow.narrow(
                "passed screening criteria", len(records),
                "failed inclusion criteria",
            )
        self._flow = flow
        self._harvested = records
        return self

    @property
    def flow(self):
        """The harvest :class:`~repro.reporting.prisma.StudyFlow`, if any."""
        if self._flow is None:
            raise StudyError("study has not harvested a corpus")
        return self._flow

    @property
    def harvested_publications(self) -> list:
        """Publications surviving the harvest, if any."""
        if self._harvested is None:
            raise StudyError("study has not harvested a corpus")
        return list(self._harvested)

    # -- stage helpers ----------------------------------------------------------

    def _require(self, *stages: StudyStage) -> None:
        if self.stage not in stages:
            expected = " or ".join(s.value for s in stages)
            raise StudyError(
                f"operation requires stage {expected}; study is "
                f"{self.stage.value!r}"
            )

    # -- stage 1: collect ----------------------------------------------------------

    def collect(
        self,
        institutions: InstitutionRegistry,
        tools: ToolCatalog,
        applications: ApplicationCatalog,
    ) -> "MappingStudy":
        """Load the study entities (validated against the protocol scheme)."""
        self._require(StudyStage.PLANNED)
        validate_ecosystem(institutions, tools, applications, self.protocol.scheme)
        self._institutions = institutions
        self._tools = tools
        self._applications = applications
        self.stage = StudyStage.COLLECTED
        return self

    # -- stage 2: classify ----------------------------------------------------------

    def classify(self, *, check_with_classifier: bool = True) -> "MappingStudy":
        """Accept the collected classification, optionally cross-checking it.

        The ICSC dataset carries the published (manual) labels; with
        *check_with_classifier* the keyword classifier re-derives labels
        from the descriptions and the agreement is recorded as the
        simulated-manual-classification experiment.
        """
        self._require(StudyStage.COLLECTED)
        assert self._tools is not None
        if check_with_classifier:
            self._classifier_evaluation = classify_tools(
                self._tools, self.protocol.scheme
            )
        self.stage = StudyStage.CLASSIFIED
        return self

    # -- stage 3: survey ----------------------------------------------------------

    def survey(self) -> "MappingStudy":
        """Run the tool-selection survey and build the selection matrix."""
        self._require(StudyStage.CLASSIFIED)
        assert self._tools is not None and self._applications is not None
        self._responses, self._selection = survey_selection(
            self._tools, self._applications, self.protocol.scheme
        )
        self.stage = StudyStage.SURVEYED
        return self

    # -- stage 4: analyze ----------------------------------------------------------

    def analyze(self, *, seed: int = 2023) -> StudyResults:
        """Answer the research questions and regenerate every artifact."""
        self._require(StudyStage.SURVEYED)
        assert (
            self._tools is not None
            and self._applications is not None
            and self._selection is not None
        )
        results = analyze_study(
            self._tools,
            self._applications,
            self._selection,
            self.protocol.scheme,
            seed=seed,
            classifier_evaluation=self._classifier_evaluation,
        )
        self.stage = StudyStage.ANALYZED
        return results

    # -- accessors ---------------------------------------------------------------

    @property
    def tools(self) -> ToolCatalog:
        if self._tools is None:
            raise StudyError("study has not collected tools yet")
        return self._tools

    @property
    def applications(self) -> ApplicationCatalog:
        if self._applications is None:
            raise StudyError("study has not collected applications yet")
        return self._applications

    @property
    def institutions(self) -> InstitutionRegistry:
        if self._institutions is None:
            raise StudyError("study has not collected institutions yet")
        return self._institutions

    @property
    def responses(self) -> ResponseSet:
        if self._responses is None:
            raise StudyError("study has not run the survey yet")
        return self._responses


def run_icsc_study(
    *,
    seed: int = 2023,
    cache=None,
    telemetry=None,
) -> StudyResults:
    """Replay the paper's full pipeline on the encoded ICSC dataset.

    Runs on the :mod:`repro.pipeline` stage DAG: repeated invocations with
    identical parameters are served from a process-wide artifact cache
    without recomputing any stage.  Pass an explicit
    :class:`~repro.pipeline.ArtifactCache` (e.g. disk-backed) via *cache*,
    or a :class:`repro.telemetry.Telemetry` as *telemetry* to record spans and
    pipeline metrics for profiling.
    """
    from repro.pipeline.study import run_icsc_pipeline

    results, _ = run_icsc_pipeline(
        seed=seed, cache=cache, telemetry=telemetry
    )
    return results
