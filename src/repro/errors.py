"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch a single base class at API boundaries.  Sub-hierarchies mirror the
package layout: entity/validation problems, catalogue lookups, corpus parsing,
survey validation, and simulation failures each have a dedicated class.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ValidationError",
    "EntityError",
    "DuplicateEntityError",
    "UnknownEntityError",
    "TaxonomyError",
    "UnknownCategoryError",
    "ClassificationError",
    "CorpusError",
    "BibTeXError",
    "CorpusStoreError",
    "QueryError",
    "ScreeningError",
    "AgreementError",
    "SurveyError",
    "ResponseValidationError",
    "SelectionError",
    "StatsError",
    "ContinuumError",
    "SchedulingError",
    "WorkflowGraphError",
    "MonteCarloError",
    "RenderError",
    "SerializationError",
    "StudyError",
    "PipelineError",
    "PipelineDefinitionError",
    "StageExecutionError",
    "CacheError",
    "TelemetryError",
    "LedgerError",
    "ServeError",
    "JobQueueFullError",
    "UnknownJobError",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ValidationError(ReproError, ValueError):
    """A value failed domain validation (empty name, bad range, ...)."""


class EntityError(ReproError):
    """Base class for entity-model errors."""


class DuplicateEntityError(EntityError):
    """An entity with the same key is already registered."""


class UnknownEntityError(EntityError, KeyError):
    """A lookup referenced an entity that does not exist.

    ``str(exc)`` returns a readable message rather than ``KeyError``'s
    ``repr`` of its first argument.
    """

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.args[0] if self.args else ""


class TaxonomyError(ReproError):
    """Base class for classification-scheme errors."""


class UnknownCategoryError(TaxonomyError, KeyError):
    """A category key is not part of the classification scheme."""

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.args[0] if self.args else ""


class ClassificationError(ReproError):
    """A classifier could not produce a label."""


class CorpusError(ReproError):
    """Base class for bibliographic-corpus errors."""


class BibTeXError(CorpusError):
    """The BibTeX parser met malformed input.

    Attributes
    ----------
    line:
        1-based line number of the offending input, when known.
    """

    def __init__(self, message: str, line: int | None = None) -> None:
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class CorpusStoreError(CorpusError):
    """A persistent corpus-store misuse (closed handle, schema mismatch)."""


class QueryError(CorpusError):
    """A boolean search query could not be parsed or evaluated."""


class ScreeningError(ReproError):
    """Base class for screening-stage errors."""


class AgreementError(ScreeningError):
    """Inter-rater agreement could not be computed (e.g. no overlap)."""


class SurveyError(ReproError):
    """Base class for survey-instrument errors."""


class ResponseValidationError(SurveyError, ValidationError):
    """A survey response violates its question's constraints."""


class SelectionError(ReproError):
    """A selection-matrix operation referenced unknown rows/columns."""


class StatsError(ReproError):
    """A statistical routine received degenerate input."""


class ContinuumError(ReproError):
    """Base class for computing-continuum simulator errors."""


class SchedulingError(ContinuumError):
    """The scheduler could not place a task."""


class WorkflowGraphError(ContinuumError):
    """A workflow DAG is malformed (cycle, dangling dependency, ...)."""


class MonteCarloError(ContinuumError):
    """A Monte-Carlo sweep specification or aggregation misuse."""


class RenderError(ReproError):
    """A figure or table could not be rendered."""


class SerializationError(ReproError):
    """An entity could not be serialized or deserialized."""


class StudyError(ReproError):
    """The mapping-study pipeline was driven through an invalid transition."""


class PipelineError(ReproError):
    """Base class for :mod:`repro.pipeline` runner errors."""


class PipelineDefinitionError(PipelineError):
    """A pipeline DAG is malformed (cycle, unknown dependency, duplicate)."""


class StageExecutionError(PipelineError):
    """A pipeline stage raised while executing."""


class CacheError(PipelineError):
    """An artifact cache miss, unusable key, or corrupt stored artifact."""


class TelemetryError(ReproError):
    """A :mod:`repro.telemetry` misuse or unreadable trace/metric data."""


class LedgerError(ReproError):
    """A :mod:`repro.obs` run-ledger misuse (unknown run id, empty ledger).

    Note: a *corrupt ledger line* is deliberately NOT an error — the
    registry skips it with a warning (mirroring the corrupt-artifact
    recovery in :mod:`repro.pipeline.cache`), so a torn write can never
    take the whole run history down."""


class ServeError(ReproError):
    """Base class for :mod:`repro.serve` HTTP-service errors."""


class JobQueueFullError(ServeError):
    """The bounded sweep-job queue rejected a submission (HTTP 429).

    Backpressure is a feature: the service sheds load instead of
    accepting unbounded work it cannot finish."""


class UnknownJobError(ServeError, KeyError):
    """A job id was not found in the job queue (HTTP 404)."""

    # KeyError's str() quotes its argument; this one is a message.
    __str__ = Exception.__str__
