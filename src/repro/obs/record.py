"""The :class:`RunRecord` model and builders that digest real runs.

A run record is the unit the ledger (:mod:`repro.obs.registry`) stores:
one JSON-serializable snapshot of *what ran, how long it took, and what
it produced*.  Three ingredient groups:

* **identity** — run id, UTC timestamp, run kind, the
  :func:`repro.data.icsc.dataset_version` fingerprint, and the pipeline
  configuration digest (``stable_digest({"stages": run.keys})`` over the
  :class:`~repro.pipeline.runner.PipelineResult` stage keys), so a
  comparison never silently spans a code/data change;
* **performance** — per-stage wall/CPU durations, execution vs
  cache-hit counts, and hit ratios lifted from a
  :class:`repro.telemetry.Telemetry` span tree (via
  :func:`repro.telemetry.profile.stage_profiles`), plus selected
  counters from the metrics snapshot;
* **results** — SHA-256 digests of every produced artifact (Table 1/2
  rows, Fig. 2–4 series, report sections).  Each artifact carries two
  digests: ``sha256`` over the items in order, and ``content_sha256``
  over the items sorted — which is what lets the watchdog tell
  *benign ordering drift* from *value drift*.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

__all__ = [
    "RECORD_FORMAT",
    "ArtifactDigest",
    "StageStats",
    "RunRecord",
    "digest_items",
    "study_artifacts",
    "stage_stats_from_telemetry",
    "metrics_of_interest",
    "build_study_record",
    "build_simulation_record",
    "build_sweep_record",
    "build_corpus_record",
]

#: Bump when the serialized record layout changes incompatibly.
RECORD_FORMAT = 1

#: Metric counters worth carrying into the ledger when present.
_LEDGER_METRICS = (
    "pipeline.stages_executed",
    "pipeline.stages_cached",
    "cache.hits",
    "cache.misses",
    "cache.stores",
    "cache.evictions",
    "sim.events",
    "sim.tasks",
    "sim.failures_injected",
    "sim.retries",
    "sim.migrations",
    "mc.replications",
    "mc.rounds",
    "mc.replications_saved",
    "mc.cells_computed",
    "mc.cells_cached",
    "stat.draws",
    "stat.rounds",
    "stat.draws_saved",
    "stat.tasks_computed",
    "stat.tasks_cached",
    "corpus.records_ingested",
    "corpus.records_rejected",
    "corpus.batches_committed",
    "corpus.query_candidates",
    "corpus.query_hits",
    "corpus.query_full_scans",
    "corpus.dedup_pairs_scored",
    "corpus.dedup_clusters",
    "corpus.dedup_dropped",
)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_items(items: Iterable[Any]) -> "ArtifactDigest":
    """Digest a sequence of JSON-representable items, order-aware.

    Every item is canonicalized through ``json.dumps(sort_keys=True,
    default=str)`` first, so dict key order never fakes a drift.  The
    ordered digest hashes the lines as given; the content digest hashes
    them sorted — identical content in a different order keeps the same
    ``content_sha256``.
    """
    lines = [
        json.dumps(item, sort_keys=True, default=str) for item in items
    ]
    return ArtifactDigest(
        sha256=_digest("\n".join(lines)),
        content_sha256=_digest("\n".join(sorted(lines))),
        n_items=len(lines),
    )


@dataclass(frozen=True, slots=True)
class ArtifactDigest:
    """Order-aware + order-insensitive fingerprints of one artifact."""

    sha256: str
    content_sha256: str
    n_items: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "sha256": self.sha256,
            "content_sha256": self.content_sha256,
            "n_items": self.n_items,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ArtifactDigest":
        return cls(
            sha256=str(payload.get("sha256", "")),
            content_sha256=str(payload.get("content_sha256", "")),
            n_items=int(payload.get("n_items", 0)),
        )


@dataclass(frozen=True, slots=True)
class StageStats:
    """One stage's performance in one run."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    executions: int = 0
    cache_hits: int = 0

    @property
    def hit_ratio(self) -> float | None:
        lookups = self.executions + self.cache_hits
        return self.cache_hits / lookups if lookups else None

    def to_dict(self) -> dict[str, Any]:
        return {
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "executions": self.executions,
            "cache_hits": self.cache_hits,
            "hit_ratio": self.hit_ratio,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "StageStats":
        return cls(
            wall_s=float(payload.get("wall_s", 0.0)),
            cpu_s=float(payload.get("cpu_s", 0.0)),
            executions=int(payload.get("executions", 0)),
            cache_hits=int(payload.get("cache_hits", 0)),
        )


@dataclass(frozen=True)
class RunRecord:
    """One ledger entry: identity, performance, and result fingerprints.

    Attributes
    ----------
    run_id:
        Unique id, ``<UTC compact timestamp>-<8 hex chars>``.
    kind:
        What ran: ``"icsc-study"``, ``"continuum-sim"``, ...
    created_utc:
        ISO-8601 UTC creation time.
    dataset_version:
        :func:`repro.data.icsc.dataset_version` fingerprint (or the
        simulator's input digest) — comparisons across different data
        versions classify digest changes as *expected*, not drift.
    config_digest:
        Digest of the full pipeline/simulation configuration.
    wall_s:
        Total wall seconds of the run.
    stages:
        Stage name → :class:`StageStats`.
    metrics:
        Selected counter values (cache hits, failures injected, ...).
    artifacts:
        Artifact name → :class:`ArtifactDigest`.
    meta:
        Free-form strings (seed, parallel flag, CLI argv, ...).
    """

    run_id: str
    kind: str
    created_utc: str
    dataset_version: str = ""
    config_digest: str = ""
    wall_s: float = 0.0
    stages: dict[str, StageStats] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)
    artifacts: dict[str, ArtifactDigest] = field(default_factory=dict)
    meta: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready dict (the ledger's NDJSON line payload)."""
        return {
            "format": RECORD_FORMAT,
            "run_id": self.run_id,
            "kind": self.kind,
            "created_utc": self.created_utc,
            "dataset_version": self.dataset_version,
            "config_digest": self.config_digest,
            "wall_s": self.wall_s,
            "stages": {
                name: stats.to_dict() for name, stats in self.stages.items()
            },
            "metrics": dict(self.metrics),
            "artifacts": {
                name: digest.to_dict()
                for name, digest in self.artifacts.items()
            },
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunRecord":
        """Rebuild a record from a parsed ledger line.

        Raises :class:`ValueError` on structurally unusable payloads
        (the registry catches it and skips the line with a warning).
        """
        if not isinstance(payload, Mapping):
            raise ValueError("ledger line is not a JSON object")
        run_id = payload.get("run_id")
        if not run_id or not isinstance(run_id, str):
            raise ValueError("ledger line has no run_id")
        stages_raw = payload.get("stages") or {}
        artifacts_raw = payload.get("artifacts") or {}
        if not isinstance(stages_raw, Mapping) or not isinstance(
            artifacts_raw, Mapping
        ):
            raise ValueError("ledger line has malformed stages/artifacts")
        return cls(
            run_id=run_id,
            kind=str(payload.get("kind", "unknown")),
            created_utc=str(payload.get("created_utc", "")),
            dataset_version=str(payload.get("dataset_version", "")),
            config_digest=str(payload.get("config_digest", "")),
            wall_s=float(payload.get("wall_s", 0.0)),
            stages={
                str(name): StageStats.from_dict(stats)
                for name, stats in stages_raw.items()
            },
            metrics={
                str(name): float(value)
                for name, value in (payload.get("metrics") or {}).items()
            },
            artifacts={
                str(name): ArtifactDigest.from_dict(digest)
                for name, digest in artifacts_raw.items()
            },
            meta={
                str(key): str(value)
                for key, value in (payload.get("meta") or {}).items()
            },
        )


def new_run_id(payload: Any = None) -> str:
    """A fresh run id: compact UTC timestamp + 8 content/entropy hex chars."""
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    entropy = hashlib.sha256(
        repr((payload, time.time_ns(), os.getpid(), os.urandom(8))).encode()
    ).hexdigest()[:8]
    return f"{stamp}-{entropy}"


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


# -- telemetry lifting -------------------------------------------------------------


def stage_stats_from_telemetry(telemetry: Any) -> dict[str, StageStats]:
    """Per-stage wall/CPU/hit stats from a recorded telemetry span tree."""
    if telemetry is None or not getattr(telemetry, "enabled", False):
        return {}
    from repro.telemetry.profile import stage_profiles

    return {
        profile.name: StageStats(
            wall_s=profile.wall,
            cpu_s=profile.cpu,
            executions=profile.executions,
            cache_hits=profile.cache_hits,
        )
        for profile in stage_profiles(telemetry.tracer.spans())
    }


def metrics_of_interest(telemetry: Any) -> dict[str, float]:
    """The ledger-worthy counter values from a telemetry metrics snapshot."""
    if telemetry is None or not getattr(telemetry, "enabled", False):
        return {}
    snapshot = telemetry.metrics.snapshot()
    values: dict[str, float] = {}
    for name in _LEDGER_METRICS:
        summary = snapshot.get(name)
        if summary and "value" in summary:
            values[name] = float(summary["value"])
    return values


def _run_wall_seconds(telemetry: Any) -> float:
    """Wall seconds of the run-level (root) span, 0.0 when untraced."""
    if telemetry is None or not getattr(telemetry, "enabled", False):
        return 0.0
    return max(
        (
            span.duration or 0.0
            for span in telemetry.tracer.spans()
            if span.parent_id is None
        ),
        default=0.0,
    )


# -- artifact digesting ------------------------------------------------------------


def study_artifacts(results: Any) -> dict[str, ArtifactDigest]:
    """Digest every reported artifact of a :class:`StudyResults`.

    Covers the paper's outputs end to end: Table 1/2 rows, the Fig. 2
    distribution, Fig. 3 coverage, Fig. 4 votes (and the supply/demand
    shares behind them), and the rendered report's sections.
    """
    from repro import workflow_directions
    from repro.reporting import study_report

    def table_rows(table: Any) -> list[Any]:
        return [list(table.header)] + [list(row) for row in table.rows]

    def frequency_series(table: Any) -> list[Any]:
        return [[str(label), int(count)] for label, count in table.items()]

    scheme = workflow_directions()
    report_sections = [
        section.strip()
        for section in study_report(results, scheme).split("\n## ")
    ]
    artifacts = {
        "table1": digest_items(table_rows(results.table1)),
        "table2": digest_items(table_rows(results.table2)),
        "fig2_distribution": digest_items(
            frequency_series(results.q2.distribution)
        ),
        "fig3_coverage": digest_items(frequency_series(results.q2.coverage)),
        "fig4_votes": digest_items(frequency_series(results.q3.votes)),
        "supply_shares": digest_items(
            sorted((str(k), round(v, 12)) for k, v in results.q2.shares.items())
        ),
        "demand_shares": digest_items(
            sorted((str(k), round(v, 12)) for k, v in results.q3.shares.items())
        ),
        "report_sections": digest_items(report_sections),
    }
    return artifacts


# -- record builders ---------------------------------------------------------------


def build_study_record(
    results: Any,
    run: Any = None,
    *,
    telemetry: Any = None,
    kind: str = "icsc-study",
    meta: Mapping[str, Any] | None = None,
) -> RunRecord:
    """A :class:`RunRecord` for one ICSC study run.

    Parameters
    ----------
    results:
        The :class:`~repro.core.study.StudyResults` the run produced.
    run:
        The :class:`~repro.pipeline.runner.PipelineResult`, when the run
        went through the pipeline (supplies the configuration digest).
    telemetry:
        The :class:`repro.telemetry.Telemetry` that observed the run;
        per-stage durations and cache ratios are lifted from it.  With
        disabled/absent telemetry the record still captures identity and
        artifact digests (stages empty).
    """
    from repro.data.icsc import dataset_version
    from repro.pipeline.cache import stable_digest

    artifacts = study_artifacts(results)
    config_digest = ""
    if run is not None and getattr(run, "keys", None):
        config_digest = stable_digest({"stages": dict(run.keys)})
    return RunRecord(
        run_id=new_run_id(config_digest),
        kind=kind,
        created_utc=_utc_now(),
        dataset_version=dataset_version(),
        config_digest=config_digest,
        wall_s=_run_wall_seconds(telemetry),
        stages=stage_stats_from_telemetry(telemetry),
        metrics=metrics_of_interest(telemetry),
        artifacts=artifacts,
        meta={str(k): str(v) for k, v in (meta or {}).items()},
    )


def build_simulation_record(
    trace: Any,
    *,
    telemetry: Any = None,
    kind: str = "continuum-sim",
    meta: Mapping[str, Any] | None = None,
) -> RunRecord:
    """A :class:`RunRecord` for one continuum simulation run.

    Works for both :class:`~repro.continuum.simulate.ExecutionTrace` and
    :class:`~repro.continuum.failures.FailureTrace`: the realized
    placements are the digested artifact, makespan/slowdown land in the
    metrics, and failure counters ride in from the telemetry snapshot
    (see the instrumented simulators).
    """
    placements = [
        [p.task, p.resource, round(p.start, 9), round(p.finish, 9)]
        for p in trace.placements
    ]
    metrics = metrics_of_interest(telemetry)
    metrics["sim.makespan"] = float(trace.makespan)
    metrics["sim.slowdown"] = float(trace.slowdown)
    for extra in ("n_failures", "n_migrations", "lost_work", "busy_energy"):
        value = getattr(trace, extra, None)
        if value is not None:
            metrics[f"sim.{extra}"] = float(value)
    return RunRecord(
        run_id=new_run_id(placements),
        kind=kind,
        created_utc=_utc_now(),
        dataset_version="",
        config_digest="",
        wall_s=_run_wall_seconds(telemetry),
        stages=stage_stats_from_telemetry(telemetry),
        metrics=metrics,
        artifacts={"placements": digest_items(placements)},
        meta={str(k): str(v) for k, v in (meta or {}).items()},
    )


def build_corpus_record(
    store: Any,
    *,
    telemetry: Any = None,
    operation: str = "ingest",
    summary: Mapping[str, Any] | None = None,
    kind: str = "corpus-store",
    meta: Mapping[str, Any] | None = None,
) -> RunRecord:
    """A :class:`RunRecord` for one corpus-store operation.

    The digested artifact is the store's ordered key sequence — cheap at
    any corpus size, yet it pins both membership and insertion order, so
    the watchdog can tell an ingest that produced different records (or
    a dedup that merged differently) from an identical re-run.  Counters
    (``corpus.records_ingested``, ``corpus.dedup_pairs_scored``, ...)
    ride in from telemetry; *summary* values (an
    :class:`~repro.corpus.store.IngestReport` or
    :class:`~repro.corpus.store.DedupSummary` ``to_dict()``) are folded
    into the metrics so a record is complete even for untraced stores.
    """
    keys = list(store.keys)
    metrics = metrics_of_interest(telemetry)
    metrics["corpus.records"] = float(len(keys))
    for name, value in (summary or {}).items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            metrics[f"corpus.{operation}.{name}"] = float(value)
    return RunRecord(
        run_id=new_run_id(keys),
        kind=kind,
        created_utc=_utc_now(),
        dataset_version="",
        config_digest="",
        wall_s=_run_wall_seconds(telemetry),
        stages=stage_stats_from_telemetry(telemetry),
        metrics=metrics,
        artifacts={"corpus_keys": digest_items(keys)},
        meta={"operation": operation}
        | {str(k): str(v) for k, v in (meta or {}).items()},
    )


def build_sweep_record(
    result: Any,
    *,
    telemetry: Any = None,
    config_digest: str = "",
    kind: str = "mc-sweep",
    meta: Mapping[str, Any] | None = None,
) -> RunRecord:
    """A :class:`RunRecord` for one Monte-Carlo sweep.

    The digested artifact is the full per-cell statistics table of a
    :class:`~repro.continuum.montecarlo.SweepResult` — deterministic for
    a given spec, so the watchdog can flag drift in the sweep's numbers
    like it does for study tables.  Counters (``mc.replications``,
    ``mc.cells_computed``, ``mc.cells_cached``) ride in from telemetry;
    the same counts are recorded directly from the result so a record is
    complete even for untraced sweeps.
    """
    cell_rows = [cell.to_dict() for cell in result.cells]
    metrics = metrics_of_interest(telemetry)
    metrics["mc.cells"] = float(len(result.cells))
    metrics["mc.cells_computed"] = float(len(result.computed))
    metrics["mc.cells_cached"] = float(len(result.cached))
    metrics["mc.replications"] = float(result.n_replications_run)
    # Adaptive engines carry a fixed-equivalent budget; record the
    # savings so the ledger shows what sequential stopping bought.
    budget = getattr(result, "n_replications_budget", 0)
    if budget:
        metrics["mc.replications_budget"] = float(budget)
        metrics["mc.replications_saved"] = float(
            budget - result.n_replications_run
        )
    return RunRecord(
        run_id=new_run_id(config_digest or cell_rows),
        kind=kind,
        created_utc=_utc_now(),
        dataset_version="",
        config_digest=config_digest,
        wall_s=_run_wall_seconds(telemetry),
        stages=stage_stats_from_telemetry(telemetry),
        metrics=metrics,
        artifacts={"cells": digest_items(cell_rows)},
        meta={str(k): str(v) for k, v in (meta or {}).items()},
    )
