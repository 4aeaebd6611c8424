"""Crash-safe run manifest: which stages of a run have completed.

A :class:`RunManifest` is a small JSON ledger written after every stage
completion.  On resume, the runner replays the manifest: stages recorded
complete *with the same cache key* are skipped (their artifacts come from
the :class:`~repro.pipeline.cache.ArtifactCache`), so an interrupted run
restarts from the last finished stage instead of from scratch.

The manifest is keyed by a *run key* — the digest of the whole pipeline
configuration.  If a manifest on disk belongs to a different run key
(the code, parameters, or DAG changed), it is discarded wholesale: stale
completion records can never mask a configuration change.

Writes are atomic (temp file + ``os.replace``), so a crash between two
stages leaves either the previous consistent ledger or the new one,
never a torn file.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.atomic import atomic_write
from repro.errors import PipelineError

__all__ = ["RunManifest"]

_FORMAT = 1


class RunManifest:
    """JSON ledger of completed stages for one pipeline run.

    Parameters
    ----------
    path:
        File the ledger lives at.  Parent directories are created on the
        first write.
    telemetry:
        Optional :class:`repro.telemetry.Telemetry`; when bound, every
        ledger write is counted (``manifest.writes``) and timed
        (``manifest.write_seconds``), making resume-ledger overhead
        visible in the profile.  ``Pipeline.run`` binds an unbound
        manifest to its own telemetry for the duration of a traced run.

    Examples
    --------
    >>> import tempfile, pathlib
    >>> with tempfile.TemporaryDirectory() as tmp:
    ...     manifest = RunManifest(pathlib.Path(tmp) / "run.json")
    ...     _ = manifest.begin("run-key-1")
    ...     manifest.mark_complete("collect", "abc123")
    ...     reloaded = RunManifest(pathlib.Path(tmp) / "run.json")
    ...     _ = reloaded.begin("run-key-1")   # same run: records survive
    ...     reloaded.is_complete("collect", "abc123")
    True
    """

    def __init__(
        self, path: str | os.PathLike, *, telemetry=None
    ) -> None:
        self.path = Path(path)
        self.telemetry = telemetry
        self.run_key: str | None = None
        self._completed: dict[str, str] = {}
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        try:
            payload = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise PipelineError(
                f"run manifest {self.path} is unreadable: {exc}"
            ) from exc
        if payload.get("format") != _FORMAT:
            return  # incompatible ledger: treat as absent
        self.run_key = payload.get("run_key")
        completed = payload.get("completed", {})
        if isinstance(completed, dict):
            self._completed = {str(k): str(v) for k, v in completed.items()}

    # -- lifecycle ---------------------------------------------------------------

    def begin(self, run_key: str) -> "RunManifest":
        """Bind the ledger to *run_key*, discarding records of other runs."""
        if self.run_key != run_key:
            self.run_key = run_key
            self._completed = {}
            self._write()
        return self

    def mark_complete(self, stage: str, key: str) -> None:
        """Record that *stage* finished, producing the artifact at *key*."""
        if self.run_key is None:
            raise PipelineError("manifest has no run key; call begin() first")
        self._completed[stage] = key
        self._write()

    # -- queries -----------------------------------------------------------------

    @property
    def completed(self) -> dict[str, str]:
        """Mapping of completed stage name → artifact cache key (a copy)."""
        return dict(self._completed)

    def is_complete(self, stage: str, key: str) -> bool:
        """True if *stage* completed in this run with exactly this *key*."""
        return self._completed.get(stage) == key

    # -- persistence -------------------------------------------------------------

    def _write(self) -> None:
        started = time.perf_counter()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "format": _FORMAT,
            "run_key": self.run_key,
            "completed": self._completed,
        }
        with atomic_write(self.path) as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        if self.telemetry is not None:
            metrics = self.telemetry.metrics
            metrics.counter("manifest.writes").inc()
            metrics.histogram("manifest.write_seconds").observe(
                time.perf_counter() - started
            )
            self.telemetry.log.debug(
                "manifest.write",
                path=str(self.path),
                completed=len(self._completed),
            )
