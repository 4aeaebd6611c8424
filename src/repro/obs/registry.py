"""The persistent run ledger: an append-only NDJSON :class:`RunRegistry`.

One :class:`~repro.obs.record.RunRecord` per line, appended atomically
(single ``write()`` of a complete line on a line-buffered append-mode
handle), so concurrent recorders from separate processes interleave at
line granularity and a crash mid-run leaves at most one torn *final*
line — which reads skip with a warning instead of failing, mirroring the
corrupt-artifact recovery of :class:`repro.pipeline.cache.ArtifactCache`.

Storage resolution, most specific wins:

1. an explicit ``directory=`` argument (the CLI's ``--runs-dir``);
2. the ``REPRO_RUNS_DIR`` environment variable;
3. ``$XDG_CACHE_HOME/repro/runs`` (``~/.cache/repro/runs``).

Retention is explicit: :meth:`RunRegistry.gc` rewrites the ledger
keeping the newest *keep* records (corrupt lines are dropped and
counted), via a temp file + ``os.replace`` so the rewrite is atomic too.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterator

from repro.atomic import atomic_write
from repro.errors import LedgerError
from repro.obs.record import RunRecord
from repro.telemetry.log import NULL_LOGGER

__all__ = ["RunRegistry", "default_runs_dir", "LEDGER_NAME"]

#: File name of the ledger inside a runs directory.
LEDGER_NAME = "ledger.ndjson"


def default_runs_dir() -> Path:
    """The runs directory when none is given (env var, then XDG cache)."""
    env = os.environ.get("REPRO_RUNS_DIR")
    if env:
        return Path(env)
    cache_home = os.environ.get("XDG_CACHE_HOME")
    base = Path(cache_home) if cache_home else Path.home() / ".cache"
    return base / "repro" / "runs"


class RunRegistry:
    """Append-only NDJSON ledger of :class:`~repro.obs.record.RunRecord`\\ s.

    Parameters
    ----------
    directory:
        Where the ledger lives (see :func:`default_runs_dir` for the
        default resolution).  Created on first write.
    logger:
        A :class:`repro.telemetry.StructuredLogger` (or the null
        default) that receives ``ledger.*`` events — notably the
        skip-and-warn on corrupt lines.

    Examples
    --------
    >>> import tempfile
    >>> from repro.obs.record import RunRecord
    >>> with tempfile.TemporaryDirectory() as tmp:
    ...     registry = RunRegistry(tmp)
    ...     _ = registry.record(RunRecord("r1", "test", "2026-01-01T00:00:00Z"))
    ...     [r.run_id for r in registry.runs()]
    ['r1']
    """

    def __init__(
        self,
        directory: str | os.PathLike | None = None,
        *,
        logger: Any = None,
    ) -> None:
        self.directory = (
            Path(directory) if directory is not None else default_runs_dir()
        )
        self.log = logger if logger is not None else NULL_LOGGER

    @property
    def path(self) -> Path:
        """The ledger file."""
        return self.directory / LEDGER_NAME

    # -- writing -----------------------------------------------------------------

    def record(self, record: RunRecord) -> RunRecord:
        """Append *record* to the ledger; returns it for chaining.

        The line is written in one ``write()`` call on an append-mode
        handle, so concurrent recorders never interleave mid-line.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record.to_dict(), sort_keys=True, default=str)
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        self.log.info(
            "ledger.record",
            run_id=record.run_id,
            kind=record.kind,
            path=str(self.path),
        )
        return record

    # -- reading -----------------------------------------------------------------

    def _read_lines(self) -> Iterator[tuple[int, str]]:
        if not self.path.exists():
            return
        with self.path.open("r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                if line.strip():
                    yield number, line

    def runs(self) -> list[RunRecord]:
        """Every readable record, oldest first.

        A corrupt or truncated line (torn final write, manual edit, ...)
        is skipped with a ``ledger.corrupt_line`` warning — never an
        exception: the ledger is an accelerator for comparisons, not a
        point of failure.
        """
        records: list[RunRecord] = []
        for number, line in self._read_lines():
            try:
                records.append(RunRecord.from_dict(json.loads(line)))
            except (json.JSONDecodeError, ValueError, TypeError) as exc:
                self.log.warning(
                    "ledger.corrupt_line",
                    path=str(self.path),
                    line=number,
                    reason=str(exc),
                )
        return records

    def last(self, n: int = 1) -> list[RunRecord]:
        """The newest *n* readable records, oldest of them first."""
        if n < 1:
            raise LedgerError(f"last() needs n >= 1, got {n}")
        return self.runs()[-n:]

    def get(self, run_id: str) -> RunRecord:
        """The record with *run_id* (:class:`LedgerError` when absent).

        A unique prefix works too, so ``repro runs show 20260806T`` does
        what a human means.
        """
        matches = [
            record
            for record in self.runs()
            if record.run_id == run_id or record.run_id.startswith(run_id)
        ]
        exact = [record for record in matches if record.run_id == run_id]
        if exact:
            return exact[-1]
        if not matches:
            raise LedgerError(
                f"no run {run_id!r} in ledger {self.path}"
            )
        if len({record.run_id for record in matches}) > 1:
            raise LedgerError(
                f"run id prefix {run_id!r} is ambiguous: "
                f"{sorted({r.run_id for r in matches})}"
            )
        return matches[-1]

    # -- retention ---------------------------------------------------------------

    def gc(self, keep: int) -> int:
        """Rewrite the ledger keeping the newest *keep* records.

        Returns how many lines were dropped (old records and corrupt
        lines both count; corrupt lines warn on the way out).  The
        rewrite goes through a temp file + ``os.replace``, so a crash
        leaves either the old or the new ledger, never a torn one.
        """
        if keep < 0:
            raise LedgerError(f"gc() needs keep >= 0, got {keep}")
        if not self.path.exists():
            return 0
        total_lines = sum(1 for _ in self._read_lines())
        kept = self.runs()[-keep:] if keep else []
        with atomic_write(self.path) as handle:
            for record in kept:
                handle.write(
                    json.dumps(record.to_dict(), sort_keys=True, default=str)
                    + "\n"
                )
        dropped = total_lines - len(kept)
        self.log.info(
            "ledger.gc", path=str(self.path), kept=len(kept), dropped=dropped
        )
        return dropped
