"""HTTP serving layer: the study's engines behind JSON endpoints.

The north-star scenario is a study service under heavy traffic, and this
package is that front door — stdlib-only (``http.server`` +
``socketserver`` + ``threading``; zero new dependencies), bounded
everywhere, and self-measuring:

* ``GET /study/table1|table2|fig2|fig3|fig4|report`` — memoized study
  artifacts through :class:`~repro.pipeline.cache.ArtifactCache`, with
  cold bursts coalesced by :class:`SingleFlight` so N identical
  concurrent requests run the pipeline exactly once;
* ``GET /corpus/query|stats|by_year|by_venue`` — the persistent
  :class:`~repro.corpus.store.CorpusStore`, aggregation pushed into SQL;
* ``POST /sweeps`` + ``GET /jobs/<id>`` — an async :class:`JobQueue`
  running Monte-Carlo sweeps through the *same*
  :func:`~repro.continuum.build_sweep_spec` → ``run_sweep`` path as
  ``repro sweep``, so HTTP results are bit-identical to CLI ones and
  land in the same run ledger; a full queue answers 429;
* ``GET /metrics`` — per-endpoint latency histograms (log-spaced
  buckets) and request/error counters from :mod:`repro.telemetry`.

Quickstart
----------
::

    from repro.serve import ServerHandle, build_context

    with ServerHandle(build_context()) as handle:
        print(handle.url)   # http://127.0.0.1:<port>

or ``repro serve --port 8000`` on the CLI.
"""

from __future__ import annotations

from typing import Any

from repro.serve.app import (
    PooledHTTPServer,
    ServeApp,
    ServerHandle,
)
from repro.serve.coalesce import SingleFlight
from repro.serve.handlers import (
    STUDY_ENDPOINTS,
    ServeContext,
    build_router,
    run_sweep_job,
    study_payloads,
)
from repro.serve.jobs import JOB_STATES, Job, JobQueue
from repro.serve.router import Route, RouteMatch, Router

__all__ = [
    "JOB_STATES",
    "Job",
    "JobQueue",
    "PooledHTTPServer",
    "Route",
    "RouteMatch",
    "Router",
    "STUDY_ENDPOINTS",
    "ServeApp",
    "ServeContext",
    "ServerHandle",
    "SingleFlight",
    "build_context",
    "build_router",
    "run_sweep_job",
    "study_payloads",
]


def build_context(
    *,
    cache_dir: Any = None,
    runs_dir: Any = None,
    record: bool = False,
    store_path: Any = None,
    seed: int = 2023,
    job_workers: int = 2,
    queue_size: int = 8,
    telemetry: Any = None,
) -> ServeContext:
    """Wire a ready-to-serve :class:`ServeContext` from path options.

    The same factory backs ``repro serve``, the unit tests, and the load
    bench, so all three serve byte-identical behavior.  *cache_dir* of
    ``None`` keeps the artifact cache memory-only; *record* attaches a
    :class:`~repro.obs.RunRegistry` at *runs_dir* (default ledger
    location when omitted) so sweep jobs append run records;
    *store_path* opens an existing :class:`~repro.corpus.store.CorpusStore`
    behind the ``/corpus/*`` endpoints.
    """
    from repro.pipeline.cache import ArtifactCache
    from repro.telemetry import Telemetry

    tel = telemetry if telemetry is not None else Telemetry()
    registry = None
    if record:
        from repro.obs import RunRegistry, default_runs_dir

        registry = RunRegistry(
            runs_dir if runs_dir is not None else default_runs_dir(),
            logger=tel.log,
        )
    store = None
    if store_path is not None:
        from repro.corpus.store import CorpusStore

        # The worker pool shares this one connection across threads;
        # handlers serialize every call through ctx.store_lock.
        store = CorpusStore(store_path, threadsafe=True)
    ctx = ServeContext(
        cache=ArtifactCache(cache_dir, telemetry=tel),
        telemetry=tel,
        jobs=None,  # type: ignore[arg-type]  # bound just below
        store=store,
        registry=registry,
        seed=seed,
    )
    ctx.jobs = JobQueue(
        lambda job: run_sweep_job(job, ctx),
        workers=job_workers,
        maxsize=queue_size,
        logger=tel.log,
    )
    return ctx
