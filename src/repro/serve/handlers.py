"""Endpoint handlers for the serve subsystem.

Handlers are plain functions ``(ctx, params, query, body) -> (status,
payload)`` — no HTTP types anywhere — so the whole surface is testable
without opening a socket.  :func:`build_router` assembles them into the
route table :mod:`repro.serve.app` dispatches through.

Study endpoints are memoized twice over: the pipeline's own
:class:`~repro.pipeline.cache.ArtifactCache` makes recomputation cheap,
and the rendered JSON payload for each endpoint is itself cached under a
content-addressed key, so a warm request is a single dictionary lookup.
Cold bursts are coalesced by :class:`~repro.serve.coalesce.SingleFlight`
— N identical concurrent requests run the study exactly once
(``serve.study.computations`` counts the runs; the load test asserts on
it).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any

from repro.errors import (
    CorpusError,
    JobQueueFullError,
    MonteCarloError,
    QueryError,
    ReproError,
    UnknownJobError,
)
from repro.pipeline.cache import ArtifactCache, stable_digest
from repro.serve.coalesce import SingleFlight
from repro.serve.jobs import Job, JobQueue
from repro.sweep_params import check_request
from repro.telemetry import Telemetry

__all__ = [
    "ServeContext",
    "build_router",
    "run_sweep_job",
    "study_payloads",
    "STUDY_ENDPOINTS",
]

#: Endpoint name → human description, also the /study route whitelist.
STUDY_ENDPOINTS = {
    "table1": "Table 1: workflow tools by institution and direction",
    "table2": "Table 2: application requirements selection matrix",
    "fig2": "Figure 2 series: tools per direction (supply)",
    "fig3": "Figure 3 series: institutions by covered directions",
    "fig4": "Figure 4 series: selection votes per direction (demand)",
    "report": "The full plain-text study report",
}

_MISS = object()


@dataclass
class ServeContext:
    """Everything a handler needs, bundled for dispatch.

    Attributes
    ----------
    cache:
        Artifact cache shared by study runs, sweep cells, and rendered
        endpoint payloads.
    telemetry:
        Live :class:`~repro.telemetry.Telemetry` (the server always
        measures itself; ``/metrics`` snapshots this registry).
    jobs:
        The sweep :class:`~repro.serve.jobs.JobQueue`.
    flight:
        Cold-request coalescer.
    store:
        Optional :class:`~repro.corpus.store.CorpusStore` behind the
        ``/corpus/*`` endpoints; without one they answer 503.  Must be
        opened ``threadsafe=True`` when the context serves a threaded
        server — handlers serialize access through :attr:`store_lock`
        (one SQLite connection, many worker threads).
    registry:
        Optional run ledger; when set, sweep jobs append ``mc-sweep``
        records exactly like ``repro sweep --record``.
    seed:
        Study seed for the ``/study/*`` endpoints.
    """

    cache: ArtifactCache
    telemetry: Telemetry
    jobs: JobQueue
    flight: SingleFlight = field(default_factory=SingleFlight)
    store: Any = None
    registry: Any = None
    seed: int = 2023
    store_lock: threading.Lock = field(default_factory=threading.Lock)

    def close(self, *, drain: bool = True) -> None:
        """Close the job queue (draining queued jobs when *drain*), then
        the corpus store, if one is attached."""
        self.jobs.close(drain=drain)
        if self.store is not None:
            with self.store_lock:
                self.store.close()


# -- study endpoints --------------------------------------------------------------


def _series(table: Any) -> dict[str, Any]:
    """A JSON-ready view of a :class:`~repro.stats.FrequencyTable`."""
    return {
        "series": [[label, int(count)] for label, count in table.items()],
        "total": int(table.total),
    }


def _table(table: Any) -> dict[str, Any]:
    """A JSON-ready view of a :class:`~repro.tables.TextTable`."""
    return {
        "header": list(table.header),
        "rows": [list(row) for row in table.rows],
        "caption": table.caption,
    }


def study_payloads(results: Any) -> dict[str, Any]:
    """Render every ``/study/*`` payload from one :class:`StudyResults`."""
    from repro.core.taxonomy import workflow_directions
    from repro.reporting import study_report

    return {
        "table1": _table(results.table1),
        "table2": _table(results.table2),
        "fig2": _series(results.q2.distribution),
        "fig3": _series(results.q2.coverage),
        "fig4": _series(results.q3.votes),
        "report": {"text": study_report(results, workflow_directions())},
    }


def _study_key(ctx: ServeContext, endpoint: str) -> str:
    return stable_digest("serve.study", ctx.seed, endpoint)


def study_get(
    ctx: ServeContext,
    params: dict[str, str],
    query: dict[str, list[str]],
    body: Any,
) -> tuple[int, Any]:
    """``GET /study/<endpoint>`` — memoized, coalesced study artifacts."""
    endpoint = params["endpoint"]
    if endpoint not in STUDY_ENDPOINTS:
        return 404, {
            "error": f"unknown study endpoint {endpoint!r}",
            "available": sorted(STUDY_ENDPOINTS),
        }
    key = _study_key(ctx, endpoint)
    payload = ctx.cache.get(key, _MISS)
    if payload is not _MISS:
        return 200, payload

    def compute() -> dict[str, Any]:
        from repro.pipeline.study import run_icsc_pipeline

        # Double-check under the single-flight lock-equivalent: a
        # request that missed the cache just as the previous leader
        # finished must reuse its payloads, not recompute them.
        cached = {
            name: ctx.cache.get(_study_key(ctx, name), _MISS)
            for name in STUDY_ENDPOINTS
        }
        if all(value is not _MISS for value in cached.values()):
            return cached
        ctx.telemetry.metrics.counter("serve.study.computations").inc()
        results, _ = run_icsc_pipeline(seed=ctx.seed, cache=ctx.cache)
        payloads = study_payloads(results)
        for name, data in payloads.items():
            ctx.cache.store(_study_key(ctx, name), data)
        return payloads

    payloads, leader = ctx.flight.do(
        stable_digest("serve.study", ctx.seed), compute
    )
    role = "leaders" if leader else "waiters"
    ctx.telemetry.metrics.counter(f"serve.coalesced_{role}").inc()
    return 200, payloads[endpoint]


# -- corpus endpoints -------------------------------------------------------------


def _need_store(ctx: ServeContext) -> tuple[int, Any] | None:
    if ctx.store is None:
        return 503, {
            "error": "no corpus store configured; "
            "start the server with --store PATH"
        }
    return None


def corpus_query(
    ctx: ServeContext,
    params: dict[str, str],
    query: dict[str, list[str]],
    body: Any,
) -> tuple[int, Any]:
    """``GET /corpus/query?q=...`` — boolean search over the store."""
    unavailable = _need_store(ctx)
    if unavailable is not None:
        return unavailable
    terms = query.get("q", [""])[0]
    if not terms.strip():
        return 400, {"error": "missing query parameter 'q'"}
    try:
        limit = int(query.get("limit", ["50"])[0])
    except ValueError:
        limit = -1
    if limit < 0:
        return 400, {"error": "limit must be an integer >= 0 (0 = all)"}
    try:
        with ctx.store_lock:
            hits = ctx.store.search(terms)
    except QueryError as exc:
        return 400, {"error": str(exc)}
    return 200, {
        "query": terms,
        "count": len(hits),
        "results": [
            {
                "key": pub.key,
                "title": pub.title,
                "year": pub.year,
                "venue": pub.venue,
            }
            for pub in (hits[:limit] if limit else hits)
        ],
    }


def corpus_stats(
    ctx: ServeContext,
    params: dict[str, str],
    query: dict[str, list[str]],
    body: Any,
) -> tuple[int, Any]:
    """``GET /corpus/stats`` — store size snapshot."""
    unavailable = _need_store(ctx)
    if unavailable is not None:
        return unavailable
    with ctx.store_lock:
        stats = dict(ctx.store.stats())
    if stats.get("year_range") is not None:
        stats["year_range"] = list(stats["year_range"])
    return 200, stats


def corpus_series(
    ctx: ServeContext,
    params: dict[str, str],
    query: dict[str, list[str]],
    body: Any,
) -> tuple[int, Any]:
    """``GET /corpus/by_year`` and ``/corpus/by_venue`` — SQL-aggregated
    publications per year or venue."""
    unavailable = _need_store(ctx)
    if unavailable is not None:
        return unavailable
    try:
        with ctx.store_lock:
            return 200, _series(getattr(ctx.store, params["aggregate"])())
    except CorpusError as exc:
        return 409, {"error": str(exc)}


# -- sweep jobs -------------------------------------------------------------------

def run_sweep_job(job: Job, ctx: ServeContext) -> dict[str, Any]:
    """Execute one queued sweep — the :class:`JobQueue` worker function.

    Deliberately the same call chain as ``repro sweep``:
    :func:`~repro.continuum.build_sweep_spec` then
    :func:`~repro.continuum.run_sweep` with the shared cache, telemetry,
    and (when recording) run registry — so an HTTP-submitted sweep is
    bit-identical to, and ledgered exactly like, a CLI one.
    """
    from repro.continuum import build_sweep_spec, run_sweep

    request = dict(job.payload)
    workers = request.pop("workers")
    result = run_sweep(
        build_sweep_spec(**request),
        workers=workers,
        cache=ctx.cache,
        telemetry=ctx.telemetry,
        registry=ctx.registry,
    )
    return result.to_dict()


def sweeps_post(
    ctx: ServeContext,
    params: dict[str, str],
    query: dict[str, list[str]],
    body: Any,
) -> tuple[int, Any]:
    """``POST /sweeps`` — enqueue a sweep job (202), reject bad specs (400).

    A full queue surfaces as 429: the server sheds load it could not
    finish instead of buffering unboundedly.
    """
    from repro.continuum import build_sweep_spec

    request = check_request(body)
    # Validate the whole spec now, while the client is still on the
    # line: a bad grid or adaptive combination must be a 400 here, not
    # a failed job later.  No spec check depends on the fleet size, so
    # a one-workflow fleet keeps this thread's cost bounded by the
    # body's bytes; the job builds the real fleet.
    probe = dict(request, fleet=1)
    del probe["workers"]
    build_sweep_spec(**probe)
    job = ctx.jobs.submit(request)
    return 202, job.to_dict()


def jobs_list(
    ctx: ServeContext,
    params: dict[str, str],
    query: dict[str, list[str]],
    body: Any,
) -> tuple[int, Any]:
    """``GET /jobs`` — every known job, oldest first."""
    return 200, {"jobs": [job.to_dict() for job in ctx.jobs.jobs()]}


def jobs_get(
    ctx: ServeContext,
    params: dict[str, str],
    query: dict[str, list[str]],
    body: Any,
) -> tuple[int, Any]:
    """``GET /jobs/<id>`` — one job's status (404 when unknown)."""
    return 200, ctx.jobs.get(params["job_id"]).to_dict()


def jobs_delete(
    ctx: ServeContext,
    params: dict[str, str],
    query: dict[str, list[str]],
    body: Any,
) -> tuple[int, Any]:
    """``DELETE /jobs/<id>`` — cancel a queued job (409 once running)."""
    job = ctx.jobs.cancel(params["job_id"])
    if job.state != "cancelled":
        return 409, {
            "error": f"job {job.job_id} is {job.state}; "
            "only queued jobs can be cancelled",
            "state": job.state,
        }
    return 200, job.to_dict()


# -- service endpoints ------------------------------------------------------------


def health(
    ctx: ServeContext,
    params: dict[str, str],
    query: dict[str, list[str]],
    body: Any,
) -> tuple[int, Any]:
    """``GET /health`` — liveness plus a feature inventory."""
    return 200, {
        "status": "ok",
        "study_endpoints": sorted(STUDY_ENDPOINTS),
        "corpus": ctx.store is not None,
        "recording": ctx.registry is not None,
        "jobs": len(ctx.jobs.jobs()),
    }


def metrics(
    ctx: ServeContext,
    params: dict[str, str],
    query: dict[str, list[str]],
    body: Any,
) -> tuple[int, Any]:
    """``GET /metrics`` — full snapshot of the server's registry."""
    return 200, ctx.telemetry.metrics.snapshot()


# -- dispatch ---------------------------------------------------------------------


def build_router(ctx: ServeContext):
    """The serve route table, with *ctx* bound into every handler."""
    from repro.serve.router import Router

    def bind(fn):
        def bound(params: dict, query: dict, body: Any) -> tuple[int, Any]:
            return fn(ctx, params, query, body)

        bound.__name__ = fn.__name__
        return bound

    router = Router()
    router.add("GET", r"/health", "health", bind(health))
    router.add("GET", r"/metrics", "metrics", bind(metrics))
    router.add(
        "GET", r"/study/(?P<endpoint>[^/]+)", "study_get", bind(study_get)
    )
    router.add("GET", r"/corpus/query", "corpus_query", bind(corpus_query))
    router.add("GET", r"/corpus/stats", "corpus_stats", bind(corpus_stats))
    for aggregate in ("by_year", "by_venue"):
        router.add("GET", rf"/corpus/(?P<aggregate>{aggregate})",
                   f"corpus_{aggregate}", bind(corpus_series))
    router.add("POST", r"/sweeps", "sweeps_post", bind(sweeps_post))
    router.add("GET", r"/jobs", "jobs_list", bind(jobs_list))
    router.add("GET", r"/jobs/(?P<job_id>[^/]+)", "jobs_get", bind(jobs_get))
    router.add(
        "DELETE",
        r"/jobs/(?P<job_id>[^/]+)",
        "jobs_delete",
        bind(jobs_delete),
    )
    return router


#: Exception class → HTTP status for errors handlers let escape.
ERROR_STATUS: dict[type, int] = {
    UnknownJobError: 404,
    JobQueueFullError: 429,
    MonteCarloError: 400,
    QueryError: 400,
    ReproError: 500,
}


def status_for(exc: BaseException) -> int:
    """The HTTP status an escaped handler exception maps to."""
    for kind, status in ERROR_STATUS.items():
        if isinstance(exc, kind):
            return status
    return 500
