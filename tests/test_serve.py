"""Tests for :mod:`repro.serve`: router, coalescer, job queue, HTTP
endpoints (including every error path), graceful shutdown, and the
concurrency guarantees the worker pool leans on (threaded
:class:`RunRegistry` appends, :class:`ArtifactCache` get/store races)."""

from __future__ import annotations

import json
import os
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import (
    JobQueueFullError,
    ServeError,
    UnknownJobError,
)
from repro.obs import RunRegistry
from repro.pipeline.cache import ArtifactCache, stable_digest
from repro.serve import (
    Job,
    JobQueue,
    Router,
    ServeApp,
    ServeContext,
    ServerHandle,
    SingleFlight,
    build_context,
    run_sweep_job,
)
from repro.telemetry import Telemetry


def wait_until(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


# -- single-flight coalescing -----------------------------------------------------


class TestSingleFlight:
    def test_sequential_calls_each_execute(self):
        flight = SingleFlight()
        calls = []
        for expected in (1, 2):
            result, leader = flight.do("k", lambda: calls.append(0) or 42)
            assert (result, leader) == (42, True)
            assert len(calls) == expected

    def test_concurrent_burst_executes_once(self):
        flight = SingleFlight()
        n = 8
        barrier = threading.Barrier(n)
        release = threading.Event()
        calls = []
        results = []

        def compute():
            calls.append(threading.get_ident())
            release.wait(5.0)
            return "payload"

        def request():
            barrier.wait(5.0)
            results.append(flight.do("key", compute))

        threads = [threading.Thread(target=request) for _ in range(n)]
        for t in threads:
            t.start()

        def all_parked():
            call = flight._calls.get("key")
            return call is not None and call.waiters == n - 1

        # Hold the leader inside compute until every follower has
        # registered on the in-flight call — otherwise a late arrival
        # legitimately starts a fresh burst of its own.
        assert wait_until(all_parked)
        assert len(calls) == 1
        release.set()
        for t in threads:
            t.join(5.0)
        assert len(calls) == 1
        assert [r[0] for r in results] == ["payload"] * n
        assert sum(leader for _, leader in results) == 1
        assert flight.in_flight() == 0

    def test_leader_exception_shared_then_key_released(self):
        flight = SingleFlight()
        started = threading.Event()
        release = threading.Event()
        errors = []

        def boom():
            started.set()
            release.wait(5.0)
            raise ValueError("cold failure")

        def lead():
            try:
                flight.do("key", boom)
            except ValueError as exc:
                errors.append(str(exc))

        def follow():
            started.wait(5.0)  # guarantees the leader holds the key
            try:
                flight.do("key", lambda: "never runs")
            except ValueError as exc:
                errors.append(str(exc))

        leader = threading.Thread(target=lead)
        follower = threading.Thread(target=follow)
        leader.start()
        follower.start()
        started.wait(5.0)
        assert wait_until(lambda: flight.in_flight() == 1)
        release.set()
        leader.join(5.0)
        follower.join(5.0)
        assert errors == ["cold failure", "cold failure"]
        # The failed key was released: a later call retries fresh.
        result, is_leader = flight.do("key", lambda: "recovered")
        assert (result, is_leader) == ("recovered", True)


# -- job queue --------------------------------------------------------------------


class TestJobQueue:
    def test_lifecycle_done(self):
        queue = JobQueue(lambda job: {"echo": job.payload}, workers=1)
        try:
            job = queue.submit({"x": 1})
            assert job.job_id.startswith("job-00001-")
            assert wait_until(lambda: queue.get(job.job_id).state == "done")
            done = queue.get(job.job_id)
            assert done.result == {"echo": {"x": 1}}
            assert done.to_dict()["wall_s"] >= 0
        finally:
            queue.close()

    def test_failure_is_data(self):
        def explode(job):
            raise RuntimeError("sweep blew up")

        queue = JobQueue(explode, workers=1)
        try:
            job = queue.submit({})
            assert wait_until(lambda: queue.get(job.job_id).state == "failed")
            failed = queue.get(job.job_id)
            assert "sweep blew up" in failed.error
            assert "result" not in failed.to_dict()
        finally:
            queue.close()

    def test_unknown_job(self):
        queue = JobQueue(lambda job: None, workers=1)
        try:
            with pytest.raises(UnknownJobError):
                queue.get("job-zzz")
        finally:
            queue.close()

    def test_backpressure_raises_when_full(self):
        release = threading.Event()
        queue = JobQueue(
            lambda job: release.wait(10.0), workers=1, maxsize=2
        )
        try:
            first = queue.submit({"n": 0})  # occupies the worker
            assert wait_until(
                lambda: queue.get(first.job_id).state == "running"
            )
            queue.submit({"n": 1})
            queue.submit({"n": 2})
            with pytest.raises(JobQueueFullError):
                queue.submit({"n": 3})
        finally:
            release.set()
            queue.close()
        # The rejected job left no trace.
        assert len(queue.jobs()) == 3

    def test_cancel_queued_skips_execution(self):
        release = threading.Event()
        ran = []

        def fn(job):
            ran.append(job.payload["n"])
            release.wait(10.0)

        queue = JobQueue(fn, workers=1, maxsize=4)
        try:
            running = queue.submit({"n": 0})
            assert wait_until(
                lambda: queue.get(running.job_id).state == "running"
            )
            queued = queue.submit({"n": 1})
            assert queue.cancel(queued.job_id).state == "cancelled"
            # Cancelling the running job is refused (state unchanged).
            assert queue.cancel(running.job_id).state == "running"
        finally:
            release.set()
            queue.close()
        assert ran == [0]

    def test_close_drains_queued_jobs(self):
        done = []
        queue = JobQueue(
            lambda job: done.append(job.payload["n"]), workers=1, maxsize=8
        )
        jobs = [queue.submit({"n": i}) for i in range(5)]
        queue.close(drain=True)
        assert sorted(done) == [0, 1, 2, 3, 4]
        assert all(queue.get(j.job_id).state == "done" for j in jobs)

    def test_close_without_drain_cancels_queued(self):
        release = threading.Event()
        queue = JobQueue(
            lambda job: release.wait(10.0), workers=1, maxsize=8
        )
        first = queue.submit({"n": 0})
        assert wait_until(lambda: queue.get(first.job_id).state == "running")
        rest = [queue.submit({"n": i}) for i in range(1, 4)]
        release.set()
        queue.close(drain=False)
        assert queue.get(first.job_id).state == "done"
        assert all(queue.get(j.job_id).state == "cancelled" for j in rest)

    def test_submit_after_close(self):
        queue = JobQueue(lambda job: None, workers=1)
        queue.close()
        with pytest.raises(ServeError):
            queue.submit({})

    def test_validation(self):
        with pytest.raises(ServeError):
            JobQueue(lambda job: None, workers=0)
        with pytest.raises(ServeError):
            JobQueue(lambda job: None, maxsize=0)


# -- router -----------------------------------------------------------------------


class TestRouter:
    def test_match_params_and_order(self):
        router = Router()
        router.add("GET", r"/jobs", "list", lambda: (200, []))
        router.add("GET", r"/jobs/(?P<job_id>[^/]+)", "get", lambda: (200, 0))
        assert router.match("GET", "/jobs").route.name == "list"
        match = router.match("get", "/jobs/j-1")
        assert match.route.name == "get"
        assert match.params == {"job_id": "j-1"}
        assert router.match("GET", "/jobs/a/b") is None
        assert [r.name for r in router.routes()] == ["list", "get"]

    def test_method_discrimination(self):
        router = Router()
        router.add("POST", r"/sweeps", "post", lambda: (202, {}))
        assert router.match("GET", "/sweeps") is None
        assert router.allowed_methods("/sweeps") == ("POST",)
        assert router.allowed_methods("/nowhere") == ()


# -- dispatch (no sockets) --------------------------------------------------------


@pytest.fixture
def ctx(tmp_path):
    context = build_context(
        cache_dir=tmp_path / "cache", job_workers=1, queue_size=2
    )
    yield context
    context.jobs.close(drain=False)


@pytest.fixture
def app(ctx):
    return ServeApp(ctx)


def dispatch(app, method, path, body=None):
    payload = None if body is None else json.dumps(body).encode()
    status, raw = app.dispatch(method, path, payload)
    return status, json.loads(raw)


class TestDispatch:
    def test_health(self, app):
        status, payload = dispatch(app, "GET", "/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["corpus"] is False

    def test_unknown_route_404(self, app):
        status, payload = dispatch(app, "GET", "/nope")
        assert status == 404
        assert "no route" in payload["error"]

    def test_wrong_method_405(self, app):
        status, payload = dispatch(app, "DELETE", "/sweeps")
        assert status == 405
        assert payload["allowed"] == ["POST"]

    def test_bad_json_body_400(self, app):
        status, raw = app.dispatch("POST", "/sweeps", b"{not json")
        assert status == 400
        assert "not valid JSON" in json.loads(raw)["error"]

    def test_sweep_body_validation_400(self, app):
        for body in (
            ["not", "a", "dict"],
            {"grid": "flux=9"},
            {"grid": 7},
            {"fleet": 0},
            {"replications": "many"},
            {"warp": 9},
        ):
            status, payload = dispatch(app, "POST", "/sweeps", body)
            assert status == 400, body
            assert "error" in payload

    def test_sweep_workers_bounded_by_cores(self):
        """``workers`` forks that many processes up front, so a client
        may not ask for more than the host has cores.  The queue here
        only records payloads: no sweep, and no fork, ever runs."""
        telemetry = Telemetry()
        recorded = []
        context = ServeContext(
            cache=ArtifactCache(telemetry=telemetry),
            telemetry=telemetry,
            jobs=JobQueue(
                lambda job: recorded.append(job.payload), workers=1, maxsize=8
            ),
        )
        app = ServeApp(context)
        cores = os.cpu_count() or 1
        try:
            for workers in (5000, cores + 1, -1):
                status, payload = dispatch(
                    app, "POST", "/sweeps", {"workers": workers}
                )
                assert status == 400, workers
                assert "workers" in payload["error"]
            assert context.jobs.jobs() == []
            for workers in (0, cores):
                status, _ = dispatch(
                    app, "POST", "/sweeps", {"workers": workers}
                )
                assert status == 202, workers
        finally:
            context.jobs.close(drain=True)
        assert [p["workers"] for p in recorded] == [0, cores]

    def test_bad_grid_values_400(self, app):
        """Non-finite or repeated grid values fail while the client is
        still on the line, never as an accepted job that dies later."""
        for grid in (
            "jitter=nan",
            "jitter=inf",
            "jitter=0,nan",
            "mtbf=50,50",
            "jitter=0.1,0.10",
            "scheduler=heft,heft",
        ):
            status, payload = dispatch(app, "POST", "/sweeps", {"grid": grid})
            assert status == 400, grid
            assert "error" in payload
        assert dispatch(app, "GET", "/jobs")[1]["jobs"] == []

    def test_unknown_study_endpoint_404(self, app):
        status, payload = dispatch(app, "GET", "/study/fig9")
        assert status == 404
        assert "fig2" in payload["available"]

    def test_corpus_without_store_503(self, app):
        for path in (
            "/corpus/stats",
            "/corpus/query?q=workflow",
            "/corpus/by_year",
            "/corpus/by_venue",
        ):
            status, payload = dispatch(app, "GET", path)
            assert status == 503, path
            assert "--store" in payload["error"]

    def test_unknown_job_404(self, app):
        status, payload = dispatch(app, "GET", "/jobs/job-404-cafe")
        assert status == 404
        assert "unknown job" in payload["error"]

    def test_trailing_slash_normalized(self, app):
        status, _ = dispatch(app, "GET", "/health/")
        assert status == 200

    def test_metrics_instrumented(self, app):
        dispatch(app, "GET", "/health")
        status, snapshot = dispatch(app, "GET", "/metrics")
        assert status == 200
        # The snapshot is taken before the in-flight /metrics request is
        # itself observed, so it covers everything *prior* to it.
        assert snapshot["serve.requests"]["value"] == 1
        histogram = snapshot["serve.request_seconds.health"]
        assert histogram["count"] == 1
        assert histogram["max"] > 0
        dispatch(app, "GET", "/nope")
        _, snapshot = dispatch(app, "GET", "/metrics")
        assert snapshot["serve.errors"]["value"] == 1
        assert snapshot["serve.request_seconds.unrouted"]["count"] == 1

    def test_access_log_structured(self, app, ctx):
        dispatch(app, "GET", "/health")
        events = [
            e for e in ctx.telemetry.log.events() if e.event == "serve.access"
        ]
        assert events
        assert events[-1].fields["route"] == "health"
        assert events[-1].fields["status"] == 200


class TestStudyEndpoints:
    def test_payload_shapes(self, app):
        status, table1 = dispatch(app, "GET", "/study/table1")
        assert status == 200
        assert table1["header"]
        assert all(len(r) == len(table1["header"]) for r in table1["rows"])
        for name in ("fig2", "fig3", "fig4"):
            status, series = dispatch(app, "GET", f"/study/{name}")
            assert status == 200
            assert series["total"] == sum(c for _, c in series["series"])
        status, report = dispatch(app, "GET", "/study/report")
        assert status == 200
        assert len(report["text"]) > 200

    def test_warm_requests_hit_payload_cache(self, app, ctx):
        dispatch(app, "GET", "/study/table1")
        computations = ctx.telemetry.metrics.counter(
            "serve.study.computations"
        )
        before = computations.summary()["value"]
        hits_before = ctx.cache.hits
        for _ in range(5):
            assert dispatch(app, "GET", "/study/table1")[0] == 200
        assert computations.summary()["value"] == before
        assert ctx.cache.hits >= hits_before + 5

    def test_cold_burst_coalesces_to_one_computation(self, app, ctx):
        n = 8
        barrier = threading.Barrier(n)
        statuses = []

        def request():
            barrier.wait(10.0)
            statuses.append(dispatch(app, "GET", "/study/table2")[0])

        threads = [threading.Thread(target=request) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert statuses == [200] * n
        snapshot = ctx.telemetry.metrics.snapshot()
        assert snapshot["serve.study.computations"]["value"] == 1
        # The rendered payload was stored exactly once per endpoint.
        key = stable_digest("serve.study", ctx.seed, "table2")
        assert ctx.cache.get(key) is not None

    def test_miss_after_finished_flight_reuses_payloads(
        self, app, ctx, monkeypatch
    ):
        # Force the interleaving a burst only sometimes produces: the
        # late request misses the cache, then reaches the single flight
        # only after the leader's flight has stored and ended.
        missed, leader_done = threading.Event(), threading.Event()
        get = ctx.cache.get
        results = []
        late = threading.Thread(target=lambda: results.append(
            dispatch(app, "GET", "/study/table1")
        ))

        def gated_get(key, default=None):
            value = get(key, default)
            if threading.current_thread() is late and not missed.is_set():
                missed.set()
                leader_done.wait(30.0)
            return value

        monkeypatch.setattr(ctx.cache, "get", gated_get)
        late.start()
        assert missed.wait(30.0)
        status, payload = dispatch(app, "GET", "/study/table1")
        leader_done.set()
        late.join(30.0)
        assert not late.is_alive()
        assert status == 200
        assert results == [(200, payload)]
        snapshot = ctx.telemetry.metrics.snapshot()
        assert snapshot["serve.study.computations"]["value"] == 1


# -- the real HTTP server ---------------------------------------------------------


def get_json(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.loads(response.read())


def post_json(url, body, method="POST"):
    request = urllib.request.Request(
        url, data=json.dumps(body).encode(), method=method
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


class TestServerHandle:
    def test_health_over_http(self, ctx):
        with ServerHandle(ctx, workers=2) as handle:
            assert handle.url.startswith("http://127.0.0.1:")
            status, payload = get_json(handle.url + "/health")
            assert (status, payload["status"]) == (200, "ok")

    def test_http_error_statuses(self, ctx):
        with ServerHandle(ctx, workers=2) as handle:
            with pytest.raises(urllib.error.HTTPError) as err:
                get_json(handle.url + "/jobs/job-00000-missing")
            assert err.value.code == 404
            request = urllib.request.Request(
                handle.url + "/sweeps", data=b"nope", method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request, timeout=10)
            assert err.value.code == 400

    def test_close_is_idempotent(self, ctx):
        handle = ServerHandle(ctx, workers=2)
        handle.close()
        handle.close()

    def test_close_closes_the_store(self, tmp_path):
        from repro.corpus.store import CorpusStore
        from repro.errors import CorpusStoreError

        store_path = tmp_path / "corpus.db"
        CorpusStore(store_path).close()
        context = build_context(
            store_path=store_path, job_workers=1, queue_size=2
        )
        with ServerHandle(context, workers=2) as handle:
            assert get_json(handle.url + "/corpus/stats")[0] == 200
        with pytest.raises(CorpusStoreError):
            context.store.db

    def test_idle_keepalive_clients_do_not_starve_the_pool(
        self, ctx, monkeypatch
    ):
        """More idle open sockets than workers: each worker closes its
        idle connection after the idle timeout, so /health still gets
        served.  The timeout is patched down to keep the test fast."""
        from repro.serve import app as app_module

        assert app_module._Handler.timeout == app_module._IDLE_TIMEOUT_S > 0
        monkeypatch.setattr(app_module._Handler, "timeout", 0.3)
        workers = 2
        with ServerHandle(ctx, workers=workers) as handle:
            idle = [
                socket.create_connection((handle.host, handle.port))
                for _ in range(workers + 1)
            ]
            try:
                with urllib.request.urlopen(
                    handle.url + "/health", timeout=5
                ) as response:
                    assert response.status == 200
            finally:
                for sock in idle:
                    sock.close()

    def test_corpus_endpoints_from_worker_threads(self, tmp_path):
        """The store is opened on the main thread but served from pool
        worker threads — the exact cross-thread SQLite path a
        same-thread dispatch() test never exercises."""
        from repro.corpus.store import CorpusStore
        from repro.data.bibliography import paper_bibliography

        store_path = tmp_path / "corpus.db"
        with CorpusStore(store_path) as store:
            store.extend(list(paper_bibliography()))
        context = build_context(
            store_path=store_path, job_workers=1, queue_size=2
        )
        try:
            with ServerHandle(context, workers=4) as handle:
                results = []

                def client() -> None:
                    for path in (
                        "/corpus/stats",
                        "/corpus/by_year",
                        "/corpus/by_venue",
                        "/corpus/query?q=workflow&limit=3",
                    ):
                        results.append(get_json(handle.url + path))

                threads = [
                    threading.Thread(target=client) for _ in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(30.0)
            assert len(results) == 16
            assert all(status == 200 for status, _ in results)
            stats = next(
                payload for _, payload in results if "records" in payload
            )
            assert stats["records"] > 0
        finally:
            context.jobs.close(drain=False)
            context.store.close()

    def test_graceful_close_drains_jobs(self, tmp_path):
        telemetry = Telemetry()
        done = []
        context = ServeContext(
            cache=ArtifactCache(telemetry=telemetry),
            telemetry=telemetry,
            jobs=JobQueue(
                lambda job: done.append(job.payload["n"]) or time.sleep(0.05),
                workers=1,
                maxsize=8,
            ),
        )
        with ServerHandle(context, workers=2) as handle:
            assert get_json(handle.url + "/health")[0] == 200
            jobs = [context.jobs.submit({"n": i}) for i in range(4)]
        # Leaving the with-block is the graceful shutdown: every
        # submitted job ran to completion before close() returned.
        assert sorted(done) == [0, 1, 2, 3]
        assert all(
            context.jobs.get(j.job_id).state == "done" for j in jobs
        )


class TestSweepJobs:
    def test_http_sweep_bit_identical_to_cli_path_and_ledgered(
        self, tmp_path
    ):
        from repro.continuum import build_sweep_spec, run_sweep

        spec_kwargs = dict(
            grid="scheduler=heft,round_robin",
            fleet=2,
            replications=5,
            seed=7,
        )
        direct = run_sweep(build_sweep_spec(**spec_kwargs)).to_dict()

        context = build_context(
            cache_dir=tmp_path / "cache",
            runs_dir=tmp_path / "runs",
            record=True,
            job_workers=1,
            queue_size=4,
        )
        with ServerHandle(context, workers=2) as handle:
            status, job = post_json(
                handle.url + "/sweeps", dict(spec_kwargs, workers=0)
            )
            assert status == 202
            assert job["state"] == "queued"
            assert wait_until(
                lambda: get_json(handle.url + "/jobs/" + job["job"])[1][
                    "state"
                ]
                in ("done", "failed"),
                timeout=120.0,
                interval=0.1,
            )
            _, finished = get_json(handle.url + "/jobs/" + job["job"])
            assert finished["state"] == "done"
            # Bit-identical to the direct (CLI-path) sweep.
            assert finished["result"] == direct
            _, listing = get_json(handle.url + "/jobs")
            assert [j["job"] for j in listing["jobs"]] == [job["job"]]
        # ... and the job landed in the run ledger like `repro sweep
        # --record` would: same kind, same artifact digest.
        records = RunRegistry(tmp_path / "runs").runs()
        assert [r.kind for r in records] == ["mc-sweep"]
        from repro.obs import build_sweep_record

        expected = build_sweep_record(
            run_sweep(build_sweep_spec(**spec_kwargs))
        )
        assert (
            records[0].artifacts["cells"].sha256
            == expected.artifacts["cells"].sha256
        )

    def test_queue_full_gives_429_and_cancel_roundtrip(self, tmp_path):
        telemetry = Telemetry()
        release = threading.Event()
        context = ServeContext(
            cache=ArtifactCache(telemetry=telemetry),
            telemetry=telemetry,
            jobs=JobQueue(
                lambda job: release.wait(20.0), workers=1, maxsize=1
            ),
        )
        try:
            with ServerHandle(context, workers=2) as handle:
                _, running = post_json(handle.url + "/sweeps", {})
                assert wait_until(
                    lambda: context.jobs.get(running["job"]).state
                    == "running"
                )
                _, queued = post_json(handle.url + "/sweeps", {})
                with pytest.raises(urllib.error.HTTPError) as err:
                    post_json(handle.url + "/sweeps", {})
                assert err.value.code == 429
                # Cancel the queued job; cancelling again conflicts.
                status, cancelled = post_json(
                    handle.url + "/jobs/" + queued["job"], {}, "DELETE"
                )
                assert (status, cancelled["state"]) == (200, "cancelled")
                with pytest.raises(urllib.error.HTTPError) as err:
                    post_json(
                        handle.url + "/jobs/" + running["job"], {}, "DELETE"
                    )
                assert err.value.code == 409
                release.set()
        finally:
            release.set()


# -- concurrency guarantees under the worker pool ---------------------------------


class TestConcurrentRunRegistry:
    def test_threaded_appends_all_land(self, tmp_path):
        from tests.test_obs import make_record

        registry = RunRegistry(tmp_path)
        n_threads, per_thread = 8, 6
        barrier = threading.Barrier(n_threads)

        def append(worker):
            barrier.wait(10.0)
            for i in range(per_thread):
                registry.record(make_record(f"run-{worker:02d}-{i:02d}"))

        threads = [
            threading.Thread(target=append, args=(w,))
            for w in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        runs = registry.runs()
        assert len(runs) == n_threads * per_thread
        # Every line parsed — interleaved appends never tore a record.
        assert sorted({r.run_id for r in runs}) == sorted(
            f"run-{w:02d}-{i:02d}"
            for w in range(n_threads)
            for i in range(per_thread)
        )

    def test_threaded_appends_with_concurrent_reads(self, tmp_path):
        from tests.test_obs import make_record

        registry = RunRegistry(tmp_path)
        stop = threading.Event()
        seen = []

        def reader():
            while not stop.is_set():
                seen.append(len(registry.runs()))

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for i in range(30):
                registry.record(make_record(f"run-{i:03d}"))
        finally:
            stop.set()
            thread.join(10.0)
        # Reads observed a monotonically growing, never-corrupt ledger.
        assert seen == sorted(seen)
        assert len(registry.runs()) == 30


class TestConcurrentArtifactCache:
    def test_get_store_races_disk_backed(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        n_threads = 8
        rounds = 25
        barrier = threading.Barrier(n_threads)
        mismatches = []

        def hammer(worker):
            barrier.wait(10.0)
            for i in range(rounds):
                key = stable_digest("contended", i % 5)
                cache.store(key, {"round": i % 5})
                value = cache.get(key)
                if value is not None and value != {"round": i % 5}:
                    mismatches.append((worker, i, value))
                private = stable_digest("private", worker, i)
                cache.store(private, worker * 1000 + i)
                if cache.get(private) != worker * 1000 + i:
                    mismatches.append((worker, i, "private"))

        threads = [
            threading.Thread(target=hammer, args=(w,))
            for w in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
        assert mismatches == []
        # Disk artifacts survived the races and reload cleanly.
        reloaded = ArtifactCache(tmp_path / "cache")
        for i in range(5):
            assert reloaded.get(stable_digest("contended", i)) == {
                "round": i
            }

    def test_singleflight_with_cache_single_store(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        flight = SingleFlight()
        key = stable_digest("expensive")
        n = 6
        barrier = threading.Barrier(n)

        def compute():
            # Re-check inside the flight, as the study handler does: a
            # request that missed the cache after the previous flight
            # ended leads a new flight and must reuse the stored value.
            cached = cache.get(key)
            if cached is not None:
                return cached
            value = {"expensive": True}
            cache.store(key, value)
            return value

        def request():
            barrier.wait(10.0)
            cached = cache.get(key)
            if cached is None:
                flight.do(key, compute)

        threads = [threading.Thread(target=request) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10.0)
        assert cache.stores == 1
        assert cache.get(key) == {"expensive": True}


# -- context factory --------------------------------------------------------------


class TestBuildContext:
    def test_wires_store_and_registry(self, tmp_path):
        from repro.corpus.store import CorpusStore
        from repro.data.bibliography import paper_bibliography

        store_path = tmp_path / "corpus.db"
        with CorpusStore(store_path) as store:
            store.extend(list(paper_bibliography()))
        context = build_context(
            store_path=store_path,
            runs_dir=tmp_path / "runs",
            record=True,
            job_workers=1,
        )
        try:
            app = ServeApp(context)
            status, stats = dispatch(app, "GET", "/corpus/stats")
            assert status == 200
            assert stats["records"] > 0
            status, by_year = dispatch(app, "GET", "/corpus/by_year")
            assert status == 200
            assert by_year["total"] == stats["records"]
            status, hits = dispatch(
                app, "GET", "/corpus/query?q=workflow&limit=3"
            )
            assert status == 200
            assert hits["count"] >= len(hits["results"])
            assert len(hits["results"]) <= 3
            status, _ = dispatch(app, "GET", "/corpus/query")
            assert status == 400
            status, payload = dispatch(
                app, "GET", "/corpus/query?q=((broken"
            )
            assert status == 400
        finally:
            context.jobs.close(drain=False)
            context.store.close()

    def test_run_sweep_job_roundtrip(self, tmp_path):
        context = build_context(job_workers=1)
        try:
            result = run_sweep_job(
                Job(
                    job_id="job-test",
                    payload={
                        "grid": "scheduler=heft",
                        "fleet": 1,
                        "replications": 3,
                        "seed": 0,
                        "workers": 0,
                    },
                ),
                context,
            )
            assert result["n_replications_run"] == 3
        finally:
            context.jobs.close(drain=False)


class TestAdaptiveSweepEndpoint:
    """POST /sweeps with the sequential-stopping knobs (target_ci /
    max_replications): invalid combos are client errors (400), valid
    ones run the adaptive engine and report the savings."""

    def test_invalid_adaptive_combos_400(self, app):
        for body in (
            {"max_replications": 50},            # needs target_ci
            {"target_ci": 0.0},                  # must be > 0
            {"target_ci": -0.1},
            {"target_ci": "tight"},              # wrong type
            {"target_ci": True},                 # bool is not a float
            {"target_ci": 0.05, "max_replications": 0},
            {"target_ci": 0.05, "max_replications": 1.5},
            {"target_ci": 0.05, "primary_metric": "vibes"},
        ):
            status, payload = dispatch(app, "POST", "/sweeps", body)
            assert status == 400, body
            assert "error" in payload

    def test_adaptive_job_runs_and_reports_savings(self, app):
        from repro.continuum import build_sweep_spec, run_sweep

        # The default round size is 64, so a loose target lets every
        # cell stop after its first round while the cap stays at 200.
        body = {
            "grid": "scheduler=heft,round_robin",
            "fleet": 2,
            "replications": 200,
            "seed": 7,
            "target_ci": 0.1,
            "max_replications": 200,
            "workers": 0,
        }
        status, job = dispatch(app, "POST", "/sweeps", body)
        assert status == 202
        assert wait_until(
            lambda: dispatch(app, "GET", "/jobs/" + job["job"])[1]["state"]
            in ("done", "failed"),
            timeout=120.0,
            interval=0.1,
        )
        _, finished = dispatch(app, "GET", "/jobs/" + job["job"])
        assert finished["state"] == "done"
        direct = run_sweep(
            build_sweep_spec(
                grid=body["grid"], fleet=2, replications=200,
                seed=7, target_ci=0.1, max_replications=200,
            )
        ).to_dict()
        assert finished["result"] == direct
        result = finished["result"]
        assert result["n_replications_budget"] == 200 * len(result["cells"])
        assert result["n_replications_run"] < result["n_replications_budget"]
