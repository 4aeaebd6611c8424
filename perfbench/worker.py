"""Run one benchmark workload in a fresh interpreter.

``run.py`` starts this script once per measurement; it is not meant to
be called by hand, but can be::

    PYTHONPATH=src python3 perfbench/worker.py --workload corpus \\
        --seed 1 --mode run --trace 0 --work .perfbench/w --out r.json

``--mode setup`` stops after set-up, so ``run.py`` can time set-up in
several fresh interpreters and report the median.  ``--mode run`` goes
on to the timed work and the output checks.  The result is one JSON
file (see :class:`Result`).

Set-up time starts before ``import repro``: on the in-process workloads
it is the interpreter's CPU time from its start, on serve the wall time
from the first line below (serve's set-up waits on the server).
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

import inputs  # noqa: E402
from spans import NoSpans, Spans  # noqa: E402

#: Latency a failed operation is counted at, at least: a failure misses
#: any latency limit the workload could be held to.
FAILED_LATENCY_S = 1.0
#: The study seed the server and the oracle both use.
STUDY_SEED = 2023
#: 95 % normal quantile of the adaptive stop rule.
Z95 = 1.959963984540054
#: Seconds the timed thread stays on one core (see CoreRotation).
ROTATE_S = 0.02


def now() -> float:
    return time.perf_counter()


def cpu() -> float:
    """CPU seconds the calling thread has run, since it started."""
    return time.thread_time()


def quantile(values, q: float) -> float:
    """Inclusive-method quantile (q in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Result:
    """What one worker run reports back to ``run.py``.

    ``setup`` holds set-up measurements (``run.py`` takes the median of
    each over all fresh interpreters); ``metrics`` the end-to-end values of
    the timed work; ``named`` the same figures under the names the
    workload's documentation uses, with units; ``layers`` the per-layer
    figures of a traced run.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.setup: dict[str, float] = {}
        self.metrics: dict[str, float] = {}
        self.named: dict[str, list] = {}
        self.layers: dict[str, float] = {}
        self.checks: dict[str, bool] = {}
        self.attempted = 0
        self.failed = 0
        self.work_s = 0.0
        self.import_s = 0.0

    def name(self, key: str, value: float, unit: str) -> None:
        self.named[key] = [value, unit]

    def check(self, key: str, ok: bool) -> None:
        """Record a check; a check made several times must always pass."""
        self.checks[key] = self.checks.get(key, True) and bool(ok)

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "setup": self.setup,
            "metrics": self.metrics,
            "named": self.named,
            "layers": self.layers,
            "checks": self.checks,
            "attempted": self.attempted,
            "failed": self.failed,
            "work_s": self.work_s,
            "import_s": self.import_s,
            "environment": environment(),
        }


def environment() -> dict:
    import sqlite3

    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "sqlite": sqlite3.sqlite_version,
        "nproc": os.cpu_count(),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set of another process, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def per_pass(values: list[float]) -> float:
    """A figure measured once per pass: its median over the passes, so a
    burst of load on the machine during one pass does not move it."""
    return statistics.median(values)


def percentile_ms(passes: list[list[float]], q: float) -> float:
    """The q-quantile of each pass's latencies, in ms, then its median
    over the passes."""
    return per_pass([quantile(lat, q) for lat in passes]) * 1e3


class CoreRotation:
    """Move threads round the cores they may use, one core every
    ``ROTATE_S``, until the block ends.

    On the shared 2-core machine the benchmark was built on, the two
    cores ran the same code at speeds up to a third apart, and a
    single-threaded process stays on the core it was started on, so runs
    of identical code fell into a fast and a slow group.  Rotating gives
    every run the same share of each core.

    With no *pids* the calling thread moves; with *pids*, every thread of
    those processes (the rotating thread excepted) moves, all to the same
    core.  On exit the threads may run on every core again, so nothing
    started after the block is pinned.
    """

    def __init__(self, pids: tuple[int, ...] = ()) -> None:
        self.cores = sorted(os.sched_getaffinity(0))
        self.pids = pids
        self.tid = threading.get_native_id()
        self.done = threading.Event()
        self.thread = threading.Thread(target=self._rotate, daemon=True)

    def threads(self) -> list[int]:
        if not self.pids:
            return [self.tid]
        return [int(tid) for pid in self.pids
                for tid in os.listdir(f"/proc/{pid}/task")
                if int(tid) != self.thread.native_id]

    def pin(self, cores) -> None:
        for tid in self.threads():
            try:
                os.sched_setaffinity(tid, cores)
            except ProcessLookupError:   # the thread has ended
                pass

    def _rotate(self) -> None:
        turn = 0
        while not self.done.wait(ROTATE_S):
            turn += 1
            self.pin({self.cores[turn % len(self.cores)]})

    def __enter__(self) -> "CoreRotation":
        if len(self.cores) > 1:
            self.pin({self.cores[0]})
            self.thread.start()
        return self

    def __exit__(self, *exc) -> None:
        if self.thread.is_alive():
            self.done.set()
            self.thread.join()
        self.pin(self.cores)


def fresh_path(path: Path) -> Path:
    for suffix in ("", "-wal", "-shm"):
        Path(str(path) + suffix).unlink(missing_ok=True)
    return path


class Ops:
    """Counts attempted and failed operations and times them on *clock*
    (wall time by default)."""

    def __init__(self, result: Result, clock=now) -> None:
        self.result = result
        self.clock = clock

    def call(self, latencies: list | None, fn, *args, **kwargs):
        self.result.attempted += 1
        start = self.clock()
        try:
            value = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation, counted here
            print(f"operation failed: {exc!r}", file=sys.stderr)
            self.result.failed += 1
            elapsed = self.clock() - start
            if latencies is not None:
                latencies.append(max(elapsed, FAILED_LATENCY_S))
            return None, elapsed
        elapsed = self.clock() - start
        if latencies is not None:
            latencies.append(elapsed)
        return value, elapsed


# -- corpus ---------------------------------------------------------------------


def run_corpus(args, result: Result, spans) -> None:
    """Bulk ingest, then a mixed read/write stream, then dedup."""
    from repro.corpus.bibtex import iter_publications_from_bibtex
    from repro.corpus.query import Query
    from repro.corpus.store import CorpusStore

    data = inputs.CorpusInputs(inputs.CORPUS_RECORDS, args.seed)
    n_bulk = int(len(data.entries) * inputs.BULK_FRACTION)
    step = inputs.INGEST_CHUNK
    chunks = [data.bibtex(i, min(i + step, n_bulk)) for i in range(0, n_bulk, step)]
    tail = data.entries[n_bulk:]
    queries = data.queries(inputs.QUERIES)
    n_batches = inputs.QUERIES // inputs.INGEST_EVERY
    size = math.ceil(len(tail) / n_batches)
    batches = ["\n\n".join(tail[i:i + size]) for i in range(0, len(tail), size)]
    paths = [fresh_path(args.work / f"corpus-{r}.sqlite3")
             for r in range(inputs.REPEATS)]
    result.setup["setup_s"] = cpu()
    if args.mode == "setup":
        return

    # The pipeline runs REPEATS times, each on a fresh store with the
    # same records: bulk ingest (in chunks), one pass of the query stream
    # (with the whole tail ingested in its batches), dedup.  A phase
    # reports its median CPU time over the passes, and the latency
    # percentiles (CPU time per query) their median over the passes.
    ops = Ops(result, clock=cpu)
    ingest_times, stream_times, dedup_times = [], [], []
    latencies: list[list[float]] = []
    summaries = []
    total_hits = 0
    result.work_s = 0.0
    for rep, path in enumerate(paths):
        latencies.append([])
        store = CorpusStore(path)
        start, ingest_cpu = now(), cpu()
        for chunk in chunks:
            with spans.span("corpus.ingest_bulk"):
                ops.call(None, store.ingest_bibtex, chunk)
        stream_cpu = cpu()
        ingest_times.append(stream_cpu - ingest_cpu)

        todo = list(batches)
        for i, query in enumerate(queries, 1):
            with spans.span("corpus.search", op=i):
                hits, _ = ops.call(latencies[-1], store.search, query)
            if rep == 0:
                total_hits += len(hits or ())
            if i % inputs.AGG_EVERY == 0:
                name = "by_year" if (i // inputs.AGG_EVERY) % 2 else "by_venue"
                with spans.span("corpus." + name, op=i):
                    ops.call(None, getattr(store, name))
            if i % inputs.INGEST_EVERY == 0 and todo:
                with spans.span("corpus.ingest_batch", op=i):
                    ops.call(None, store.ingest_bibtex, todo.pop(0))
        stream_times.append(cpu() - stream_cpu)
        result.work_s += now() - start

        if rep == 0:
            # Oracle, outside the timed phases: a sample of queries
            # against a linear Query.filter scan of the same records.
            records = list(store)
            sample = queries[:: max(1, len(queries) // 70)]
            result.check("query hits equal a Query.filter scan", all(
                [p.key for p in store.search(q)]
                == [p.key for p in Query(q).filter(records)]
                for q in sample))
            result.check("every record ingested",
                         len(records) == len(data.entries))
            del records

        start = now()
        with spans.span("corpus.dedup"):
            summary, elapsed = ops.call(None, store.deduplicate)
        dedup_times.append(elapsed)
        result.work_s += now() - start
        summaries.append(summary)
        result.check("dedup drops exactly the planted duplicates",
                     summary is not None
                     and summary.dropped == data.n_duplicates)
        result.check("dedup keeps every original key",
                     set(store.keys) == data.original_keys)
        store.close()
    rss = peak_rss_mb()

    ingest_s = per_pass(ingest_times)
    result.metrics.update(
        rss_mb=rss,
        rate_per_s=n_bulk / ingest_s,
        p50_ms=percentile_ms(latencies, 0.5),
        p99_ms=percentile_ms(latencies, 0.99),
        phase1_s=ingest_s,
        phase2_s=per_pass(stream_times),
        phase3_s=per_pass(dedup_times),
    )
    result.name("ingest_rps", n_bulk / ingest_s, "records/s")
    result.name("query_p50_ms", result.metrics["p50_ms"], "ms")
    result.name("query_p99_ms", result.metrics["p99_ms"], "ms")
    result.name("dedup_s", result.metrics["phase3_s"], "s")
    result.name("queries", sum(map(len, latencies)), "count")
    result.name("cpu_share", sum(ingest_times + stream_times + dedup_times)
                / result.work_s, "ratio")

    if spans.enabled:
        summary = summaries[0]
        pairs = summary.pairs_scored if summary else 0
        result.layers.update({
            "corpus.search_s": per_pass([sum(lat) for lat in latencies]),
            "corpus.hits": total_hits,
            "corpus.dedup_pairs_scored": pairs,
            "corpus.dedup_yield": (summary.dropped / pairs) if pairs else 0.0,
        })
        # Parse and insert apart, on a second store: ingest_bibtex
        # interleaves them, so the timed run cannot split them.
        with spans.span("corpus.parse"):
            start = now()
            parsed = list(iter_publications_from_bibtex(
                data.bibtex(0, n_bulk)))
            result.layers["corpus.parse_s"] = now() - start
        with CorpusStore(fresh_path(args.work / "insert.sqlite3")) as scratch:
            with spans.span("corpus.insert"):
                start = now()
                scratch.extend(parsed)
                result.layers["corpus.insert_s"] = now() - start


# -- sweep ----------------------------------------------------------------------


def stat_tasks(seed: int):
    from repro.stats.fanout import StatTask

    data = inputs.stat_task_data(seed)
    tasks = [
        StatTask(name=f"share:{k}", kind="bootstrap_share",
                 counts=tuple(data["counts"]), label_index=k)
        for k in range(len(data["counts"]))
    ]
    tasks += [StatTask(name=f"tvd:{i}", kind="permutation_tvd",
                       a=tuple(a), b=tuple(b))
              for i, (a, b) in enumerate(data["tvd"])]
    tasks += [StatTask(name=f"mean:{i}", kind="permutation_mean",
                       a=tuple(a), b=tuple(b))
              for i, (a, b) in enumerate(data["means"])]
    return tuple(tasks)


def run_sweep_workload(args, result: Result, spans) -> None:
    """Plan a 10k-task fleet, then an adaptive Monte-Carlo sweep, an
    adaptive stat sweep, and a stream of single replays — serially."""
    import numpy as np

    from repro.continuum import (
        CellAggregate,
        HeftScheduler,
        QuantileSketch,
        SimulationContext,
        SweepSpec,
        compile_problem,
        default_continuum,
        random_workflow,
        replicate_once,
        run_sweep,
        simulate_schedule,
        simulate_with_failures,
    )
    from repro.data import synthetic_workflows
    from repro.stats.fanout import StatSpec, run_stat_sweep

    seed = args.seed
    plan_wf = random_workflow(inputs.PLAN_TASKS, seed=seed,
                              edge_probability=inputs.PLAN_EDGE_PROBABILITY)
    plan_cont = default_continuum(**inputs.PLAN_CONTINUUM, seed=seed)
    fleet = synthetic_workflows(
        inputs.MC_FLEET, seed=inputs.MC_FLEET_SEED,
        size_range=(inputs.MC_WORKFLOW_TASKS, inputs.MC_WORKFLOW_TASKS))
    mc_cont = default_continuum(seed=inputs.MC_FLEET_SEED)
    mc_spec = SweepSpec(
        workflows=tuple(fleet), continuum=mc_cont, **inputs.MC_GRID,
        replications=inputs.MC_CAP, seed=seed,
        target_ci=inputs.MC_TARGET_CI, max_replications=inputs.MC_CAP)
    stat_spec = StatSpec(
        tasks=stat_tasks(seed), seed=seed, draws=inputs.STAT_MAX_DRAWS,
        round_size=1_000, target_se=inputs.STAT_TARGET_SE,
        max_draws=inputs.STAT_MAX_DRAWS)
    contexts = [SimulationContext(HeftScheduler().schedule(w, mc_cont))
                for w in fleet]
    conditions = [(m, p) for m in inputs.MC_GRID["mtbfs"]
                  for p in inputs.MC_GRID["policies"]]
    result.setup["setup_s"] = cpu()
    if args.mode == "setup":
        return

    ops = Ops(result, clock=cpu)
    work_start, work_cpu = now(), cpu()
    steps: dict[str, list[float]] = {}

    def step(name, fn, *fn_args, **fn_kwargs):
        with spans.span("continuum." + name):
            value, elapsed = ops.call(None, fn, *fn_args, **fn_kwargs)
        steps.setdefault(name, []).append(elapsed)
        return value

    mc_times, stat_times = [], []
    replay_latencies: list[list[float]] = []
    sweeps, stat_runs, outcomes = [], [], []
    for _ in range(inputs.REPEATS):
        with spans.span("plan"):
            problem = step("compile", compile_problem, plan_wf, plan_cont)
            schedule = step("heft", HeftScheduler().schedule, plan_wf,
                            plan_cont, problem=problem)
            step("validate", schedule.validate, problem=problem)
            step("simulate", simulate_schedule, schedule,
                 jitter=inputs.PLAN_JITTER, seed=seed, problem=problem)
            step("failures", simulate_with_failures, schedule,
                 mtbf=inputs.PLAN_MTBF, repair_time=1.0, seed=seed)
        with spans.span("mc.sweep"):
            sweep, elapsed = ops.call(None, run_sweep, mc_spec, workers=0)
        mc_times.append(elapsed)
        sweeps.append(sweep)
        with spans.span("stat.sweep"):
            stat_run, elapsed = ops.call(None, run_stat_sweep, stat_spec)
        stat_times.append(elapsed)
        stat_runs.append(stat_run)
        replay_latencies.append([])
        for i in range(inputs.REPLAYS):
            mtbf, policy = conditions[i % len(conditions)]
            rng = np.random.default_rng([seed, i])
            with spans.span("mc.replay", op=i + 1):
                outcome, _ = ops.call(
                    replay_latencies[-1], replicate_once,
                    contexts[i % len(contexts)],
                    mtbf=mtbf, repair_time=1.0, policy=policy, jitter=0.1,
                    rng=rng)
            outcomes.append(outcome)
    result.work_s = now() - work_start
    work_cpu = cpu() - work_cpu
    rss = peak_rss_mb()

    # Oracles.
    try:
        schedule.validate()
        valid = len(schedule.placements) == inputs.PLAN_TASKS
    except Exception as exc:  # reported as a failed check
        print(f"plan check failed: {exc!r}", file=sys.stderr)
        valid = False
    result.check("plan places every task and validates", valid)
    cap, target = inputs.MC_CAP, inputs.MC_TARGET_CI
    cells = sweeps[0].cells if sweeps[0] else ()
    result.check("every early-stopped cell meets its CI target", all(
        cell.replications >= cap
        or Z95 * cell.metrics["makespan"].std / math.sqrt(cell.replications)
        <= target * abs(cell.metrics["makespan"].mean) * (1 + 1e-12)
        for cell in cells)
        and len(cells) == len(mc_spec.cells()))
    stat_cells = stat_runs[0].cells if stat_runs[0] else ()
    result.check("every stat task meets its SE target or cap", all(
        cell.se <= inputs.STAT_TARGET_SE or cell.draws >= inputs.STAT_MAX_DRAWS
        for cell in stat_cells) and len(stat_cells) == len(stat_spec.tasks))

    def identical(runs) -> bool:
        return all(run is not None and run.to_dict() == runs[0].to_dict()
                   for run in runs)

    result.check("repeated sweeps give identical results",
                 identical(sweeps) and identical(stat_runs))
    result.check("every replay returned", all(o is not None for o in outcomes))

    plan_s = per_pass([sum(times) for times in zip(*steps.values())])
    mc_s, stat_s = per_pass(mc_times), per_pass(stat_times)
    result.metrics.update(
        rss_mb=rss,
        rate_per_s=per_pass([len(lat) / sum(lat) for lat in replay_latencies]),
        p50_ms=percentile_ms(replay_latencies, 0.5),
        p99_ms=percentile_ms(replay_latencies, 0.99),
        phase1_s=plan_s, phase2_s=mc_s, phase3_s=stat_s,
    )
    replications = sweeps[0].n_replications_run
    draws = stat_runs[0].n_replications_run
    result.name("plan_s", plan_s, "s")
    result.name("mc_s", mc_s, "s")
    result.name("stat_s", stat_s, "s")
    result.name("replay_p50_ms", result.metrics["p50_ms"], "ms")
    result.name("mc_cells", len(cells), "count")
    result.name("mc_replications", replications, "count")
    result.name("stat_draws", draws, "count")
    result.name("cpu_share", work_cpu / result.work_s, "ratio")

    if spans.enabled:
        for name, times in steps.items():
            result.layers[f"continuum.{name}_s"] = per_pass(times)
        result.layers.update({
            "mc.replications": replications,
            "mc.replications_saved": sweeps[0].n_replications_saved,
            "mc.replay_us": per_pass(
                [statistics.fmean(lat) for lat in replay_latencies]) * 1e6,
            "stat.draws": draws,
            "stat.draws_saved": stat_runs[0].n_replications_saved,
        })
        values = [o.as_tuple() for o in outcomes] * 4
        aggregate = CellAggregate()
        with spans.span("mc.fold"):
            start = now()
            for value in values:
                aggregate.add(value)
            result.layers["mc.fold_us"] = (now() - start) / len(values) * 1e6
        samples = np.random.default_rng(seed).lognormal(size=200_000).tolist()
        sketch = QuantileSketch(0.01)
        with spans.span("sketch.add"):
            start = now()
            for value in samples:
                sketch.add(value)
            result.layers["sketch.add_ns"] = (now() - start) / len(samples) * 1e9
        parts = []
        for k in range(20):
            part = QuantileSketch(0.01)
            for value in samples[k * 10_000:(k + 1) * 10_000]:
                part.add(value)
            parts.append(part)
        with spans.span("sketch.merge"):
            start = now()
            for _ in range(10):
                merged = QuantileSketch(0.01)
                for part in parts:
                    merged.merge(part)
            result.layers["sketch.merge_us"] = (
                (now() - start) / (10 * len(parts)) * 1e6)
        result.check("merged sketch equals the single-stream sketch",
                     merged == sketch)


# -- serve ----------------------------------------------------------------------


def _server_preexec() -> None:
    """Runs in the server process before ``exec``.

    A shell starting the benchmark in the background leaves SIGINT
    ignored, and Python then installs no KeyboardInterrupt handler, so
    the server would not hear the SIGINT that stops it: restore the
    default.  Also have the kernel stop the server if this worker dies
    before it can (Linux ``prctl(PR_SET_PDEATHSIG)``).
    """
    import ctypes

    signal.signal(signal.SIGINT, signal.SIG_DFL)
    try:
        ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGTERM)
    except (OSError, AttributeError):
        pass


class Server:
    """``repro serve`` in its own process, stopped with SIGINT (its
    graceful shutdown) and waited for."""

    def __init__(self, store: Path, work: Path) -> None:
        self.log_path = work / "server.log"
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--workers", "2", "--job-workers", "1",
                 "--store", str(store), "--seed", str(STUDY_SEED)],
                stdout=log, stderr=subprocess.STDOUT, cwd=work,
                preexec_fn=_server_preexec,
            )
        deadline = now() + 60
        while now() < deadline:
            with open(self.log_path, encoding="utf-8") as log:
                line = log.readline()
            if line.startswith("serving on http://"):
                address = line.split()[2][len("http://"):]
                host, port = address.rsplit(":", 1)
                self.host, self.port = host, int(port)
                return
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError("repro serve did not start: "
                           + self.log_path.read_text(encoding="utf-8")[-500:])

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def job_body(index: int) -> dict:
    """The i-th sweep job: same fleet and grid, a distinct replication
    cap, so no job is served from the cache of one before it."""
    return {
        "grid": inputs.JOB_GRID, "fleet": inputs.JOB_FLEET,
        "replications": inputs.JOB_CAP + index, "seed": inputs.JOB_SEED,
        "target_ci": inputs.JOB_TARGET_CI,
    }


def run_job(client, body: dict) -> dict:
    """POST one sweep job and poll it until it is no longer queued or
    running; returns the last status plus the client-side times."""
    posted = now()
    status, data = client.request("POST", "/sweeps", body)
    if status != 202:
        return {"state": f"rejected ({status})", "posted": posted,
                "done": now(), "body": body}
    job_id = json.loads(data)["job"]
    while True:
        state = client.get_json(f"/jobs/{job_id}")
        if state["state"] not in ("queued", "running"):
            return dict(state, posted=posted, done=now(), body=body)
        time.sleep(0.01)


def run_serve(args, result: Result, spans) -> None:
    """Closed-loop HTTP load on ``repro serve`` over one keep-alive
    connection."""
    from loadgen import Client

    from repro.corpus.store import CorpusStore

    data = inputs.CorpusInputs(inputs.SERVE_RECORDS, args.seed)
    queries = data.queries(500)
    paths = inputs.request_paths(queries, 20_000, args.seed)
    store_path = fresh_path(args.work / "serve.sqlite3")
    step = inputs.INGEST_CHUNK
    chunks = [data.bibtex(i, i + step)
              for i in range(0, len(data.entries), step)]
    # The ingest runs in this process; it rotates over the cores like the
    # in-process workloads.  The server starts after the rotation ends,
    # so neither it nor the load threads inherit one core.
    with CoreRotation(), CorpusStore(store_path) as store:
        start = cpu()
        for chunk in chunks:
            store.ingest_bibtex(chunk)
        ingest_s = cpu() - start
    spawn = now()
    server = Server(store_path, args.work)
    try:
        boot_s = now() - spawn
        warm_errors: list[str] = []

        def warm(endpoint: str) -> None:
            client = Client(server.host, server.port)
            try:
                client.get_json(f"/study/{endpoint}")
            except Exception as exc:  # reported after the join
                warm_errors.append(repr(exc))
            finally:
                client.close()

        threads = [threading.Thread(target=warm, args=(e,))
                   for e in inputs.STUDY_ENDPOINTS]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        if warm_errors or any(t.is_alive() for t in threads):
            raise RuntimeError(f"warm-up failed: {warm_errors}")
        # Set-up pieces: the store ingest; boot, from spawning the server
        # until it listens; cold start, until every /study endpoint has
        # answered.
        result.setup.update(setup_s=now() - T0, phase1_s=ingest_s,
                            phase2_s=boot_s, phase3_s=now() - spawn)
        result.layers["serve.boot_s"] = boot_s
        if args.mode == "setup":
            serve_load(args, result, spans, server, paths)
        else:
            serve_timed(args, result, spans, server, paths, store_path,
                        queries)
    finally:
        server.stop()


def serve_load(args, result, spans, server, paths) -> list[tuple]:
    """The closed loop for ``--seconds``; sets the loop's metrics and
    returns its request records.  Every fresh interpreter runs it, so the
    load is measured at several moments of a run and ``run.py`` reports
    the median."""
    from loadgen import run_closed_loop

    # The loop is sequential (one connection), so the server and the
    # load generator lose nothing by sharing a core; on one core a
    # request hands over without waking the other, idle, virtual CPU,
    # which the host does when it gets round to it.
    with spans.span("serve.load") as load_span, \
            CoreRotation((server.proc.pid, os.getpid())):
        records, begin = run_closed_loop(
            server.host, server.port, paths, args.seconds,
            threads=inputs.LOAD_CONNECTIONS,
            spans=spans if spans.enabled else None, parent=load_span)
    timed = [r for r in records if r[1] < begin + args.seconds]
    result.attempted += len(records)
    result.failed += sum(1 for r in records if not 200 <= r[3] < 300)
    # Throughput counts successful answers only; a failed request enters
    # the latencies at no less than FAILED_LATENCY_S.
    latencies = [r[2] - r[1] if 200 <= r[3] < 300
                 else max(r[2] - r[1], FAILED_LATENCY_S) for r in timed]
    rps = sum(1 for r in timed if 200 <= r[3] < 300) / args.seconds
    # The loop runs for a fixed time, so its work time is per request.
    result.work_s = args.seconds / len(timed)
    result.metrics.update(
        rate_per_s=rps,
        p50_ms=quantile(latencies, 0.5) * 1e3,
        p99_ms=quantile(latencies, 0.99) * 1e3,
    )
    result.name("rps", rps, "req/s")
    result.name("req_p50_ms", result.metrics["p50_ms"], "ms")
    result.name("req_p99_ms", result.metrics["p99_ms"], "ms")
    result.name("requests", len(timed), "count")
    return records


def serve_timed(args, result, spans, server, paths, store_path, queries):
    from loadgen import Client

    from repro.continuum import build_sweep_spec, run_sweep
    from repro.pipeline import ArtifactCache
    from repro.pipeline.study import run_icsc_pipeline
    from repro.serve import study_payloads

    records = serve_load(args, result, spans, server, paths)

    # After the timed loop: sweep jobs, one at a time, for the jobs path
    # check and the jobs layers.
    client = Client(server.host, server.port)
    try:
        jobs = []
        for index in range(inputs.JOBS_AFTER_LOAD):
            with spans.span("serve.job", op=index + 1):
                jobs.append(run_job(client, job_body(index)))
        result.attempted += len(jobs)
        result.failed += sum(1 for j in jobs if j["state"] != "done")
        snapshot = client.get_json("/metrics")
        bodies = {}
        for endpoint in inputs.STUDY_ENDPOINTS:
            status, body = client.request("GET", f"/study/{endpoint}")
            bodies[endpoint] = body if status == 200 else None
    finally:
        client.close()
    rss = process_peak_rss_mb(server.proc.pid)

    # Oracles: study bodies against the in-process payloads, and one
    # job against the same sweep run here.
    start = now()
    results, _ = run_icsc_pipeline(seed=STUDY_SEED, cache=ArtifactCache())
    study_cold_s = now() - start
    expected = study_payloads(results)
    result.check("every /study body equals study_payloads", all(
        bodies[name] == (json.dumps(expected[name]) + "\n").encode("utf-8")
        for name in inputs.STUDY_ENDPOINTS))
    computations = snapshot.get("serve.study.computations", {}).get("value", 0)
    result.check("cold study computed once", computations == 1)
    result.check("every sweep job is done",
                 all(j["state"] == "done" for j in jobs))
    body = jobs[0]["body"]
    spec = build_sweep_spec(
        grid=body["grid"], fleet=body["fleet"],
        replications=body["replications"], seed=body["seed"],
        target_ci=body["target_ci"])
    local = run_sweep(spec, workers=0).to_dict()["cells"]
    result.check("job cells equal run_sweep(build_sweep_spec(...))",
                 json.dumps(jobs[0].get("result", {}).get("cells"))
                 == json.dumps(local))

    result.metrics["rss_mb"] = rss

    if spans.enabled:
        routes = ("study_get", "corpus_query", "corpus_by_year",
                  "corpus_by_venue", "corpus_stats", "sweeps_post", "jobs_get")
        for route in routes:
            summary = snapshot.get(f"serve.request_seconds.{route}", {})
            result.layers[f"serve.route_p99_ms.{route}"] = \
                summary.get("p99", 0.0) * 1e3
        result.layers["serve.study_computations"] = computations
        result.layers["pipeline.study_cold_s"] = study_cold_s
        done = [j for j in jobs if j["state"] == "done"]
        if done:
            result.layers["jobs.run_s"] = statistics.median(
                j["wall_s"] for j in done)
            result.layers["jobs.queue_s"] = statistics.median(
                j["done"] - j["posted"] - j["wall_s"] for j in done)
        serve_layers(result, spans, records, store_path, queries)


def serve_layers(result, spans, records, store_path, queries) -> None:
    """In-process dispatch (no socket) of each traffic class, and the
    store's stats() call, on a context like the server's."""
    from urllib.parse import quote

    from repro.serve import build_context
    from repro.serve.app import ServeApp

    ctx = build_context(store_path=store_path, seed=STUDY_SEED, job_workers=1)
    try:
        app = ServeApp(ctx)
        for endpoint in inputs.STUDY_ENDPOINTS:   # cold compute, once
            app.dispatch("GET", f"/study/{endpoint}", None)
        targets = {
            "study": [f"/study/{e}" for e in inputs.STUDY_ENDPOINTS] * 50,
            "corpus_query": [f"/corpus/query?q={quote(q)}&limit=20"
                             for q in queries[:300]],
            "corpus_agg": ["/corpus/by_year", "/corpus/by_venue"] * 50,
            "corpus_stats": ["/corpus/stats"] * 20,
        }
        dispatch_p50 = {}
        for kind, paths in targets.items():
            lat = []
            for i, path in enumerate(paths):
                start = now()
                with spans.span("serve.dispatch." + kind, op=i):
                    app.dispatch("GET", path, None)
                lat.append(now() - start)
            dispatch_p50[kind] = quantile(lat, 0.5)
            result.layers[f"serve.dispatch_us.{kind}"] = dispatch_p50[kind] * 1e6
        stats_lat = []
        for _ in range(5):
            start = now()
            with ctx.store_lock:
                ctx.store.stats()
            stats_lat.append(now() - start)
        result.layers["corpus.stats_ms"] = statistics.median(stats_lat) * 1e3
    finally:
        ctx.jobs.close()
        ctx.store.close()
    client_study = [r[2] - r[1] for r in records
                    if r[4] == "study" and 200 <= r[3] < 300]
    result.layers["serve.socket_us"] = (
        quantile(client_study, 0.5) - dispatch_p50["study"]) * 1e6


# -- main -----------------------------------------------------------------------

WORKLOADS = {
    "corpus": run_corpus,
    "sweep": run_sweep_workload,
    "serve": run_serve,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    args.work.mkdir(parents=True, exist_ok=True)

    result = Result(args.workload)
    start = now()
    import repro  # noqa: F401  (timed: the program's import cost)
    result.import_s = now() - start
    spans = Spans() if args.trace else NoSpans()
    with spans.span("bench"):
        if args.workload == "serve":   # rotates only its in-process part
            run_serve(args, result, spans)
        else:
            with CoreRotation():
                WORKLOADS[args.workload](args, result, spans)
    if args.trace:
        spans.dump(args.work / "spans.ndjson")
        result.layers["startup.import_s"] = result.import_s
        result.layers["trace.spans"] = len(spans.records)
        for name, seconds in spans.self_times().items():
            result.layers[f"self_s.{name}"] = seconds
    args.out.write_text(json.dumps(result.to_dict()), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
