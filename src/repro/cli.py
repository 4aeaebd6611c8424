"""Command-line interface.

Installed as ``python -m repro``; every subcommand is a thin wrapper over
the library API and returns a process exit code (0 = success), so the CLI
is unit-testable by calling :func:`main` with an argv list.

Subcommands
-----------
``replicate``
    Run the full ICSC study, print the key findings, and (optionally)
    write the report and all figure/table artifacts to a directory.
    ``--profile`` prints a per-stage profile report (wall/CPU time,
    cache hit ratios) and ``--trace-out PATH`` saves a Chrome
    ``chrome://tracing`` trace of the run.
``trace PATH``
    Render a saved Chrome trace as an ASCII timeline in the terminal.
``report``
    Print the full markdown study report to stdout.
``figures --output DIR``
    Regenerate every paper figure/table artifact into a directory.
``validate``
    Load and cross-validate the dataset; print the headline counts.
``classify TEXT``
    Classify a tool description into the five research directions.
``recommend TEXT``
    Rank the 25 catalogue tools for a new application description.
``export (--json PATH | --bibtex PATH)``
    Dump the dataset as JSON, or the paper bibliography as BibTeX.
``sweep``
    Run a Monte-Carlo sweep (:mod:`repro.continuum.montecarlo`) of a
    synthetic workflow fleet over a ``scheduler × mtbf × jitter × policy``
    grid with seeded replications; print a per-cell statistics table.
    ``--grid "scheduler=heft,energy;mtbf=50,200;jitter=0.1"`` sets the
    grid axes, ``--json PATH`` dumps the full aggregation, caching and
    ledger options mirror ``replicate``.
``corpus ingest|query|dedup|stats``
    Operate a persistent :class:`repro.corpus.store.CorpusStore`:
    stream BibTeX exports into a SQLite-backed store
    (``--lenient`` skips unusable entries and reports them,
    ``--on-collision suffix|skip`` survives citation-key reuse),
    evaluate boolean queries against its inverted term index, merge
    near-duplicates found by the exact prefix-filter kernel, and
    print store statistics.  ``--record`` appends the operation to the run ledger.
``runs list|show|compare|gc``
    Inspect and gate on the persistent run ledger (``repro.obs``).
    ``replicate --record`` appends a run; ``runs compare`` exits with a
    machine-readable verdict for CI gating: 0 = no drift and no
    confirmed slowdown, 3 = result drift (artifact values changed),
    4 = confirmed perf regression.  ``scripts/check.sh --gate`` wires
    the whole record→compare loop into one command.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro import __version__
from repro import sweep_params

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Systematic mapping study toolkit (SC-W 2023 reproduction).",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_runs_dir(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--runs-dir", type=Path, default=None, metavar="DIR",
            help="run-ledger directory (default: $REPRO_RUNS_DIR or "
                 "~/.cache/repro/runs)",
        )

    def add_pipeline_options(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--cache-dir", type=Path, default=None,
            help="persist stage artifacts to this directory "
                 "(default: in-memory cache, or $REPRO_CACHE_DIR)",
        )
        command.add_argument(
            "--no-cache", action="store_true",
            help="recompute every stage, ignoring cached artifacts",
        )

    replicate = sub.add_parser(
        "replicate", help="run the full ICSC mapping study"
    )
    replicate.add_argument("--seed", type=int, default=2023)
    replicate.add_argument(
        "--output", type=Path, default=None,
        help="directory for the report and figure artifacts",
    )
    add_pipeline_options(replicate)
    replicate.add_argument(
        "--profile", action="store_true",
        help="record telemetry and print a per-stage profile report",
    )
    replicate.add_argument(
        "--trace-out", type=Path, default=None, metavar="PATH",
        help="write a Chrome trace (chrome://tracing) of the run "
             "(implies telemetry recording)",
    )
    replicate.add_argument(
        "--record", action="store_true",
        help="append this run (stage timings, artifact digests) to the "
             "run ledger for `repro runs compare` (implies telemetry "
             "recording)",
    )
    add_runs_dir(replicate)

    sub.add_parser("report", help="print the markdown study report")

    figures = sub.add_parser(
        "figures", help="regenerate every figure/table artifact"
    )
    figures.add_argument("--output", type=Path, required=True)
    add_pipeline_options(figures)

    sub.add_parser("validate", help="validate the encoded dataset")

    classify = sub.add_parser(
        "classify", help="classify a tool description"
    )
    classify.add_argument("text", help="the description to classify")

    recommend = sub.add_parser(
        "recommend", help="rank catalogue tools for an application description"
    )
    recommend.add_argument("text", help="the application description")
    recommend.add_argument("-k", type=int, default=5, help="tools to list")

    trace = sub.add_parser(
        "trace", help="render a saved Chrome trace as an ASCII timeline"
    )
    trace.add_argument("path", type=Path, help="trace file (JSON)")
    trace.add_argument(
        "--width", type=int, default=60,
        help="timeline width in characters (default 60)",
    )

    export = sub.add_parser("export", help="dump datasets to disk")
    group = export.add_mutually_exclusive_group(required=True)
    group.add_argument("--json", type=Path, help="write the ecosystem as JSON")
    group.add_argument(
        "--bibtex", type=Path, help="write the paper bibliography as BibTeX"
    )

    sweep = sub.add_parser(
        "sweep",
        help="run a Monte-Carlo sweep over the continuum simulators",
        description="Run a scheduler × mtbf × jitter × policy grid of "
                    "seeded Monte-Carlo replications over a synthetic "
                    "workflow fleet. Results are bit-identical for a "
                    "given --seed regardless of --workers.",
    )
    sweep_params.add_options(sweep)
    sweep.add_argument(
        "--json", type=Path, default=None, metavar="PATH",
        help="write the full per-cell aggregation as JSON",
    )
    sweep.add_argument(
        "--cache-dir", type=Path, default=None,
        help="persist computed grid cells to this directory "
             "(re-running an identical sweep then executes zero simulations)",
    )
    sweep.add_argument(
        "--no-cache", action="store_true",
        help="recompute every grid cell, ignoring cached cells",
    )
    sweep.add_argument(
        "--record", action="store_true",
        help="append this sweep (cell digests, replication counters) to "
             "the run ledger (implies telemetry recording)",
    )
    add_runs_dir(sweep)

    serve = sub.add_parser(
        "serve",
        help="serve study artifacts, corpus queries, and sweep jobs "
             "over HTTP",
        description="Start the stdlib-only JSON service: memoized "
                    "/study/* artifacts, /corpus/* queries against a "
                    "corpus store, async POST /sweeps jobs, and "
                    "/metrics self-measurement. Ctrl-C shuts down "
                    "gracefully, draining queued jobs.",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve.add_argument(
        "--port", type=int, default=8000, metavar="N",
        help="bind port (default 8000; 0 = ephemeral)",
    )
    serve.add_argument(
        "--workers", type=int, default=16, metavar="W",
        help="HTTP worker threads (default 16); connections beyond the "
             "pool's backlog are shed with a 503",
    )
    serve.add_argument(
        "--job-workers", type=int, default=2, metavar="W",
        help="sweep-job worker threads (default 2)",
    )
    serve.add_argument(
        "--queue-size", type=int, default=8, metavar="N",
        help="max queued sweep jobs before POST /sweeps answers 429 "
             "(default 8)",
    )
    serve.add_argument(
        "--cache-dir", type=Path, default=None, metavar="DIR",
        help="persist the artifact cache (study payloads, sweep cells) "
             "to this directory; default is memory-only",
    )
    serve.add_argument(
        "--store", type=Path, default=None, metavar="PATH",
        help="corpus store database behind the /corpus/* endpoints "
             "(omit to serve without a corpus)",
    )
    serve.add_argument(
        "--record", action="store_true",
        help="append every completed sweep job to the run ledger, "
             "exactly like `repro sweep --record`",
    )
    add_runs_dir(serve)
    serve.add_argument("--seed", type=int, default=2023,
                       help="study seed for the /study/* endpoints")

    corpus = sub.add_parser(
        "corpus",
        help="operate a persistent, indexed bibliographic corpus store",
        description="Stream BibTeX into a SQLite-backed corpus store, "
                    "query it through its inverted term index, merge "
                    "near-duplicates, and inspect its size.",
    )
    corpus_sub = corpus.add_subparsers(dest="corpus_command", required=True)

    def add_store(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--store", type=Path, required=True, metavar="PATH",
            help="corpus store database file (created on first ingest)",
        )

    def add_corpus_record(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--record", action="store_true",
            help="append this operation (key digests, corpus counters) "
                 "to the run ledger (implies telemetry recording)",
        )
        add_runs_dir(command)

    corpus_ingest = corpus_sub.add_parser(
        "ingest", help="stream BibTeX files into the store"
    )
    add_store(corpus_ingest)
    corpus_ingest.add_argument(
        "paths", nargs="+", type=Path, metavar="BIBTEX",
        help="BibTeX files to ingest, in order",
    )
    corpus_ingest.add_argument(
        "--lenient", action="store_true",
        help="skip unusable entries (missing title, malformed fields) "
             "and report them instead of aborting the import",
    )
    corpus_ingest.add_argument(
        "--on-collision", default="error",
        choices=("error", "suffix", "skip"),
        help="citation-key collision policy: error (default), suffix "
             "(store under key-2, key-3, ...), or skip",
    )
    corpus_ingest.add_argument(
        "--batch-size", type=int, default=1000, metavar="N",
        help="records per committed transaction (default 1000)",
    )
    add_corpus_record(corpus_ingest)

    corpus_query = corpus_sub.add_parser(
        "query", help="evaluate a boolean query against the store index"
    )
    add_store(corpus_query)
    corpus_query.add_argument(
        "query", help="boolean query, e.g. '(workflow OR pipeline) AND hpc'"
    )
    corpus_query.add_argument(
        "--limit", type=int, default=20, metavar="N",
        help="matches to print (default 20; 0 = all)",
    )
    corpus_query.add_argument(
        "--keys-only", action="store_true",
        help="print one citation key per line (no titles, no summary)",
    )

    corpus_dedup = corpus_sub.add_parser(
        "dedup", help="merge near-duplicate records in the store"
    )
    add_store(corpus_dedup)
    corpus_dedup.add_argument(
        "--threshold", type=float, default=0.75, metavar="F",
        help="minimum title-shingle Jaccard similarity (default 0.75)",
    )
    add_corpus_record(corpus_dedup)

    corpus_stats = corpus_sub.add_parser(
        "stats", help="print store size and index statistics"
    )
    add_store(corpus_stats)

    runs = sub.add_parser(
        "runs",
        help="inspect the run ledger and gate on cross-run regressions",
        description="Inspect the persistent run ledger written by "
                    "`repro replicate --record`.",
    )
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)

    runs_list = runs_sub.add_parser("list", help="list recorded runs")
    add_runs_dir(runs_list)
    runs_list.add_argument(
        "-n", type=int, default=0, metavar="N",
        help="show only the newest N runs (default: all)",
    )
    runs_list.add_argument(
        "--json", action="store_true", help="emit NDJSON instead of a table"
    )

    runs_show = runs_sub.add_parser("show", help="show one recorded run")
    add_runs_dir(runs_show)
    runs_show.add_argument(
        "run_id", nargs="?", default=None,
        help="run id or unique prefix (default: the newest run)",
    )
    runs_show.add_argument(
        "--json", action="store_true", help="emit the full record as JSON"
    )

    runs_compare = runs_sub.add_parser(
        "compare",
        help="compare two runs (or bench suites); exit 0/3/4",
        description="Compare the newest run against its predecessor(s) "
                    "and exit with a machine-readable verdict.",
        epilog="exit codes: 0 = no value drift, no confirmed slowdown "
               "(benign-ordering findings allowed); 3 = result drift — an "
               "artifact's values changed; 4 = confirmed perf regression; "
               "1 = error (empty ledger, unknown run id); 2 = usage.",
    )
    add_runs_dir(runs_compare)
    runs_compare.add_argument(
        "baseline", nargs="?", default=None,
        help="baseline run id/prefix (default: the candidate's predecessor)",
    )
    runs_compare.add_argument(
        "candidate", nargs="?", default=None,
        help="candidate run id/prefix (default: the newest run)",
    )
    runs_compare.add_argument(
        "--window", type=int, default=5, metavar="N",
        help="use up to N baseline records as the significance window "
             "(default 5; 1 disables the significance test)",
    )
    runs_compare.add_argument(
        "--max-slowdown", type=float, default=0.5, metavar="FRAC",
        help="fractional slowdown budget per stage (default 0.5 = +50%%)",
    )
    runs_compare.add_argument(
        "--bench", nargs=2, type=Path, default=None,
        metavar=("BASELINE", "CANDIDATE"),
        help="compare two output/BENCH_<suite>.json files from "
             "scripts/check.sh --bench instead of ledger runs",
    )
    runs_compare.add_argument(
        "--json", action="store_true",
        help="emit the comparison as JSON (exit code still applies)",
    )

    runs_gc = runs_sub.add_parser(
        "gc", help="prune the ledger to the newest N runs"
    )
    add_runs_dir(runs_gc)
    runs_gc.add_argument(
        "--keep", type=int, required=True, metavar="N",
        help="how many of the newest runs to keep",
    )
    return parser


def _resolve_cache(args: argparse.Namespace):
    """The artifact cache a subcommand should run against."""
    from repro.pipeline import ArtifactCache
    from repro.pipeline.study import process_cache

    if getattr(args, "no_cache", False):
        return ArtifactCache()  # ephemeral: dedups within the run only
    if getattr(args, "cache_dir", None) is not None:
        return ArtifactCache(args.cache_dir)
    return process_cache()


def _recording(args: argparse.Namespace):
    """``(telemetry, registry)`` for ``--record``, else ``(None, None)``."""
    if not getattr(args, "record", False):
        return None, None
    from repro.obs import RunRegistry
    from repro.telemetry import Telemetry

    telemetry = Telemetry()
    return telemetry, RunRegistry(args.runs_dir, logger=telemetry.log)


def _cmd_replicate(args: argparse.Namespace) -> int:
    from repro import workflow_directions
    from repro.pipeline.study import render_icsc_artifacts, run_icsc_pipeline
    from repro.reporting import study_report
    from repro.viz import ascii_distribution

    telemetry, registry = _recording(args)
    if telemetry is None and (args.profile or args.trace_out is not None):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
    cache = _resolve_cache(args)
    results, run = run_icsc_pipeline(
        seed=args.seed, cache=cache, telemetry=telemetry, registry=registry,
    )
    scheme = workflow_directions()
    names = dict(zip(scheme.keys, scheme.names))
    print("Fig. 2 — tool distribution")
    print(ascii_distribution(results.q2.distribution, label_names=names))
    print("\nFig. 4 — selection votes")
    print(ascii_distribution(results.q3.votes, label_names=names))
    print(
        f"\nmost demanded: {names[results.q3.top_direction]}; "
        f"least demanded: {names[results.q3.bottom_direction]}"
    )
    if results.classifier_evaluation is not None:
        print(
            "classifier check: accuracy "
            f"{results.classifier_evaluation.accuracy:.2f}"
        )
    if args.output is not None:
        args.output.mkdir(parents=True, exist_ok=True)
        (args.output / "report.md").write_text(
            study_report(results, scheme), encoding="utf-8"
        )
        artifacts = render_icsc_artifacts(
            args.output, cache=cache, telemetry=telemetry
        )
        print(f"wrote report.md and {len(artifacts)} artifacts to {args.output}")
    print(
        f"pipeline: {len(run.executed)} stage(s) executed, "
        f"{len(run.cached)} from cache"
    )
    if telemetry is not None:
        from repro.telemetry import profile_report, write_chrome_trace

        if args.profile:
            cache_stats = cache.stats() if hasattr(cache, "stats") else None
            print()
            print(profile_report(telemetry, cache_stats=cache_stats))
        if args.trace_out is not None:
            path = write_chrome_trace(telemetry, args.trace_out)
            print(f"wrote Chrome trace to {path} "
                  "(open in chrome://tracing or ui.perfetto.dev)")
    if registry is not None:
        newest = registry.last(1)[0]
        print(
            f"recorded run {newest.run_id} "
            f"({len(newest.artifacts)} artifacts) to {registry.path}"
        )
    return 0


def _cmd_report(_: argparse.Namespace) -> int:
    from repro import run_icsc_study, workflow_directions
    from repro.reporting import study_report

    print(study_report(run_icsc_study(), workflow_directions()))
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.pipeline.study import render_icsc_artifacts

    artifacts = render_icsc_artifacts(args.output, cache=_resolve_cache(args))
    for name in sorted(artifacts):
        print(f"{name}: {artifacts[name]}")
    return 0


def _cmd_validate(_: argparse.Namespace) -> int:
    from repro.data import icsc_ecosystem
    from repro.errors import ReproError

    try:
        _, tools, applications, scheme = icsc_ecosystem()
    except ReproError as exc:
        print(f"dataset INVALID: {exc}", file=sys.stderr)
        return 1
    print(
        f"dataset OK: {len(tools)} tools, {len(applications)} applications, "
        f"{len(tools.institutions())} tool institutions, "
        f"{len(applications.providers())} application providers, "
        f"{len(scheme)} directions"
    )
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    from repro import workflow_directions
    from repro.core.classification import KeywordClassifier
    from repro.errors import ReproError

    scheme = workflow_directions()
    try:
        result = KeywordClassifier(scheme).classify(args.text)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    names = dict(zip(scheme.keys, scheme.names))
    print(f"direction: {names[result.label]} "
          f"(confidence {result.confidence:.2f})")
    for key, score in result.top(len(scheme)):
        print(f"  {names[key]}: {score:g}")
    return 0


def _cmd_recommend(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.continuum.capabilities import capability_matrix
    from repro.core.entities import Application
    from repro.continuum.requirements import requirement_vector
    from repro.data import icsc_ecosystem
    from repro.errors import ReproError
    from repro.text.vectorize import TfidfModel

    if args.k < 1:
        print("error: -k must be >= 1", file=sys.stderr)
        return 1
    _, tools, _, scheme = icsc_ecosystem()
    try:
        application = Application(
            "cli-query", "CLI query", "9.9", description=args.text
        )
        requirements = requirement_vector(application, scheme)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    capabilities, keys = capability_matrix(tools, scheme)
    cap_norm = capabilities / np.linalg.norm(capabilities, axis=1, keepdims=True)
    direction_scores = (requirements / np.linalg.norm(requirements)) @ cap_norm.T
    tfidf = TfidfModel([tools[k].description for k in keys])
    text_scores = tfidf.similarity([args.text])[0]
    scores = 0.7 * direction_scores + 0.3 * text_scores
    names = dict(zip(scheme.keys, scheme.names))
    for rank, index in enumerate(np.argsort(-scores)[: args.k], start=1):
        tool = tools[keys[index]]
        print(f"{rank}. {tool.name} [{names[tool.primary_direction]}] "
              f"score={scores[index]:.3f}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.telemetry import load_chrome_trace, render_trace

    events = load_chrome_trace(args.path)
    print(render_trace(events, width=max(10, args.width)))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    if args.json is not None:
        from repro.io.jsonio import save_ecosystem
        from repro.pipeline.study import build_icsc_pipeline, process_cache

        collected = build_icsc_pipeline().run(
            ["collect"], cache=process_cache()
        )["collect"]
        save_ecosystem(
            args.json,
            collected["institutions"],
            collected["tools"],
            collected["applications"],
            collected["protocol"].scheme,
        )
        print(f"wrote {args.json}")
        return 0
    from repro.data.bibliography import bibliography_bibtex

    args.bibtex.write_text(bibliography_bibtex(), encoding="utf-8")
    print(f"wrote {args.bibtex}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.continuum import build_sweep_spec, run_sweep
    from repro.pipeline import ArtifactCache

    # The same validator and spec builder POST /sweeps uses, so an HTTP
    # sweep and a CLI sweep with the same arguments are bit-identical.
    request = sweep_params.check_request(
        {param.name: getattr(args, param.name)
         for param in sweep_params.SWEEP_PARAMS}
    )
    workers = request.pop("workers")
    spec = build_sweep_spec(**request)
    telemetry, registry = _recording(args)
    cache = None
    if not args.no_cache:
        cache = ArtifactCache(args.cache_dir, telemetry=telemetry)
    result = run_sweep(
        spec, workers=workers, cache=cache,
        telemetry=telemetry, registry=registry,
    )

    header = (
        f"{'cell':<52} {'mk mean':>9} {'mk p99':>9} "
        f"{'slowdown':>9} {'retries':>8}"
    )
    print(header)
    for stats in result.cells:
        makespan = stats.metrics["makespan"]
        print(
            f"{stats.cell.cell_id:<52} {makespan.mean:>9.3f} "
            f"{makespan.p99:>9.3f} {stats.metrics['slowdown'].mean:>9.3f} "
            f"{stats.metrics['retries'].mean:>8.2f}"
        )
    if spec.adaptive:
        print(
            f"{len(result.cells)} cell(s), adaptive to target-ci "
            f"{spec.target_ci:g} (cap {spec.replication_cap}): "
            f"{len(result.computed)} computed, {len(result.cached)} from "
            f"cache ({result.n_replications_run} simulations run, "
            f"{result.n_replications_saved} saved)"
        )
    else:
        print(
            f"{len(result.cells)} cell(s) × {spec.replications} replication(s): "
            f"{len(result.computed)} computed, {len(result.cached)} from cache "
            f"({result.n_replications_run} simulations run)"
        )
    if args.json is not None:
        import json

        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(
            json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {args.json}")
    if registry is not None:
        newest = registry.last(1)[0]
        print(f"recorded run {newest.run_id} to {registry.path}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import time

    from repro.serve import ServerHandle, build_context

    ctx = build_context(
        cache_dir=args.cache_dir,
        runs_dir=args.runs_dir,
        record=args.record,
        store_path=args.store,
        seed=args.seed,
        job_workers=args.job_workers,
        queue_size=args.queue_size,
    )
    handle = ServerHandle(
        ctx, host=args.host, port=args.port, workers=args.workers
    )
    # Printed once bound, so the line names the real (maybe ephemeral)
    # port and only ever appears for a server that is listening.
    print(f"serving on {handle.url} (Ctrl-C to stop)", flush=True)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        handle.close()
    return 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    from repro.corpus.store import CorpusStore
    from repro.errors import CorpusError, CorpusStoreError

    telemetry, registry = _recording(args)

    def record_operation(store: CorpusStore, operation: str, summary) -> None:
        if registry is None:
            return
        from repro.obs import build_corpus_record

        record = registry.record(
            build_corpus_record(
                store, telemetry=telemetry, operation=operation,
                summary=summary,
            )
        )
        print(f"recorded run {record.run_id} to {registry.path}")

    if args.corpus_command != "ingest" and not args.store.exists():
        # Only ingest may create a store; a query/dedup/stats typo must
        # not silently materialize an empty database and report it.
        raise CorpusStoreError(f"no corpus store at '{args.store}'")

    with CorpusStore(args.store, telemetry=telemetry) as store:
        if args.corpus_command == "ingest":
            for path in args.paths:
                report = store.ingest_bibtex(
                    path.read_text(encoding="utf-8"),
                    strict=not args.lenient,
                    on_collision=args.on_collision,
                    batch_size=args.batch_size,
                )
                line = f"{path}: {report.ingested} ingested"
                if report.renamed:
                    line += f", {report.renamed} renamed"
                if report.skipped:
                    line += f", {report.skipped} skipped"
                if report.rejected:
                    line += f", {len(report.rejected)} rejected"
                print(line)
                for entry in report.rejected:
                    print(f"  rejected {entry.key or '(no key)'}: "
                          f"{entry.reason}")
                record_operation(store, "ingest", report.to_dict())
            print(f"store: {len(store)} records at {args.store}")
            return 0

        if args.corpus_command == "query":
            if args.limit < 0:
                raise CorpusError("--limit must be >= 0 (0 = all)")
            hits = store.search(args.query)
            shown = hits if args.limit == 0 else hits[: args.limit]
            if args.keys_only:
                for pub in shown:
                    print(pub.key)
                return 0
            for pub in shown:
                year = pub.year if pub.year is not None else "????"
                print(f"{pub.key:<24} {year}  {pub.title}")
            suffix = "" if len(shown) == len(hits) else \
                f" (showing {len(shown)})"
            print(f"{len(hits)} match(es) in {len(store)} records{suffix}")
            return 0

        if args.corpus_command == "dedup":
            before = len(store)
            summary = store.deduplicate(threshold=args.threshold)
            print(
                f"{summary.clusters} cluster(s) merged, "
                f"{summary.dropped} record(s) dropped "
                f"({summary.pairs_scored} candidate pairs scored): "
                f"{before} -> {len(store)} records"
            )
            record_operation(store, "dedup", summary.to_dict())
            return 0

        assert args.corpus_command == "stats"
        stats = store.stats()
        print(f"records   {stats['records']}")
        print(f"terms     {stats['terms']}")
        print(f"postings  {stats['postings']}")
        if stats["year_range"] is not None:
            first, last = stats["year_range"]
            print(f"years     {first}-{last}")
        print(f"path      {stats['path']}")
        return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    import json

    from repro.obs import RunRegistry, compare_bench_suites, compare_runs

    registry = RunRegistry(args.runs_dir)

    if args.runs_command == "list":
        records = registry.runs()
        if args.n > 0:
            records = records[-args.n:]
        if args.json:
            for record in records:
                print(json.dumps(record.to_dict(), sort_keys=True))
            return 0
        if not records:
            print(f"no runs recorded in {registry.path}")
            return 0
        print(f"{'run id':<26} {'kind':<14} {'created (UTC)':<21} "
              f"{'wall':>9} artifacts")
        for record in records:
            print(
                f"{record.run_id:<26} {record.kind:<14} "
                f"{record.created_utc:<21} {record.wall_s:>8.3f}s "
                f"{len(record.artifacts)}"
            )
        return 0

    if args.runs_command == "show":
        if args.run_id is not None:
            record = registry.get(args.run_id)
        else:
            newest = registry.last(1)
            if not newest:
                print(f"error: no runs recorded in {registry.path}",
                      file=sys.stderr)
                return 1
            record = newest[0]
        if args.json:
            print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
            return 0
        print(f"run      {record.run_id} ({record.kind})")
        print(f"created  {record.created_utc}")
        print(f"dataset  {record.dataset_version[:16]}…")
        print(f"config   {record.config_digest[:16]}…")
        print(f"wall     {record.wall_s:.3f}s")
        for name in sorted(record.stages):
            stats = record.stages[name]
            print(
                f"  stage {name:<10} wall {stats.wall_s:>8.3f}s  "
                f"cpu {stats.cpu_s:>8.3f}s  exec {stats.executions}  "
                f"hit-ratio {stats.hit_ratio:.2f}"
            )
        for name in sorted(record.metrics):
            print(f"  metric {name} = {record.metrics[name]:g}")
        for name in sorted(record.artifacts):
            digest_value = record.artifacts[name]
            print(
                f"  artifact {name:<18} sha256 {digest_value.sha256[:16]}… "
                f"({digest_value.n_items} items)"
            )
        return 0

    if args.runs_command == "compare":
        if args.bench is not None:
            payloads = []
            for path in args.bench:
                try:
                    payloads.append(
                        json.loads(path.read_text(encoding="utf-8"))
                    )
                except (OSError, json.JSONDecodeError) as exc:
                    print(f"error: cannot read bench file {path}: {exc}",
                          file=sys.stderr)
                    return 1
            comparison = compare_bench_suites(
                payloads[0], payloads[1], max_slowdown=args.max_slowdown
            )
        else:
            if args.window < 1:
                print("error: --window must be >= 1", file=sys.stderr)
                return 1
            records = registry.runs()
            if args.candidate is not None:
                candidate = registry.get(args.candidate)
            elif records:
                candidate = records[-1]
            else:
                print(f"error: no runs recorded in {registry.path}",
                      file=sys.stderr)
                return 1
            if args.baseline is not None:
                baseline: list = [registry.get(args.baseline)]
            else:
                # Ledger position, not timestamps, decides "earlier":
                # successive runs can share a second-resolution stamp.
                position = max(
                    i for i, r in enumerate(records)
                    if r.run_id == candidate.run_id
                )
                earlier = records[:position]
                if not earlier:
                    print(
                        "nothing to compare against: "
                        f"{candidate.run_id} is the only run in the ledger"
                    )
                    return 0
                baseline = earlier[-args.window:]
            comparison = compare_runs(
                baseline, candidate, max_slowdown=args.max_slowdown
            )
        if args.json:
            print(json.dumps(comparison.to_dict(), indent=2, sort_keys=True))
        else:
            print(comparison.report())
        return comparison.exit_code()

    assert args.runs_command == "gc"
    dropped = registry.gc(args.keep)
    print(f"dropped {dropped} ledger line(s), kept the newest {args.keep}")
    return 0


_COMMANDS = {
    "replicate": _cmd_replicate,
    "report": _cmd_report,
    "figures": _cmd_figures,
    "validate": _cmd_validate,
    "classify": _cmd_classify,
    "recommend": _cmd_recommend,
    "trace": _cmd_trace,
    "export": _cmd_export,
    "sweep": _cmd_sweep,
    "serve": _cmd_serve,
    "corpus": _cmd_corpus,
    "runs": _cmd_runs,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    from repro.errors import ReproError

    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream pager/head closed the pipe: conventional silent exit.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
