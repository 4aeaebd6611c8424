"""Package hygiene: exports, docstrings, and doctests.

Guards the public surface: every ``__all__`` name must resolve, every
public module must import cleanly, public callables must be documented,
and the doctest examples embedded in docstrings must actually run.
"""

import ast
import doctest
import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import repro
import repro.continuum
import repro.stats
import repro.telemetry

PUBLIC_MODULES = sorted(
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if not name.rsplit(".", 1)[-1].startswith("_")
)


def _modules_with_examples() -> list[str]:
    """Every ``repro`` module whose own docstrings hold a doctest example,
    so a new example cannot go unrun (``__main__`` runs the CLI on import)."""
    finder = doctest.DocTestFinder()
    names = ["repro"] + [
        name
        for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if not name.endswith(".__main__")
    ]
    return [
        name
        for name in names
        if any(test.examples for test in finder.find(importlib.import_module(name)))
    ]


DOCTEST_MODULES = _modules_with_examples()


CONTINUUM_MODULES = ["repro.continuum"] + sorted(
    name
    for _, name, _ in pkgutil.walk_packages(
        repro.continuum.__path__, prefix="repro.continuum."
    )
)

#: Reference implementations live in tests/oracles.py, never in src/.
ORACLE_ONLY_NAMES = {
    "_replay",
    "_FailureClock",
    "ResourceTimeline",
    "earliest_slot",
}


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_imports(module_name):
    importlib.import_module(module_name)


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", ()):
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name!r}"


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), (
        f"{module_name} lacks a module docstring"
    )


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_public_callables_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for name in getattr(module, "__all__", ()):
        obj = getattr(module, name)
        if callable(obj) and getattr(obj, "__module__", "") == module_name:
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(name)
    assert not undocumented, (
        f"{module_name}: undocumented public callables {undocumented}"
    )


@pytest.mark.parametrize("module_name", DOCTEST_MODULES)
def test_doctests_pass(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module_name} has no doctest examples"
    assert results.failed == 0


def test_top_level_version():
    assert repro.__version__
    major = int(repro.__version__.split(".")[0])
    assert major >= 1


def test_exception_hierarchy_is_catchable():
    from repro.errors import ReproError
    import repro.errors as errors_module

    for name in errors_module.__all__:
        exc_type = getattr(errors_module, name)
        assert issubclass(exc_type, ReproError)


@pytest.mark.parametrize("module_name", CONTINUUM_MODULES)
def test_no_reference_implementations_in_continuum(module_name):
    module = importlib.import_module(module_name)
    names = []
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module_name:
            continue  # imported, not defined here
        names.append(name)
        if inspect.isclass(obj):
            names += [f"{name}.{attr}" for attr in vars(obj)]
    found = [
        qualname
        for qualname in names
        if (leaf := qualname.rsplit(".", 1)[-1]) in ORACLE_ONLY_NAMES
        or leaf.endswith("_reference")
    ]
    assert not found, f"{module_name} defines reference code {found}"


#: The round engine's pieces live only in repro.stats.rounds.
ROUND_ENGINE_NAMES = {
    "_execute_cells",
    "_CellProgress",
    "_round_rng",
    "_replication_rng",
    "_task_entropy",
    "_cell_entropy",
    "_CI_Z",
}


@pytest.mark.parametrize(
    "module_name", ["repro.continuum.montecarlo", "repro.stats.fanout"]
)
def test_round_engine_lives_in_one_module(module_name):
    module = importlib.import_module(module_name)
    found = sorted(ROUND_ENGINE_NAMES & set(vars(module)))
    assert not found, f"{module_name} defines round-engine code {found}"


TELEMETRY_MODULES = ["repro.telemetry"] + sorted(
    name
    for _, name, _ in pkgutil.walk_packages(
        repro.telemetry.__path__, prefix="repro.telemetry."
    )
)

#: The fixed-bucket histogram's API, replaced by QuantileSketch.
BUCKET_HISTOGRAM_NAMES = {
    "log_spaced_bounds",
    "percentile_estimate",
    "bucket_counts",
}


@pytest.mark.parametrize("module_name", TELEMETRY_MODULES)
def test_telemetry_has_one_quantile_type(module_name):
    module = importlib.import_module(module_name)
    names = list(getattr(module, "__all__", ()))
    for name, obj in vars(module).items():
        names.append(name)
        if inspect.isclass(obj) and obj.__module__ == module_name:
            names += [f"{name}.{attr}" for attr in vars(obj)]
    found = [
        qualname
        for qualname in names
        if (leaf := qualname.rsplit(".", 1)[-1]) in BUCKET_HISTOGRAM_NAMES
        or leaf.endswith("_BUCKETS")
    ]
    assert not found, f"{module_name} defines bucket-histogram code {found}"
    source = inspect.getsource(module)
    assert not re.search(r"\b(np|numpy)\.(nan)?percentile\b", source), (
        f"{module_name} computes percentiles outside QuantileSketch"
    )


def test_registry_histograms_are_sketch_backed():
    from repro.stats.sketch import QuantileSketch
    from repro.telemetry import MetricsRegistry
    from repro.telemetry.hooks import NullMetricsRegistry

    registry = MetricsRegistry.for_pipeline()
    for name in ("pipeline.stage_seconds", "serve.request_seconds.health"):
        assert type(registry.histogram(name)._stat.sketch) is QuantileSketch
    # No bucket bounds or other knobs: a histogram is chosen by name only.
    for factory in (MetricsRegistry.histogram, NullMetricsRegistry.histogram):
        assert list(inspect.signature(factory).parameters) == ["self", "name"]


def test_observed_distributions_hold_only_running_stats():
    """``/metrics`` histograms and sweep cells summarize through one
    type; neither keeps a second count/total/max or a loose sketch."""
    from repro.continuum import montecarlo
    from repro.continuum.montecarlo import CellAggregate
    from repro.stats.sketch import RunningStat
    from repro.telemetry.metrics import Histogram

    assert Histogram.__slots__ == ("name", "_lock", "_stat")
    assert type(Histogram("h")._stat) is RunningStat
    assert CellAggregate.__slots__ == ("stats",)
    stats = CellAggregate().stats
    assert stats and all(type(s) is RunningStat for s in stats.values())
    assert not hasattr(montecarlo, "SKETCH_ALPHA")
    assert repro.stats.RunningStat is RunningStat
    assert repro.continuum.RunningStat is RunningStat


def test_src_has_one_welford_update():
    """The running mean's ``mean += delta / count`` step, and the
    second moment it feeds, live only in ``repro.stats.sketch``."""
    root = pathlib.Path(repro.__file__).parent
    welford, m2 = {}, set()
    for path in sorted(root.rglob("*.py")):
        name = path.relative_to(root).as_posix()
        source = path.read_text(encoding="utf-8")
        found = re.findall(r"\bmean\s*\+=\s*\w+\s*/", source)
        if found:
            welford[name] = len(found)
        if re.search(r"\b_?m2\b", source):
            m2.add(name)
    assert welford == {"stats/sketch.py": 1}
    assert m2 == {"stats/sketch.py"}


def _stage_dag_entry_points():
    """Every entry point that runs a stage DAG."""
    from repro.core.study import run_icsc_study
    from repro.pipeline import Pipeline, render_icsc_artifacts, run_icsc_pipeline
    from repro.reporting.figures import render_all_artifacts

    return [
        Pipeline.run,
        run_icsc_pipeline,
        render_icsc_artifacts,
        render_all_artifacts,
        run_icsc_study,
    ]


def test_stage_dags_have_no_execution_mode_knobs():
    for entry in _stage_dag_entry_points():
        knobs = {"parallel", "max_workers"} & set(
            inspect.signature(entry).parameters
        )
        assert not knobs, f"{entry.__qualname__} accepts {sorted(knobs)}"


def test_stage_dags_run_without_a_thread_pool():
    for module_name in ("repro.pipeline.runner", "repro.reporting.figures"):
        source = inspect.getsource(importlib.import_module(module_name))
        assert not re.search(
            r"^\s*(import concurrent|from concurrent)", source, re.MULTILINE
        ), f"{module_name} imports concurrent.futures"


def test_stage_dags_resume_from_the_cache_alone():
    """The artifact cache is the one record of a run's progress: no
    manifest parameter, class, module or run key beside it."""
    import importlib.util

    import repro.pipeline
    from repro.pipeline import Pipeline

    for entry in _stage_dag_entry_points():
        assert "manifest" not in inspect.signature(entry).parameters, (
            f"{entry.__qualname__} accepts manifest"
        )
    assert not hasattr(repro.pipeline, "RunManifest")
    assert importlib.util.find_spec("repro.pipeline.manifest") is None
    assert not hasattr(Pipeline, "run_key")


def test_corpus_has_one_container():
    """``CorpusStore`` is the corpus: no dict-backed twin is exported, and
    no other ``src/`` class serves both search and deduplication."""
    import importlib.util

    import repro.corpus
    from repro.corpus import CorpusStore

    assert "Corpus" not in repro.corpus.__all__
    assert not hasattr(repro.corpus, "Corpus")
    assert importlib.util.find_spec("repro.corpus.corpus") is None
    with pytest.raises(ImportError):
        importlib.import_module("repro.corpus.corpus")
    containers = {
        obj
        for module_name in PUBLIC_MODULES
        for obj in vars(importlib.import_module(module_name)).values()
        if inspect.isclass(obj)
        and obj.__module__.startswith("repro.")
        and {"search", "deduplicate"} <= set(vars(obj))
    }
    assert containers == {CorpusStore}, containers


def test_dedup_entry_points_take_the_same_knobs():
    from repro.corpus import CorpusStore
    from repro.corpus.dedup import cluster_titles, find_duplicates

    def keywords(entry):
        return {
            name for name, param in inspect.signature(entry).parameters.items()
            if param.kind is inspect.Parameter.KEYWORD_ONLY
        }

    entries = [cluster_titles, find_duplicates, CorpusStore.deduplicate]
    assert len({frozenset(keywords(entry)) for entry in entries}) == 1, {
        entry.__qualname__: sorted(keywords(entry)) for entry in entries
    }


def test_telemetry_has_no_gauge():
    from repro.telemetry import MetricsRegistry
    from repro.telemetry.hooks import NullMetricsRegistry

    assert "Gauge" not in repro.telemetry.__all__
    assert not hasattr(repro.telemetry, "Gauge")
    for registry in (MetricsRegistry, NullMetricsRegistry):
        assert not hasattr(registry, "gauge"), f"{registry.__name__}.gauge"


def test_cli_has_no_parallel_option(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as exit_info:
        main(["replicate", "--parallel"])
    assert exit_info.value.code == 2
    assert "--parallel" in capsys.readouterr().err


#: ``Generator`` methods that draw random numbers.
DRAW_METHODS = {
    "multinomial",
    "multivariate_hypergeometric",
    "permuted",
    "integers",
    "random",
}


def _method_calls(module_name, methods):
    """``(method, line)`` of every ``x.method(...)`` call in the module's
    code; docstrings and comments do not count."""
    tree = ast.parse(inspect.getsource(importlib.import_module(module_name)))
    return [
        (node.func.attr, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in methods
    ]


def test_stat_fanout_draws_only_through_inference_kernels():
    calls = _method_calls("repro.stats.fanout", DRAW_METHODS)
    assert not calls, f"repro.stats.fanout draws directly: {calls}"
    fanout = importlib.import_module("repro.stats.fanout")
    copies = {"_counts_tuple", "_sample_tuple", "_single", "_run_round"}
    assert not copies & set(vars(fanout))


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_randomized_test_draws_live_in_inference(module_name):
    # Each randomized test's draw call exists once, in its kernel.
    kernel_draws = {"multinomial", "multivariate_hypergeometric", "permuted"}
    methods = sorted(m for m, _ in _method_calls(module_name, kernel_draws))
    if module_name == "repro.stats.inference":
        assert methods == sorted(kernel_draws)
    else:
        assert not methods, f"{module_name} draws {methods}"


def test_stats_exports_no_adaptive_front_doors():
    import repro.stats
    import repro.stats.fanout

    for module in (repro.stats, repro.stats.fanout):
        names = set(module.__all__) | set(vars(module))
        assert not {n for n in names if n.startswith("adaptive_")}


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_streams_are_seeded_in_one_place(module_name):
    # A unit's stream is NumPy's SeedSequence by definition (the oracle
    # tests/oracles.py::unit_stream_rng); src/ derives it in bulk in
    # repro.stats.rounds.round_rngs and never constructs one.
    tree = ast.parse(inspect.getsource(importlib.import_module(module_name)))
    built = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "SeedSequence" in {getattr(node.func, "attr", None),
                               getattr(node.func, "id", None)}
    ]
    assert not built, f"{module_name} builds a SeedSequence at {built}"
