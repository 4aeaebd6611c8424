"""Package hygiene: exports, docstrings, and doctests.

Guards the public surface: every ``__all__`` name must resolve, every
public module must import cleanly, public callables must be documented,
and the doctest examples embedded in docstrings must actually run.
"""

import doctest
import importlib
import inspect
import pkgutil
import re

import pytest

import repro
import repro.continuum
import repro.telemetry

PUBLIC_MODULES = sorted(
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if not name.rsplit(".", 1)[-1].startswith("_")
)

DOCTEST_MODULES = [
    "repro.core.entities",
    "repro.core.taxonomy",
    "repro.core.facets",
    "repro.corpus.publication",
    "repro.corpus.query",
    "repro.stats.frequency",
    "repro.text.similarity",
    "repro.text.stem",
    "repro.text.tokenize",
    "repro.telemetry",
    "repro.telemetry.tracer",
]


CONTINUUM_MODULES = ["repro.continuum"] + sorted(
    name
    for _, name, _ in pkgutil.walk_packages(
        repro.continuum.__path__, prefix="repro.continuum."
    )
)

#: Reference implementations live in tests/oracles.py, never in src/.
ORACLE_ONLY_NAMES = {"_replay", "_FailureClock"}


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
        assert type(registry.histogram(name)._sketch) is QuantileSketch
    # No bucket bounds or other knobs: a histogram is chosen by name only.
    for factory in (MetricsRegistry.histogram, NullMetricsRegistry.histogram):
        assert list(inspect.signature(factory).parameters) == ["self", "name"]
