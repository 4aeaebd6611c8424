"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one paper artifact (table/figure), asserts the
published values, and reports the rows/series the paper shows.

At session end, every timing measured through the ``benchmark`` fixture
is aggregated into one ``output/BENCH_<suite>.json`` per benchmark module
(``test_bench_corpus.py`` → ``BENCH_corpus.json``), each carrying a
``results`` mapping of benchmark name → timing stats.  Those files are
the baseline source for ``repro runs compare --bench``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.core.selection import SelectionMatrix
from repro.data.icsc import icsc_ecosystem

REPO_ROOT = Path(__file__).resolve().parent.parent
# The reference implementations the gates compare against live in the
# test tree (tests/oracles.py); make them importable from any cwd.
if str(REPO_ROOT) not in sys.path:
    sys.path.append(str(REPO_ROOT))


def report(title: str, lines: list[str]) -> None:
    """Print a regenerated artifact block (visible with ``pytest -s``)."""
    banner = "=" * max(len(title), 20)
    print(f"\n{banner}\n{title}\n{banner}")
    for line in lines:
        print(line)


@pytest.fixture(scope="session")
def ecosystem():
    return icsc_ecosystem()


@pytest.fixture(scope="session")
def tools(ecosystem):
    return ecosystem[1]


@pytest.fixture(scope="session")
def applications(ecosystem):
    return ecosystem[2]


@pytest.fixture(scope="session")
def scheme(ecosystem):
    return ecosystem[3]


@pytest.fixture(scope="session")
def selection(tools, applications, scheme):
    return SelectionMatrix.from_catalogs(tools, applications, scheme)


def pytest_sessionfinish(session, exitstatus) -> None:
    """Aggregate measured benchmarks into per-suite BENCH_<name>.json files.

    A file the suite already wrote by hand (BENCH_telemetry.json's
    overhead summary) is preserved under a ``summary`` key next to the
    aggregated ``results`` mapping.
    """
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None or not bench_session.benchmarks:
        return
    suites: dict[str, dict[str, dict[str, float | int]]] = {}
    for bench in bench_session.benchmarks:
        if getattr(bench, "has_error", False):
            continue
        module_path, _, test_id = bench.fullname.partition("::")
        module = Path(module_path).stem
        if not module.startswith("test_bench_"):
            continue
        suite = module[len("test_bench_"):]
        stats = bench.stats
        suites.setdefault(suite, {})[test_id] = {
            "min_s": stats.min,
            "mean_s": stats.mean,
            "median_s": stats.median,
            "stddev_s": stats.stddev,
            "rounds": stats.rounds,
        }
    output_dir = REPO_ROOT / "output"
    output_dir.mkdir(parents=True, exist_ok=True)
    for suite, results in sorted(suites.items()):
        path = output_dir / f"BENCH_{suite}.json"
        payload: dict = {"suite": suite, "results": results}
        if path.exists():
            try:
                existing = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                existing = None
            if isinstance(existing, dict):
                if "results" in existing:
                    summary = existing.get("summary")
                else:
                    summary = existing
                if summary is not None:
                    payload["summary"] = summary
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
