"""Pipeline benchmark: cold vs warm cache.

The :mod:`repro.pipeline` runner exists so that benchmarks, figure
regeneration, and repeated CLI calls stop recomputing the study from
scratch.  This benchmark quantifies that headline effect: a second
`run_icsc_pipeline` with identical parameters must execute zero stages
and run ≥ 5× faster end to end, and a fresh cache handle over the same
directory must stay warm off the on-disk artifacts.
"""

from __future__ import annotations

import time

from conftest import report

from repro.pipeline import ArtifactCache
from repro.pipeline.study import run_icsc_pipeline


def _timed(fn, repeats: int) -> float:
    """Best-of-*repeats* wall time of ``fn()`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_pipeline_cold_vs_warm(benchmark, tmp_path):
    """Warm-cache study runs must be ≥ 5× faster than cold-cache runs."""
    def cold_run(index: int):
        return run_icsc_pipeline(cache=ArtifactCache(tmp_path / f"c{index}"))

    cold_times = []
    for index in range(5):
        start = time.perf_counter()
        _, run = cold_run(index)
        cold_times.append(time.perf_counter() - start)
        assert len(run.executed) == 4  # genuinely cold: every stage ran
    cold = min(cold_times)

    warm_cache = ArtifactCache(tmp_path / "warm")
    run_icsc_pipeline(cache=warm_cache)  # prime
    warm = _timed(lambda: run_icsc_pipeline(cache=warm_cache), repeats=20)

    results, warm_run = benchmark(
        lambda: run_icsc_pipeline(cache=warm_cache)
    )
    assert warm_run.executed == ()  # the warm path recomputes nothing
    assert len(warm_run.cached) == 4
    assert results.q3.top_direction == "orchestration"

    speedup = cold / warm
    report(
        "Pipeline — cold vs warm artifact cache",
        [
            f"cold (best of 5):  {cold * 1e3:8.3f} ms  (4 stages executed)",
            f"warm (best of 20): {warm * 1e3:8.3f} ms  (0 stages executed)",
            f"speedup:           {speedup:8.1f}x",
        ],
    )
    assert speedup >= 5.0, (
        f"warm cache only {speedup:.1f}x faster than cold (< 5x)"
    )


def test_bench_pipeline_warm_disk_restart(benchmark, tmp_path):
    """A fresh process (new cache handle) stays warm off the disk layer."""
    run_icsc_pipeline(cache=ArtifactCache(tmp_path))  # some earlier process

    def restarted_run():
        return run_icsc_pipeline(cache=ArtifactCache(tmp_path))

    _, run = benchmark(restarted_run)
    assert run.executed == ()
    report(
        "Pipeline — warm restart from on-disk artifacts",
        [f"stages executed: {len(run.executed)}, "
         f"from cache: {len(run.cached)}"],
    )

