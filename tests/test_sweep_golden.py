"""Golden digests of both adaptive sweep engines.

Pins, as literal ``stable_digest`` values, everything a sweep exposes:
the result's ``to_dict()``, the sorted set of keys it writes to an
:class:`~repro.pipeline.cache.ArtifactCache`, and the ``config_digest``
and ``artifacts`` of its ledger record.  The Monte-Carlo sweeps run
three ways (serial, a 2-process pool, and a 2-process pool with a
shuffled round queue); every way must land on the same digests.  A
change to cache keys, draw streams, fold order or stopping decisions
moves at least one of these values.
"""

from __future__ import annotations

import pytest

from repro.continuum import SweepSpec, default_continuum, run_sweep
from repro.continuum.montecarlo import parse_grid
from repro.data import synthetic_workflows
from repro.obs import RunRegistry
from repro.pipeline.cache import ArtifactCache, stable_digest
from repro.stats.fanout import StatSpec, StatTask, run_stat_sweep

MC_GRID = "scheduler=heft,round_robin;mtbf=none,40;jitter=0,0.1"

#: name -> (result, cache keys, ledger config_digest, ledger artifacts)
GOLDEN = {
    "mc-fixed": (
        "47603e9533bf34481b0be4f7f0c5dc0a1976470c625eb3b14ce527eafa367128",
        "2abb3207cd036bd5c4c57d1520581c6c4bec7a3548832d51bacfad8326e677c6",
        "2abb3207cd036bd5c4c57d1520581c6c4bec7a3548832d51bacfad8326e677c6",
        "dda84d168c7298078df11e7263a4cc5c980d8483c2fa071b2ac0f841a34be391",
    ),
    "mc-adaptive": (
        "13c30774e31c65507aa9deadcc4ed9d00bd96d16ec03636522029b2f73c40868",
        "badc2ebd7693b64bdc4c399c8a1836fed79469c3fd06afb68ce8bbdc2b2a6cc5",
        "badc2ebd7693b64bdc4c399c8a1836fed79469c3fd06afb68ce8bbdc2b2a6cc5",
        "e1ebc18f40e97549bcdcd10a59379883f630b5dcc6ff8554ca3927054c914a54",
    ),
    "stat-fixed": (
        "b90c14c4a8e85bc57400e91fff1440963d19de0ef563464e4281b68532169585",
        "551b9c52825b3175732c67d48d69b5b23e9671075e9604ae3b4066435a0b99cc",
        "551b9c52825b3175732c67d48d69b5b23e9671075e9604ae3b4066435a0b99cc",
        "0efa08f6cb8d856e17dff076d4186d5992de1fa57ca3a69a917d3be07c20f91e",
    ),
    "stat-adaptive": (
        "a4d9f7aa5748eded81e884ce5ad99824eb484f4bd0ca49f5d31a1e91025a1c5a",
        "64b15e512ce11234c57d65632e2ba3e2a2b255c685cb3f9b05702a518a28b625",
        "64b15e512ce11234c57d65632e2ba3e2a2b255c685cb3f9b05702a518a28b625",
        "a7f3b8d5a6a72252c9daa8db8fb48e092b72d26c3392f2c67703a8a4c4c595de",
    ),
}


def digests(result, cache, registry):
    (record,) = registry.runs()
    return (
        stable_digest(result.to_dict()),
        stable_digest(sorted(cache.keys())),
        record.config_digest,
        stable_digest({
            name: digest.to_dict()
            for name, digest in record.artifacts.items()
        }),
    )


def mc_spec(adaptive):
    base = dict(
        workflows=synthetic_workflows(2, seed=11, size_range=(8, 14)),
        continuum=default_continuum(seed=11),
        **parse_grid(MC_GRID), seed=11, chunk_size=8,
    )
    if adaptive:
        return SweepSpec(replications=48, target_ci=0.02,
                         max_replications=48, **base)
    return SweepSpec(replications=20, **base)


def stat_spec(adaptive):
    tasks = (
        StatTask(name="share:a", kind="bootstrap_share",
                 counts=(40, 25, 10, 5), label_index=0),
        StatTask(name="share:c", kind="bootstrap_share",
                 counts=(40, 25, 10, 5), label_index=2, confidence=0.9),
        StatTask(name="tvd", kind="permutation_tvd",
                 a=(30, 20, 10), b=(25, 25, 10)),
        StatTask(name="mean", kind="permutation_mean",
                 a=(1.0, 2.0, 3.0, 4.0, 2.5), b=(2.5, 3.5, 4.5, 5.5, 3.0)),
    )
    if adaptive:
        return StatSpec(tasks=tasks, seed=7, draws=4000, round_size=500,
                        target_se=1e-2, max_draws=4000)
    return StatSpec(tasks=tasks, seed=7, draws=1500, round_size=400)


@pytest.mark.parametrize("mode", ["fixed", "adaptive"])
@pytest.mark.parametrize(
    "workers, steal_seed", [(0, None), (2, None), (2, 13)],
    ids=["serial", "pool", "pool-steal"],
)
def test_mc_sweep_golden(mode, workers, steal_seed, tmp_path):
    cache = ArtifactCache()
    registry = RunRegistry(tmp_path / "runs")
    result = run_sweep(
        mc_spec(mode == "adaptive"), workers=workers, cache=cache,
        registry=registry, steal_seed=steal_seed,
    )
    assert digests(result, cache, registry) == GOLDEN[f"mc-{mode}"]


@pytest.mark.parametrize("mode", ["fixed", "adaptive"])
def test_stat_sweep_golden(mode, tmp_path):
    cache = ArtifactCache()
    registry = RunRegistry(tmp_path / "runs")
    result = run_stat_sweep(
        stat_spec(mode == "adaptive"), cache=cache, registry=registry
    )
    assert digests(result, cache, registry) == GOLDEN[f"stat-{mode}"]


def test_golden_runs_cover_both_modes():
    """The adaptive specs really stop some units early, and the stat
    sweeps cover every stat kind."""
    mc = run_sweep(mc_spec(True))
    assert 0 < mc.n_replications_run < mc.n_replications_budget
    stat = run_stat_sweep(stat_spec(True))
    assert 0 < stat.n_replications_run < stat.n_replications_budget
    assert {cell.kind for cell in stat.cells} == {
        "bootstrap_share", "permutation_tvd", "permutation_mean"
    }
