"""Unit tests for the adaptive stats fan-out engine."""

import numpy as np
import pytest

from repro.errors import StatsError
from repro.obs import RunRegistry
from repro.pipeline.cache import ArtifactCache
from repro.stats import (
    StatCell,
    StatSpec,
    StatTask,
    run_stat_sweep,
    share_ci_tasks,
)
from repro.stats.frequency import FrequencyTable
from repro.stats.inference import bootstrap_share_ci, permutation_tvd_test
from repro.telemetry import Telemetry

COUNTS = (120, 45, 30, 15)


def share_task(name="share", label_index=0):
    return StatTask(name=name, kind="bootstrap_share", counts=COUNTS,
                    label_index=label_index)


class TestStatTaskValidation:
    def test_unknown_kind(self):
        with pytest.raises(StatsError):
            StatTask(name="x", kind="jackknife", counts=COUNTS)

    def test_name_required(self):
        with pytest.raises(StatsError):
            StatTask(name="", kind="bootstrap_share", counts=COUNTS)

    def test_bootstrap_needs_counts(self):
        with pytest.raises(StatsError):
            StatTask(name="x", kind="bootstrap_share")

    def test_label_index_in_range(self):
        with pytest.raises(StatsError):
            StatTask(name="x", kind="bootstrap_share", counts=COUNTS,
                     label_index=4)

    def test_confidence_in_open_interval(self):
        with pytest.raises(StatsError):
            StatTask(name="x", kind="bootstrap_share", counts=COUNTS,
                     confidence=1.0)

    def test_permutation_needs_both_samples(self):
        with pytest.raises(StatsError):
            StatTask(name="x", kind="permutation_tvd", a=COUNTS)

    def test_tvd_needs_matching_categories(self):
        with pytest.raises(StatsError):
            StatTask(name="x", kind="permutation_tvd", a=(1, 2, 3), b=(1, 2))

    def test_mean_needs_finite_samples(self):
        with pytest.raises(StatsError):
            StatTask(name="x", kind="permutation_mean",
                     a=(1.0, float("nan")), b=(2.0, 3.0))

    @pytest.mark.parametrize("fields", [
        dict(kind="bootstrap_share", counts=(2.7, 3.2)),
        dict(kind="permutation_tvd", a=(2.5, 3.0), b=(1.0, 2.0)),
        dict(kind="permutation_tvd", a=(2.0, 3.0), b=(1.0, float("inf"))),
    ], ids=["bootstrap", "tvd", "tvd-infinite"])
    def test_counts_must_be_whole(self, fields):
        # Truncating (2.7, 3.2) to (2, 3) would estimate another table.
        with pytest.raises(StatsError, match="whole numbers"):
            StatTask(name="x", **fields)

    def test_counts_accept_frequency_table(self):
        table = FrequencyTable.from_observations(["a"] * 3 + ["b"] * 7)
        task = StatTask(name="x", kind="bootstrap_share", counts=table)
        assert sum(task.counts) == 10


class TestStatSpecValidation:
    def test_needs_tasks(self):
        with pytest.raises(StatsError):
            StatSpec(tasks=())

    def test_names_must_be_unique(self):
        with pytest.raises(StatsError):
            StatSpec(tasks=(share_task("a"), share_task("a")))

    def test_max_draws_requires_target_se(self):
        with pytest.raises(StatsError):
            StatSpec(tasks=(share_task(),), max_draws=5000)

    def test_target_se_positive_finite(self):
        for bad in (0.0, -1e-3, float("inf")):
            with pytest.raises(StatsError):
                StatSpec(tasks=(share_task(),), target_se=bad)

    def test_draw_plan_modes(self):
        fixed = StatSpec(tasks=(share_task(),), draws=2000)
        assert not fixed.adaptive
        assert fixed.draw_cap == 2000
        assert fixed.draw_plan()["mode"] == "fixed"
        adaptive = StatSpec(tasks=(share_task(),), draws=2000,
                            target_se=1e-3, max_draws=20_000)
        assert adaptive.adaptive
        assert adaptive.draw_cap == 20_000
        assert adaptive.draw_plan()["mode"] == "adaptive"


class TestRunStatSweep:
    def test_deterministic(self):
        spec = StatSpec(
            tasks=(
                share_task("share:a", 0),
                StatTask(name="tvd", kind="permutation_tvd",
                         a=(30, 20, 10), b=(25, 25, 10)),
                StatTask(name="mean", kind="permutation_mean",
                         a=(1.0, 2.0, 3.0, 4.0), b=(2.5, 3.5, 4.5, 5.5)),
            ),
            seed=7, draws=2000, round_size=500,
        )
        first = run_stat_sweep(spec)
        second = run_stat_sweep(spec)
        assert first.to_dict() == second.to_dict()
        assert first["tvd"].kind == "permutation_tvd"
        with pytest.raises(KeyError):
            first["missing"]

    def test_adaptive_stops_early_and_reports_savings(self):
        spec = StatSpec(
            tasks=tuple(
                share_task(f"share:{i}", i) for i in range(len(COUNTS))
            ),
            seed=7, draws=50_000, round_size=1000,
            target_se=2e-3, max_draws=50_000,
        )
        result = run_stat_sweep(spec)
        assert result.n_replications_budget == 50_000 * len(COUNTS)
        assert 0 < result.n_replications_run < result.n_replications_budget
        assert result.n_replications_saved == (
            result.n_replications_budget - result.n_replications_run
        )
        for cell in result.cells:
            assert cell.se <= 2e-3

    def test_adaptive_prefix_matches_fixed_stream(self):
        """A task that stopped at n draws saw exactly the first n draws
        of the capped run — the entropy-reuse contract."""
        adaptive = run_stat_sweep(StatSpec(
            tasks=(share_task(),), seed=7, draws=50_000,
            round_size=1000, target_se=2e-3,
        )).cells[0]
        fixed = run_stat_sweep(StatSpec(
            tasks=(share_task(),), seed=7, draws=adaptive.draws,
            round_size=1000,
        )).cells[0]
        assert fixed.to_dict() == adaptive.to_dict()

    def test_estimates_agree_with_one_shot_inference(self):
        result = run_stat_sweep(StatSpec(
            tasks=(
                share_task("share", 0),
                StatTask(name="tvd", kind="permutation_tvd",
                         a=(300, 50, 20), b=(100, 150, 90)),
            ),
            seed=3, draws=20_000, round_size=2000,
        ))
        share = result["share"].estimate
        low, high = bootstrap_share_ci(COUNTS, 0, n_resamples=20_000, seed=3)
        assert share["share"] == pytest.approx(COUNTS[0] / sum(COUNTS))
        assert share["low"] == pytest.approx(low, abs=0.02)
        assert share["high"] == pytest.approx(high, abs=0.02)
        tvd = result["tvd"].estimate
        oneshot_tvd = permutation_tvd_test(
            (300, 50, 20), (100, 150, 90), n_permutations=5000, seed=3
        )
        assert tvd["statistic"] == pytest.approx(oneshot_tvd.statistic)
        assert tvd["p_value"] < 0.01  # clearly different distributions

    def test_cache_round_trip(self):
        cache = ArtifactCache()
        spec = StatSpec(tasks=(share_task(),), seed=7, draws=2000,
                        round_size=1000)
        cold = run_stat_sweep(spec, cache=cache)
        warm = run_stat_sweep(spec, cache=cache)
        assert cold.computed and not cold.cached
        assert warm.cached and not warm.computed
        assert warm.n_replications_run == 0
        assert warm.cells[0].to_dict() == cold.cells[0].to_dict()

    def test_draw_plan_is_part_of_cache_identity(self):
        cache = ArtifactCache()
        run_stat_sweep(StatSpec(tasks=(share_task(),), seed=7, draws=2000),
                       cache=cache)
        result = run_stat_sweep(
            StatSpec(tasks=(share_task(),), seed=7, draws=2000,
                     target_se=1e-2),
            cache=cache,
        )
        assert result.computed  # adaptive plan is a different experiment

    def test_ledger_record(self, tmp_path):
        registry = RunRegistry(tmp_path / "runs")
        telemetry = Telemetry()
        result = run_stat_sweep(
            StatSpec(tasks=(share_task(),), seed=7, draws=2000,
                     round_size=500, target_se=1e-4),
            telemetry=telemetry, registry=registry,
        )
        record = registry.last(1)[0]
        assert record.kind == "stat-sweep"
        assert float(record.meta["target_se"]) == 1e-4
        assert record.metrics["mc.replications"] == (
            result.n_replications_run
        )
        assert record.metrics["mc.replications_budget"] == (
            result.n_replications_budget
        )
        snapshot = telemetry.metrics.snapshot()
        assert snapshot["stat.draws"]["value"] == result.n_replications_run

    def test_zero_variance_mean_sample(self):
        result = run_stat_sweep(StatSpec(
            tasks=(StatTask(name="flat", kind="permutation_mean",
                            a=(2.0, 2.0, 2.0), b=(2.0, 2.0)),),
            seed=1, draws=1000, round_size=1000,
        ))
        assert result["flat"].estimate["p_value"] > 0.99

    def test_cache_hit_keeps_the_requested_name(self):
        """The cache key holds what a task estimates, not its name: a hit
        from a same-data task of another name is reported under the name
        asked for."""
        cache = ArtifactCache()
        plan = dict(seed=7, draws=1000, round_size=500)
        run_stat_sweep(StatSpec(tasks=(share_task("a"),), **plan),
                       cache=cache)
        warm = run_stat_sweep(StatSpec(tasks=(share_task("b"),), **plan),
                              cache=cache)
        assert warm.cached == ("bootstrap_share|b",)
        assert warm["b"].cell_id == "bootstrap_share|b"


class TestInterleavedRounds:
    """The shared round queue interleaves the rounds of every task in a
    sweep; a task's result must not depend on its neighbours."""

    TASKS = (
        share_task("share:a", 0),
        share_task("share:d", 3),
        StatTask(name="tvd", kind="permutation_tvd",
                 a=(30, 20, 10), b=(25, 25, 10)),
        StatTask(name="mean", kind="permutation_mean",
                 a=(1.0, 2.0, 3.0, 4.0), b=(2.5, 3.5, 4.5, 5.5)),
    )

    @pytest.mark.parametrize(
        "adaptive", [False, True], ids=["fixed", "adaptive"]
    )
    def test_task_cell_independent_of_neighbours(self, adaptive):
        plan = dict(seed=7, draws=3000, round_size=500)
        if adaptive:
            plan.update(target_se=1e-2, max_draws=3000)
        together = run_stat_sweep(StatSpec(tasks=self.TASKS, **plan))
        for task in self.TASKS:
            others = tuple(t for t in self.TASKS if t is not task)
            alone = run_stat_sweep(StatSpec(tasks=(task,), **plan))
            first = run_stat_sweep(StatSpec(tasks=(task, *others), **plan))
            last = run_stat_sweep(StatSpec(tasks=(*others, task), **plan))
            cell = alone[task.name]
            assert first[task.name] == cell
            assert last[task.name] == cell
            assert together[task.name] == cell
        draws = {cell.draws for cell in together.cells}
        # Adaptive tasks stop after different numbers of rounds, so the
        # queue really interleaves unequal streams.
        assert len(draws) == (3 if adaptive else 1)


class TestFrontDoors:
    def test_share_ci_tasks_covers_every_label(self):
        table = FrequencyTable.from_observations(
            ["heft"] * 12 + ["energy"] * 7 + ["rr"] * 3
        )
        tasks = share_ci_tasks(table, prefix="fig2")
        assert [t.name for t in tasks] == [
            f"fig2:{label}" for label in table.labels
        ]
        assert all(t.kind == "bootstrap_share" for t in tasks)
        spec = StatSpec(tasks=tasks, seed=2, draws=1000, round_size=500)
        result = run_stat_sweep(spec)
        shares = [cell.estimate["share"] for cell in result.cells]
        assert sum(shares) == pytest.approx(1.0)

    @staticmethod
    def adaptive(task, *, target_se, max_draws, seed):
        """One task run adaptively: draws stop at *target_se*, capped at
        *max_draws*, in rounds of 1,000."""
        spec = StatSpec(tasks=(task,), seed=seed, draws=max_draws,
                        round_size=1_000, target_se=target_se,
                        max_draws=max_draws)
        return run_stat_sweep(spec).cells[0]

    def test_adaptive_bootstrap_share_ci(self):
        cell = self.adaptive(
            StatTask(name="bootstrap_share:0", kind="bootstrap_share",
                     counts=COUNTS, label_index=0),
            target_se=2e-3, max_draws=50_000, seed=5,
        )
        assert cell.kind == "bootstrap_share"
        assert cell.estimate["low"] < cell.estimate["share"]
        assert cell.estimate["share"] < cell.estimate["high"]
        assert cell.draws < 50_000

    def test_adaptive_permutation_tvd(self):
        cell = self.adaptive(
            StatTask(name="permutation_tvd", kind="permutation_tvd",
                     a=(300, 50, 20), b=(100, 150, 90)),
            target_se=5e-3, max_draws=20_000, seed=5,
        )
        assert cell.estimate["p_value"] < 0.01

    def test_adaptive_permutation_mean(self):
        rng = np.random.default_rng(5)
        a = rng.normal(0.0, 1.0, size=40)
        b = rng.normal(0.05, 1.0, size=40)  # nearly identical means
        cell = self.adaptive(
            StatTask(name="permutation_mean", kind="permutation_mean",
                     a=tuple(a), b=tuple(b)),
            target_se=1e-2, max_draws=20_000, seed=5,
        )
        assert cell.estimate["p_value"] > 0.05


class TestStatCellSerialization:
    def test_round_trip(self):
        cell = run_stat_sweep(
            StatSpec(tasks=(share_task(),), seed=7, draws=1000,
                     round_size=1000)
        ).cells[0]
        clone = StatCell.from_dict(cell.to_dict())
        assert clone.to_dict() == cell.to_dict()
        assert clone.cell_id == "bootstrap_share|share"

    def test_malformed_payload(self):
        with pytest.raises(StatsError):
            StatCell.from_dict({"name": "x", "kind": "bootstrap_share"})
