"""Adaptive fan-out for randomized inference: the sweep engine for stats.

The inference routines in :mod:`repro.stats.inference` are one-shot: a
caller picks ``n_resamples``/``n_permutations`` upfront and pays for all
of them, whether the Monte-Carlo error collapsed after 500 draws or
never reached a usable level.  The study's sensitivity analyses (seed ×
parameter ablations over the Table 1/2 shares and the Fig. 2–4
distributions) ask the same question for *dozens* of estimates at once —
exactly the shape :mod:`repro.continuum.montecarlo` solves for grid
cells.  This module runs them on the same engine,
:mod:`repro.stats.rounds`, and supplies only what is particular to
statistics:

* **tasks instead of cells** — a :class:`StatTask` names one randomized
  estimate: a bootstrap CI for a category share, or a permutation
  p-value (total-variation or difference-of-means);
* **the fold** — a round is one call of the task's draw kernel, the
  same function its one-shot test in :mod:`repro.stats.inference` calls,
  with its own ``SeedSequence`` child of the task's content-addressed
  entropy, so a task's draw stream is identical whether it stops early
  or runs to the cap;
* **the stop rule** — adaptive mode stops a task once the Monte-Carlo
  standard error of its estimate reaches :attr:`StatSpec.target_se`
  (binomial s.e. for p-values, resample s.e. for bootstrap shares),
  capped at the draw budget.

Caching, the interleaved round queue, telemetry and the ``stat-sweep``
ledger record come from the engine.  Stat sweeps take its serial path:
a round is already one array call, so a process pool's fan-out overhead
would dominate.  Rounds fold in order, so a task's result is the same
however many other tasks share the sweep.

The entry points are :func:`run_stat_sweep` and :func:`share_ci_tasks`
(the Fig. 2/4 share sensitivity); one adaptive estimate is a one-task
:class:`StatSpec`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Mapping

import numpy as np

from repro.errors import StatsError
from repro.stats.frequency import FrequencyTable
from repro.stats.inference import (
    check_share,
    count_pair,
    finite_sample,
    mean_exceedances,
    p_value,
    share_interval,
    share_resamples,
    total_variation_distance,
    tvd_exceedances,
    whole_counts,
)
from repro.stats.rounds import Rounds, SweepOutcome, Unit, round_rng, run_rounds

__all__ = [
    "STAT_ENGINE_VERSION",
    "STAT_KINDS",
    "StatTask",
    "StatSpec",
    "StatCell",
    "StatSweepResult",
    "run_stat_sweep",
    "share_ci_tasks",
]

#: Bump when draw semantics or the result layout change (cache-key part).
STAT_ENGINE_VERSION = "1"

#: Task kinds the engine knows how to draw rounds for.
STAT_KINDS = ("bootstrap_share", "permutation_tvd", "permutation_mean")


@dataclass(frozen=True)
class StatTask:
    """One randomized estimate to drive through the fan-out.

    ``kind`` selects the draw routine; the data fields it needs are
    kind-specific (``counts``/``label_index``/``confidence`` for
    ``bootstrap_share``; ``a``/``b`` for the permutation tests — whole
    counts for ``permutation_tvd``, continuous samples for
    ``permutation_mean``).  Data is stored as plain tuples so a task is
    hashable and content-addressable.
    """

    name: str
    kind: str
    counts: tuple[int, ...] | None = None
    label_index: int = 0
    confidence: float = 0.95
    a: tuple[float, ...] | None = None
    b: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise StatsError("stat task needs a name")
        if self.kind not in STAT_KINDS:
            raise StatsError(
                f"unknown stat task kind {self.kind!r}; "
                f"choose from {STAT_KINDS}"
            )
        if self.kind == "bootstrap_share":
            if self.counts is None:
                raise StatsError("bootstrap_share needs counts")
            counts = tuple(int(v) for v in whole_counts(self.counts))
            object.__setattr__(self, "counts", counts)
            check_share(len(counts), self.label_index, self.confidence)
        else:
            if self.a is None or self.b is None:
                raise StatsError(f"{self.kind} needs samples a and b")
            if self.kind == "permutation_tvd":
                a, b = count_pair(self.a, self.b)
            else:
                a, b = finite_sample(self.a, "a"), finite_sample(self.b, "b")
            object.__setattr__(self, "a", tuple(a.tolist()))
            object.__setattr__(self, "b", tuple(b.tolist()))

    def identity(self) -> dict[str, Any]:
        """Everything that pins this task's draw streams and estimate."""
        payload: dict[str, Any] = {"kind": self.kind}
        if self.kind == "bootstrap_share":
            payload["counts"] = list(self.counts)
            payload["label_index"] = self.label_index
            payload["confidence"] = self.confidence
        else:
            payload["a"] = list(self.a)
            payload["b"] = list(self.b)
        return payload


@dataclass(frozen=True)
class StatSpec:
    """A batch of stat tasks plus the shared draw plan.

    Mirrors :class:`~repro.continuum.montecarlo.SweepSpec`: fixed mode
    (``target_se is None``) runs exactly ``draws`` Monte-Carlo draws per
    task; adaptive mode runs rounds of ``round_size`` draws until the
    estimate's Monte-Carlo standard error is at most ``target_se``,
    capped at ``max_draws`` (default: ``draws``).
    """

    tasks: tuple[StatTask, ...]
    seed: int = 0
    draws: int = 10_000
    round_size: int = 1_000
    target_se: float | None = None
    max_draws: int | None = None

    def __post_init__(self) -> None:
        if not self.tasks:
            raise StatsError("stat sweep needs at least one task")
        names = [task.name for task in self.tasks]
        if len(set(names)) != len(names):
            raise StatsError("stat task names must be unique in a sweep")
        if self.draws < 100:
            raise StatsError("draws must be >= 100")
        if self.round_size < 100:
            raise StatsError("round_size must be >= 100")
        if self.target_se is not None and not (
            math.isfinite(self.target_se) and self.target_se > 0
        ):
            raise StatsError(
                f"target_se must be a finite value > 0, got {self.target_se}"
            )
        if self.max_draws is not None:
            if self.target_se is None:
                raise StatsError(
                    "max_draws requires target_se (a fixed sweep sizes "
                    "itself with draws)"
                )
            if self.max_draws < 100:
                raise StatsError("max_draws must be >= 100")

    @property
    def adaptive(self) -> bool:
        return self.target_se is not None

    @property
    def draw_cap(self) -> int:
        if self.adaptive and self.max_draws is not None:
            return self.max_draws
        return self.draws

    def draw_plan(self) -> dict[str, Any]:
        """The draw-sizing identity (part of every task cache key)."""
        if not self.adaptive:
            return {"mode": "fixed", "draws": self.draws}
        return {
            "mode": "adaptive",
            "target_se": self.target_se,
            "max_draws": self.draw_cap,
            "round_size": self.round_size,
        }


@dataclass(frozen=True, slots=True)
class StatCell:
    """Aggregated outcome of one stat task (the engine's "cell")."""

    name: str
    kind: str
    draws: int
    se: float
    estimate: dict[str, float]

    @property
    def cell_id(self) -> str:
        return f"{self.kind}|{self.name}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "cell_id": self.cell_id,
            "draws": self.draws,
            "se": self.se,
            "estimate": dict(self.estimate),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "StatCell":
        try:
            return cls(
                name=str(payload["name"]),
                kind=str(payload["kind"]),
                draws=int(payload["draws"]),
                se=float(payload["se"]),
                estimate={
                    str(key): float(value)
                    for key, value in payload["estimate"].items()
                },
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise StatsError(f"malformed stat cell payload: {exc}") from None


class StatSweepResult(SweepOutcome):
    """Outcome of :func:`run_stat_sweep`: one :class:`StatCell` per task
    (fields as in :class:`~repro.stats.rounds.SweepOutcome`; draws count
    as replications)."""

    engine_version = STAT_ENGINE_VERSION

    def __getitem__(self, name: str) -> StatCell:
        for cell in self.cells:
            if cell.name == name:
                return cell
        raise KeyError(name)


# -- per-kind draw rounds ----------------------------------------------------------


_KERNELS = {
    "bootstrap_share": share_resamples,
    "permutation_tvd": tvd_exceedances,
    "permutation_mean": mean_exceedances,
}


class _TaskState:
    """Streaming accumulation of one task's draw rounds; ``args`` are its
    kernel's data arguments."""

    __slots__ = ("task", "entropy", "args", "chunks", "exceed", "observed")

    def __init__(self, task: StatTask, entropy: int) -> None:
        self.task = task
        self.entropy = entropy
        self.chunks: list[np.ndarray] = []   # bootstrap share resamples
        self.exceed = 0                      # permutation exceedances
        self.observed = 0.0
        if task.kind == "bootstrap_share":
            self.args = (np.asarray(task.counts, np.float64), task.label_index)
            return
        a = np.asarray(task.a, dtype=np.float64)
        b = np.asarray(task.b, dtype=np.float64)
        if task.kind == "permutation_tvd":
            self.observed = total_variation_distance(a, b)
        else:
            self.observed = float(b.mean() - a.mean())
        self.args = (a, b, self.observed)


def _standard_error(state: _TaskState, draws: int) -> float:
    """Monte-Carlo standard error of the task's estimate after *draws*.

    Binomial s.e. of the p-value for permutation tests (with the
    add-one-smoothed p, so a zero-exceedance round still reports a
    nonzero, shrinking error), resample s.e. of the share for bootstrap
    tasks.  Both shrink as ``1/sqrt(draws)`` — the stopping rule's
    contract.
    """
    if state.task.kind == "bootstrap_share":
        shares = np.concatenate(state.chunks)
        if shares.size < 2:
            return math.inf
        return float(shares.std(ddof=1) / math.sqrt(shares.size))
    p = p_value(state.exceed, draws)
    return math.sqrt(p * (1.0 - p) / draws)


def _finish(state: _TaskState, draws: int) -> StatCell:
    task = state.task
    if task.kind == "bootstrap_share":
        low, high = share_interval(np.concatenate(state.chunks), task.confidence)
        share = task.counts[task.label_index] / sum(task.counts)
        estimate = {"share": share, "low": low, "high": high}
    else:
        p = p_value(state.exceed, draws)
        estimate = {"statistic": state.observed, "p_value": p}
    return StatCell(
        name=task.name,
        kind=task.kind,
        draws=draws,
        se=_standard_error(state, draws),
        estimate=estimate,
    )


# -- the sweep driver --------------------------------------------------------------


def run_stat_sweep(
    spec: StatSpec,
    *,
    cache=None,
    telemetry=None,
    registry=None,
) -> StatSweepResult:
    """Run every task of *spec*, adaptively sized, cached, and recorded.

    Tasks are content-addressed (engine version, seed, task data, draw
    plan): an :class:`~repro.pipeline.cache.ArtifactCache` hit skips all
    of a task's draws.  With a bound telemetry the sweep is traced
    (``stat_sweep`` span) and counted (``stat.draws``, ``stat.rounds``,
    ``stat.draws_saved``, ``stat.tasks_computed``, ``stat.tasks_cached``);
    a :class:`~repro.obs.RunRegistry` receives a ``stat-sweep`` ledger
    record built by the same :func:`~repro.obs.build_sweep_record` that
    digests mc-sweeps.
    """
    from repro.pipeline.cache import stable_digest

    plan = spec.draw_plan()
    units = []
    for task in spec.tasks:
        # Entropy is plan-free: a task's draw stream depends only on what
        # it estimates (and the sweep seed), so a run that stops early
        # folds a bit-identical prefix of the capped run's stream.  The
        # cache key adds the plan on top — a different stopping rule is
        # a different experiment even though it shares the stream.
        identity = {"engine": STAT_ENGINE_VERSION, "seed": spec.seed,
                    "task": task.identity()}
        key = stable_digest("stat-task", {**identity, "plan": plan})
        units.append(Unit(f"{task.kind}|{task.name}", key, identity, task))
    meta: dict[str, Any] = {"seed": spec.seed, "draws": spec.draws}
    if spec.adaptive:
        meta["target_se"] = spec.target_se
        meta["max_draws"] = spec.draw_cap
    return run_rounds(
        _StatRounds(spec), units,
        cap=spec.draw_cap, round_size=spec.round_size,
        adaptive=spec.adaptive, meta=meta, cache=cache,
        telemetry=telemetry, registry=registry,
    )


class _StatRounds(Rounds):
    """Stat tasks on the round engine: round *k* of a task draws
    ``round_size`` samples from ``round_rng(entropy, k)``."""

    span, prefix, units, draws = "stat_sweep", "stat", "tasks", "draws"
    result = StatSweepResult

    def __init__(self, spec: StatSpec) -> None:
        self.spec = spec

    def decode(self, unit: Unit, payload: Mapping[str, Any]) -> StatCell:
        # The key holds what a task estimates, not its name: a hit may
        # come from a task of another name with the same data.
        return replace(StatCell.from_dict(payload), name=unit.spec.name)

    def prepare(self, misses: list[Unit], telemetry):
        self.states = [_TaskState(unit.spec, unit.entropy) for unit in misses]
        return self._draw, None, ()

    def _draw(self, item: tuple[int, int, int]):
        index, start, count = item
        state = self.states[index]
        rng = round_rng(state.entropy, start // self.spec.round_size)
        return _KERNELS[state.task.kind](rng, count, *state.args)

    def fold(self, index: int, values) -> None:
        state = self.states[index]
        if state.task.kind == "bootstrap_share":
            state.chunks.append(values)
        else:
            state.exceed += values

    def stop(self, index: int, folded: int) -> bool:
        se = _standard_error(self.states[index], folded)
        return se <= self.spec.target_se

    def finish(self, index: int, folded: int) -> StatCell:
        return _finish(self.states[index], folded)


# -- front doors -------------------------------------------------------------------


def share_ci_tasks(
    table: FrequencyTable,
    *,
    prefix: str = "share",
    confidence: float = 0.95,
) -> tuple[StatTask, ...]:
    """One ``bootstrap_share`` task per label of a frequency table.

    The study's Fig. 2/4 share sensitivity in one call:
    ``run_stat_sweep(StatSpec(tasks=share_ci_tasks(votes), ...))``.
    """
    counts = tuple(int(v) for v in table.values)
    return tuple(
        StatTask(
            name=f"{prefix}:{label}",
            kind="bootstrap_share",
            counts=counts,
            label_index=index,
            confidence=confidence,
        )
        for index, label in enumerate(table.labels)
    )
