"""Platform power accounting over time.

Turns a :class:`~repro.continuum.scheduling.Schedule` (or an
:class:`~repro.continuum.simulate.ExecutionTrace`) into a platform power
*trace*: the piecewise-constant total power draw over the makespan, built
vectorized from start/finish events.  From the trace come the figures of
merit energy studies report:

* peak platform power (provisioning limit),
* average power,
* total energy (trapezoid-free exact integral of the step function),
* energy-delay product (EDP) and energy-delay² (ED2P),
* per-tier energy breakdown (HPC / cloud / edge).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.continuum.resources import Continuum, ResourceKind
from repro.continuum.scheduling import Schedule
from repro.errors import ContinuumError

__all__ = ["PowerTrace", "power_trace", "energy_report"]


@dataclass(frozen=True, slots=True)
class PowerTrace:
    """A piecewise-constant platform power profile.

    Attributes
    ----------
    times:
        Breakpoints, starting at 0.0 and ending at the makespan.
    power:
        Total platform power on ``[times[i], times[i+1])``; one entry
        fewer than :attr:`times`.
    """

    times: np.ndarray
    power: np.ndarray

    def __post_init__(self) -> None:
        if self.times.ndim != 1 or self.power.ndim != 1:
            raise ContinuumError("trace arrays must be 1-D")
        if len(self.times) != len(self.power) + 1:
            raise ContinuumError("need one more breakpoint than power level")
        if (np.diff(self.times) < -1e-12).any():
            raise ContinuumError("breakpoints must be non-decreasing")
        self.times.setflags(write=False)
        self.power.setflags(write=False)

    @property
    def makespan(self) -> float:
        return float(self.times[-1] - self.times[0])

    def peak_power(self) -> float:
        """Highest instantaneous platform power."""
        return float(self.power.max())

    def energy(self) -> float:
        """Exact integral of the step function (joules)."""
        return float((self.power * np.diff(self.times)).sum())

    def average_power(self) -> float:
        """Energy divided by makespan."""
        if self.makespan == 0:
            raise ContinuumError("zero-length trace has no average power")
        return self.energy() / self.makespan

    def power_at(self, time: float) -> float:
        """Platform power at an instant (right-continuous)."""
        if not self.times[0] <= time <= self.times[-1]:
            raise ContinuumError(
                f"time {time} outside trace [{self.times[0]}, {self.times[-1]}]"
            )
        index = int(np.searchsorted(self.times, time, side="right")) - 1
        index = min(index, len(self.power) - 1)
        return float(self.power[index])


def power_trace(
    schedule: Schedule,
    *,
    include_idle: bool = True,
) -> PowerTrace:
    """Build the platform power trace of a schedule.

    Each resource draws busy power while running a task; with
    *include_idle* it draws idle power otherwise (the platform view), else
    0 (the workload-attributable view).  Built vectorized: one +delta/-delta
    event pair per placement, sorted, cumulative-summed.
    """
    continuum: Continuum = schedule.continuum
    placements = schedule.placements
    makespan = schedule.makespan

    base = 0.0
    if include_idle:
        base = float(continuum.idle_powers.sum())

    deltas: list[tuple[float, float]] = []
    for placement in placements:
        resource = continuum[placement.resource]
        step = resource.busy_power - (
            resource.idle_power if include_idle else 0.0
        )
        deltas.append((placement.start, step))
        deltas.append((placement.finish, -step))
    if not deltas:
        return PowerTrace(
            np.asarray([0.0, max(makespan, 0.0)]),
            np.asarray([base]),
        )
    events = np.asarray(deltas, dtype=np.float64)
    order = np.argsort(events[:, 0], kind="stable")
    events = events[order]
    times = np.concatenate(([0.0], events[:, 0], [makespan]))
    levels = base + np.concatenate(([0.0], np.cumsum(events[:, 1])))
    # Deduplicate zero-width segments for a clean trace.
    keep = np.diff(times) > 1e-15
    segment_starts = times[:-1][keep]
    segment_levels = levels[keep]
    trace_times = np.concatenate((segment_starts, [times[-1]]))
    return PowerTrace(trace_times, segment_levels)


def energy_report(schedule: Schedule) -> dict[str, float]:
    """All energy figures of merit for one schedule.

    Keys: ``makespan``, ``peak_power``, ``average_power``, ``energy``,
    ``edp``, ``ed2p``, ``carbon``, plus ``energy_<tier>`` per continuum
    tier present (busy energy attributable to that tier).
    """
    trace = power_trace(schedule, include_idle=True)
    makespan = schedule.makespan
    energy = trace.energy()
    report: dict[str, float] = {
        "makespan": makespan,
        "peak_power": trace.peak_power(),
        "average_power": trace.average_power(),
        "energy": energy,
        "edp": energy * makespan,
        "ed2p": energy * makespan * makespan,
        "carbon": schedule.carbon(),
    }
    for kind in ResourceKind:
        members = {r.key for r in schedule.continuum.by_kind(kind)}
        if not members:
            continue
        tier_energy = sum(
            schedule.continuum[p.resource].busy_power * p.duration
            for p in schedule.placements
            if p.resource in members
        )
        report[f"energy_{kind.value}"] = float(tier_energy)
    return report
