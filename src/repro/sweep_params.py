"""The sweep request parameters, declared once.

``repro sweep`` and ``POST /sweeps`` take the same seven parameters, and
both derive from :data:`SWEEP_PARAMS`: :func:`add_options` generates the
CLI options, and :func:`check_request` validates a parsed command line
and a JSON body alike (``MonteCarloError``: CLI exit 1, HTTP 400) before
any fleet is built or any process starts.  Upper bounds keep one
request's cost in reach of a shared server: ``fleet`` at most 1,000
workflows (building that fleet alone took 0.8 s CPU and 32 MB on a
2-core VM), and ``replications``/``max_replications`` at most 100,000
per cell (about 5 s of replay per cell for a 50-task workflow).  The module imports neither
numpy nor :mod:`repro.continuum`: every ``repro serve`` boot builds the
CLI parser, which imports it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.errors import MonteCarloError

__all__ = ["Param", "SWEEP_PARAMS", "SPEC_PARAMS", "add_options",
           "check_request"]


@dataclass(frozen=True)
class Param:
    """One request parameter, bounded by ``low`` and ``high()``
    (inclusive; ``high`` is called at check time)."""

    name: str
    kind: type
    default: Any
    help: str
    metavar: str
    low: int | None = None
    high: Callable[[], int] | None = None

    def check(self, value: Any) -> Any:
        """*value* as this parameter's type (an int is a float, a bool is
        no number), or ``MonteCarloError`` when it has another type or
        lies out of range."""
        if value is None and self.default is None:
            return None
        try:
            if self.kind is float and type(value) is int:
                value = float(value)
        except OverflowError:
            raise MonteCarloError(f"{self.name} is out of range") from None
        if isinstance(value, bool) or not isinstance(value, self.kind):
            raise MonteCarloError(f"{self.name} must be {self.kind.__name__}"
                                  f", got {type(value).__name__}")
        high = self.high() if self.high else None
        if self.low is not None and value < self.low or (
                high is not None and value > high):
            bound = f">= {self.low}" if high is None else \
                f"in [{self.low}, {high}]"
            raise MonteCarloError(f"{self.name} must be {bound}, got {value}")
        return value


#: The sweep request, in ``repro sweep --help`` order.
SWEEP_PARAMS: tuple[Param, ...] = (
    Param("grid", str, "scheduler=heft",
          "grid axes as 'key=v1,v2;key=v1' with keys scheduler "
          "(heft|energy|round_robin), mtbf (floats or 'none'), jitter "
          "(floats), policy (restart|migrate); omitted axes default to "
          "scheduler=heft;mtbf=none;jitter=0;policy=restart", "SPEC"),
    Param("fleet", int, 3,
          "synthetic workflows in the fleet, 1 to 1000 (default "
          "%(default)s)", "N", low=1, high=lambda: 1_000),
    Param("replications", int, 100,
          "Monte-Carlo replications per grid cell, 1 to 100000 (default "
          "%(default)s)", "R", low=1, high=lambda: 100_000),
    Param("seed", int, 0, "sweep seed (default %(default)s)", "S", low=0),
    Param("target_ci", float, None,
          "adaptive mode: stop each cell once the 95%% confidence "
          "half-width of its mean makespan is within CI (relative, e.g. "
          "0.02) instead of running a fixed count; noisy cells run up to "
          "--max-replications", "CI"),
    Param("max_replications", int, None,
          "replication cap per cell in adaptive mode, 1 to 100000 "
          "(default: --replications; requires --target-ci)", "R", low=1,
          high=lambda: 100_000),
    # Last: it sizes the process pool, which starts all its workers up
    # front, not the experiment.
    Param("workers", int, 0,
          "worker processes, at most the host's cores (default 0 = "
          "serial; same results either way)", "W", low=0,
          high=lambda: os.cpu_count() or 1),
)

#: What :func:`repro.continuum.build_sweep_spec` takes.
SPEC_PARAMS = SWEEP_PARAMS[:-1]


def add_options(parser: Any) -> None:
    """Add one ``--name`` option per sweep parameter to an argparse parser."""
    for param in SWEEP_PARAMS:
        parser.add_argument(
            "--" + param.name.replace("_", "-"), type=param.kind,
            default=param.default, metavar=param.metavar, help=param.help,
        )


def check_request(fields: Any,
                  params: tuple[Param, ...] = SWEEP_PARAMS) -> dict[str, Any]:
    """Every parameter in *params*, validated, defaults filled in; the
    cost depends only on the request's size, since nothing is built."""
    if not isinstance(fields, Mapping):
        raise MonteCarloError("request body must be a JSON object")
    unknown = sorted(set(fields) - {param.name for param in params})
    if unknown:
        raise MonteCarloError(f"unknown sweep field(s): {', '.join(unknown)}")
    return {param.name: param.check(fields.get(param.name, param.default))
            for param in params}
