"""Computing-Continuum substrate: resources, workflows, scheduling, matching."""

from repro.continuum.capabilities import capability_matrix, capability_vector
from repro.continuum.compile import (
    CompiledContinuum,
    CompiledProblem,
    CompiledWorkflow,
    compile_problem,
)
from repro.continuum.energy import PowerTrace, energy_report, power_trace
from repro.continuum.failures import FailureTrace, simulate_with_failures
from repro.continuum.matching import MatchModel, MatchReport
from repro.continuum.montecarlo import (
    CellAggregate,
    CellSpec,
    CellStats,
    MetricSummary,
    QuantileSketch,
    ReplicationResult,
    RunningStat,
    SimulationContext,
    SweepResult,
    SweepSpec,
    build_sweep_spec,
    parse_grid,
    replicate_once,
    run_sweep,
)
from repro.continuum.requirements import requirement_matrix, requirement_vector
from repro.continuum.resources import (
    Continuum,
    Resource,
    ResourceKind,
    default_continuum,
)
from repro.continuum.scheduling import (
    EnergyAwareScheduler,
    HeftScheduler,
    RoundRobinScheduler,
    Schedule,
    TaskPlacement,
)
from repro.continuum.serialize import (
    continuum_from_dict,
    continuum_to_dict,
    load_workflow,
    save_workflow,
    schedule_to_dot,
    workflow_from_dict,
    workflow_to_dict,
    workflow_to_dot,
)
from repro.continuum.simulate import ExecutionTrace, simulate_schedule
from repro.continuum.workflow import (
    Task,
    Workflow,
    layered_workflow,
    random_workflow,
)

__all__ = [
    "CellAggregate",
    "CellSpec",
    "CellStats",
    "CompiledContinuum",
    "CompiledProblem",
    "CompiledWorkflow",
    "Continuum",
    "EnergyAwareScheduler",
    "ExecutionTrace",
    "FailureTrace",
    "HeftScheduler",
    "MatchModel",
    "MatchReport",
    "MetricSummary",
    "PowerTrace",
    "QuantileSketch",
    "energy_report",
    "power_trace",
    "ReplicationResult",
    "Resource",
    "ResourceKind",
    "RoundRobinScheduler",
    "RunningStat",
    "Schedule",
    "SimulationContext",
    "SweepResult",
    "SweepSpec",
    "Task",
    "TaskPlacement",
    "Workflow",
    "build_sweep_spec",
    "capability_matrix",
    "capability_vector",
    "compile_problem",
    "default_continuum",
    "parse_grid",
    "layered_workflow",
    "random_workflow",
    "requirement_matrix",
    "requirement_vector",
    "replicate_once",
    "run_sweep",
    "simulate_schedule",
    "simulate_with_failures",
    "continuum_from_dict",
    "continuum_to_dict",
    "load_workflow",
    "save_workflow",
    "schedule_to_dot",
    "workflow_from_dict",
    "workflow_to_dict",
    "workflow_to_dot",
]
