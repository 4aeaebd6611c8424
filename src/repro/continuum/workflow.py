"""Workflow DAG model.

The paper's subject matter — scientific workflows in the Computing
Continuum — needs an executable substrate: a task graph with costs and data
dependencies.  :class:`Workflow` validates acyclicity, exposes topological
order, critical-path analysis (vectorized longest path over the topological
order), and a seeded random generator for benchmark workloads.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError, WorkflowGraphError

__all__ = ["Task", "Workflow", "random_workflow", "layered_workflow"]

#: Upper-triangle pairs drawn per ``rng.random`` call in
#: :func:`random_workflow`; bounds its working memory at ~9 MB.
_EDGE_CHUNK = 1 << 20


@dataclass(frozen=True, slots=True)
class Task:
    """One workflow step.

    Parameters
    ----------
    key:
        Unique task identifier within its workflow.
    work:
        Computational cost in abstract operations (e.g. GFLOP); execution
        time on a resource is ``work / speed``.
    output_size:
        Data produced for each successor, in abstract units (e.g. GB);
        transfer time over a link is ``output_size / bandwidth``.
    requirements:
        Non-functional tags a resource must offer (e.g. ``{"gpu"}``).
    """

    key: str
    work: float
    output_size: float = 0.0
    requirements: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not self.key:
            raise ValidationError("task key must be non-empty")
        if self.work <= 0:
            raise ValidationError(f"task {self.key!r}: work must be > 0")
        if self.output_size < 0:
            raise ValidationError(f"task {self.key!r}: output_size must be >= 0")
        object.__setattr__(self, "requirements", frozenset(self.requirements))


class Workflow:
    """A directed acyclic graph of :class:`Task` objects.

    Edges point from producer to consumer.  Construction validates that all
    edges reference known tasks and the graph is acyclic; topological order
    is computed once (Kahn's algorithm) and cached.
    """

    def __init__(
        self,
        name: str,
        tasks: Iterable[Task],
        edges: Iterable[tuple[str, str]] = (),
    ) -> None:
        if not name:
            raise ValidationError("workflow name must be non-empty")
        self.name = name
        self._tasks: dict[str, Task] = {}
        for task in tasks:
            if task.key in self._tasks:
                raise WorkflowGraphError(f"duplicate task {task.key!r}")
            self._tasks[task.key] = task
        if not self._tasks:
            raise WorkflowGraphError("workflow needs at least one task")

        self._successors: dict[str, list[str]] = {k: [] for k in self._tasks}
        self._predecessors: dict[str, list[str]] = {k: [] for k in self._tasks}
        seen_edges: set[tuple[str, str]] = set()
        for src, dst in edges:
            if src not in self._tasks or dst not in self._tasks:
                raise WorkflowGraphError(f"edge ({src!r}, {dst!r}) references unknown task")
            if src == dst:
                raise WorkflowGraphError(f"self-loop on {src!r}")
            if (src, dst) in seen_edges:
                continue
            seen_edges.add((src, dst))
            self._successors[src].append(dst)
            self._predecessors[dst].append(src)
        self._topo = self._topological_order()

    # -- structure -------------------------------------------------------------

    def _topological_order(self) -> tuple[str, ...]:
        in_degree = {k: len(v) for k, v in self._predecessors.items()}
        ready = [k for k, d in in_degree.items() if d == 0]
        order: list[str] = []
        while ready:
            node = ready.pop()
            order.append(node)
            for succ in self._successors[node]:
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self._tasks):
            raise WorkflowGraphError(f"workflow {self.name!r} contains a cycle")
        return tuple(order)

    @property
    def tasks(self) -> tuple[Task, ...]:
        """Tasks in insertion order."""
        return tuple(self._tasks.values())

    @property
    def task_keys(self) -> tuple[str, ...]:
        return tuple(self._tasks)

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        """All edges as (producer, consumer) pairs."""
        return tuple(
            (src, dst)
            for src, dsts in self._successors.items()
            for dst in dsts
        )

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks.values())

    def __contains__(self, key: object) -> bool:
        return key in self._tasks

    def __getitem__(self, key: str) -> Task:
        try:
            return self._tasks[key]
        except KeyError:
            raise WorkflowGraphError(f"unknown task {key!r}") from None

    def successors(self, key: str) -> tuple[str, ...]:
        """Direct consumers of *key*."""
        self[key]
        return tuple(self._successors[key])

    def predecessors(self, key: str) -> tuple[str, ...]:
        """Direct producers feeding *key*."""
        self[key]
        return tuple(self._predecessors[key])

    def sources(self) -> tuple[str, ...]:
        """Tasks with no predecessors."""
        return tuple(k for k in self._tasks if not self._predecessors[k])

    def sinks(self) -> tuple[str, ...]:
        """Tasks with no successors."""
        return tuple(k for k in self._tasks if not self._successors[k])

    def topological_order(self) -> tuple[str, ...]:
        """A topological order of the task keys (cached)."""
        return self._topo

    # -- analysis ---------------------------------------------------------------

    def total_work(self) -> float:
        """Sum of task work."""
        return float(sum(task.work for task in self))

    def critical_path(self) -> tuple[tuple[str, ...], float]:
        """Longest work-weighted path (ignoring communication).

        Returns ``(path, length)`` where length sums the work of the path's
        tasks.  Computed by one pass over the topological order.
        """
        longest: dict[str, float] = {}
        best_pred: dict[str, str | None] = {}
        for key in self._topo:
            preds = self._predecessors[key]
            if preds:
                pred = max(preds, key=lambda p: longest[p])
                longest[key] = longest[pred] + self._tasks[key].work
                best_pred[key] = pred
            else:
                longest[key] = self._tasks[key].work
                best_pred[key] = None
        end = max(longest, key=longest.get)
        path: list[str] = []
        cursor: str | None = end
        while cursor is not None:
            path.append(cursor)
            cursor = best_pred[cursor]
        path.reverse()
        return tuple(path), float(longest[end])

    def width_profile(self) -> dict[int, int]:
        """Number of tasks per dependency level (level = longest hop count)."""
        level: dict[str, int] = {}
        for key in self._topo:
            preds = self._predecessors[key]
            level[key] = 1 + max((level[p] for p in preds), default=-1)
        profile: dict[int, int] = {}
        for depth in level.values():
            profile[depth] = profile.get(depth, 0) + 1
        return dict(sorted(profile.items()))


def random_workflow(
    n_tasks: int,
    *,
    edge_probability: float = 0.15,
    seed: int = 0,
    work_range: tuple[float, float] = (1.0, 100.0),
    output_range: tuple[float, float] = (0.0, 10.0),
    name: str | None = None,
) -> Workflow:
    """Generate a random DAG (edges only forward in a random order).

    Acyclicity holds by construction: tasks are laid out in a fixed order
    and edges only go from earlier to later positions.  Each pair
    ``(i, j)`` with ``i < j`` is an edge with probability
    *edge_probability*; the pairs are drawn in row-major order of the
    strict upper triangle, in bounded chunks of uniforms, so memory is
    O(chunk + edges) rather than O(n_tasks²).  Chunking does not change
    the draw stream: the output is identical to one draw over the whole
    triangle for every seed.
    """
    if n_tasks < 1:
        raise ValidationError("n_tasks must be >= 1")
    if not 0.0 <= edge_probability <= 1.0:
        raise ValidationError("edge_probability must be in [0, 1]")
    rng = np.random.default_rng(seed)
    works = rng.uniform(*work_range, size=n_tasks)
    outputs = rng.uniform(*output_range, size=n_tasks)
    keys = [f"t{i:04d}" for i in range(n_tasks)]
    tasks = [
        Task(keys[i], float(works[i]), float(outputs[i]))
        for i in range(n_tasks)
    ]
    # Row i of the strict upper triangle holds the pairs (i, i+1..n-1);
    # row_start[i] is its first index in the flat row-major numbering.
    rows = np.arange(n_tasks, dtype=np.int64)
    row_start = rows * (n_tasks - 1) - rows * (rows - 1) // 2
    n_pairs = n_tasks * (n_tasks - 1) // 2
    edges: list[tuple[str, str]] = []
    for lo in range(0, n_pairs, _EDGE_CHUNK):
        # No name holds the uniforms, so each chunk is freed before the
        # next one is drawn.
        chosen = rng.random(min(_EDGE_CHUNK, n_pairs - lo)) < edge_probability
        hits = np.flatnonzero(chosen) + lo
        src = np.searchsorted(row_start, hits, side="right") - 1
        dst = hits - row_start[src] + src + 1
        edges.extend(
            (keys[i], keys[j]) for i, j in zip(src.tolist(), dst.tolist())
        )
    return Workflow(name or f"random-{n_tasks}", tasks, edges)


def layered_workflow(
    n_layers: int,
    width: int,
    *,
    work: float = 10.0,
    output_size: float = 1.0,
    name: str | None = None,
) -> Workflow:
    """A fork-join pipeline: *n_layers* layers of *width* parallel tasks.

    Every task in layer L feeds every task in layer L+1 — the classic
    map-reduce-style stage pipeline used by scheduling benchmarks.
    """
    if n_layers < 1 or width < 1:
        raise ValidationError("n_layers and width must be >= 1")
    tasks = [
        Task(f"l{layer:03d}n{i:03d}", work, output_size)
        for layer in range(n_layers)
        for i in range(width)
    ]
    edges = [
        (f"l{layer:03d}n{i:03d}", f"l{layer + 1:03d}n{j:03d}")
        for layer in range(n_layers - 1)
        for i in range(width)
        for j in range(width)
    ]
    return Workflow(name or f"layered-{n_layers}x{width}", tasks, edges)
