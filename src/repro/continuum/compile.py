"""Compiled scheduling core: array-backed placement for large fleets.

The original schedulers were written against the object model — string
task keys, ``Resource.execution_time`` calls, ``Continuum.transfer_time``
per (edge × candidate).  That reads well and tops out at toy fleets:
every placement decision pays thousands of dict lookups and Python-level
float ops.  Those versions now live only as test oracles
(``tests/oracles.py``).  This module is the ``SimulationContext``
invariant-hoisting idea from :mod:`~repro.continuum.montecarlo`
generalized from *replaying* schedules to *building* them:

* :class:`CompiledWorkflow` — task keys mapped to integer ids once, work
  and output-size vectors, CSR predecessor/successor adjacency, the
  topological order as an id array, and tasks grouped by distinct
  requirement set (real workloads have a handful of requirement profiles,
  not one per task).
* :class:`CompiledContinuum` — resource ids, speed/power/carbon vectors,
  the latency and bandwidth matrices, and the key-sorted ranks that
  reproduce string tie-breaks on integers.
* :class:`CompiledProblem` — the pairing: per-requirement-group
  feasibility masks, per-(src, dst) transfer rows so
  ``Continuum.transfer_time`` becomes an array expression
  (``latency[src, :] + size / bandwidth[src, :]`` — bit-equal in every
  case, including the free diagonal and zero-size transfers, because the
  diagonal is ``latency 0 / bandwidth inf``), and, only when the replay
  loop asks for it, the per-(task, resource) duration matrix.

On top of the compiled problem live the three placement kernels
(:func:`heft_placements`, :func:`energy_placements`,
:func:`round_robin_placements`) and the vectorized rank sweep
(:func:`upward_rank_array`).  All of them are **bit-identical** to the
pure-Python reference implementations — same placements, same starts and
finishes, same tie-breaks — which the parity suite in
``tests/test_compile.py`` asserts across a random DAG × fleet grid.  The
speed comes from three moves:

1. every per-candidate quantity (ready time, duration, energy) is one
   array expression over the feasible set instead of a Python loop; a
   task's durations are ``work[t] / speed[feasible]``, the same IEEE
   division as the duration matrix, so the kernels never build it (it
   is ``n_tasks × n_resources``, 80 MB at 10k × 1k);
2. the insertion slot search runs on one fleet-wide :class:`GapStore`
   of *usable* free gaps, so the earliest slot on every candidate
   resource at once is one array expression (``A = maximum(ready, a)``,
   first ``A + dur <= b``) instead of a scalar scan per timeline;
3. only candidates that can still hold the earliest finish are searched:
   a candidate's finish lies between ``ready + duration`` and its
   tail-gap finish ``max(ready, tail) + duration``, so a resource whose
   lower bound exceeds the smallest tail-gap finish is skipped.

Exactness of the pruning: the smallest tail-gap finish bounds the best
finish from above, so a skipped resource can never win; candidates
whose bound *equals* it are still searched, so the reference's first
strict minimum in feasible order is kept.  Dropping free gaps shorter
than the shortest task is exact as well (see :class:`GapStore`).
"""

from __future__ import annotations

import numpy as np

from repro.continuum.resources import Continuum
from repro.continuum.workflow import Workflow
from repro.errors import SchedulingError

__all__ = [
    "CompiledWorkflow",
    "CompiledContinuum",
    "CompiledProblem",
    "compile_problem",
    "upward_rank_array",
    "heft_placements",
    "energy_placements",
    "round_robin_placements",
]


class CompiledWorkflow:
    """A :class:`Workflow` lowered to integer ids and flat arrays."""

    __slots__ = (
        "workflow",
        "n_tasks",
        "keys",
        "index",
        "key_array",
        "work",
        "output_size",
        "topo_order",
        "pred_indptr",
        "pred_ids",
        "succ_indptr",
        "succ_ids",
        "requirement_sets",
        "group_of",
        "_pred_lists",
        "_succ_lists",
    )

    def __init__(self, workflow: Workflow) -> None:
        self.workflow = workflow
        keys = workflow.task_keys
        self.keys = keys
        self.n_tasks = len(keys)
        index = {key: i for i, key in enumerate(keys)}
        self.index = index
        self.key_array = np.asarray(keys)
        self.work = np.asarray([t.work for t in workflow], dtype=np.float64)
        self.output_size = np.asarray(
            [t.output_size for t in workflow], dtype=np.float64
        )
        self.topo_order = np.asarray(
            [index[key] for key in workflow.topological_order()],
            dtype=np.intp,
        )

        # CSR adjacency, preserving the reference iteration order
        # (workflow.predecessors() / successors() tuple order).
        pred_lists = [
            [index[p] for p in workflow.predecessors(key)] for key in keys
        ]
        succ_lists = [
            [index[s] for s in workflow.successors(key)] for key in keys
        ]
        self._pred_lists = pred_lists
        self._succ_lists = succ_lists
        self.pred_indptr, self.pred_ids = _to_csr(pred_lists)
        self.succ_indptr, self.succ_ids = _to_csr(succ_lists)

        # Distinct requirement sets: feasibility is per *profile*, not per
        # task.  group_of[t] indexes requirement_sets.
        groups: dict[frozenset[str], int] = {}
        group_of = np.empty(self.n_tasks, dtype=np.intp)
        for i, task in enumerate(workflow):
            group = groups.setdefault(task.requirements, len(groups))
            group_of[i] = group
        self.requirement_sets = tuple(groups)
        self.group_of = group_of

    def predecessors_of(self, task_id: int) -> np.ndarray:
        """Predecessor ids of one task (CSR slice, reference order)."""
        return self.pred_ids[
            self.pred_indptr[task_id] : self.pred_indptr[task_id + 1]
        ]

    def pred_lists(self) -> list[list[int]]:
        """Predecessor id lists per task (reference order); do not mutate."""
        return self._pred_lists

    def succ_lists(self) -> list[list[int]]:
        """Successor id lists per task (reference order); do not mutate."""
        return self._succ_lists


def _to_csr(lists: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    indptr = np.zeros(len(lists) + 1, dtype=np.intp)
    np.cumsum([len(lst) for lst in lists], out=indptr[1:])
    flat = [i for lst in lists for i in lst]
    return indptr, np.asarray(flat, dtype=np.intp)


class CompiledContinuum:
    """A :class:`Continuum` lowered to id-aligned vectors and matrices."""

    __slots__ = (
        "continuum",
        "n_resources",
        "keys",
        "index",
        "key_array",
        "speed",
        "busy_power",
        "idle_power",
        "carbon_intensity",
        "latency",
        "bandwidth",
        "res_rank",
        "capabilities",
    )

    def __init__(self, continuum: Continuum) -> None:
        self.continuum = continuum
        keys = continuum.keys
        self.keys = keys
        self.n_resources = len(keys)
        self.index = {key: i for i, key in enumerate(keys)}
        self.key_array = np.asarray(keys)
        self.speed = continuum.speeds
        self.busy_power = continuum.busy_powers
        self.idle_power = continuum.idle_powers
        self.carbon_intensity = continuum.carbon_intensities
        self.latency = continuum.latency
        self.bandwidth = continuum.bandwidth
        self.capabilities = tuple(r.capabilities for r in continuum)
        # Key-sorted ranks reproduce string-key tie-breaks on integers.
        rank_of = {key: i for i, key in enumerate(sorted(keys))}
        self.res_rank = np.asarray(
            [rank_of[key] for key in keys], dtype=np.intp
        )


class CompiledProblem:
    """One workflow × continuum pairing with every invariant precomputed.

    Shared freely: the scheduling kernels, the vectorized validator, the
    compiled simulator, and the Monte-Carlo ``SimulationContext`` all run
    against the same instance, so a sweep compiles each workflow exactly
    once regardless of how many schedulers/cells use it.
    """

    __slots__ = (
        "cw",
        "cc",
        "_duration",
        "_feasible_groups",
        "_dur_lists",
        "_feasible_id_lists",
        "_transfer_lists",
        "_rank_cache",
    )

    def __init__(self, workflow: Workflow, continuum: Continuum) -> None:
        cw = CompiledWorkflow(workflow)
        cc = CompiledContinuum(continuum)
        self.cw = cw
        self.cc = cc
        self._duration = None
        self._feasible_groups = None
        self._dur_lists = None
        self._feasible_id_lists = None
        self._transfer_lists = None
        self._rank_cache = None

    @property
    def duration(self) -> np.ndarray:
        """``duration[t, r]`` == resource ``r``'s ``execution_time(work[t])``
        (the same IEEE division), read-only, built on first use; only
        :meth:`dur_lists` needs it, the placement kernels do not."""
        if self._duration is None:
            duration = self.cw.work[:, None] / self.cc.speed[None, :]
            duration.setflags(write=False)
            self._duration = duration
        return self._duration

    @property
    def feasible_groups(self) -> tuple[np.ndarray, ...]:
        """Feasible resource ids per requirement group, continuum order.

        Computed lazily on first access and checked task by task: the
        first task (in workflow insertion order) with no feasible
        resource raises :class:`SchedulingError`, with the message the
        reference schedulers raise.
        """
        if self._feasible_groups is None:
            cw, cc = self.cw, self.cc
            groups: list[np.ndarray] = []
            for requirements in cw.requirement_sets:
                ids = [
                    r
                    for r, caps in enumerate(cc.capabilities)
                    if requirements <= caps
                ]
                groups.append(np.asarray(ids, dtype=np.intp))
            for task_id in range(cw.n_tasks):
                if groups[cw.group_of[task_id]].size == 0:
                    task = cw.workflow[cw.keys[task_id]]
                    raise SchedulingError(
                        f"no resource satisfies requirements "
                        f"{sorted(task.requirements)} of task {task.key!r}"
                    )
            self._feasible_groups = tuple(groups)
        return self._feasible_groups

    # -- hot-path helpers -------------------------------------------------------

    @property
    def workflow(self) -> Workflow:
        return self.cw.workflow

    @property
    def continuum(self) -> Continuum:
        return self.cc.continuum

    def feasible_ids(self, task_id: int) -> np.ndarray:
        """Feasible resource ids for one task, in continuum order."""
        return self.feasible_groups[self.cw.group_of[task_id]]

    def transfer_row(self, size: float, src: int) -> np.ndarray:
        """``Continuum.transfer_time(size, src, ·)`` for every destination.

        ``latency[src] + size / bandwidth[src]`` is bit-equal to the
        scalar method in every case: the diagonal divides by ``inf``
        (exactly 0.0 on top of a 0.0 latency) and a zero size divides to
        exactly 0.0.
        """
        return self.cc.latency[src] + size / self.cc.bandwidth[src]

    # -- cached list views for the pure-Python replay loop ----------------------
    # montecarlo's replication loop runs on nested lists (faster than
    # ndarray scalar indexing under the GIL); these lazy views let every
    # SimulationContext of this problem share one conversion (a one-shot
    # replay computes the few entries it reads on demand instead).

    def dur_lists(self) -> list[list[float]]:
        if self._dur_lists is None:
            self._dur_lists = self.duration.tolist()
        return self._dur_lists

    def feasible_id_lists(self) -> list[list[int]]:
        if self._feasible_id_lists is None:
            groups = [ids.tolist() for ids in self.feasible_groups]
            self._feasible_id_lists = [
                groups[g] for g in self.cw.group_of
            ]
        return self._feasible_id_lists

    def transfer_lists(self) -> list[list[list[float]]]:
        """The full ``task × src × dst`` transfer table as nested lists.

        Only sensible for replay-sized fleets (Monte-Carlo uses it); the
        scheduling kernels use :meth:`transfer_row` instead, which stays
        O(n_resources) per lookup at any fleet size.
        """
        if self._transfer_lists is None:
            lat, bw = self.cc.latency, self.cc.bandwidth
            outputs = self.cw.output_size
            self._transfer_lists = (
                lat[None, :, :] + outputs[:, None, None] / bw[None, :, :]
            ).tolist()
        return self._transfer_lists


def compile_problem(workflow: Workflow, continuum: Continuum) -> CompiledProblem:
    """Compile one workflow × continuum pairing (validates feasibility)."""
    return CompiledProblem(workflow, continuum)


# -- upward ranks ----------------------------------------------------------------


def upward_rank_array(problem: CompiledProblem) -> np.ndarray:
    """HEFT upward ranks by task id, one vectorized backward sweep.

    Bit-identical to the reference loop: the mean-communication term of a
    task is the same for all of its successors, and IEEE addition is
    monotone, so ``max over succ of (comm + rank)`` equals
    ``comm + max(rank)`` exactly; the max itself is order-independent.
    Tasks are processed level-by-level (longest hop distance to a sink)
    with one segment-max per level.
    """
    cw, cc = problem.cw, problem.cc
    if problem._rank_cache is not None:
        return problem._rank_cache
    speeds = cc.speed
    mean_speed_inv = float((1.0 / speeds).mean())
    n = cc.n_resources
    if n > 1:
        off_diag = ~np.eye(n, dtype=bool)
        mean_inv_bw = float((1.0 / cc.bandwidth[off_diag]).mean())
        mean_lat = float(cc.latency[off_diag].mean())
    else:
        mean_inv_bw = 0.0
        mean_lat = 0.0

    mean_exec = cw.work * mean_speed_inv
    comm = mean_lat + cw.output_size * mean_inv_bw
    ranks = np.zeros(cw.n_tasks, dtype=np.float64)
    indptr, succ_ids = cw.succ_indptr, cw.succ_ids
    counts = np.diff(indptr)

    # Reverse-topological levels: a task's level is 1 + max over its
    # successors' levels; sinks are level 0.  All successors of a level-L
    # task live strictly below L, so levels can be ranked in one
    # vectorized pass each.
    level = np.zeros(cw.n_tasks, dtype=np.intp)
    for t in cw.topo_order[::-1]:
        succs = succ_ids[indptr[t] : indptr[t + 1]]
        if succs.size:
            level[t] = 1 + int(level[succs].max())
    for depth in range(int(level.max()) + 1):
        tasks = np.flatnonzero(level == depth)
        has_succ = counts[tasks] > 0
        with_succ = tasks[has_succ]
        if with_succ.size:
            # Segment max of successor ranks via reduceat over the
            # concatenated CSR slices of this level's tasks.
            starts = indptr[with_succ]
            stops = indptr[with_succ + 1]
            segments = np.concatenate(
                [succ_ids[a:b] for a, b in zip(starts, stops)]
            )
            offsets = np.zeros(with_succ.size, dtype=np.intp)
            np.cumsum((stops - starts)[:-1], out=offsets[1:])
            best = np.maximum.reduceat(ranks[segments], offsets)
            ranks[with_succ] = mean_exec[with_succ] + (
                comm[with_succ] + best
            )
        without = tasks[~has_succ]
        ranks[without] = mean_exec[without] + 0.0
    problem._rank_cache = ranks
    return ranks


# -- free-gap store --------------------------------------------------------------


class GapStore:
    """Usable free gaps of every resource, one padded row per resource.

    The insertion structure of the three placement kernels.  Row ``r``
    holds the free gaps ``[a, b)`` of resource ``r`` sorted by time, and
    ends with the open tail gap ``(tail, inf)``; rows are padded with
    ``(inf, inf)`` to the common width.  The earliest slot on a row for
    ``(ready, dur)`` is ``A[first fit]`` with ``A = maximum(ready, a)``
    and ``fits = A + dur <= b`` — the same IEEE operations as the scalar
    cursor scan over occupied intervals (the oracle in
    ``tests/oracles.py``), so starts and ties are bit-identical.  The
    tail gap always fits, so the search never reads past it.

    Exactness details:

    * A gap is kept only if ``a + dmin[r] <= b``, where ``dmin[r] =
      work.min() / speed[r]`` is the shortest duration any task has on
      ``r``.  IEEE division and addition are monotone, so every query
      has ``A + dur >= a + dmin[r] > b`` on a dropped gap: dropping it
      never changes an answer.
    * :meth:`reserve` records the finish the kernel reserves, not a
      recomputed one.  HEFT reserves ``(start, finish - start)`` and the
      scalar timeline stores ``start + (finish - start)``, which can
      differ from ``finish`` by one rounding; energy and round-robin
      reserve ``(start, dur)``, stored as ``start + dur``.  Each kernel
      passes the value the oracle stores.
    * HEFT with ``insertion=False`` never queries gaps; it keeps its own
      ``tails`` vector, unchanged.
    * Energy-aware placement runs one search per task, over every row
      whose lower bound ``ready + dur`` is at most ``slack ×`` the
      smallest tail-gap finish, a superset of the rows with bound
      ``<= slack × best_finish``.  The winner is still the ``lexsort``
      over ``(energy, finish, resource key)``.
    * Storage is ``O(n_resources × most usable gaps on one row)``; it
      never grows with the longest timeline, because the occupied
      intervals themselves are not kept.
    """

    __slots__ = ("a", "b", "count", "tail", "dmin")

    def __init__(self, dmin: np.ndarray, width: int = 8) -> None:
        n = dmin.size
        self.dmin = dmin
        self.a = np.full((n, width), np.inf)
        self.b = np.full((n, width), np.inf)
        self.a[:, 0] = 0.0  # every row starts as one tail gap (0, inf)
        self.count = [1] * n
        self.tail = np.zeros(n, dtype=np.float64)

    def slots(
        self, rows: np.ndarray, ready: np.ndarray, durs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Earliest start on each of *rows*, and the gap it falls in."""
        starts = np.maximum(ready[:, None], self.a.take(rows, axis=0))
        fits = starts + durs[:, None] <= self.b.take(rows, axis=0)
        gaps = fits.argmax(axis=1)
        return starts[np.arange(rows.size), gaps], gaps

    def reserve(self, r: int, gap: int, start: float, finish: float) -> None:
        """Occupy ``[start, finish)`` inside gap *gap* of row *r*.

        The gap ``[lo, hi)`` leaves ``[lo, start)`` and ``[finish, hi)``
        behind, each kept only if usable; the tail gap's right part,
        ending at ``inf``, is always kept.
        """
        n = self.count[r]
        a_row, b_row = self.a[r], self.b[r]
        lo, hi = a_row[gap], b_row[gap]
        dmin = self.dmin[r]
        keep_left = lo + dmin <= start
        keep_right = finish + dmin <= hi
        if keep_left and keep_right:
            if n == a_row.size:  # double the width of every row
                pad = np.full(self.a.shape, np.inf)
                self.a = np.hstack((self.a, pad))
                self.b = np.hstack((self.b, pad))
                a_row, b_row = self.a[r], self.b[r]
            a_row[gap + 2 : n + 1] = a_row[gap + 1 : n]
            b_row[gap + 2 : n + 1] = b_row[gap + 1 : n]
            b_row[gap] = start
            a_row[gap + 1] = finish
            b_row[gap + 1] = hi
            n += 1
        elif keep_left:
            b_row[gap] = start
        elif keep_right:
            a_row[gap] = finish
        else:
            a_row[gap : n - 1] = a_row[gap + 1 : n]
            b_row[gap : n - 1] = b_row[gap + 1 : n]
            n -= 1
            a_row[n] = b_row[n] = np.inf
        self.count[r] = n
        self.tail[r] = a_row[n - 1]


# -- candidate kernel ------------------------------------------------------------


def _ready_times(
    problem: CompiledProblem,
    task_id: int,
    fin: np.ndarray,
    res_of: np.ndarray,
    feasible: np.ndarray,
) -> np.ndarray:
    """Earliest data arrival on every feasible resource (0.0 floor).

    One gather per task: ``pred_finish + latency[pred_res, F] +
    output[pred] / bandwidth[pred_res, F]``, max-reduced over the
    predecessors — the reference inner double loop as two array ops.
    The gathers are row ``take`` then column ``take``, which is about
    twice as fast as one broadcast fancy index on a large fleet.
    """
    cw, cc = problem.cw, problem.cc
    preds = cw.predecessors_of(task_id)
    if preds.size == 0:
        return np.zeros(feasible.size, dtype=np.float64)
    rows = res_of.take(preds)
    lat = cc.latency.take(rows, axis=0).take(feasible, axis=1)
    bw = cc.bandwidth.take(rows, axis=0).take(feasible, axis=1)
    arrivals = fin.take(preds)[:, None] + (
        lat + cw.output_size.take(preds)[:, None] / bw
    )
    return np.maximum.reduce(arrivals, axis=0, initial=0.0)


def _heft_order(problem: CompiledProblem) -> np.ndarray:
    """Task ids sorted by (-rank, key) — the reference priority order."""
    ranks = upward_rank_array(problem)
    return np.lexsort((problem.cw.key_array, -ranks))


def heft_placements(
    problem: CompiledProblem, *, insertion: bool = True
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """HEFT placement on the compiled problem.

    Returns ``(resource_id, start, finish)`` arrays by task id,
    bit-identical to the reference HEFT in ``tests/oracles.py``.
    """
    cw, cc = problem.cw, problem.cc
    n_tasks = cw.n_tasks
    order = _heft_order(problem)

    gaps = GapStore(cw.work.min() / cc.speed)
    tails = np.zeros(cc.n_resources, dtype=np.float64)
    res_of = np.zeros(n_tasks, dtype=np.intp)
    start_of = np.zeros(n_tasks, dtype=np.float64)
    fin = np.zeros(n_tasks, dtype=np.float64)

    for task_id in order:
        feasible = problem.feasible_ids(task_id)
        ready = _ready_times(problem, task_id, fin, res_of, feasible)
        durs = cw.work[task_id] / cc.speed[feasible]
        if not insertion:
            starts = np.maximum(ready, tails[feasible])
            finishes = starts + durs
            # First occurrence of the minimum == the reference's first
            # strict improvement in feasible order.
            j = int(np.argmin(finishes))
            best_res = int(feasible[j])
            best_start = float(starts[j])
            best_finish = float(finishes[j])
            if best_finish > tails[best_res]:
                tails[best_res] = best_finish
        else:
            cand, starts, slot_gaps = _candidate_slots(
                gaps, feasible, ready, durs
            )
            finishes = starts + durs[cand]
            k = int(finishes.argmin())
            best_res = int(feasible[cand[k]])
            best_start = float(starts[k])
            best_finish = float(finishes[k])
            gaps.reserve(
                best_res,
                int(slot_gaps[k]),
                best_start,
                best_start + (best_finish - best_start),
            )
        res_of[task_id] = best_res
        start_of[task_id] = best_start
        fin[task_id] = best_finish
    return res_of, start_of, fin


def _candidate_slots(
    gaps: GapStore,
    feasible: np.ndarray,
    ready: np.ndarray,
    durs: np.ndarray,
    slack: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slots on every feasible row that can finish within ``slack ×`` the
    earliest finish.

    Returns ``(candidate positions in feasible, starts, gap indexes)``.
    A row's finish lies between ``ready + dur`` and its tail-gap finish
    ``max(ready, tail) + dur``, so the earliest finish is at most the
    smallest tail-gap finish ``upper``, and rows whose lower bound
    exceeds ``slack × upper`` can neither win nor finish within
    ``slack ×`` the winner; rows whose bound equals it are kept, so the
    first-minimum tie-break in feasible order is exact.
    """
    upper = np.minimum.reduce(np.maximum(ready, gaps.tail[feasible]) + durs)
    cand = (ready + durs <= slack * upper).nonzero()[0]
    starts, slot_gaps = gaps.slots(
        feasible.take(cand), ready.take(cand), durs.take(cand)
    )
    return cand, starts, slot_gaps


def energy_placements(
    problem: CompiledProblem, *, slack: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Energy-aware placement on the compiled problem.

    Same candidate kernel as HEFT, widened by the slack: one slot search
    over every row whose finish lower bound is at most ``slack ×`` the
    smallest tail-gap finish holds both the best finish and every
    admissible row (finish ``<= slack × best_finish``).  Winner selection
    is the reference ``min`` over ``(energy, finish, resource key)`` with
    first-in-feasible-order ties, done as one ``lexsort``.
    """
    cw, cc = problem.cw, problem.cc
    n_tasks = cw.n_tasks
    order = _heft_order(problem)

    gaps = GapStore(cw.work.min() / cc.speed)
    res_of = np.zeros(n_tasks, dtype=np.intp)
    start_of = np.zeros(n_tasks, dtype=np.float64)
    fin = np.zeros(n_tasks, dtype=np.float64)

    for task_id in order:
        feasible = problem.feasible_ids(task_id)
        ready = _ready_times(problem, task_id, fin, res_of, feasible)
        durs = cw.work[task_id] / cc.speed[feasible]

        maybe, starts, slot_gaps = _candidate_slots(
            gaps, feasible, ready, durs, slack
        )
        finishes = starts + durs[maybe]
        threshold = slack * finishes.min()
        ok = (finishes <= threshold).nonzero()[0]
        admissible = maybe[ok]
        energies = cc.busy_power[feasible[admissible]] * durs[admissible]
        # min by (energy, finish, resource key), first occurrence wins.
        pick = ok[
            np.lexsort(
                (
                    cc.key_array[feasible[admissible]],
                    finishes[ok],
                    energies,
                )
            )[0]
        ]
        dur = float(durs[maybe[pick]])
        best_res = int(feasible[maybe[pick]])
        best_start = float(starts[pick])
        res_of[task_id] = best_res
        start_of[task_id] = best_start
        fin[task_id] = best_start + dur
        gaps.reserve(
            best_res, int(slot_gaps[pick]), best_start, best_start + dur
        )
    return res_of, start_of, fin


def round_robin_placements(
    problem: CompiledProblem,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Round-robin placement on the compiled problem.

    The reference rotates a cursor over *all* resources, skipping
    infeasible ones — a linear scan per task.  The feasible sets are
    sorted id arrays here, so the next feasible resource at or after the
    cursor is one ``searchsorted`` (wrapping to the first feasible id).
    """
    cw, cc = problem.cw, problem.cc
    n_tasks = cw.n_tasks
    n_res = cc.n_resources

    gaps = GapStore(cw.work.min() / cc.speed)
    res_of = np.zeros(n_tasks, dtype=np.intp)
    start_of = np.zeros(n_tasks, dtype=np.float64)
    fin = np.zeros(n_tasks, dtype=np.float64)
    cursor = 0
    for task_id in cw.topo_order:
        feasible = problem.feasible_ids(task_id)
        i = int(feasible.searchsorted(cursor))
        if i == feasible.size:
            i = 0
        row = feasible[i : i + 1]
        r = int(row[0])
        cursor = (r + 1) % n_res
        ready = _ready_times(problem, task_id, fin, res_of, row)
        durs = cw.work[task_id] / cc.speed[row]
        starts, slot_gaps = gaps.slots(row, ready, durs)
        start = float(starts[0])
        finish = start + float(durs[0])
        res_of[task_id] = r
        start_of[task_id] = start
        fin[task_id] = finish
        gaps.reserve(r, int(slot_gaps[0]), start, finish)
    return res_of, start_of, fin
