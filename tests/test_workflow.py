"""Unit tests for the workflow DAG model."""

import tracemalloc

import pytest

from repro.continuum.workflow import (
    Task,
    Workflow,
    layered_workflow,
    random_workflow,
)
from repro.errors import ValidationError, WorkflowGraphError


def diamond():
    """a -> b, a -> c, b -> d, c -> d."""
    tasks = [Task(k, 10.0, output_size=1.0) for k in "abcd"]
    edges = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
    return Workflow("diamond", tasks, edges)


class TestTask:
    def test_validation(self):
        with pytest.raises(ValidationError):
            Task("", 1.0)
        with pytest.raises(ValidationError):
            Task("t", 0.0)
        with pytest.raises(ValidationError):
            Task("t", 1.0, output_size=-1.0)

    def test_requirements_frozen(self):
        task = Task("t", 1.0, requirements={"gpu"})
        assert task.requirements == frozenset({"gpu"})


class TestWorkflowStructure:
    def test_cycle_detected(self):
        with pytest.raises(WorkflowGraphError):
            Workflow("w", [Task("a", 1), Task("b", 1)],
                     [("a", "b"), ("b", "a")])

    def test_self_loop_detected(self):
        with pytest.raises(WorkflowGraphError):
            Workflow("w", [Task("a", 1)], [("a", "a")])

    def test_unknown_edge_endpoint(self):
        with pytest.raises(WorkflowGraphError):
            Workflow("w", [Task("a", 1)], [("a", "ghost")])

    def test_duplicate_task(self):
        with pytest.raises(WorkflowGraphError):
            Workflow("w", [Task("a", 1), Task("a", 2)])

    def test_duplicate_edge_deduplicated(self):
        wf = Workflow("w", [Task("a", 1), Task("b", 1)],
                      [("a", "b"), ("a", "b")])
        assert wf.edges == (("a", "b"),)

    def test_empty_rejected(self):
        with pytest.raises(WorkflowGraphError):
            Workflow("w", [])

    def test_topological_order_respects_edges(self):
        wf = diamond()
        order = wf.topological_order()
        assert order.index("a") < order.index("b") < order.index("d")
        assert order.index("a") < order.index("c") < order.index("d")

    def test_sources_sinks(self):
        wf = diamond()
        assert wf.sources() == ("a",)
        assert wf.sinks() == ("d",)

    def test_neighbors(self):
        wf = diamond()
        assert set(wf.successors("a")) == {"b", "c"}
        assert set(wf.predecessors("d")) == {"b", "c"}
        with pytest.raises(WorkflowGraphError):
            wf.successors("ghost")


class TestWorkflowAnalysis:
    def test_total_work(self):
        assert diamond().total_work() == pytest.approx(40.0)

    def test_critical_path(self):
        path, length = diamond().critical_path()
        assert path[0] == "a" and path[-1] == "d"
        assert len(path) == 3
        assert length == pytest.approx(30.0)

    def test_critical_path_single_task(self):
        wf = Workflow("w", [Task("only", 5.0)])
        path, length = wf.critical_path()
        assert path == ("only",)
        assert length == 5.0

    def test_width_profile(self):
        assert diamond().width_profile() == {0: 1, 1: 2, 2: 1}


class TestGenerators:
    def test_random_workflow_is_dag(self):
        wf = random_workflow(50, seed=7, edge_probability=0.3)
        assert len(wf) == 50
        order = {k: i for i, k in enumerate(wf.topological_order())}
        assert all(order[a] < order[b] for a, b in wf.edges)

    def test_random_workflow_deterministic(self):
        a = random_workflow(30, seed=1)
        b = random_workflow(30, seed=1)
        assert a.edges == b.edges
        assert [t.work for t in a] == [t.work for t in b]

    def test_random_workflow_validation(self):
        with pytest.raises(ValidationError):
            random_workflow(0)
        with pytest.raises(ValidationError):
            random_workflow(5, edge_probability=1.5)

    def test_random_workflow_memory_bounded(self):
        # 8M upper-triangle pairs: anything O(n_tasks²) needs well over
        # 100 MB here, a chunked draw about 12 MB.
        tracemalloc.start()
        try:
            wf = random_workflow(4000, edge_probability=0.001, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(wf.edges) == 7874
        assert peak < 32 * 2**20

    def test_layered_workflow_shape(self):
        wf = layered_workflow(3, 4)
        assert len(wf) == 12
        assert wf.width_profile() == {0: 4, 1: 4, 2: 4}
        assert len(wf.edges) == 2 * 4 * 4

    def test_layered_validation(self):
        with pytest.raises(ValidationError):
            layered_workflow(0, 3)
