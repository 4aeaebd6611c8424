"""Golden digests of the random workflow generator.

Pins, as literal ``stable_digest`` values, everything
:func:`~repro.continuum.workflow.random_workflow` produces: the task
keys, works and outputs, and the edge list in order.  The cases cover
the degenerate sizes (one task, one pair), the empty and the dense
edge draw, and two sizes whose upper triangle spans more than one
draw chunk.  A fleet from :func:`~repro.data.synthetic_workflows` is
pinned too, since every sweep seed and cache key downstream starts
there.  A change to the draw stream, the edge order or the task draws
moves at least one of these values.
"""

from __future__ import annotations

import pytest

from repro.continuum.workflow import random_workflow
from repro.data import synthetic_workflows
from repro.pipeline.cache import stable_digest

#: (n_tasks, edge_probability, seed) -> (digest, edge count)
GOLDEN = {
    (1, 0.15, 0): (
        "76fc787a1c2493661ffea5adaa414a2fe5c925935eb45189374b241bfee25d55",
        0,
    ),
    (2, 1.0, 0): (
        "129d9c94d6d18e64d83d51a7d81b8f5a7fda0c1b48f03cab71cbf2580924ed76",
        1,
    ),
    (40, 0.0, 5): (
        "3ecdbf8d298ed31bf27d1bff100327294c7258a54d2dce325482802cc2f57040",
        0,
    ),
    (50, 0.15, 7): (
        "6cc854c49aac7ae517acf5836c4596f293e0c29f0a8b301ba9ab9e2e8c60cf08",
        194,
    ),
    (1449, 0.3, 11): (
        "c752118f3b8384afe3656969f183ec8aef63710d1eb82a9e7932932b20af274f",
        314471,
    ),
    (3000, 0.001, 13): (
        "f04f1f17fdb04b2f32e3f26df7f9ee745013509cf47aa75baa3de2c5363513c0",
        4523,
    ),
}

FLEET_GOLDEN = (
    "ac83e467f7f092e129e0d22e6cda041460e4dfda0f34e10ecb477b632ccb50d0"
)


def digest(workflow):
    tasks = workflow.tasks
    return stable_digest(
        [task.key for task in tasks],
        [task.work for task in tasks],
        [task.output_size for task in tasks],
        [list(edge) for edge in workflow.edges],
    )


@pytest.mark.parametrize(
    "n_tasks, edge_probability, seed", sorted(GOLDEN),
    ids=[f"n{n}-p{p}" for n, p, _ in sorted(GOLDEN)],
)
def test_random_workflow_golden(n_tasks, edge_probability, seed):
    workflow = random_workflow(
        n_tasks, edge_probability=edge_probability, seed=seed
    )
    assert (digest(workflow), len(workflow.edges)) == GOLDEN[
        (n_tasks, edge_probability, seed)
    ]


def test_synthetic_fleet_golden():
    fleet = synthetic_workflows(6, seed=2023, size_range=(50, 50))
    assert stable_digest(
        [[workflow.name, digest(workflow)] for workflow in fleet]
    ) == FLEET_GOLDEN
