"""Seeded synthetic dataset generators.

Scale benchmarks and property tests need ecosystems and corpora far larger
than the 25-tool ICSC sample.  Generators here are deterministic under a
seed (``numpy.random.default_rng``) and produce entities that pass the same
validation as the real dataset:

* :func:`synthetic_ecosystem` — N institutions, M tools, K applications
  whose descriptions are built from per-direction phrase templates, so
  automatic classifiers have real signal to find;
* :func:`synthetic_corpus` — bibliographic records with optional injected
  near-duplicates, for dedup and query benchmarks;
* :func:`synthetic_ratings` — multi-rater label matrices with a controlled
  agreement level, for kappa benchmarks;
* :func:`synthetic_workflows` — a fleet of workflow DAGs mixing random
  graphs and fork-join pipelines, the substrate for Monte-Carlo sweeps
  (:mod:`repro.continuum.montecarlo`).
"""

from __future__ import annotations

import numpy as np

from repro.core.catalog import (
    ApplicationCatalog,
    InstitutionRegistry,
    ToolCatalog,
)
from repro.core.entities import Application, Institution, InstitutionKind, Tool
from repro.core.taxonomy import ClassificationScheme, workflow_directions
from repro.corpus.publication import Publication
from repro.corpus.store import CorpusStore
from repro.errors import ValidationError

__all__ = [
    "synthetic_ecosystem",
    "synthetic_corpus",
    "synthetic_ratings",
    "synthetic_workflows",
    "DIRECTION_PHRASES",
]

#: Per-direction phrase banks used to assemble synthetic tool descriptions.
DIRECTION_PHRASES: dict[str, tuple[str, ...]] = {
    "interactive-computing": (
        "interactive access to HPC resources through Jupyter notebooks",
        "on-demand reservation of batch nodes from a web dashboard",
        "a notebook kernel that executes cells on remote clusters",
        "near-instantaneous interactive sessions over SLURM",
    ),
    "orchestration": (
        "TOSCA-based deployment of containerised applications",
        "orchestration of hybrid workflows across cloud and HPC",
        "dynamic federation of Kubernetes clusters",
        "placement and live migration of micro-services at the edge",
        "serverless function scheduling in the computing continuum",
    ),
    "energy-efficiency": (
        "energy-aware placement of virtual machines under QoS constraints",
        "reducing the power consumption of edge sensor devices",
        "carbon footprint accounting for computational workloads",
        "low-power implementations of clustering algorithms",
    ),
    "performance-portability": (
        "a portable dataflow programming model for heterogeneous systems",
        "abstraction of the network layer behind uniform primitives",
        "transparent interception of POSIX I/O for storage portability",
        "compiler-level optimization through multi-level IR",
        "machine-learning-driven block size tuning for data partitioning",
    ),
    "big-data-management": (
        "parallel data mining over large social datasets",
        "continuous stream processing on multi-core and GPU architectures",
        "autoML training of performance models over profiling data",
        "distributed analytics over large graph data",
        "real-time simulation data sources for digital twins",
    ),
}

_GENERIC_PHRASES = (
    "designed for large-scale scientific applications",
    "targeting the computing continuum",
    "developed within a national research collaboration",
    "validated on production scientific workloads",
)


def _pick(rng: np.random.Generator, items: tuple[str, ...]) -> str:
    return items[int(rng.integers(len(items)))]


def synthetic_ecosystem(
    *,
    n_institutions: int = 9,
    n_tools: int = 25,
    n_applications: int = 10,
    scheme: ClassificationScheme | None = None,
    seed: int = 0,
    selection_rate: float = 0.12,
) -> tuple[InstitutionRegistry, ToolCatalog, ApplicationCatalog, ClassificationScheme]:
    """Generate a validated synthetic ecosystem.

    Tools get directions sampled uniformly and descriptions assembled from
    the matching phrase bank; applications select each tool independently
    with probability *selection_rate* (then at least one tool is forced so
    no application is empty).
    """
    if n_institutions < 1 or n_tools < 1 or n_applications < 1:
        raise ValidationError("all entity counts must be >= 1")
    if not 0.0 <= selection_rate <= 1.0:
        raise ValidationError("selection_rate must be in [0, 1]")
    scheme = scheme or workflow_directions()
    for key in scheme.keys:
        if key not in DIRECTION_PHRASES:
            raise ValidationError(
                f"no phrase bank for category {key!r}; supply a 5-direction scheme"
            )
    rng = np.random.default_rng(seed)

    institutions = InstitutionRegistry(
        Institution(
            f"inst-{i:03d}",
            f"Synthetic Institution {i}",
            f"SI{i:03d}",
            InstitutionKind.UNIVERSITY,
        )
        for i in range(n_institutions)
    )

    tools = ToolCatalog()
    direction_keys = scheme.keys
    for i in range(n_tools):
        direction = direction_keys[int(rng.integers(len(direction_keys)))]
        phrases = [
            _pick(rng, DIRECTION_PHRASES[direction]),
            _pick(rng, DIRECTION_PHRASES[direction]),
            _pick(rng, _GENERIC_PHRASES),
        ]
        tools.add(
            Tool(
                f"tool-{i:04d}",
                f"Tool{i:04d}",
                f"inst-{int(rng.integers(n_institutions)):03d}",
                direction,
                description=(
                    f"A research tool providing {phrases[0]}, "
                    f"also supporting {phrases[1]}, {phrases[2]}."
                ),
            )
        )

    applications = ApplicationCatalog()
    tool_keys = np.asarray(tools.keys)
    for j in range(n_applications):
        mask = rng.random(n_tools) < selection_rate
        if not mask.any():
            mask[int(rng.integers(n_tools))] = True
        selected = tuple(tool_keys[mask])
        domain_dir = direction_keys[int(rng.integers(len(direction_keys)))]
        applications.add(
            Application(
                f"app-{j:03d}",
                f"Synthetic Application {j}",
                f"3.{j + 1}",
                providers=(f"inst-{int(rng.integers(n_institutions)):03d}",),
                domain="synthetic",
                description=(
                    f"A scientific application needing {_pick(rng, DIRECTION_PHRASES[domain_dir])} "
                    f"and {_pick(rng, _GENERIC_PHRASES)}."
                ),
                selected_tools=selected,
            )
        )
    return institutions, tools, applications, scheme


def synthetic_workflows(
    n_workflows: int = 6,
    *,
    size_range: tuple[int, int] = (20, 80),
    edge_probability: float = 0.15,
    work_range: tuple[float, float] = (1.0, 100.0),
    output_range: tuple[float, float] = (0.0, 2.0),
    pipeline_fraction: float = 0.33,
    seed: int = 0,
) -> tuple:
    """Generate a fleet of workflow DAGs for Monte-Carlo sweeps.

    The fleet mixes the two canonical scheduling-benchmark shapes:
    ``round(n * pipeline_fraction)`` fork-join pipelines
    (:func:`~repro.continuum.workflow.layered_workflow`) and random DAGs
    (:func:`~repro.continuum.workflow.random_workflow`) for the rest.
    Each workflow gets its own sub-seed derived from *seed*, a unique
    name (``wf-000-random`` / ``wf-001-pipeline`` ...), and a task count
    drawn uniformly from ``size_range``; determinism under *seed* makes
    fleets safe to use in content-addressed sweep cache keys.

    Returns a tuple of :class:`~repro.continuum.workflow.Workflow` — the
    shape :class:`~repro.continuum.montecarlo.SweepSpec` expects.
    """
    from repro.continuum.workflow import layered_workflow, random_workflow

    if n_workflows < 1:
        raise ValidationError("n_workflows must be >= 1")
    if not 1 <= size_range[0] <= size_range[1]:
        raise ValidationError("size_range must satisfy 1 <= lo <= hi")
    if not 0.0 <= pipeline_fraction <= 1.0:
        raise ValidationError("pipeline_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    n_pipelines = int(round(n_workflows * pipeline_fraction))

    workflows = []
    for i in range(n_workflows):
        n_tasks = int(rng.integers(size_range[0], size_range[1] + 1))
        sub_seed = int(rng.integers(2**31))
        if i < n_pipelines:
            # Factor the size into layers × width near the golden split
            # (more layers than width: pipelines are long, not wide).
            width = max(1, int(round(np.sqrt(n_tasks / 2.0))))
            n_layers = max(2, n_tasks // width)
            workflows.append(
                layered_workflow(
                    n_layers,
                    width,
                    work=float(np.mean(work_range)),
                    output_size=float(np.mean(output_range)),
                    name=f"wf-{i:03d}-pipeline",
                )
            )
        else:
            workflows.append(
                random_workflow(
                    n_tasks,
                    edge_probability=edge_probability,
                    seed=sub_seed,
                    work_range=work_range,
                    output_range=output_range,
                    name=f"wf-{i:03d}-random",
                )
            )
    return tuple(workflows)


_TITLE_NOUNS = (
    "workflows", "orchestration", "scheduling", "provenance", "pipelines",
    "streaming", "portability", "federation", "placement", "migration",
    "checkpointing", "analytics", "inference", "compression", "simulation",
)
_TITLE_ADJS = (
    "scalable", "energy-aware", "distributed", "serverless", "elastic",
    "hybrid", "portable", "interactive", "hierarchical", "adaptive",
)
_TITLE_CONTEXTS = (
    "HPC systems", "the computing continuum", "edge clouds",
    "exascale platforms", "scientific applications", "Kubernetes clusters",
    "heterogeneous architectures", "data centres",
)
_VENUES = (
    "IEEE Transactions on Parallel and Distributed Systems",
    "Future Generation Computer Systems",
    "ACM Computing Frontiers",
    "IEEE International Conference on Distributed Computing Systems (ICDCS)",
    "Journal of Grid Computing",
    "Workshops of SC (SC-W)",
    "Parallel Computing",
    "CoRR",
)
_SURNAMES = (
    "Rossi", "Bianchi", "Ferrari", "Russo", "Esposito", "Romano", "Colombo",
    "Ricci", "Marino", "Greco", "Conti", "Gallo", "Costa", "Fontana",
)


def synthetic_corpus(
    n_publications: int = 200,
    *,
    seed: int = 0,
    duplicate_fraction: float = 0.0,
    year_range: tuple[int, int] = (2005, 2023),
) -> CorpusStore:
    """Generate a synthetic bibliographic corpus as an in-memory store.

    With ``duplicate_fraction > 0``, that fraction of records are near-
    duplicates of earlier ones (case changes, subtitle truncation, ±1 year)
    so dedup benchmarks have known ground truth: the returned store has
    ``n_publications`` records of which ``round(n * fraction)`` duplicate an
    original.
    """
    if n_publications < 1:
        raise ValidationError("n_publications must be >= 1")
    if not 0.0 <= duplicate_fraction < 1.0:
        raise ValidationError("duplicate_fraction must be in [0, 1)")
    if year_range[0] > year_range[1]:
        raise ValidationError("empty year range")
    rng = np.random.default_rng(seed)
    n_duplicates = int(round(n_publications * duplicate_fraction))
    n_originals = n_publications - n_duplicates

    originals: list[Publication] = []
    for i in range(n_originals):
        adj = _pick(rng, _TITLE_ADJS)
        noun = _pick(rng, _TITLE_NOUNS)
        ctx = _pick(rng, _TITLE_CONTEXTS)
        title = f"{adj.capitalize()} {noun} for {ctx}: a case study {i}"
        year = int(rng.integers(year_range[0], year_range[1] + 1))
        authors = tuple(
            f"{_pick(rng, _SURNAMES)}, {chr(65 + int(rng.integers(26)))}."
            for _ in range(int(rng.integers(1, 5)))
        )
        originals.append(
            Publication(
                key=f"syn-{i:05d}",
                title=title,
                authors=authors,
                year=year,
                venue=_pick(rng, _VENUES),
                abstract=(
                    f"We present an approach to {adj} {noun} targeting {ctx}. "
                    f"Experiments show improvements over state-of-the-art baselines."
                ),
                kind="article",
            )
        )

    records = list(originals)
    for j in range(n_duplicates):
        source = originals[int(rng.integers(len(originals)))]
        mutation = int(rng.integers(3))
        title = source.title
        year = source.year
        if mutation == 0:
            title = title.upper()
        elif mutation == 1:
            title = title.split(":")[0]  # subtitle truncation
        else:
            year = (year or 2020) + 1
        # The duplicate's key records its source, giving dedup benchmarks an
        # exact ground truth to score recall against.
        records.append(
            Publication(
                key=f"dup-{j:05d}-of-{source.key}",
                title=title,
                authors=source.authors,
                year=year,
                venue=source.venue,
                kind="article",
            )
        )
    store = CorpusStore()
    store.extend(records)
    return store


def synthetic_ratings(
    n_items: int = 100,
    n_raters: int = 3,
    n_categories: int = 5,
    *,
    agreement: float = 0.8,
    seed: int = 0,
) -> list[list[int]]:
    """Multi-rater nominal labels with a controlled agreement level.

    Each item has a true category; each rater reports it with probability
    *agreement*, otherwise a uniformly random other category.  Returns one
    label list per rater (aligned on items).
    """
    if not 0.0 <= agreement <= 1.0:
        raise ValidationError("agreement must be in [0, 1]")
    if n_items < 1 or n_raters < 2 or n_categories < 2:
        raise ValidationError("need >= 1 item, >= 2 raters, >= 2 categories")
    rng = np.random.default_rng(seed)
    truth = rng.integers(n_categories, size=n_items)
    ratings: list[list[int]] = []
    for _ in range(n_raters):
        agree = rng.random(n_items) < agreement
        noise = rng.integers(1, n_categories, size=n_items)
        labels = np.where(agree, truth, (truth + noise) % n_categories)
        ratings.append(labels.astype(int).tolist())
    return ratings
