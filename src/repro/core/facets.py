"""Multi-faceted classification: the full SMS map.

Petersen's systematic maps classify primary studies along *several* facets
at once — typically a topic facet (here: the five research directions) and
the Wieringa *research type* facet (validation research, evaluation
research, solution proposal, ...).  The crossing of two facets is the
signature SMS visualization: a bubble chart with topic on one axis and
research type on the other.

This module provides:

* :func:`research_type_facet` — the Wieringa et al. (2006) research-type
  scheme with classifier-ready keywords;
* :class:`FacetedClassification` — per-item labels across any number of
  facets, with validation against each facet's scheme;
* :func:`facet_matrix` — the cross-facet count matrix feeding
  :func:`repro.viz.matrix.bubble_plot`.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.core.taxonomy import Category, ClassificationScheme, Facet
from repro.errors import TaxonomyError, UnknownCategoryError, ValidationError

__all__ = ["research_type_facet", "FacetedClassification", "facet_matrix"]


def research_type_facet() -> ClassificationScheme:
    """The Wieringa et al. research-type facet, keyworded for auto-classification."""
    return ClassificationScheme(
        [
            Category(
                "validation-research",
                "Validation research",
                "Techniques investigated are novel and not yet implemented "
                "in practice: experiments, simulation, prototypes, "
                "mathematical analysis.",
                keywords=(
                    "experiment", "experiments", "simulation", "prototype",
                    "benchmark", "evaluate", "evaluation", "measured",
                    "synthetic",
                ),
            ),
            Category(
                "evaluation-research",
                "Evaluation research",
                "Techniques are implemented in practice and evaluated in "
                "production: case studies, field studies, deployments.",
                keywords=(
                    "case-study", "production", "deployment", "deployed",
                    "field", "industrial", "practice", "users",
                ),
            ),
            Category(
                "solution-proposal",
                "Solution proposal",
                "A solution is proposed with a small example or argument, "
                "without a full-blown validation.",
                keywords=(
                    "propose", "proposal", "approach", "framework", "design",
                    "architecture", "method", "toolbox", "middleware",
                    "library",
                ),
            ),
            Category(
                "philosophical",
                "Philosophical paper",
                "Sketches a new way of looking at things: taxonomies, "
                "conceptual frameworks, roadmaps.",
                keywords=(
                    "taxonomy", "roadmap", "vision", "survey", "mapping",
                    "classification", "landscape", "directions", "future",
                ),
            ),
            Category(
                "experience",
                "Experience paper",
                "What was done in practice and the lessons learned, from "
                "the author's personal experience.",
                keywords=(
                    "experience", "lessons", "learned", "report",
                    "retrospective", "initiative",
                ),
            ),
        ],
        facet=Facet(
            "research-type",
            "Research type",
            "Wieringa et al. (2006) research-type classification.",
        ),
        name="wieringa-research-types",
    )


class FacetedClassification:
    """Labels for a set of items across several classification facets.

    Parameters
    ----------
    facets:
        Facet key → scheme.  Every recorded label is validated against the
        owning scheme.

    Examples
    --------
    >>> from repro.core.taxonomy import workflow_directions
    >>> faceted = FacetedClassification({
    ...     "direction": workflow_directions(),
    ...     "type": research_type_facet(),
    ... })
    >>> faceted.record("streamflow", direction="orchestration",
    ...                type="evaluation-research")
    >>> faceted.label_of("streamflow", "direction")
    'orchestration'
    """

    def __init__(self, facets: Mapping[str, ClassificationScheme]) -> None:
        if not facets:
            raise ValidationError("need at least one facet")
        self._schemes = dict(facets)
        self._labels: dict[str, dict[str, str]] = {}

    @property
    def item_keys(self) -> tuple[str, ...]:
        """Items in recording order."""
        return tuple(self._labels)

    def scheme(self, facet: str) -> ClassificationScheme:
        """The scheme backing one facet."""
        try:
            return self._schemes[facet]
        except KeyError:
            raise TaxonomyError(f"unknown facet {facet!r}") from None

    def record(self, item: str, **labels: str) -> None:
        """Record facet labels for *item* (validated; re-labeling is an error)."""
        if not item:
            raise ValidationError("item key must be non-empty")
        if not labels:
            raise ValidationError("record() needs at least one facet label")
        entry = self._labels.setdefault(item, {})
        for facet, label in labels.items():
            scheme = self.scheme(facet)
            if label not in scheme:
                raise UnknownCategoryError(
                    f"label {label!r} outside facet {facet!r}"
                )
            if facet in entry:
                raise ValidationError(
                    f"item {item!r} already labelled on facet {facet!r}"
                )
            entry[facet] = label

    def label_of(self, item: str, facet: str) -> str:
        """The recorded label of *item* on *facet*."""
        self.scheme(facet)
        try:
            return self._labels[item][facet]
        except KeyError:
            raise ValidationError(
                f"item {item!r} has no label on facet {facet!r}"
            ) from None

    def complete_items(self) -> tuple[str, ...]:
        """Items labelled on every facet."""
        return tuple(
            item
            for item, entry in self._labels.items()
            if len(entry) == len(self._schemes)
        )

    def distribution(self, facet: str):
        """Frequency table of one facet over completely-labelled items."""
        from repro.stats.frequency import FrequencyTable

        scheme = self.scheme(facet)
        return FrequencyTable.from_observations(
            (self._labels[item][facet] for item in self.complete_items()),
            order=scheme.keys,
        )


def facet_matrix(
    classification: FacetedClassification,
    row_facet: str,
    col_facet: str,
) -> tuple[np.ndarray, tuple[str, ...], tuple[str, ...]]:
    """Cross-facet count matrix — the systematic-map bubble chart data.

    Returns ``(matrix, row_keys, col_keys)`` over the two facets' scheme
    orders, counting the items completely labelled on both.
    """
    rows = classification.scheme(row_facet)
    cols = classification.scheme(col_facet)
    matrix = np.zeros((len(rows), len(cols)), dtype=np.int64)
    counted = 0
    for item in classification.item_keys:
        try:
            r = classification.label_of(item, row_facet)
            c = classification.label_of(item, col_facet)
        except ValidationError:
            continue
        matrix[rows.index(r), cols.index(c)] += 1
        counted += 1
    if counted == 0:
        raise ValidationError(
            f"no item is labelled on both {row_facet!r} and {col_facet!r}"
        )
    return matrix, rows.keys, cols.keys
