#!/usr/bin/env python3
"""Bibliometric analysis of the paper's own reference list.

Loads the 49-entry bibliography embedded in :mod:`repro.data.bibliography`
into an in-memory corpus store and runs the temporal/venue analyses an SMS
reports:

1. publications per year and cumulative growth (with a linear trend fit),
2. the venue landscape after normalization,
3. a classic SMS bubble chart — research direction × year — using the
   keyword classifier to place each reference,
4. leave-one-out robustness of the derived direction distribution.

Writes ``trend.svg`` and ``direction_year.svg`` to ``output/bibliometrics``.

Run with::

    python examples/bibliometrics.py
"""

from __future__ import annotations

from pathlib import Path

from repro.core.classification import KeywordClassifier
from repro.core.taxonomy import workflow_directions
from repro.corpus.trends import (
    category_year_matrix,
    cumulative_series,
    fit_linear_trend,
    yearly_series,
)
from repro.data.bibliography import paper_bibliography
from repro.viz import bubble_plot, line_chart


def main() -> None:
    store = paper_bibliography()
    scheme = workflow_directions()
    names = dict(zip(scheme.keys, scheme.names))
    print(f"Corpus: {len(store)} references, years {store.year_range()}")

    # 1. Temporal trend.
    series = store.by_year()
    fit = fit_linear_trend(series)
    print(f"Linear trend: {fit.slope:+.2f} publications/year "
          f"(R² = {fit.r_squared:.2f})")
    recent = yearly_series(store, first=2015, last=2023)
    recent_fit = fit_linear_trend(recent)
    print(f"2015-2023 trend: {recent_fit.slope:+.2f} publications/year — "
          f"{'accelerating' if recent_fit.slope > fit.slope else 'steady'}")

    # 2. Venue landscape.
    venues = store.by_venue()
    print("\nTop venues:")
    for venue, count in venues.ranked()[:6]:
        print(f"  {venue}: {count}")

    # 3. Direction × year bubble data via the keyword classifier.
    classifier = KeywordClassifier(scheme)

    def direction_of(publication) -> str:
        return classifier.classify(publication.searchable_text()).label

    matrix, categories, years = category_year_matrix(
        list(store), direction_of, scheme.keys, first=2014, last=2023
    )
    print("\nDirection x year (2014-2023):")
    header = "  ".join(f"{y % 100:02d}" for y in years)
    print(f"  {'direction':<24} {header}")
    for i, key in enumerate(categories):
        row = "  ".join(f"{v:2d}" for v in matrix[i])
        print(f"  {names[key]:<24} {row}")

    # 4. Figures on disk.
    output = Path("output/bibliometrics")
    output.mkdir(parents=True, exist_ok=True)
    line_chart(
        {"per year": series, "cumulative": cumulative_series(series)},
        title="The paper's bibliography over time",
        x_label="year", y_label="publications",
    ).save(output / "trend.svg")
    bubble_plot(
        matrix,
        [names[c] for c in categories],
        [str(y) for y in years],
        title="References per research direction and year",
    ).save(output / "direction_year.svg")
    print(f"\nFigures written to {output}/")


if __name__ == "__main__":
    main()
