#!/usr/bin/env python3
"""Run a brand-new systematic mapping study end to end on your own data.

This example shows the library as a downstream user would adopt it — not
replaying the paper, but running the same methodology on a fresh corpus:

1. **Harvest** a corpus (here: a seeded synthetic library of 600 records,
   standing in for a Scopus/DBLP export) and deduplicate it.
2. **Search** it with a boolean query, as an SMS protocol prescribes.
3. **Screen** the hits with two reviewers (one strict, one lenient),
   measure their agreement (Cohen's kappa), and adjudicate conflicts.
4. **Classify** the included studies into the five workflow research
   directions with the TF-IDF centroid classifier.
5. **Analyze and report**: distribution, evenness, and a bar figure.

Run with::

    python examples/custom_mapping_study.py
"""

from __future__ import annotations

from pathlib import Path

from repro.core.classification import CentroidClassifier
from repro.core.taxonomy import workflow_directions
from repro.data.synthetic import synthetic_corpus
from repro.screening import (
    Decision,
    ScreeningSession,
    has_any_keyword,
    interpret_kappa,
    min_length,
    year_between,
)
from repro.stats.diversity import evenness_report
from repro.stats.frequency import FrequencyTable
from repro.viz import ascii_distribution, bar_chart


def main() -> None:
    scheme = workflow_directions()

    # -- 1. Harvest + dedup ------------------------------------------------
    corpus = synthetic_corpus(600, seed=7, duplicate_fraction=0.1)
    identified = len(corpus)
    dropped = corpus.deduplicate().dropped  # merges in place
    print(f"Harvested {identified} records; {len(corpus)} after dedup "
          f"({dropped} duplicates merged)")

    # -- 2. Protocol search query -------------------------------------------
    hits = corpus.search(
        "(workflow* OR orchestration OR scheduling OR placement) "
        'AND (HPC OR "computing continuum" OR edge OR cloud)'
    )
    print(f"Search query matched {len(hits)} candidate studies")

    # -- 3. Double screening --------------------------------------------------
    strict = (
        year_between(2012, 2023)
        & has_any_keyword(["workflow", "orchestration", "scheduling"])
        & min_length(10)
    )
    lenient = year_between(2010, 2023) & has_any_keyword(
        ["workflow", "orchestration", "scheduling", "placement", "pipeline"]
    )
    session = ScreeningSession([p.key for p in hits], ["strict", "lenient"])
    session.apply_criterion("strict", strict, hits)
    session.apply_criterion("lenient", lenient, hits)

    kappa = session.pairwise_kappa("strict", "lenient")
    print(f"Reviewer agreement: kappa={kappa:.2f} ({interpret_kappa(kappa)}); "
          f"{len(session.conflicts())} conflicts")
    for item in session.conflicts():
        session.adjudicate(item, Decision.INCLUDE)  # adjudicator is lenient
    verdicts = session.resolve()
    included = [p for p in hits if verdicts[p.key]]
    print(f"Included {len(included)} primary studies after adjudication")

    # -- 4. Classification ---------------------------------------------------
    classifier = CentroidClassifier(scheme)
    predictions = classifier.classify_many(
        [p.searchable_text() for p in included]
    )
    distribution = FrequencyTable.from_observations(
        (pred.label for pred in predictions), order=scheme.keys
    )

    # -- 5. Analysis + report ---------------------------------------------------
    names = dict(zip(scheme.keys, scheme.names))
    print("\nClassified distribution over the research directions:")
    print(ascii_distribution(distribution, label_names=names))
    evenness = evenness_report(distribution)
    print(f"\nShannon evenness: {evenness['shannon_evenness']:.3f} "
          f"(1.0 = perfectly balanced)")

    # PRISMA-style selection flow.
    from repro.reporting import StudyFlow, render_flow_diagram

    flow = StudyFlow("records identified", identified)
    flow.narrow("after deduplication", len(corpus), "duplicate records")
    flow.narrow("matched search query", len(hits), "off-topic")
    flow.narrow("included", len(included), "failed screening")
    print("\nSelection flow:")
    print(flow.summary())

    output = Path("output/custom_study")
    output.mkdir(parents=True, exist_ok=True)
    bar_chart(
        distribution,
        title="Primary studies per research direction",
        y_label="# studies",
    ).save(output / "distribution.svg")
    render_flow_diagram(flow).save(output / "selection_flow.svg")
    print(f"Figures written to {output}/")


if __name__ == "__main__":
    main()
