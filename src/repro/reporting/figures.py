"""Regenerate every paper figure and table into an output directory.

One call produces the complete artifact set:

* ``fig1_spoke1.svg`` — the Spoke 1 structure diagram;
* ``fig2_tool_distribution.svg`` — the supply pie;
* ``fig3_coverage_histogram.svg`` — the institution-coverage histogram;
* ``fig4_selection_votes.svg`` — the demand pie;
* ``table1.md`` / ``table1.tex`` and ``table2.md`` / ``table2.tex``;
* ``fig2_fig4_comparison.svg`` — supply vs demand, side by side;
* CSV data files for every figure.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.analysis import (
    coverage_histogram,
    demand_distribution,
    supply_distribution,
)
from repro.core.catalog import ApplicationCatalog, ToolCatalog
from repro.core.selection import SelectionMatrix
from repro.core.taxonomy import ClassificationScheme
from repro.io.csvio import frequency_to_csv, selection_to_csv
from repro.tables.table1 import build_table1
from repro.tables.table2 import build_table2
from repro.viz.bars import bar_chart, grouped_bar_chart
from repro.viz.matrix import selection_grid
from repro.viz.pie import pie_chart
from repro.viz.svg import SvgDocument

__all__ = ["render_all_artifacts", "render_spoke1_figure"]


def render_spoke1_figure(structure: dict) -> SvgDocument:
    """Render the Fig. 1 Spoke-1 structure diagram from plain data."""
    flagships = structure["flagships"]
    labs = structure["living_labs"]
    industries = structure["industries"]
    width, height = 860.0, 90.0 + 46.0 * max(len(flagships), len(industries) // 2 + 3)
    doc = SvgDocument(width, height)
    doc.rect(0, 0, width, height, fill="#ffffff")
    doc.title(
        f"{structure['name']} (financial envelope "
        f"{structure['financial_envelope_meur']}M€)"
    )
    # Flagship column.
    y = 60.0
    for flagship in flagships:
        doc.rect(20, y, 430, 38, fill="#e8f0fa", stroke="#4477aa", rx=4)
        doc.text(
            30, y + 16, f"{flagship['key'].upper()}) {flagship['title'][:56]}",
            size=10.5,
        )
        doc.text(
            30, y + 30,
            f"coord. {flagship['coordinator'].upper()}",
            size=9.5, fill="#555555",
        )
        y += 46
    # Living labs column.
    y_labs = 60.0
    for lab in labs:
        doc.rect(470, y_labs, 180, 38, fill="#fdf1e7", stroke="#ee6677", rx=4)
        doc.text(478, y_labs + 16, lab["title"][:26], size=10)
        doc.text(
            478, y_labs + 30, f"leader {lab['leader'].upper()}",
            size=9.5, fill="#555555",
        )
        y_labs += 46
    # Funding boxes.
    doc.rect(470, y_labs, 180, 30, fill="#eef7ee", stroke="#228833", rx=4)
    doc.text(
        478, y_labs + 19,
        f"Cascade funding {structure['cascade_funding_meur']}M€",
        size=10,
    )
    y_labs += 38
    doc.rect(470, y_labs, 180, 30, fill="#eef7ee", stroke="#228833", rx=4)
    doc.text(
        478, y_labs + 19,
        f"Innovation grants {structure['innovation_grants_meur']}M€",
        size=10,
    )
    # Industries column.
    doc.text(680, 56, "Industries", size=11, weight="bold")
    y_ind = 70.0
    for name in industries:
        doc.text(680, y_ind, name, size=9.5)
        y_ind += 15
    return doc


def render_all_artifacts(
    tools: ToolCatalog,
    applications: ApplicationCatalog,
    scheme: ClassificationScheme,
    output_dir: str | Path,
    *,
    spoke1: dict | None = None,
    institutions=None,
) -> dict[str, Path]:
    """Write every figure/table artifact under *output_dir*.

    Returns a name → path mapping of everything produced.  When
    *institutions* is given, a ``provenance.json`` sidecar records each
    artifact's generating step and the dataset's SHA-256 fingerprint.

    The shared distributions are derived once; every figure/table then
    renders from them in a fixed order.
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = dict(zip(scheme.keys, scheme.names))

    supply = supply_distribution(tools, scheme)
    coverage = coverage_histogram(tools, scheme)
    selection = SelectionMatrix.from_catalogs(tools, applications, scheme)
    demand = demand_distribution(selection, tools, scheme)

    artifacts: dict[str, Path] = {}
    if spoke1 is not None:
        path = out / "fig1_spoke1.svg"
        render_spoke1_figure(spoke1).save(path)
        artifacts["fig1"] = path

    path = out / "fig2_tool_distribution.svg"
    pie_chart(
        supply,
        title="Tool distribution over the five research directions",
        label_names=names,
    ).save(path)
    frequency_to_csv(supply, path.with_suffix(".csv"))
    artifacts.update(fig2=path, fig2_csv=path.with_suffix(".csv"))

    path = out / "fig3_coverage_histogram.svg"
    bar_chart(
        coverage,
        title="Research directions covered per institution",
        x_label="# covered research directions",
        y_label="# research institutions",
    ).save(path)
    frequency_to_csv(coverage, path.with_suffix(".csv"))
    artifacts.update(fig3=path, fig3_csv=path.with_suffix(".csv"))

    path = out / "fig4_selection_votes.svg"
    pie_chart(
        demand,
        title="Tools selected for integration, by research direction",
        label_names=names,
    ).save(path)
    frequency_to_csv(demand, path.with_suffix(".csv"))
    artifacts.update(fig4=path, fig4_csv=path.with_suffix(".csv"))

    path = out / "fig2_fig4_comparison.svg"
    grouped_bar_chart(
        {"supply (tools)": supply, "demand (votes)": demand},
        title="Supply vs demand over the research directions",
    ).save(path)
    artifacts["comparison"] = path

    table = build_table1(tools, scheme)
    (out / "table1.md").write_text(table.to_markdown() + "\n", encoding="utf-8")
    (out / "table1.tex").write_text(table.to_latex() + "\n", encoding="utf-8")
    artifacts.update(table1_md=out / "table1.md", table1_tex=out / "table1.tex")

    table = build_table2(tools, applications, scheme, selection=selection)
    (out / "table2.md").write_text(table.to_markdown() + "\n", encoding="utf-8")
    (out / "table2.tex").write_text(table.to_latex() + "\n", encoding="utf-8")
    artifacts.update(table2_md=out / "table2.md", table2_tex=out / "table2.tex")

    path = out / "table2_grid.svg"
    selection_grid(
        selection,
        title="Table 2 as a checkmark grid",
        row_names={t.key: t.name for t in tools},
        col_names={a.key: a.section for a in applications.ordered()},
        row_groups={t.key: t.primary_direction for t in tools},
    ).save(path)
    selection_to_csv(selection, out / "table2.csv")
    artifacts.update(table2_grid=path, table2_csv=out / "table2.csv")

    if institutions is not None:
        from repro.reporting.provenance import ProvenanceLog, dataset_fingerprint

        provenance = ProvenanceLog()
        inputs = {
            "dataset": dataset_fingerprint(
                institutions, tools, applications, scheme
            )
        }
        for path in artifacts.values():
            provenance.record(path.name, "render_all_artifacts", inputs=inputs)
        provenance.save(out / "provenance.json")
        artifacts["provenance"] = out / "provenance.json"
    return artifacts
