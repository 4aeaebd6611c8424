"""JSON serialization of study datasets.

Round-trips the whole ecosystem (institutions, tools, applications, scheme)
through a single JSON document, so studies can be edited as data files and
reloaded.  The format is versioned; loading validates cross-references the
same way the in-memory constructors do.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.core.catalog import (
    ApplicationCatalog,
    InstitutionRegistry,
    ToolCatalog,
    validate_ecosystem,
)
from repro.core.entities import (
    Application,
    Institution,
    InstitutionKind,
    Reference,
    Tool,
)
from repro.core.taxonomy import Category, ClassificationScheme, Facet
from repro.errors import SerializationError

__all__ = ["ecosystem_to_dict", "ecosystem_from_dict", "save_ecosystem", "load_ecosystem"]

FORMAT_VERSION = 1


def _ref_to_dict(ref: Reference | None) -> dict[str, Any] | None:
    if ref is None:
        return None
    return {"citation": ref.citation, "year": ref.year, "doi": ref.doi, "url": ref.url}


def _ref_from_dict(data: dict[str, Any] | None) -> Reference | None:
    if data is None:
        return None
    return Reference(
        citation=data["citation"],
        year=data.get("year"),
        doi=data.get("doi", ""),
        url=data.get("url", ""),
    )


def ecosystem_to_dict(
    institutions: InstitutionRegistry,
    tools: ToolCatalog,
    applications: ApplicationCatalog,
    scheme: ClassificationScheme,
) -> dict[str, Any]:
    """Serialize a full ecosystem to a JSON-compatible dict."""
    return {
        "format_version": FORMAT_VERSION,
        "scheme": {
            "name": scheme.name,
            "facet": (
                {"key": scheme.facet.key, "name": scheme.facet.name,
                 "description": scheme.facet.description}
                if scheme.facet
                else None
            ),
            "categories": [
                {
                    "key": c.key,
                    "name": c.name,
                    "description": c.description,
                    "keywords": list(c.keywords),
                }
                for c in scheme
            ],
        },
        "institutions": [
            {
                "key": i.key, "name": i.name, "short_name": i.short_name,
                "kind": i.kind.value, "city": i.city,
            }
            for i in institutions
        ],
        "tools": [
            {
                "key": t.key, "name": t.name, "institution": t.institution,
                "primary_direction": t.primary_direction,
                "secondary_directions": list(t.secondary_directions),
                "description": t.description,
                "reference": _ref_to_dict(t.reference),
                "institution_inferred": t.institution_inferred,
            }
            for t in tools
        ],
        "applications": [
            {
                "key": a.key, "title": a.title, "section": a.section,
                "providers": list(a.providers), "domain": a.domain,
                "description": a.description,
                "selected_tools": list(a.selected_tools),
            }
            for a in applications
        ],
    }


def ecosystem_from_dict(
    data: dict[str, Any],
) -> tuple[InstitutionRegistry, ToolCatalog, ApplicationCatalog, ClassificationScheme]:
    """Deserialize and cross-validate an ecosystem."""
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported format_version {version!r}; expected {FORMAT_VERSION}"
        )
    try:
        scheme_data = data["scheme"]
        facet_data = scheme_data.get("facet")
        scheme = ClassificationScheme(
            (
                Category(
                    c["key"], c["name"], c.get("description", ""),
                    tuple(c.get("keywords", ())),
                )
                for c in scheme_data["categories"]
            ),
            facet=(
                Facet(facet_data["key"], facet_data["name"],
                      facet_data.get("description", ""))
                if facet_data
                else None
            ),
            name=scheme_data.get("name", "unnamed scheme"),
        )
        institutions = InstitutionRegistry(
            Institution(
                i["key"], i["name"], i.get("short_name", ""),
                InstitutionKind(i.get("kind", "university")),
                i.get("city", ""),
            )
            for i in data["institutions"]
        )
        tools = ToolCatalog(
            Tool(
                t["key"], t["name"], t["institution"],
                t["primary_direction"],
                tuple(t.get("secondary_directions", ())),
                t.get("description", ""),
                _ref_from_dict(t.get("reference")),
                t.get("institution_inferred", False),
            )
            for t in data["tools"]
        )
        applications = ApplicationCatalog(
            Application(
                a["key"], a["title"], a["section"],
                tuple(a.get("providers", ())),
                a.get("domain", ""),
                a.get("description", ""),
                tuple(a.get("selected_tools", ())),
            )
            for a in data["applications"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed ecosystem document: {exc}") from exc
    validate_ecosystem(institutions, tools, applications, scheme)
    return institutions, tools, applications, scheme


def save_ecosystem(
    path: str | Path,
    institutions: InstitutionRegistry,
    tools: ToolCatalog,
    applications: ApplicationCatalog,
    scheme: ClassificationScheme,
) -> None:
    """Write the ecosystem to a JSON file."""
    document = ecosystem_to_dict(institutions, tools, applications, scheme)
    Path(path).write_text(
        json.dumps(document, indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )


def load_ecosystem(
    path: str | Path,
) -> tuple[InstitutionRegistry, ToolCatalog, ApplicationCatalog, ClassificationScheme]:
    """Read an ecosystem from a JSON file."""
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SerializationError(f"cannot read ecosystem from {path}: {exc}") from exc
    return ecosystem_from_dict(document)
