"""Manifest files: the dimension tables as machine-checkable data.

A manifest is a JSON array of entries {name, field, vars, relations,
expected, tags}; `expected` maps m (as a string) to the published closure
dimension.  The two bundled manifests transcribe the dimension tables row
by row; entries whose printed values are not reproducible from their own
ideal (three cells, see the package README) carry an erratum tag and a note
with the recomputed values.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from .finalg import TableAlgebra, algebra_from_presentation
from .multipoly import AlgebraPresentation, parse_presentation

BUNDLED = ("table1.json", "table2.json")


class ManifestEntry:
    """One manifest row."""

    def __init__(self, name: str, field: str, vars: tuple, relations: tuple,
                 expected: dict, tags: tuple = (), note: str = ""):
        self.name = name
        self.field = field
        self.vars = vars
        self.relations = relations      # relation strings
        self.expected = expected        # m -> dimension
        self.tags = tags
        self.note = note

    def presentation(self) -> AlgebraPresentation:
        text = f"{self.field}[{','.join(self.vars)}]/({', '.join(self.relations)})"
        return parse_presentation(text)

    def algebra(self) -> TableAlgebra:
        return algebra_from_presentation(self.presentation())


def manifest_path(name: str) -> Path:
    """Resolve a manifest argument: an existing path wins, then the bundled
    data files by basename."""
    p = Path(name)
    if p.exists():
        return p
    base = p.name
    if base in BUNDLED:
        with resources.as_file(resources.files("closurelab.data") / base) as f:
            return Path(f)
    raise FileNotFoundError(f"manifest {name!r} not found")


def load_manifest(name: str):
    path = manifest_path(name)
    with open(path, "rb") as f:
        raw = json.load(f)
    entries = []
    for item in raw:
        entries.append(ManifestEntry(
            name=item["name"],
            field=item["field"],
            vars=tuple(item["vars"]),
            relations=tuple(item["relations"]),
            expected={int(k): v for k, v in item.get("expected", {}).items()},
            tags=tuple(item.get("tags", ())),
            note=item.get("note", ""),
        ))
    return entries


def table1_entries():
    return load_manifest("table1.json")


def table2_entries():
    return load_manifest("table2.json")
