"""Expected closure dimensions for every cell the benchmark runs.

The bundled Table 1 and Table 2 manifests are the source.  Six printed
cells are not reproducible from their own ideals (see the package README);
the oracle replaces them with the recomputed values.  Étale inputs and
monogenic towers are checked against the falling factorial n(n-1)...(n-m+1).

The manifests are read as plain JSON, not through closurelab, so a change
to the package's manifest loader cannot change what the benchmark expects.
"""

from __future__ import annotations

import json
from pathlib import Path

ERRATA = {
    ("(xy, z^2, xz - yz, x^2 + y^2 - xz)", 3): 164,
    ("(xy, z^2, xz - yz, x^2 + y^2 - xz)", 4): 520,
    ("(xy, z^2, xz - yz, x^2 + y^2 - xz)", 5): 1038,
    ("(x^2, xy, y^2, z^2)", 4): 542,
    ("(x^2, xy, y^2, z^2)", 5): 1080,
    ("(x, y, z, w, v)^2", 5): 1857,
}

TABLES = ("table1.json", "table2.json")


class OracleError(Exception):
    """The oracle and the bundled manifests disagree outside the errata."""


def falling_factorial(n: int, m: int) -> int:
    out = 1
    for i in range(m):
        out *= n - i
    return out


def load_rows(root: Path) -> dict:
    """Every bundled manifest row by name, with integer m keys."""
    rows = {}
    for table in TABLES:
        path = root / "src" / "closurelab" / "data" / table
        for raw in json.loads(path.read_text()):
            if raw["name"] in rows:
                raise OracleError(f"row {raw['name']!r} appears twice")
            rows[raw["name"]] = dict(
                raw, table=table,
                expected={int(m): d for m, d in raw["expected"].items()})
    return rows


def expected_dims(rows: dict) -> dict:
    """(row name, m) -> expected dimension, errata applied."""
    out = {(name, m): d for name, row in rows.items()
           for m, d in row["expected"].items()}
    out.update(ERRATA)
    return out


def self_check(rows: dict, oracle: dict):
    """Raise OracleError unless the oracle equals the manifests at every cell
    except the errata, and every erratum is a tagged, noted manifest cell
    whose printed value differs from the recomputed one."""
    problems = []
    cells = {(name, m): d for name, row in rows.items()
             for m, d in row["expected"].items()}
    if set(oracle) != set(cells):
        problems.append("oracle cells differ from manifest cells: "
                        f"{sorted(set(oracle) ^ set(cells))}")
    for key, printed in cells.items():
        if key not in ERRATA and oracle.get(key) != printed:
            problems.append(f"{key}: oracle {oracle.get(key)} != manifest {printed}")
    for (name, m), value in ERRATA.items():
        row = rows.get(name)
        if row is None or m not in row["expected"]:
            problems.append(f"erratum ({name!r}, {m}) is not a manifest cell")
            continue
        if not any(t.startswith("erratum") for t in row.get("tags", ())):
            problems.append(f"erratum row {name!r} has no erratum tag")
        if row["expected"][m] == value:
            problems.append(f"erratum ({name!r}, {m}) equals the printed value")
        if str(value) not in row.get("note", ""):
            problems.append(f"erratum ({name!r}, {m}) value {value} is not in the note")
    if problems:
        raise OracleError("; ".join(problems))


def build(root: Path):
    """Load the manifests, build the oracle and self-check it."""
    rows = load_rows(root)
    oracle = expected_dims(rows)
    self_check(rows, oracle)
    return rows, oracle
