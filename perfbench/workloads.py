"""The benchmark's workloads: which inputs each runs, and how each item is
run through closurelab's public entry points and checked.

An item is one CLI command or one library call sequence; a cell is one
(input, m) dimension inside it.  Every cell is compared with the oracle.
"""

from __future__ import annotations

import contextlib
import io
import json
import shlex
from pathlib import Path

from oracle import falling_factorial

# Table 2 rows also run at m = 4, 5: the three fastest of the four rows the
# source requires at those m.  (x, y)^3 would add 7.7 s to every pass.
TABLE2_M5_ROWS = ("(x^6)", "(x^2, y^5, xy)", "(x, y, z, w, v)^2")

# Étale inputs: n = dimension, closed at m = 2 in the default two-prime mode.
ETALE_CLOSE = (("Q[x]/(x^8-x-1)", 8, 2),
               ("Q[x,y,z]/(x^2-2, y^2-3, z^2-5)", 8, 2))
ETALE_TOWER = ("Z^5-2", 5, 3)

WORKLOADS = ("modular", "exact-q")

# Nominal seconds per untraced pass at the parent commit, on the 2-core
# Xeon VM the benchmark was tuned on.  A run makes --seconds // PASS_S
# passes (at least one): a fixed count, so a faster or slower program
# changes the pass times but not how many there are.
PASS_S = {"modular": 20.0, "exact-q": 10.0}

# The module a user's first call goes through, imported by the set-up probe.
ENTRY = {"modular": "closurelab.cli", "exact-q": "closurelab.closure"}


def presentation_text(row: dict) -> str:
    return f"{row['field']}[{','.join(row['vars'])}]/({', '.join(row['relations'])})"


class Program:
    """The closurelab modules the items call, looked up at call time so that
    traced runs see the wrappers."""

    def __init__(self):
        import closurelab
        from closurelab import cli, closure, finalg
        self.package = closurelab
        self.cli = cli
        self.closure = closure
        self.finalg = finalg

    def run_cli(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(argv)
        return code, [json.loads(line) for line in out.getvalue().splitlines() if line]


class TableItem:
    """`closurelab table --manifest M --rows ROW --jobs 1 --json`."""

    def __init__(self, manifest: Path, row: str, expected: dict):
        self.name = row
        self.argv = ["table", "--manifest", str(manifest), "--rows", row,
                     "--jobs", "1", "--json"]
        self.expected = expected

    @property
    def cells(self):
        return len(self.expected)

    def run(self, program) -> int:
        code, records = program.run_cli(self.argv)
        dims = {r["m"]: r.get("dim") for r in records if not r.get("error")}
        failed = sum(1 for m, d in self.expected.items() if dims.get(m) != d)
        return self.cells if code != 0 else failed


class CliDimItem:
    """A `closurelab close` or `closurelab tower` command with --json."""

    def __init__(self, argv, expected: int):
        self.name = shlex.join(argv[:3])
        self.argv = argv + ["--json"]
        self.expected = expected
        self.cells = 1

    def run(self, program) -> int:
        code, records = program.run_cli(self.argv)
        return 0 if code == 0 and len(records) == 1 and records[0]["dim"] == self.expected else 1


class ExactItem:
    """closure_from_presentation(..., exact=True) at every m of a row, each
    result followed by divides_check."""

    def __init__(self, row: str, presentation, expected: dict):
        self.name = row
        self.presentation = presentation
        self.expected = expected

    @property
    def cells(self):
        return len(self.expected)

    def run(self, program) -> int:
        closure = program.closure
        failed = 0
        for m, want in self.expected.items():
            result, mode = closure.closure_from_presentation(self.presentation, m, exact=True)
            certificate = closure.divides_check(result)
            if result.dim != want or mode != "exact" or not certificate["certified"]:
                failed += 1
        return failed


def _write_manifest(path: Path, rows: dict, cells: dict):
    """A manifest of the given rows whose expectations are the oracle's."""
    out = []
    for name, ms in cells.items():
        row = rows[name]
        out.append({"name": name, "field": row["field"], "vars": row["vars"],
                    "relations": row["relations"],
                    "expected": {str(m): d for m, d in ms.items()}})
    path.write_text(json.dumps(out, indent=1))


def build(workload: str, rows: dict, oracle: dict, tmp: Path, program: Program):
    """Items of a workload, in canonical order, and the inputs the set-up
    probe loads.  Writes the workload's manifest into tmp."""
    probe = {"entry": ENTRY[workload], "manifests": [], "presentations": [],
             "polynomials": []}

    def cells(names, ms=None):
        return {n: {m: oracle[(n, m)] for m in sorted(rows[n]["expected"])
                    if ms is None or m in ms} for n in names}

    if workload == "modular":
        wanted = cells(rows, range(4))
        for name in TABLE2_M5_ROWS:
            wanted[name].update(cells([name], (4, 5))[name])
        manifest = tmp / "modular.json"
        _write_manifest(manifest, rows, wanted)
        probe["manifests"].append(str(manifest))
        probe["presentations"] = [text for text, _, _ in ETALE_CLOSE]
        probe["polynomials"] = [ETALE_TOWER[0]]
        items = [TableItem(manifest, name, ms) for name, ms in wanted.items()]
        items += [CliDimItem(["close", "--algebra", text, "--m", str(m)],
                             falling_factorial(n, m))
                  for text, n, m in ETALE_CLOSE]
        f, n, m = ETALE_TOWER
        items.append(CliDimItem(["tower", "--f", f, "--m", str(m)], falling_factorial(n, m)))
    elif workload == "exact-q":
        table1 = {n: r for n, r in rows.items() if r["table"] == "table1.json"}
        probe["presentations"] = [presentation_text(r) for r in table1.values()]
        parse = program.package.parse_presentation
        items = [ExactItem(name, parse(presentation_text(table1[name])), ms)
                 for name, ms in cells(table1).items()]
    else:
        raise KeyError(workload)
    return items, probe
