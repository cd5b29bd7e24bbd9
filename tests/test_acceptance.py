"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
as they complete.

Two assertions in this module fail by design, because two published values
are not reproducible from their own definitions (see ``demos/`` and the
package README for the full analysis):

* criterion 3 as stated: the printed 5-closure dimension 1875 of
  (x, y, z, w, v)^2 is a digit transposition; every independent
  recomputation gives 1857, and the rank of the defining ideal modulo a
  prime already exceeds what 1875 would allow.
* criterion 4 as stated: the printed naive dimension 110 over F2 is off by
  one; the fifteen cube tensors spanning the naive ideal sum to zero, so
  the span has rank 14 and the dimension is 111.

The companion ``*_reproducible`` tests pin every remaining published value
and the recomputed values for the two deviating cells.
"""

import json
import time

import pytest

from closurelab.arith import GF
from closurelab.catalog import table1_entries, table2_entries
from closurelab.cli import main as cli_main
from closurelab.closure import (base_change_presentation,
                                closure_from_presentation, m_closure,
                                naive_closure)
from closurelab.finalg import algebra_from_presentation
from closurelab.multipoly import parse_presentation
from closurelab.verify import run_suites


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}" + (f" -- {detail}" if detail else ""))


def run_cli(args):
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(args)
    return code, buf.getvalue().splitlines()


# -- criterion 1: Table 1, all 15 rows, every implied m, both char-0 modes


def test_criterion1_table1_both_modes():
    t0 = time.time()
    mismatches = []
    for entry in table1_entries():
        pres = entry.presentation()
        for m, expected in sorted(entry.expected.items()):
            modular, _ = closure_from_presentation(pres, m)
            exact, _ = closure_from_presentation(pres, m, exact=True)
            if modular.dim != expected or exact.dim != expected:
                mismatches.append((entry.name, m, modular.dim, exact.dim, expected))
    elapsed = time.time() - t0
    ok = not mismatches and elapsed < 300
    report("criterion 1 (Table 1, modular and exact)", ok,
           f"{elapsed:.1f}s" + (f", mismatches: {mismatches}" if mismatches else ""))
    assert not mismatches, mismatches
    assert elapsed < 300, f"took {elapsed:.1f}s, budget 300s"


# -- criterion 2: Table 2 columns m = 2, 3 (the 24 reproducible rows)


def test_criterion2_table2_m23():
    t0 = time.time()
    rows = [e for e in table2_entries() if "erratum" not in e.tags]
    assert len(rows) == 24
    mismatches = []
    for entry in rows:
        pres = entry.presentation()
        for m in (2, 3):
            result, _ = closure_from_presentation(pres, m)
            if result.dim != entry.expected[m]:
                mismatches.append((entry.name, m, result.dim, entry.expected[m]))
    elapsed = time.time() - t0
    ok = not mismatches and elapsed < 1800
    report("criterion 2 (Table 2, m=2,3, 24 rows)", ok,
           f"{elapsed:.1f}s" + (f", mismatches: {mismatches}" if mismatches else ""))
    assert not mismatches, mismatches
    assert elapsed < 1800


def test_criterion2_inconsistent_row_documented():
    """The 25th printed row is internally inconsistent: its ideal string
    yields 164 at m=3, not the printed 168 (confirmed by an independent
    first-principles recomputation).  Pin the honest values."""
    entry = next(e for e in table2_entries() if "erratum" in e.tags)
    pres = entry.presentation()
    dims = {m: closure_from_presentation(pres, m)[0].dim for m in (2, 3)}
    report("criterion 2 note (inconsistent row recomputed)",
           dims == {2: 36, 3: 164}, f"{entry.name}: {dims}")
    assert dims == {2: 36, 3: 164}


# -- criterion 3: Table 2 columns m = 4, 5 for the four required rows


REQUIRED_M45 = {
    "(x^6)": {4: 360, 5: 720},
    "(x^2, y^5, xy)": {4: 393, 5: 785},
    "(x, y)^3": {4: 539, 5: 1085},
    "(x, y, z, w, v)^2": {4: 876, 5: 1875},   # printed; m=5 cell see below
}


def _required_row_dims():
    dims = {}
    entries = {e.name: e for e in table2_entries()}
    for name in REQUIRED_M45:
        pres = entries[name].presentation()
        for m in (4, 5):
            result, _ = closure_from_presentation(pres, m)
            dims[(name, m)] = result.dim
    return dims


@pytest.fixture(scope="module")
def required_dims():
    t0 = time.time()
    dims = _required_row_dims()
    dims["elapsed"] = time.time() - t0
    return dims


def test_criterion3_reproducible_cells(required_dims):
    elapsed = required_dims["elapsed"]
    bad = []
    for name, cells in REQUIRED_M45.items():
        for m, expected in cells.items():
            if (name, m) == ("(x, y, z, w, v)^2", 5):
                continue
            if required_dims[(name, m)] != expected:
                bad.append((name, m, required_dims[(name, m)], expected))
    ok = not bad and elapsed < 7200
    report("criterion 3 (required rows, 7 reproducible cells)", ok,
           f"{elapsed:.1f}s" + (f", mismatches: {bad}" if bad else ""))
    assert not bad, bad
    assert elapsed < 7200


def test_criterion3_as_stated(required_dims):
    """The criterion verbatim: all four rows exact at m = 4 and 5.

    This fails on one cell.  The printed 1875 for (x, y, z, w, v)^2 at m=5
    cannot be produced by the defining construction: the relation ideal has
    rank 5919 > 7776 - 1875 already modulo a large prime (a rank over a
    prime never exceeds the rational rank), four independent computations
    give 1857, and the proved equality of the (n-1)- and n-closure
    dimensions holds at 1857.  See the decisions log and README.
    """
    bad = {}
    for name, cells in REQUIRED_M45.items():
        for m, expected in cells.items():
            got = required_dims[(name, m)]
            if got != expected:
                bad[(name, m)] = (got, expected)
    report("criterion 3 (as stated, all 8 printed cells)", not bad,
           f"deviating cells: {bad}" if bad else "")
    assert not bad, (
        f"published cell(s) not reproducible from their own construction: {bad}; "
        "see notes in the decisions log")


def test_criterion3_transposed_cell_pinned(required_dims):
    assert required_dims[("(x, y, z, w, v)^2", 5)] == 1857


# -- criterion 4: the naive-closure base-change counterexample


@pytest.fixture(scope="module")
def naive_data():
    pres2 = parse_presentation("F2[x1,x2,x3,x4]/((x1,x2,x3,x4)^2)")
    a2 = algebra_from_presentation(pres2)
    pres4 = base_change_presentation(pres2, GF(2, 2))
    a4 = algebra_from_presentation(pres4)
    return {
        "naive_f2": naive_closure(a2, 3).dim,
        "naive_f4": naive_closure(a4, 3).dim,
        "true_f2": m_closure(a2, 3).dim,
        "true_f4": m_closure(a4, 3).dim,
    }


def test_criterion4_as_stated(naive_data):
    """The criterion verbatim: 110 over F2, 105 over F4, true closure
    stable.

    The F2 value fails: the naive ideal is the span of the fifteen tensor
    cubes a x a x a over the maximal ideal, and those cubes sum to zero
    (each coordinate counts a subspace coset of even size), so the span has
    rank 14, not 15, and the dimension is 111.  The published 110 relied on
    the fifteen cubes being independent.  See the decisions log.
    """
    ok = (naive_data["naive_f2"] == 110 and naive_data["naive_f4"] == 105
          and naive_data["true_f2"] == naive_data["true_f4"])
    report("criterion 4 (as stated: 110 / 105 / stable)", ok,
           f"naive F2 = {naive_data['naive_f2']} (printed 110), "
           f"naive F4 = {naive_data['naive_f4']}")
    assert naive_data["naive_f4"] == 105
    assert naive_data["true_f2"] == naive_data["true_f4"]
    assert naive_data["naive_f2"] == 110, (
        f"naive closure over F2 computes to {naive_data['naive_f2']}; the "
        "printed 110 requires the fifteen cube tensors to be independent, "
        "but they sum to zero over F2 (see the decisions log)")


def test_criterion4_reproducible_parts(naive_data):
    ok = (naive_data["naive_f2"] == 111 and naive_data["naive_f4"] == 105
          and naive_data["true_f2"] == naive_data["true_f4"] == 105
          and naive_data["naive_f2"] != naive_data["naive_f4"])
    report("criterion 4 (base-change failure, recomputed values)", ok,
           f"naive {naive_data['naive_f2']} vs {naive_data['naive_f4']}, "
           f"true stable at {naive_data['true_f2']}")
    assert ok


# -- criterion 5: characteristic-2 deviation


def test_criterion5_char2_deviation():
    a = algebra_from_presentation(parse_presentation("F2[x,y]/(x^2,y^2)"))
    d2, d3 = m_closure(a, 2).dim, m_closure(a, 3).dim
    q = algebra_from_presentation(parse_presentation("Q[x,y]/(x^2,y^2)"))
    q2, q3 = m_closure(q, 2).dim, m_closure(q, 3).dim
    ok = (d2, d3) == (16, 32) and (q2, q3) == (13, 26)
    report("criterion 5 (char-2 deviation 16/32 vs 13/26)", ok,
           f"F2: {d2},{d3}; Q: {q2},{q3}")
    assert ok


# -- criterion 6: property suites


def test_criterion6_property_suites():
    t0 = time.time()
    ok, results = run_suites("all")
    failures = [(suite, name, detail) for suite, name, good, detail in results
                if not good]
    report("criterion 6 (property suites)",
           ok, f"{len(results)} checks, {time.time() - t0:.1f}s"
           + (f", failures: {failures[:3]}" if failures else ""))
    assert ok, failures


# -- criterion 7: determinism


def test_criterion7_table_determinism():
    def run_once():
        code, out = run_cli(["table", "--manifest", "table1.json", "--json"])
        assert code == 0
        stripped = []
        for line in out:
            record = json.loads(line)
            record.pop("ms", None)
            stripped.append(json.dumps(record, sort_keys=True))
        return stripped

    first = run_once()
    second = run_once()
    ok = first == second
    report("criterion 7 (byte-identical reports modulo timing)", ok,
           f"{len(first)} records")
    assert ok
