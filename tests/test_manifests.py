"""The manifests are the reproduction oracle; pin their content.

The checksums guard against accidental edits: any change to a transcribed
value must be deliberate and re-pinned here after review.
"""

import hashlib

from closurelab.catalog import manifest_path, table1_entries, table2_entries
from flat_oracle import is_local_nilpotent

PINNED = {
    "table1.json": "4574db389ec98daacc0a71e53c36068ae0aba7272787f4aa4c5fa178a5d5bf6b",
    "table2.json": "a941795f96cc024a9f4eb3b78028a9a7ffae1388c1f2998510fc53fbec161622",
}


def test_checksums_pinned():
    for name, digest in PINNED.items():
        data = manifest_path(name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, \
            f"{name} changed; review the transcription and re-pin"


def test_table1_shape():
    entries = table1_entries()
    assert len(entries) == 15
    by_n = {}
    for e in entries:
        n = max(e.expected)
        by_n.setdefault(n, []).append(e)
        assert e.expected[0] == 1 and e.expected[1] == n
        assert e.expected[n] == e.expected[n - 1]     # last two columns agree
    assert sorted(by_n) == [3, 4, 5]
    assert len(by_n[3]) == 2 and len(by_n[4]) == 4 and len(by_n[5]) == 9


def test_table2_shape():
    entries = table2_entries()
    assert len(entries) == 25
    for e in entries:
        assert max(e.expected) == 5
        assert e.expected[0] == 1 and e.expected[1] == 6
    erratum_rows = [e for e in entries if "erratum" in e.tags]
    assert len(erratum_rows) == 1
    required = [e for e in entries if "required-m45" in e.tags]
    assert {e.name for e in required} == {
        "(x^6)", "(x^2, y^5, xy)", "(x, y)^3", "(x, y, z, w, v)^2"}


def test_spot_values_against_source():
    """Row-by-row spot checks of the transcription."""
    t1 = {e.name: e for e in table1_entries()}
    assert t1["(x^5)"].expected == {0: 1, 1: 5, 2: 20, 3: 60, 4: 120, 5: 120}
    assert t1["(x^2, y^2, z^3, xy, xz, yz)"].expected[3] == 84
    assert t1["(x, y, z, w)^2"].expected == \
        {0: 1, 1: 5, 2: 25, 3: 105, 4: 220, 5: 220}
    t2 = {e.name: e for e in table2_entries()}
    assert t2["(x^6)"].expected == {0: 1, 1: 6, 2: 30, 3: 120, 4: 360, 5: 720}
    assert t2["(x, y)^3"].expected[5] == 1085
    assert t2["(x^2, y^2, z^2, xy, xz, xw, yz, yw, zw, w^3)"].expected[4] == 707
    assert t2["(x, y, z, w, v)^2"].expected[5] == 1875   # printed value
    assert t2["(xy, x^3 + y^3)"].expected == \
        {0: 1, 1: 6, 2: 33, 3: 138, 4: 422, 5: 840}


def test_every_entry_parses_to_the_stated_dimension():
    for entry in table1_entries() + table2_entries():
        algebra = entry.algebra()
        assert algebra.dim == entry.expected[1], entry.name
        assert is_local_nilpotent(algebra), entry.name
