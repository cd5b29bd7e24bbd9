"""The property suites close each algebra once and read every smaller m
from that run's stages."""

import pytest

from closurelab import verify


@pytest.fixture
def closed(monkeypatch):
    """The (algebra, m) pairs that the suites pass to `m_closure`."""
    calls = []
    real = verify.m_closure

    def counted(a, m):
        calls.append((a, m))
        return real(a, m)

    monkeypatch.setattr(verify, "m_closure", counted)
    return calls


def test_etale_closes_each_split_algebra_once(closed):
    ok, _ = verify.run_suites(["etale"])
    assert ok
    assert [(a.dim, m) for a, m in closed] == [(n, n) for n in range(2, 6)]


def test_product_closes_each_factor_and_each_product_once(closed):
    ok, _ = verify.run_suites(["product"])
    assert ok
    # six factors, then the 14 products of total dimension at most 6
    assert len(closed) == 6 + 14
    assert len({id(a) for a, _ in closed}) == len(closed)
    assert all(m == min(3, a.dim) for a, m in closed)


def test_trivial_reads_the_middle_m_from_the_run_at_n(closed, monkeypatch):
    entries = verify.table1_entries()[:3]
    assert [e.algebra().dim for e in entries] == [3, 3, 4]
    monkeypatch.setattr(verify, "table1_entries", lambda: entries)
    ok, _ = verify.run_suites(["trivial"])
    assert ok
    by_algebra = {}
    for a, m in closed:
        by_algebra.setdefault(id(a), (a.dim, []))[1].append(m)
    # m = 0, 1, n - 1, n and n + 1 once each, for their own checks; no
    # m in 2..n-2 and no second m = 1
    assert sorted(sorted(ms) for _, ms in by_algebra.values()) == \
        sorted([0, 1, n - 1, n, n + 1] for n in (3, 3, 4))
