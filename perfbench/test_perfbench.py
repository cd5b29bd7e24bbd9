"""Tests of the benchmark itself (not collected by the repository's tier-1 run).

  python3 -m pytest perfbench -q
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT_COUNTS = ("groebner.buchberger_calls", "closure.charpoly_terms",
                "closure.genrows_rows", "finalg.span_candidates",
                "finalg.span_inserted", "finalg.reduce_calls",
                "closure.mclosure_calls", "closure.stage_width_max")


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_oracle_matches_manifests_outside_errata():
    rows, expected = oracle.build(ROOT)
    assert len(expected) == 82 + 25 * 6
    assert expected[("(x, y, z, w, v)^2", 5)] == 1857
    assert expected[("(x, y, z, w, v)^2", 4)] == rows["(x, y, z, w, v)^2"]["expected"][4]


@pytest.mark.parametrize("damage", ["cell", "erratum-name", "erratum-note"])
def test_oracle_self_check_fails(damage):
    rows, expected = oracle.build(ROOT)
    rows = copy.deepcopy(rows)
    if damage == "cell":
        expected = dict(expected)
        expected[("(x^6)", 4)] += 1
    elif damage == "erratum-name":
        rows["(x, y, z, w, v)^2 "] = rows.pop("(x, y, z, w, v)^2")
        expected = oracle.expected_dims(rows)
    else:
        rows["(x^2, xy, y^2, z^2)"]["note"] = ""
    with pytest.raises(oracle.OracleError):
        oracle.self_check(rows, expected)


def test_uninstall_restores_every_binding():
    sys.path.insert(0, str(ROOT / "src"))
    from closurelab import cli, closure, finalg
    owners = (finalg, closure, cli, finalg.RowSpace, finalg.QuotientAlgebra,
              finalg.AlgebraMap)
    before = [dict(vars(o)) for o in owners]
    tracer = Tracer()
    tracer.install(finalg, closure, cli)
    assert finalg.RowSpace.__dict__["reduce"] is not before[3]["reduce"]
    tracer.uninstall()
    for owner, old in zip(owners, before):
        for name, value in old.items():
            assert vars(owner).get(name) is value, (owner, name)


def declared(kind):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def test_untraced_run_reports_the_end_to_end_metrics():
    proc = run_bench(ROOT, "--workload", "exact-q", "--seed", "2",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 82
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("end_to_end")


@pytest.mark.parametrize("workload", ["modular", "exact-q"])
def test_traced_counts_are_deterministic(workload):
    counts = []
    for _ in range(2):
        proc = run_bench(ROOT, "--workload", workload, "--seed", "3",
                         "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        assert {k: v["unit"] for k, v in metrics.items()} == declared("per_layer")
        counts.append({k: metrics[k]["value"] for k in EXACT_COUNTS})
    assert counts[0] == counts[1]
    assert all(counts[0].values()), counts[0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "modular", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
