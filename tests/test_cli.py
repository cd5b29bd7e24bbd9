import functools
import hashlib
import json
import math
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from closurelab import cli as cli_module
from closurelab import closure as closure_module
from closurelab import finalg as finalg_module
from closurelab import verify as verify_module
from closurelab.catalog import load_manifest
from closurelab.cli import main
from closurelab.closure import closure_from_presentation
from closurelab.errors import CertificateFailure, ClosureLabError
from closurelab.multipoly import parse_presentation

REPORT_KEYS = {"name", "m", "method", "field", "bound", "dim", "generators",
               "rank", "ms"}


def run_cli(args):
    """Run in-process; returns (exit_code, stdout_lines)."""
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue().splitlines()


def test_close_basic():
    code, out = run_cli(["close", "--algebra", "Q[x,y]/((x,y)^2)", "--m", "2"])
    assert code == 0 and out == ["dim = 6"]


def test_close_char2():
    code, out = run_cli(["close", "--algebra", "F2[x,y]/(x^2,y^2)", "--m", "3"])
    assert code == 0 and out == ["dim = 32"]


def test_close_beyond_dimension():
    code, out = run_cli(["close", "--algebra", "Q[x]/(x^2)", "--m", "3"])
    assert code == 0 and out == ["dim = 0"]


def test_close_unit_ideal_is_the_zero_algebra():
    for mode in ([], ["--exact"]):
        for m, dim in ((0, 1), (1, 0), (2, 0)):
            code, out = run_cli(["close", "--algebra", "Q[x]/(1)",
                                 "--m", str(m)] + mode)
            assert code == 0 and out == [f"dim = {dim}"]
        code, out = run_cli(["close", "--algebra", "Q[x]/(x^2, x - 1)",
                             "--m", "2"] + mode)
        assert code == 0 and out == ["dim = 0"]


def test_close_json_schema():
    code, out = run_cli(["close", "--algebra", "Q[x]/(x^3)", "--m", "2", "--json"])
    assert code == 0
    record = json.loads(out[0])
    assert REPORT_KEYS <= set(record)
    assert record["dim"] == 6


EMIT_FULL_TEXT = {
    ("Q[x]/(x^2)", "--exact"): [
        "dim = 2",
        "method = points (staged), field = exact, generators = 1, rank = 2",
        "basis [2]: (1,1), (1,x)",
        "map alpha_1:",
        "    1 -> 1*(1,1)",
        "    x -> -1*(1,x)",
        "map alpha_2:",
        "    1 -> 1*(1,1)",
        "    x -> 1*(1,x)",
    ],
    # a map image with two terms, and a scalar that is not an integer
    ("GF(2,2)[x]/(x^2 + t*x + 1)",): [
        "dim = 2",
        "method = points (staged), field = GF(2,2), generators = 1, rank = 2",
        "basis [2]: (1,1), (1,x)",
        "map alpha_1:",
        "    1 -> 1*(1,1)",
        "    x -> t*(1,1) + 1*(1,x)",
        "map alpha_2:",
        "    1 -> 1*(1,1)",
        "    x -> 1*(1,x)",
    ],
    # a non-local input, seeded by one combination of x and y; the
    # symbolic seeds give the same text with "method = general" and
    # "generators = 5"
    ("Q[x,y]/(x^2-1, y^2)",): [
        "dim = 12",
        "method = points (staged), field = mod 674022607, generators = 1, rank = 4",
        "basis [12]: (1,1), (1,y), (1,x), (1,x*y), (y,1), (y,y), (y,x), "
        "(y,x*y), (x,1), (x,y), (x,x), (x,x*y)",
        "map alpha_1:",
        "    1 -> 1*(1,1)",
        "    y -> 1*(y,1)",
        "    x -> 1*(x,1)",
        "    x*y -> 674022606*(1,x*y) + 674022606*(y,x) + 674022606*(x,y)",
        "map alpha_2:",
        "    1 -> 1*(1,1)",
        "    y -> 1*(1,y)",
        "    x -> 1*(1,x)",
        "    x*y -> 1*(1,x*y)",
    ],
}


def test_close_emit_full():
    for (algebra, *mode), text in EMIT_FULL_TEXT.items():
        code, out = run_cli(["close", "--algebra", algebra, "--m", "2",
                             "--emit", "full"] + mode)
        assert code == 0 and out == text


def test_close_emit_full_json():
    code, out = run_cli(["close", "--algebra", "Q[x]/(x^2)", "--m", "2",
                         "--emit", "full", "--json", "--exact"])
    assert code == 0
    record = json.loads(out[0])
    assert record["basis"] == ["(1,1)", "(1,x)"]
    assert len(record["maps"]) == 2
    # the two images of x are negatives: they sum to the trace, which is 0
    assert record["maps"][0][1] == {"1": "-1"}
    assert record["maps"][1][1] == {"1": "1"}


def test_close_parse_error_exit_2():
    code, _ = run_cli(["close", "--algebra", "Q[x", "--m", "2"])
    assert code == 2
    code2, _ = run_cli(["close", "--algebra", "Q[x]/(x^2)", "--m", "-1"])
    assert code2 == 2
    code3, out = run_cli(["close", "--algebra", "Q[x]/(x^2)", "--m", "0"])
    assert code3 == 0 and out == ["dim = 1"]


def test_close_repeated_primes_exit_2(monkeypatch, capsys):
    # the modular mode runs over one prime; naming more is malformed
    for primes in ("7,7", "3,5,7"):
        monkeypatch.setenv("CLOSURELAB_PRIMES", primes)
        code, _ = run_cli(["close", "--algebra", "Q[x]/(x^2)", "--m", "2"])
        assert code == 2
        assert "must name one prime" in capsys.readouterr().err


def test_close_skips_a_bad_prime(monkeypatch):
    # a prime dividing a coefficient or a denominator would read the input
    # as (x^2, y^2), of dim 13 at m = 2; the next prime gives Q[y]/(y^4)'s 12
    p = 1073741789
    for text in (f"Q[x,y]/(x^2, y^2 - {p}*x)", f"Q[x,y]/(x^2, y^2 - 1/{p}*x)"):
        monkeypatch.setenv("CLOSURELAB_PRIMES", str(p))
        code, out = run_cli(["close", "--algebra", text, "--m", "2", "--json"])
        record = json.loads(out[0])
        assert code == 0
        assert (record["dim"], record["field"]) == (12, "mod 1073741827")


def test_close_probe_at_the_former_prime_pair():
    # the coefficient is the product of the two primes of the former
    # two-prime mode, which both read it as 0 and agreed on dim 13
    code, out = run_cli(["close", "--algebra",
                         "Q[x,y]/(x^2, y^2 - 4611685846628697223*x)", "--m", "2"])
    assert code == 0 and out == ["dim = 12"]


def test_close_json_bound():
    # a modular dimension is an upper bound for the one over Q; from a
    # point that generates A it is exact
    for argv, field, bound in ((["Q[x,y]/((x,y)^2)"], "mod ", "upper"),
                               (["Q[x]/(x^3)"], "mod ", "exact"),
                               (["Q[x]/(x^3)", "--exact"], "exact", "exact"),
                               (["F5[x]/(x^3)"], "F5", "exact"),
                               (["F5[x]/(x^3)", "--method", "naive"], "F5", "exact")):
        code, out = run_cli(["close", "--algebra", argv[0], "--m", "2",
                             "--json"] + argv[1:])
        record = json.loads(out[0])
        assert code == 0 and record["dim"] == 6
        assert record["field"].startswith(field) and record["bound"] == bound


def test_free_cases_are_exact_in_the_modular_mode(monkeypatch):
    # the dims 1, n and 0 at m = 0, 1 and m > n hold by definition: the
    # library result, close and the table's records say so alike
    monkeypatch.delenv("CLOSURELAB_PRIMES", raising=False)
    text = "Q[x,y]/(x^2, y^2)"
    for m, dim, bound in ((0, 1, "exact"), (1, 4, "exact"), (2, 13, "upper"),
                          (4, 26, "upper"), (5, 0, "exact")):
        result, mode = closure_from_presentation(parse_presentation(text), m)
        assert mode.startswith("mod ") and (result.dim, result.bound) == (dim, bound)
        code, out = run_cli(["close", "--algebra", text, "--m", str(m), "--json"])
        assert code == 0 and json.loads(out[0])["bound"] == bound
    code, records = _table_json(["--manifest", "table1.json", "--rows", "(x^2, y^2)"])
    assert code == 0
    assert [(r["m"], r["bound"]) for r in records] == \
        [(0, "exact"), (1, "exact"), (2, "upper"), (3, "upper"), (4, "upper")]


def test_point_seeded_records_carry_no_miss_bound(monkeypatch, tmp_path):
    # one generating point closes the 2-closure exactly, so no record says
    # how likely its dim is too large
    monkeypatch.delenv("CLOSURELAB_PRIMES", raising=False)
    text = "Q[x,y]/(x^2-x, y^3)"
    code, out = run_cli(["close", "--algebra", text, "--m", "2", "--json"])
    record = json.loads(out[0])
    assert code == 0 and (record["method"], record["dim"]) == ("points", 30)
    assert set(record) == REPORT_KEYS
    rows = [{"name": "mixed", "field": "Q", "vars": ["x", "y"],
             "relations": ["x^2-x", "y^3"], "expected": {"1": 6, "2": 30},
             "tags": []}]
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(rows))
    code, records = _table_json(["--manifest", str(path)])
    assert code == 0 and records[-1]["method"] == "points"
    assert not any("miss_bound" in r for r in records)
    code, out = run_cli(["close", "--algebra", text, "--m", "3", "--json"])
    assert code == 0 and "miss_bound" not in json.loads(out[0])


def test_another_generating_point_prints_the_same_record(monkeypatch):
    # the canonical basis and maps depend only on the stage ideal, which
    # every generating point gives
    monkeypatch.delenv("CLOSURELAB_PRIMES", raising=False)
    argv = ["close", "--algebra", "Q[x,y]/(x^2-1, y^2)", "--m", "2",
            "--emit", "full", "--json"]
    find = closure_module._generating_point
    points = []

    def finding(a, scale):
        # the point found, then the same point with its y coordinate scaled
        x = {k: c * scale % a.field.p if k == 1 else c
             for k, c in find(a).items()}
        assert closure_module._generates(a, x)
        points.append(x)
        return x

    records = []
    for scale in (1, 2):
        monkeypatch.setattr(closure_module, "_generating_point",
                            functools.partial(finding, scale=scale))
        closure_module._last = None     # no resume: search again, patched
        code, out = run_cli(argv)
        assert code == 0
        records.extend(_without_ms([json.loads(out[0])]))
    assert points[0] != points[1]
    assert records[0] == records[1]
    assert (records[0]["method"], records[0]["generators"]) == ("points", 1)


# SHA-256 of the JSON [basis, maps] that `close --emit full --json` printed
# for these inputs when every m >= 3 ran the staged pipeline eagerly
TOWER_FULL_DIGESTS = {
    ("Q[x]/(x^5-x-1)", 3):
        "263af2a86cff7205fc70e9b6e6828497c983f57a35dd584ad116533c0079702b",
    ("Q[x]/(x^4)", 3):
        "b952c89813c2d1784de0b229d3e030708860402d7403052d1a8f886d1d04db5d",
    ("Q[x]/(x^4)", 4):
        "7cad605bab31d99d546c79cdadb06bc129239adb560059dfadfc59466bc7bec2",
    ("Q[x,y]/(x^2-x, y^3)", 3):
        "06faa68b2964ef33702f2b885f219b0df70ad29bcfe5c95d1ae7d6cd74e8d5d9",
}


@pytest.mark.parametrize("text,m", sorted(TOWER_FULL_DIGESTS))
def test_tower_prints_the_staged_basis_and_maps(monkeypatch, text, m):
    # a tower record builds its closure when --emit full reads it, and
    # prints the basis and maps the staged pipeline always printed
    monkeypatch.delenv("CLOSURELAB_PRIMES", raising=False)
    code, out = run_cli(["close", "--algebra", text, "--m", str(m),
                         "--emit", "full", "--json"])
    record = json.loads(out[0])
    assert code == 0 and (record["method"], record["bound"]) == ("tower", "exact")
    blob = json.dumps([record["basis"], record["maps"]], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == TOWER_FULL_DIGESTS[(text, m)]


def test_tower_dims_skip_the_stages():
    # the staged pipeline took 4.6 s on the first, 36 s on it with --exact
    # and 2.2 s over GF(101), and overran the stage budget on the last
    for text, m, dim, mode in (("Q[x]/(x^8-x-1)", 3, 336, []),
                               ("Q[x]/(x^8-x-1)", 3, 336, ["--exact"]),
                               ("GF(101)[x]/(x^8-x-1)", 3, 336, []),
                               ("Q[x]/(x^10-x-1)", 5, 30240, [])):
        start = time.perf_counter()
        code, out = run_cli(["close", "--algebra", text, "--m", str(m)] + mode)
        assert code == 0 and out == [f"dim = {dim}"]
        assert time.perf_counter() - start < 1


# SHA-256 of the `close --emit full --json` record without its `ms`,
# `method` and `generators` keys, as the symbolic seed printed it before
# --exact and finite fields took the point and the tower
POINT_FULL_DIGESTS = {
    ("Q[x]/(x^5-x-1)", 3, "--exact"):
        "b2cb1d14e5bebcc64880b4a91278e4fcd7e121f306ccc12b154465e9c797182b",
    ("Q[x]/(x^6)", 5, "--exact"):
        "aa6eb076b9329a3755429cec6dd5953941c499a23a6c52e8f499df6794e32da4",
    ("Q[x,y]/(x^2-x, y^3)", 3, "--exact"):
        "501e52aabf6615280e7d53bd57cb8ee20b755b83c59ac41788ac753d85043774",
    ("F5[x]/(x^4-2)", 3, ""):
        "44f130d0edccfc91395d8d685b7a74f67c82730264342529ca72752e5eb24caa",
    ("GF(7,3)[x]/(x^3 - t)", 2, ""):
        "e5926be1216ba8c124134ea369a30e88d340274aad51cba7cb086d84731bd762",
}


@pytest.mark.parametrize("text,m,mode", sorted(POINT_FULL_DIGESTS))
def test_point_prints_the_symbolic_record(text, m, mode):
    code, out = run_cli(["close", "--algebra", text, "--m", str(m),
                         "--emit", "full", "--json"] + mode.split())
    record = json.loads(out[0])
    assert code == 0 and record["method"] == ("points" if m == 2 else "tower")
    for key in ("ms", "method", "generators"):
        del record[key]
    blob = json.dumps(record, sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == \
        POINT_FULL_DIGESTS[(text, m, mode)]


def test_budget_stops_a_tower_read_before_memory():
    # --emit full reads the tower's closure; its stage 5 is
    # (10 * 9 * 8 * 7) * 10 wide, so the budget stops it before the work,
    # in a process whose address space is capped at 1 GB
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = {k: v for k, v in os.environ.items() if not k.startswith("CLOSURELAB_")}
    proc = subprocess.run(
        [sys.executable, "-m", "closurelab.cli", "close", "--algebra",
         "Q[x]/(x^10-x-1)", "--m", "5", "--emit", "full"],
        capture_output=True, text=True, timeout=60, preexec_fn=cap,
        cwd=Path(__file__).resolve().parents[1], env={**env, "PYTHONPATH": "src"})
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "error: stage 5 width 50400 exceeds the budget 20000\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_an_interrupt_keeps_the_finished_rows_and_exits_130(jobs):
    # SIGINT to the run's own process group once its first row is out: the
    # rows done so far stay on stdout, one error line, and no worker left
    env = {k: v for k, v in os.environ.items() if not k.startswith("CLOSURELAB_")}
    argv = ["table", "--manifest", "table2.json", "--min-m", "4", "--max-m",
            "5", "--json"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "closurelab.cli", *argv, "--jobs", jobs],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True, cwd=Path(__file__).resolve().parents[1],
        env={**env, "PYTHONPATH": "src"})
    try:
        out = proc.stdout.readline()
        os.killpg(proc.pid, signal.SIGINT)
        out += proc.stdout.read()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert (code, err) == (130, "error: interrupted\n")
    records = [json.loads(line) for line in out.splitlines()]
    entries = load_manifest("table2.json")
    cells = [(e.name, m) for e in entries for m in sorted(e.expected)
             if 4 <= m <= 5]
    # whole rows, in manifest order, and not all of them
    assert 2 <= len(records) < len(cells)
    assert [(r["name"], r["m"]) for r in records] == cells[:len(records)]
    assert cells[len(records)][0] != records[-1]["name"]
    # the pool's workers are gone; a process that has exited but is not
    # yet reaped (state Z) no longer runs
    for _ in range(50):
        table = subprocess.run(["ps", "-e", "-o", "pgid=,stat="],
                               capture_output=True, text=True).stdout
        running = [stat for pgid, stat in map(str.split, table.splitlines())
                   if int(pgid) == proc.pid and not stat.startswith("Z")]
        if not running:
            break
        time.sleep(0.1)
    else:
        pytest.fail(f"processes of the interrupted run still run: {running}")


def test_close_budget_exit_3(monkeypatch):
    monkeypatch.setenv("CLOSURELAB_BUDGET", "3")
    code, _ = run_cli(["close", "--algebra", "Q[x]/(x^2)", "--m", "2"])
    assert code == 3


def test_close_precondition_exit_4():
    # naive construction over the rationals is deliberately unsupported
    code, _ = run_cli(["close", "--algebra", "Q[x]/(x^2)", "--m", "2",
                       "--method", "naive"])
    assert code == 4


def test_close_naive_counterexample():
    code, out = run_cli(["close", "--algebra", "F2[x1,x2,x3,x4]/((x1,x2,x3,x4)^2)",
                         "--m", "3", "--method", "naive"])
    assert code == 0 and out == ["dim = 111"]
    # m = 0 and m > n give K and 0, as plain `close` does
    for m, dim in ((0, 1), (3, 0)):
        for method in ([], ["--method", "naive"]):
            assert run_cli(["close", "--algebra", "F2[x]/(x^2)", "--m", str(m)]
                           + method) == (0, [f"dim = {dim}"])


def test_table_bundled_manifest():
    code, out = run_cli(["table", "--manifest", "table1.json", "--max-m", "2",
                         "--json"])
    assert code == 0
    records = [json.loads(line) for line in out]
    assert all(r["match"] for r in records if "expected" in r)
    assert all(REPORT_KEYS <= set(r) for r in records)


def test_table_row_filter_and_jobs():
    code, out = run_cli(["table", "--manifest", "table1.json",
                         "--rows", "(x^4)", "--max-m", "3", "--jobs", "2",
                         "--json"])
    assert code == 0
    records = [json.loads(line) for line in out]
    assert {r["m"] for r in records} == {0, 1, 2, 3}
    assert all(r["name"] == "(x^4)" for r in records)


def test_table_mismatch_exit_1(tmp_path):
    bad = [{"name": "broken", "field": "Q", "vars": ["x"],
            "relations": ["x^2"], "expected": {"2": 999}, "tags": []}]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out = run_cli(["table", "--manifest", str(path), "--json"])
    assert code == 1
    record = json.loads(out[0])
    assert record["match"] is False and record["dim"] == 2


def test_table_row_error_recorded_not_fatal(tmp_path):
    rows = [{"name": "infinite", "field": "Q", "vars": ["x"],
             "relations": [], "expected": {"2": 1}, "tags": []},
            {"name": "fine", "field": "Q", "vars": ["x"],
             "relations": ["x^2"], "expected": {"2": 2}, "tags": []}]
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(rows))
    code, out = run_cli(["table", "--manifest", str(path), "--json"])
    assert code == 1
    records = [json.loads(line) for line in out]
    assert any(r.get("error") for r in records)
    assert any(r.get("match") for r in records)


def test_verify_suite_exit_codes(capsys):
    code, out = run_cli(["verify", "--suite", "etale"])
    assert code == 0
    code2, _ = run_cli(["verify", "--suite", "nonsense"])
    assert code2 == 2
    # the error names every known suite
    err = capsys.readouterr().err
    assert err.startswith("error: unknown suite 'nonsense'; known suites: ")
    assert all(name in err for name in verify_module.SUITES)


def test_unknown_suite_fails_before_any_suite_runs(monkeypatch):
    ran = []
    monkeypatch.setitem(verify_module.SUITES, "etale",
                        lambda seed: ran.append(seed) or [])
    with pytest.raises(ValueError, match="known suites: trivial, product"):
        verify_module.run_suites(["etale", "nonsense"])
    assert ran == []


@pytest.mark.parametrize("module", ["closurelab.cli", "closurelab.closure"])
def test_start_up_leaves_out_the_pool_the_suites_and_dataclasses(module):
    # what `table --jobs 1`, `close` and the library never use stays
    # unloaded: the pool loads in `table --jobs N` (N > 1), the suites in
    # `verify`
    probe = ("import sys; before = set(sys.modules); import " + module
             + "; print(' '.join(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, cwd=Path(__file__).resolve().parents[1],
                          env={**os.environ, "PYTHONPATH": "src"})
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert module in loaded
    assert not loaded & {"concurrent.futures", "multiprocessing",
                         "closurelab.verify", "dataclasses"}


def test_main_builds_its_parser_once(monkeypatch):
    built = []

    def counted():
        built.append(1)
        return build_parser()

    build_parser = cli_module.build_parser
    monkeypatch.setattr(cli_module, "build_parser", counted)
    monkeypatch.setattr(cli_module, "_parser", None)
    for _ in range(3):
        assert run_cli(["close", "--algebra", "Q[x]/(x^3)", "--m", "2"]) \
            == (0, ["dim = 6"])
    assert run_cli(["transform", "--f", "Z^2-1", "--g", "X^2"]) \
        == (0, ["Z^2-2*Z+1"])
    assert built == [1]


def test_verify_seed_deterministic():
    code1, out1 = run_cli(["verify", "--suite", "transform", "--seed", "11", "--json"])
    code2, out2 = run_cli(["verify", "--suite", "transform", "--seed", "11", "--json"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_transform_command():
    code, out = run_cli(["transform", "--f", "Z^3-6Z^2+11Z-6", "--g", "X^2"])
    assert code == 0 and out == ["Z^3-14*Z^2+49*Z-36"]
    code2, _ = run_cli(["transform", "--f", "2Z^2-1", "--g", "X"])
    assert code2 == 2      # not monic
    code3, _ = run_cli(["transform", "--f", "Z^2-1", "--g", "X",
                        "--field", "GF(x)"])
    assert code3 == 2      # malformed field
    code4, out4 = run_cli(["transform", "--f", "1", "--g", "X^2"])
    assert code4 == 0 and out4 == ["1"]      # degree 0: the empty product


def test_tower_command():
    code, out = run_cli(["tower", "--f", "Z^4+1", "--m", "3"])
    assert code == 0 and out[0] == "dim = 24"
    code2, out2 = run_cli(["tower", "--f", "Z^2+Z+1", "--m", "2"])
    assert code2 == 0 and out2[0] == "dim = 2"
    code3, _ = run_cli(["tower", "--f", "Z^2+1", "--m", "3"])
    assert code3 == 4      # m exceeds the degree
    code4, out4 = run_cli(["tower", "--f", "Z^3-2", "--m", "2",
                           "--field", "Z", "--json"])
    assert code4 == 0
    record = json.loads(out4[0])
    assert record["base"] == "Z" and record["dim"] == 6
    code5, _ = run_cli(["tower", "--f", "Z^3-2", "--m", "-1"])
    assert code5 == 2      # negative m
    code6, _ = run_cli(["tower", "--f", "Z^3-2", "--m", "2", "--field", "GF(x)"])
    assert code6 == 2      # malformed field
    for field, base in (("Q", "Q"), ("GF(7)", "F7"), ("Z", "Z")):
        # degree 0: nothing to split, and K[x]/(1) is the zero algebra
        code7, out7 = run_cli(["tower", "--f", "1", "--m", "0", "--field", field])
        assert code7 == 0 and out7 == ["dim = 1"]
        code8, out8 = run_cli(["tower", "--f", "1", "--m", "0", "--field", field,
                               "--json"])
        assert code8 == 0 and json.loads(out8[0]) == {
            "base": base, "degree": 0, "dim": 1, "m": 0, "relations": []}


def test_univariate_input_over_an_extension_field():
    # `t` is the generator of GF(4), as in `close --algebra`
    code, out = run_cli(["tower", "--field", "GF(2,2)", "--f", "x^2 + t*x + 1",
                         "--m", "2"])
    assert code == 0 and out == ["dim = 2", "stage 1: x1^2 + t*x1 + 1 = 0",
                                 "stage 2: x1 + x2 + t = 0"]
    # the roots a, b have a + b = t and ab = 1, so a^2 + b^2 = t^2 = t + 1
    code, out = run_cli(["transform", "--field", "GF(2,2)", "--f", "Z^2+t*Z+1",
                         "--g", "X^2"])
    assert code == 0 and out == ["Z^2+(t+1)*Z+1"]
    # t^0 is 1: the roots of Z^2+Z+1 are t and t + 1, whose squares are
    # t + 1 and t
    code, out = run_cli(["transform", "--field", "GF(2,2)", "--f",
                         "Z^2+t^0*Z+1", "--g", "X^2"])
    assert code == 0 and out == ["Z^2+Z+1"]
    code, out = run_cli(["tower", "--field", "GF(2,2)", "--f", "x^3+t^0",
                         "--m", "2"])
    assert code == 0 and out[:2] == ["dim = 6", "stage 1: x1^3 + 1 = 0"]


def test_juxtaposed_generator_runs_in_univariate_input():
    # `tX` is t*X, as `tx` is t*x in a presentation
    assert run_cli(["transform", "--field", "GF(2,2)", "--f", "Z^2+t^2*Z+t^1",
                    "--g", "X^2+tX"]) == (0, ["Z^2+(t+1)*Z"])
    spelled = run_cli(["tower", "--field", "GF(2,2)", "--f", "x^3+t*x+1",
                       "--m", "2"])
    assert spelled[0] == 0
    for f in ("x^3+tx+1", "x^3+xt+1"):
        assert run_cli(["tower", "--field", "GF(2,2)", "--f", f,
                        "--m", "2"]) == spelled, f


def test_univariate_letter_runs_are_products():
    # `xx^2` is x*x^2, in a univariate polynomial as in a presentation
    spelled = run_cli(["tower", "--f", "x^3-2", "--m", "2"])
    assert spelled[0] == 0 and spelled[1][0] == "dim = 6"
    assert run_cli(["tower", "--f", "xx^2-2", "--m", "2"]) == spelled
    assert run_cli(["close", "--algebra", "Q[x]/(xx^2-2)", "--m", "2"]) \
        == (0, ["dim = 6"])


def test_ideal_power_sugar_with_a_repeated_name():
    for text, dim in (("Q[x]/((x,x)^2)", 2), ("Q[x,y]/((x,y,x)^2)", 3)):
        assert run_cli(["close", "--algebra", text, "--m", "1"]) \
            == (0, [f"dim = {dim}"])


def test_field_option_uses_the_presentation_grammar(capsys):
    for command in (["tower", "--f", "Z^2-1", "--m", "1"],
                    ["transform", "--f", "Z^2-1", "--g", "X^2"]):
        for spec, position in (("GF(x)", 3), ("GF(7,)", 5), ("GF()", 3),
                               ("GF(7,2,1)", 6)):
            assert run_cli(command + ["--field", spec])[0] == 2, spec
            assert f"(at position {position})" in capsys.readouterr().err
        outputs = {}
        for spec in ("GF(7)", "GF(7,2)", "F49", "Q", "q"):
            code, out = run_cli(command + ["--field", spec])
            assert code == 0, spec
            outputs[spec] = out
        assert outputs["GF(7,2)"] == outputs["F49"] != outputs["Q"] == outputs["q"]
    assert run_cli(["tower", "--f", "Z^2-1", "--m", "1", "--field", "Z"])[0] == 0
    full = ["--m", "2", "--emit", "full", "--json"]
    gf7 = json.loads(run_cli(["close", "--algebra", "GF(7)[x]/(x^2)"] + full)[1][0])
    f7 = json.loads(run_cli(["close", "--algebra", "F7[x]/(x^2)"] + full)[1][0])
    for record in (gf7, f7):
        del record["name"], record["ms"]
    assert gf7 == f7


def test_cli_subprocess_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "closurelab.cli", "close",
         "--algebra", "Q[x]/(x^3)", "--m", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "dim = 6"


def test_table_determinism_modulo_timing():
    # two consecutive runs give byte-identical reports once ms is stripped
    def strip(lines):
        out = []
        for line in lines:
            record = json.loads(line)
            record.pop("ms", None)
            out.append(json.dumps(record, sort_keys=True))
        return out

    _, out1 = run_cli(["table", "--manifest", "table1.json", "--max-m", "2",
                       "--json"])
    _, out2 = run_cli(["table", "--manifest", "table1.json", "--max-m", "2",
                       "--json"])
    assert strip(out1) == strip(out2)


# -- table: one call per m, ascending, each resuming the row's run


def _per_m_records(manifest, exact=False, min_m=None, max_m=None):
    """Records, without ms, as one closure_from_presentation call per
    (row, m) gives them, each with that call's fields."""
    records = []
    for entry in load_manifest(manifest):
        for m in sorted(entry.expected):
            if (min_m is not None and m < min_m) or \
                    (max_m is not None and m > max_m):
                continue
            record = {"name": entry.name, "m": m}
            if entry.expected.get(m) is not None:
                record["expected"] = entry.expected[m]
            try:
                result, mode = closure_from_presentation(
                    entry.presentation(), m, exact=exact)
            except (ClosureLabError, ValueError) as exc:
                record.update(method="general", field=entry.field,
                              bound=None, dim=None, generators=0, rank=0,
                              error=str(exc), match=False)
            else:
                record.update(method=result.method, field=mode,
                              bound=result.bound, dim=result.dim,
                              generators=result.generator_count,
                              rank=result.rank)
                if "expected" in record:
                    record["match"] = result.dim == record["expected"]
            records.append(record)
    return records


def _without_ms(records):
    return [{k: v for k, v in r.items() if k != "ms"} for r in records]


def _table_json(argv):
    code, out = run_cli(["table", "--json"] + argv)
    return code, [json.loads(line) for line in out]


def _assert_call_times(records):
    # each record's ms is the wall time of its own call
    assert all(r["ms"] > 0 for r in records)


TABLE_RUNS = (("table1.json", None), ("table2.json", 3))


def _close_records(manifest, flags, max_m, skip):
    """The `close --json` record of each (row, m) cell, less `skip`."""
    records = []
    for entry in load_manifest(manifest):
        for m in sorted(entry.expected):
            if max_m is None or m <= max_m:
                text = (f"{entry.field}[{','.join(entry.vars)}]"
                        f"/({', '.join(entry.relations)})")
                code, out = run_cli(["close", "--algebra", text,
                                     "--m", str(m), "--json"] + flags)
                assert code == 0
                record = json.loads(out[0])
                records.append({k: v for k, v in record.items()
                                if k not in skip})
    return records


@pytest.fixture(scope="module")
def table_sweeps():
    """Each `table --json` sweep of TABLE_RUNS, default and --exact, with
    --jobs 1 and 2, run once for the tests that meet it with an oracle."""
    sweeps = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("CLOSURELAB_PRIMES", raising=False)
        for manifest, max_m in TABLE_RUNS:
            for exact in (False, True):
                argv = ["--manifest", manifest] + (["--exact"] if exact else [])
                argv += ["--max-m", str(max_m)] if max_m else []
                for jobs in ("1", "2"):
                    sweeps[manifest, exact, jobs] = _table_json(
                        argv + ["--jobs", jobs])[1]
    return sweeps


def test_table_rows_once_match_per_m_records(monkeypatch, table_sweeps):
    monkeypatch.delenv("CLOSURELAB_PRIMES", raising=False)
    for manifest, max_m in TABLE_RUNS:
        for exact in (False, True):
            per_m = _without_ms(_per_m_records(manifest, exact, max_m=max_m))
            for jobs in ("1", "2"):
                records = table_sweeps[manifest, exact, jobs]
                assert _without_ms(records) == per_m, (manifest, exact, jobs)
                _assert_call_times(records)
    # --min-m / --max-m pick the m
    for min_m, max_m in ((2, 3), (4, 5), (1, 1)):
        code, records = _table_json(["--manifest", "table1.json",
                                     "--min-m", str(min_m), "--max-m", str(max_m)])
        assert code == 0
        assert _without_ms(records) == _without_ms(
            _per_m_records("table1.json", min_m=min_m, max_m=max_m))


def test_table_records_equal_the_close_records_of_their_cells(monkeypatch,
                                                              table_sweeps):
    # a record is the `close --json` record of its cell, on every key but
    # the name, the time and the expected dim; the monogenic rows' m = 0,
    # 1, 2 take the symbolic seed's exact dims and the one-point 2-closure
    monkeypatch.delenv("CLOSURELAB_PRIMES", raising=False)
    skip = {"name", "ms", "expected", "match"}
    for manifest, max_m in TABLE_RUNS:
        for exact in (False, True):
            flags = ["--exact"] if exact else []
            close = _close_records(manifest, flags, max_m, skip)
            for jobs in ("1", "2"):
                records = table_sweeps[manifest, exact, jobs]
                assert [{k: v for k, v in r.items() if k not in skip}
                        for r in records] == close, (manifest, exact, jobs)
    _, x3 = _table_json(["--manifest", "table1.json", "--rows", "(x^3)"])
    assert [r["method"] for r in x3] == ["general", "general", "points",
                                         "tower"]


def test_every_table_dim_is_at_least_the_falling_factorial():
    # every algebra of rank n <= 7 is smoothable (Cartwright, Erman,
    # Velasco and Viray 2009), and the m-closure's rank is upper
    # semicontinuous along a smoothing, whose generic fibre is étale with
    # m-closure of rank n!/(n - m)!.  So no closure is smaller than that,
    # one point or a tower gives exactly that, and m > n gives 0
    checked, equal = 0, []
    for manifest, max_m in TABLE_RUNS:
        ranks = {e.name: e.algebra().dim for e in load_manifest(manifest)}
        assert max(ranks.values()) <= 7
        for exact in (False, True):
            argv = ["--manifest", manifest] + (["--exact"] if exact else [])
            _, records = _table_json(argv + (["--max-m", str(max_m)]
                                             if max_m else []))
            for r in records:
                n, m = ranks[r["name"]], r["m"]
                bound = math.perm(n, m)
                assert r["dim"] >= bound if m <= n else r["dim"] == 0, r
                if r["method"] in ("points", "tower"):
                    assert r["dim"] == bound, r
                if 2 <= m <= n and r["dim"] == bound:
                    equal.append((r["name"], m))
                checked += 1
    assert checked == 2 * (82 + 100)
    # the (x^k) rows, and the square-zero plane at m = 2, 3, in each mode
    assert sorted(set(equal)) == sorted(
        [("(x, y)^2", 2), ("(x, y)^2", 3)]
        + [(f"(x^{k})", m) for k in (3, 4, 5) for m in range(2, k + 1)]
        + [("(x^6)", 2), ("(x^6)", 3)])
    assert len(equal) == 2 * len(set(equal))


@pytest.mark.parametrize("row", ["(x^2, y^2)", "(x^4)"])
def test_a_table_row_run_twice_reports_the_time_of_each_run(row):
    # the second run's m = 0 call lies below the first run's last stage, so
    # it starts a fresh entry; both runs print the same records
    argv = ["--manifest", "table1.json", "--rows", row, "--exact"]
    code, first = _table_json(argv)
    entry = closure_module._last
    again, second = _table_json(argv)
    assert code == again == 0 and len(first) == 5
    assert closure_module._last is not entry
    assert _without_ms(second) == _without_ms(first)
    _assert_call_times(first + second)


def _count_runs(monkeypatch):
    """Record the m of each closure_from_presentation call from `table`."""
    real = cli_module.closure_from_presentation
    calls = []

    def counting(pres, m, **kwargs):
        calls.append(m)
        return real(pres, m, **kwargs)

    monkeypatch.setattr(cli_module, "closure_from_presentation", counting)
    return calls


def test_table_runs_each_row_once(monkeypatch):
    # one Groebner basis per row, and each stage of its run built once
    real = finalg_module.buchberger
    bases, stages = [], []

    def counting(pres):
        bases.append(str(pres))
        return real(pres)

    def recording(build):
        def recorded(run, *args):
            stages.append((str(run.a.labels), args[0] if args else 1))
            return build(run, *args)
        return recorded

    monkeypatch.setattr(finalg_module, "buchberger", counting)
    for name in ("_first", "_next"):
        monkeypatch.setattr(closure_module._Run, name,
                            recording(getattr(closure_module._Run, name)))
    code, records = _table_json(["--manifest", "table1.json",
                                 "--rows", "(x^4);(x^5);(x^2, y^2)"])
    assert code == 0 and len(records) == 16
    assert len(bases) == len(set(bases)) == 3
    assert len(stages) == len(set(stages)) == 2 + 2 + 4
    assert sorted(s for _, s in stages) == [1, 1, 1, 2, 2, 2, 3, 4]


def test_table_wide_row_memory_peak(monkeypatch):
    # each stage multiplies by operators lifted from the previous stage, so
    # no intermediate closure keeps a product table: the row peaks near
    # 4.9 MB under tracemalloc, where building those tables took 7.8 MB.
    # m = 5 computes 1857 where the paper prints 1875 (test_acceptance)
    import tracemalloc
    monkeypatch.delenv("CLOSURELAB_PRIMES", raising=False)
    tracemalloc.start()
    try:
        code, out = run_cli(["table", "--manifest", "table2.json", "--rows",
                             "(x, y, z, w, v)^2", "--max-m", "5", "--jobs", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert out[-1] == "-- 5/6 expected dimensions matched (6 computations)"
    assert peak < 6.5e6


def test_table_row_budget_overrun_falls_back(monkeypatch):
    # (x^2, y^2) stages are 16, 52 and 104 wide, so only m = 4 overruns,
    # and the calls at m = 0..3 keep their records.  The row is not
    # monogenic: a monogenic one runs no stage past the 2-closure.
    monkeypatch.setenv("CLOSURELAB_BUDGET", "60")
    calls = _count_runs(monkeypatch)
    code, records = _table_json(["--manifest", "table1.json", "--rows",
                                 "(x^2, y^2)"])
    assert code == 1 and calls == [0, 1, 2, 3, 4]
    assert [r.get("error") for r in records] == \
        [None] * 4 + ["stage 4 width 104 exceeds the budget 60"]
    assert _without_ms(records) == _without_ms(
        [r for r in _per_m_records("table1.json") if r["name"] == "(x^2, y^2)"])


def test_table_row_skips_a_bad_prime(monkeypatch, tmp_path):
    monkeypatch.setenv("CLOSURELAB_PRIMES", "7")
    rows = [{"name": "bad prime", "field": "Q", "vars": ["x", "y"],
             "relations": ["x^2", "y^2 - 7*x"],
             "expected": {"0": 1, "1": 4, "2": 12}, "tags": []}]
    path = tmp_path / "bad_prime.json"
    path.write_text(json.dumps(rows))
    code, records = _table_json(["--manifest", str(path)])
    assert code == 0
    # GF(11) reads the row as K[y]/(y^4), which one point generates
    assert [(r["dim"], r["field"], r["method"], r["bound"]) for r in records] == \
        [(1, "mod 11", "general", "exact"), (4, "mod 11", "general", "exact"),
         (12, "mod 11", "points", "exact")]
    assert _without_ms(records) == _without_ms(_per_m_records(str(path)))


def test_a_malformed_table_row_gives_each_of_its_records_the_error(tmp_path):
    # the row is parsed once; its error is every one of its records', and
    # the next row still runs
    rows = [{"name": "malformed", "field": "Q", "vars": ["x"],
             "relations": ["x^"], "expected": {"0": 1, "1": 1, "2": 1},
             "tags": []},
            {"name": "fine", "field": "Q", "vars": ["x"],
             "relations": ["x^2"], "expected": {"1": 2, "2": 2}, "tags": []}]
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(rows))
    code, records = _table_json(["--manifest", str(path)])
    assert code == 1
    bad, good = records[:3], records[3:]
    assert [r["m"] for r in bad] == [0, 1, 2]
    assert all(r["error"].startswith("expected 'int', found ')'")
               and r["match"] is False for r in bad)
    assert len({r["error"] for r in bad}) == 1
    assert [(r["name"], r["m"], r["dim"], r["match"]) for r in good] == \
        [("fine", 1, 2, True), ("fine", 2, 2, True)]
    assert not any("error" in r for r in good)


# -- exit codes: main maps every error of every command once


_MANIFESTS = {
    "mismatch.json": [{"name": "broken", "field": "Q", "vars": ["x"],
                       "relations": ["x^2"], "expected": {"2": 999},
                       "tags": []}],
    "mixed.json": [{"name": "infinite", "field": "Q", "vars": ["x"],
                    "relations": [], "expected": {"2": 1}, "tags": []},
                   {"name": "fine", "field": "Q", "vars": ["x"],
                    "relations": ["x^2"], "expected": {"2": 2}, "tags": []}],
}


def _fail_etale_suite(monkeypatch):
    monkeypatch.setitem(verify_module.SUITES, "etale",
                        lambda seed: [("forced failure", False, "")])


def _fail_certificate(monkeypatch):
    def failing(pres, m, **kwargs):
        raise CertificateFailure("slot 1 remainder is nonzero in the closure")

    monkeypatch.setattr(cli_module, "closure_from_presentation", failing)


# (argv, environment, patch, exit code); {tmp} is the directory holding
# _MANIFESTS
EXIT_MATRIX = [
    (["close", "--algebra", "Q[x]/(x^3)", "--m", "2"], {}, None, 0),
    (["close", "--algebra", "Q[x]/(x^3)", "--m", "2"], {}, _fail_certificate, 1),
    (["close", "--algebra", "Q[x", "--m", "2"], {}, None, 2),
    (["close", "--algebra", "Q[x]/(x^2)", "--m", "-1"], {}, None, 2),
    (["close", "--algebra", "Q[x]/(x^2)", "--m", "2"],
     {"CLOSURELAB_PRIMES": "7,7"}, None, 2),
    (["close", "--algebra", "Q[x]/(x^2)", "--m", "2"],
     {"CLOSURELAB_PRIMES": "3,5,7"}, None, 2),
    (["close", "--algebra", "Q[x]/(x^2-1/0)", "--m", "2"], {}, None, 2),
    (["close", "--algebra", "F5[x]/(x^2-1/5)", "--m", "2"], {}, None, 2),
    (["close", "--algebra", "Q[x]/(x^2)", "--m", "2"],
     {"CLOSURELAB_BUDGET": "3"}, None, 3),
    (["close", "--algebra", "Q[x,y]/(x^2, y^2 - 7*x)", "--m", "2"],
     {"CLOSURELAB_PRIMES": "7"}, None, 0),
    (["close", "--algebra", "Q[x]/(x^2)", "--m", "2", "--method", "naive"],
     {}, None, 4),
    (["close", "--algebra", "Q[x]/(x^2-1)", "--m", "2"], {}, None, 0),
    (["table", "--manifest", "table1.json", "--rows", "(x^3)"], {}, None, 0),
    (["table", "--manifest", "{tmp}/mismatch.json"], {}, None, 1),
    (["table", "--manifest", "{tmp}/mixed.json"], {}, None, 1),
    (["table", "--manifest", "{tmp}/missing.json"], {}, None, 2),
    (["tower", "--f", "Z^2+Z+1", "--m", "2"], {}, None, 0),
    (["tower", "--f", "Z^3-2", "--m", "-1"], {}, None, 2),
    (["tower", "--f", "Z^3-2", "--m", "2", "--field", "GF(x)"], {}, None, 2),
    (["tower", "--f", "Z^2-1/0", "--m", "1"], {}, None, 2),
    (["tower", "--f", "Z^2+1", "--m", "3"], {}, None, 4),
    (["transform", "--f", "Z^3-6Z^2+11Z-6", "--g", "X^2"], {}, None, 0),
    (["transform", "--f", "2Z^2-1", "--g", "X"], {}, None, 2),
    (["transform", "--f", "Z^2-1", "--g", "X", "--field", "GF(x)"], {}, None, 2),
    (["transform", "--f", "Z^2", "--g", "1/0"], {}, None, 2),
    (["verify", "--suite", "etale"], {}, None, 0),
    (["verify", "--suite", "etale"], {}, _fail_etale_suite, 1),
    (["verify", "--suite", "nonsense"], {}, None, 2),
    (["tower", "--f", "Z^2-1", "--m", "1", "--field", "GF(7,2,1)"], {}, None, 2),
    (["transform", "--f", "Z^2-1", "--g", "X", "--field", "GF(7,)"], {}, None, 2),
    (["close", "--algebra", "F5[x]/(x^2, 5*x + 1)", "--m", "1"], {}, None, 0),
    (["close", "--algebra", "F5[x]/(x^2, 5*x + 1)", "--m", "1", "--exact"],
     {}, None, 0),
    (["close", "--algebra", "Q[x,y]/(x^2)", "--m", "1"], {}, None, 2),
    (["close", "--algebra", "Q[x]/(1)", "--m", "1"], {}, None, 0),
    (["table", "--manifest", "table1.json", "--rows", "(x^2, y^2);nosuchrow;99"],
     {}, None, 2),
    (["tower", "--f", "2Z^2+1", "--m", "1"], {}, None, 2),
    (["tower", "--f", "Z^2+1/2", "--m", "1", "--field", "Z"], {}, None, 2),
    (["transform", "--f", "Z^2-1", "--g", "X", "--field", "Z"], {}, None, 2),
    (["table", "--manifest", "table1.json", "--rows", "(x^3)", "--jobs", "0"],
     {}, None, 2),
    (["table", "--manifest", "table1.json", "--rows", "(x^3)", "--jobs", "-2"],
     {}, None, 2),
    (["close", "--algebra", "Q[x]/(x^2)", "--m", str(10 ** 12)], {}, None, 3),
    (["close", "--algebra", "Q[x]/(x**2)", "--m", "1"], {}, None, 2),
    (["close", "--algebra", "Q[x]/(x*)", "--m", "1"], {}, None, 2),
    (["close", "--algebra", "Q[x]/(*x)", "--m", "1"], {}, None, 2),
    (["tower", "--f", "xx^2-2", "--m", "2"], {}, None, 0),
    (["tower", "--f", "xy^2-2", "--m", "2"], {}, None, 2),
    (["table", "--manifest", "table1.json", "--rows", ";"], {}, None, 2),
    (["table", "--manifest", "table1.json", "--rows", ""], {}, None, 2),
    (["table", "--manifest", "table1.json", "--min-m", "3", "--max-m", "2"],
     {}, None, 2),
    (["close", "--algebra", "F2[x]/(x^2)", "--m", "0", "--method", "naive"],
     {}, None, 0),
    (["close", "--algebra", "F2[x]/(x^2)", "--m", "3", "--method", "naive"],
     {}, None, 0),
]


@pytest.mark.parametrize("argv, env, patch, code", EXIT_MATRIX,
                         ids=[f"{i}-{case[0][0]}-{case[3]}"
                              for i, case in enumerate(EXIT_MATRIX)])
def test_exit_code_matrix(argv, env, patch, code, tmp_path, monkeypatch,
                          capsys):
    for name, rows in _MANIFESTS.items():
        (tmp_path / name).write_text(json.dumps(rows))
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    if patch:
        patch(monkeypatch)
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert main(argv) == code
    err = capsys.readouterr().err
    if code == 0 or argv[0] == "table" and code == 1:
        assert err == ""
    elif argv[0] == "verify" and code == 1:
        assert err == "first failing property: (etale) forced failure\n"
    else:
        # one line naming the error; no traceback
        assert err.startswith("error: ") and err.count("\n") == 1
