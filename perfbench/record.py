"""Run every workload several times and record a baseline.

Usage, from the repository root:

  python3 perfbench/record.py

Runs run.py untraced ten times per workload of BENCHMARK.json, with seeds
1..10 and its run_seconds, rotating the workload order each round so that
host drift does not land on one workload, then once traced per workload,
and writes everything to perfbench/baseline.json.  Prints, per
workload, every end-to-end metric of BENCHMARK.json with its unit, median,
quartiles and spread ((q3 - q1) / median, quartiles as
statistics.quantiles(n=4) gives them), plus fail_frac = failed / attempted
cells, and the traced run's self-time shares.  Each run is stored with the
Python version, core count, CPU model, load average, seed, git commit and
the calibration loop timed before and after it.

Exits 1 if any cell failed or any run exited non-zero.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REPEATS = 10


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu, "git_commit": commit}


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def run_one(workload, seed, seconds, trace, tmp: Path) -> dict:
    out = tmp / f"{workload}-{seed}-{trace}.json"
    load = os.getloadavg()
    start = time.time()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--out", str(out)], cwd=ROOT, capture_output=True, text=True, timeout=600)
    record = json.loads(out.read_text()) if out.exists() else {
        "workload": workload, "seed": seed, "trace": trace, "attempted": 0,
        "failed": 0, "metrics": {}}
    record.update(exit_code=proc.returncode, started=start,
                  run_s=time.time() - start, loadavg=load)
    print(proc.stdout.splitlines()[-2] if proc.returncode in (0, 1) else
          f"{workload} seed={seed} trace={trace}: exit {proc.returncode}\n{proc.stderr}",
          flush=True)
    return record


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    tmp = ROOT / ".perfbench_tmp" / f"record-{os.getpid()}"
    tmp.mkdir(parents=True)
    runs = []
    try:
        for r in range(REPEATS):
            for workload in names[r % len(names):] + names[:r % len(names)]:
                runs.append(run_one(workload, r + 1, seconds, 0, tmp))
        for workload in names:
            runs.append(run_one(workload, 1, seconds, 1, tmp))
    finally:
        shutil.rmtree(tmp)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    bad = [r for r in runs if r["exit_code"] != 0 or r["failed"]]
    summary = {}
    print(f"\n{'workload':<11} {'metric':<14} {'unit':<5} {'median':>10} "
          f"{'q1':>10} {'q3':>10} {'spread':>7} {'bound':>6}")
    for workload in names:
        mine = [r for r in runs if r["workload"] == workload and r["trace"] == 0]
        attempted = sum(r["attempted"] for r in mine)
        failed = sum(r["failed"] for r in mine)
        rows = {"fail_frac": {"median": failed / attempted if attempted else 1.0,
                              "unit": "ratio"}}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in mine
                      if metric["name"] in r["metrics"]]
            if len(values) >= 2:
                rows[metric["name"]] = dict(spread(values), unit=metric["unit"],
                                            bound=metric["bound"])
        for name, row in rows.items():
            if "spread" in row:
                flag = " !" if row["spread"] > row["bound"] / 3 else ""
                print(f"{workload:<11} {name:<14} {row['unit']:<5} {row['median']:>10.4f} "
                      f"{row['q1']:>10.4f} {row['q3']:>10.4f} {row['spread']:>7.4f} "
                      f"{row['bound']:>6}{flag}")
            else:
                print(f"{workload:<11} {name:<14} {row['unit']:<5} {row['median']:>10.4f}")
        summary[workload] = rows

    for r in runs:
        if r["trace"] != 1 or not r.get("passes"):
            continue
        first = r["passes"][0]
        wall = statistics.median(p["wall_s"] for p in r["passes"])
        shares = {}
        for span in first["spans"]:
            shares[span["name"]] = shares.get(span["name"], 0.0) + span["self_s"]
        top = sorted(shares.items(), key=lambda kv: -kv[1])[:6]
        print(f"\ntraced {r['workload']}: wall {wall:.3f} s, overhead "
              f"{r['metrics']['trace.overhead_s']['value']:.3f} s; self-time shares: "
              + ", ".join(f"{k} {100 * v / first['wall_s']:.1f}%" for k, v in top))

    out = HERE / "baseline.json"
    out.write_text(json.dumps({"environment": environment(), "repeats": REPEATS,
                               "seconds": seconds, "summary": summary,
                               "runs": runs}, indent=1))
    print(f"\nwrote {out}")
    if bad:
        print(f"{len(bad)} run(s) failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
