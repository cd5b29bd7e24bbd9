"""closurelab benchmark: one workload, one seed, one run.

Usage, from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

A single process and thread runs the workload's items back to back (closed
loop, one client) in an order drawn from the seed, pass after pass.  The
number of passes is S divided by the workload's nominal pass time
(workloads.PASS_S), at least one, so it does not depend on how fast the
code under test is.  Every cell is checked against the oracle.  The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics: wall_s (upper quartile of the
pass times), max_item_s (slowest item, by the upper quartile of its times
over passes), setup_s (median over at least SETUP_PROBES fresh interpreters,
timed in the gaps before, between and after the passes, of importing the workload's entry module plus
loading and parsing the inputs) and peak_rss_mb.  --trace 1 runs traced
passes only and reports the median over them of the per-layer metrics of
tracer.py, trace.overhead_s included.  --out writes the full record of the
run (per-pass and per-item times, spans, calibration).

Exit codes: 0 all cells correct, 1 some cell failed (the result line is
still printed), 2 no closurelab source tree beside the benchmark, 3 the
oracle self-check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Fresh interpreters timed per untraced run, spread evenly over the gaps
# before, between and after the passes: the host's slow phases last seconds,
# and probes bunched in one gap all land in the same phase.
SETUP_PROBES = 12

import oracle  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}


def calibrate() -> float:
    """A fixed pure-Python loop; recorded to show host drift, never used to
    rescale a metric."""
    start = perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc * 31 + i) % 1_000_003
    return perf_counter() - start


def time_setup(spec: Path, count: int) -> list:
    times = []
    for _ in range(count):
        start = perf_counter()
        # No timeout: with one, subprocess polls the child in steps of up to
        # 50 ms, which quantizes the measurement.
        subprocess.run([sys.executable, str(HERE / "probe.py"), str(spec)],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return times


def run_pass(items, rng, program, trace) -> dict:
    """One pass over every item; with trace, inside installed wrappers."""
    order = list(items)
    rng.shuffle(order)
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install(program.finalg, program.closure, program.cli)
    times = {}
    attempted = failed = 0
    start = perf_counter()
    try:
        for item in order:
            t0 = perf_counter()
            try:
                if tracer is None:
                    bad = item.run(program)
                else:
                    bad = tracer.root("bench.item", item.run, program)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                bad = item.cells
            times[item.name] = perf_counter() - t0
            attempted += item.cells
            failed += bad
        wall = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    record = {"wall_s": wall, "items": times, "attempted": attempted, "failed": failed}
    if tracer is not None:
        record.update(layers=tracer.layer_metrics(), spans=tracer.span_table())
    return record


def upper_quartile(values) -> float:
    """Pass times are skewed low: the 2-core VM the benchmark was tuned on
    has sporadic faster phases that last seconds to minutes.  The upper
    quartile tracks the common speed and varies less from run to run than
    the median.  The pass count is fixed per workload and --seconds, so the
    statistic means the same on every commit."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def metrics_of(passes, setup_times, trace) -> dict:
    if not trace:
        values = {
            "wall_s": upper_quartile(p["wall_s"] for p in passes),
            "max_item_s": max(upper_quartile(p["items"][n] for p in passes)
                              for n in passes[0]["items"]),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        values = {k: statistics.median(p["layers"][k] for p in passes)
                  for k in passes[0]["layers"]}
    return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the full run record here")
    args = parser.parse_args(argv)

    if not (SRC / "closurelab" / "__init__.py").is_file():
        print(f"error: no closurelab source tree at {SRC}", file=sys.stderr)
        return 2
    try:
        rows, expected = oracle.build(ROOT)
    except oracle.OracleError as exc:
        print(f"error: oracle self-check failed: {exc}", file=sys.stderr)
        return 3

    sys.path.insert(0, str(SRC))
    program = workloads.Program()
    if not Path(program.package.__file__).resolve().is_relative_to(SRC):
        print(f"error: closurelab imported from {program.package.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        items, probe = workloads.build(args.workload, rows, expected, tmp, program)
        calibration = [calibrate()]
        spec = tmp / "probe.json"
        spec.write_text(json.dumps(dict(probe, src=str(SRC))))
        count = max(1, int(args.seconds // workloads.PASS_S[args.workload]))
        per_gap = 0 if args.trace else -(-SETUP_PROBES // (count + 1))
        rng = random.Random(args.seed)
        setup_times = time_setup(spec, per_gap)
        passes = []
        for _ in range(count):
            passes.append(run_pass(items, rng, program, args.trace))
            setup_times += time_setup(spec, per_gap)
        calibration.append(calibrate())
    finally:
        shutil.rmtree(tmp)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = metrics_of(passes, setup_times, args.trace)
    if args.out:
        args.out.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "attempted": attempted, "failed": failed,
            "calibration_s": calibration, "setup_probes_s": setup_times,
            "passes": passes, "metrics": metrics}, indent=1))
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} cells={attempted} fail_frac={failed / attempted:g} "
          f"calibration_s={calibration[0]:.4f}/{calibration[1]:.4f}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
