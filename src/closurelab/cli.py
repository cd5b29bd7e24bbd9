"""Command-line front end.

Subcommands:
  close      compute one closure dimension (or the full quotient data)
  table      run a manifest of algebras against published dimensions
  verify     run the property suites
  transform  apply the monic-polynomial transform
  tower      split roots off a monic polynomial one at a time

Exit codes: 0 success, 1 mismatch, failed property or other error,
2 malformed input, 3 budget exceeded, 4 method precondition violated,
130 interrupted; `main` maps each error to its code (`_EXIT_CODES`).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .arith import QQ
from .catalog import ManifestEntry, load_manifest
from .closure import (closure_from_presentation, monogenic_tower,
                      naive_closure, transform_monic)
from .errors import (BudgetExceeded, ClosureLabError, DegreeTooSmall,
                     InfiniteFieldUnsupported, NotPrime,
                     NotZeroDimensional, ParseError, ReducibleModulus,
                     UnsupportedField)
from .finalg import algebra_from_presentation
from .multipoly import (format_univariate, parse_field, parse_presentation,
                        parse_univariate)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_PRECONDITION = 4
EXIT_INTERRUPT = 130

# the first entry whose types match an error raised by a command gives
# its exit code
_EXIT_CODES = (
    (BudgetExceeded, EXIT_BUDGET),
    ((InfiniteFieldUnsupported, DegreeTooSmall), EXIT_PRECONDITION),
    ((ParseError, UnsupportedField, NotPrime, ReducibleModulus,
      NotZeroDimensional, ValueError), EXIT_PARSE),
    (ClosureLabError, EXIT_MISMATCH),
)


def _field_from_spec(text: str):
    """The field a --field value names, or None for Z (the integer tower)."""
    if text.strip() in ("Z", "z"):
        return None
    return parse_field(text)


def _record_line(record: dict, as_json: bool) -> str:
    if as_json:
        return json.dumps(record, sort_keys=True)
    expected = record.get("expected")
    tail = ""
    if expected is not None:
        tail = f"  expected={expected}  match={'yes' if record.get('match') else 'NO'}"
    if record.get("error"):
        return f"{record['name']}  m={record['m']}  ERROR: {record['error']}"
    return (f"{record['name']}  m={record['m']}  dim={record['dim']}  "
            f"[{record['method']}, {record['field']}, "
            f"gens={record['generators']}, rank={record['rank']}, "
            f"{record['ms']:.0f}ms]{tail}")


def cmd_close(args) -> int:
    pres = parse_presentation(args.algebra)
    t0 = time.perf_counter()
    if args.method == "naive":
        algebra = algebra_from_presentation(pres)
        result = naive_closure(algebra, args.m)
        mode = str(pres.field)
    else:
        result, mode = closure_from_presentation(pres, args.m, exact=args.exact)
    ms = (time.perf_counter() - t0) * 1e3

    record = _set_outcome({"name": args.algebra, "m": args.m}, result, mode, ms)
    if args.emit == "full":     # built, or refused, before any output
        closure, maps = result.closure, result.maps
        basis = [closure.label_str(i) for i in range(closure.dim)]
    if args.json:
        if args.emit == "full":
            record["basis"] = basis
            record["maps"] = [[{str(k): closure.field.format_scalar(v)
                                for k, v in row.items()} for row in mp.rows]
                              for mp in maps]
        print(json.dumps(record, sort_keys=True))
    else:
        print(f"dim = {result.dim}")
        if args.emit == "full":
            print(f"method = {result.method} ({result.strategy}), field = {mode}, "
                  f"generators = {result.generator_count}, rank = {result.rank}")
            print(f"basis [{closure.dim}]: {', '.join(basis)}")
            for s, mp in enumerate(maps, start=1):
                print(f"map alpha_{s}:")
                for i, row in enumerate(mp.rows):
                    print(f"    {result.input_algebra.label_str(i)} -> "
                          f"{closure.format_vec(row)}")
    return EXIT_OK


def _new_record(entry: ManifestEntry, m: int) -> dict:
    record = {"name": entry.name, "m": m, "method": "general",
              "field": entry.field, "bound": None, "dim": None,
              "generators": 0, "rank": 0, "ms": 0.0}
    expected = entry.expected.get(m)
    if expected is not None:
        record["expected"] = expected
    return record


def _set_outcome(record, result, mode, ms):
    """Fill `record` with the outcome of `result`."""
    record.update(dim=result.dim, method=result.method, field=mode,
                  bound=result.bound, generators=result.generator_count,
                  rank=result.rank, ms=round(ms, 3))
    if "expected" in record:
        record["match"] = result.dim == record["expected"]
    return record


def _table_row_task(payload):
    """The records of one manifest row at the ascending `ms`: one call
    each, which resumes the row's run, so a record is the `close` record of
    its cell.  A call's error is its record's; a row that does not parse
    gives its error to every record."""
    entry, ms, exact = payload
    records = [_new_record(entry, m) for m in ms]
    try:
        pres = entry.presentation()
    except (ClosureLabError, ValueError) as exc:
        for record in records:
            record.update(error=str(exc), match=False)
        return records
    for record in records:
        try:
            t0 = time.perf_counter()
            result, mode = closure_from_presentation(pres, record["m"],
                                                     exact=exact)
        except (ClosureLabError, ValueError) as exc:
            record.update(error=str(exc), match=False)
        else:
            _set_outcome(record, result, mode, (time.perf_counter() - t0) * 1e3)
    return records


def _emit_rows(rows, as_json: bool) -> list:
    """Print each row's records in one write as soon as the row is done,
    so an interrupted run keeps its finished rows whole; return them all."""
    records = []
    for row in rows:
        sys.stdout.write("".join(_record_line(r, as_json) + "\n" for r in row))
        sys.stdout.flush()
        records += row
    return records


def cmd_table(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    try:
        entries = load_manifest(args.manifest)
    except (FileNotFoundError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: cannot load manifest: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if args.rows is not None:
        wanted = [r.strip() for r in args.rows.split(";") if r.strip()]
        if not wanted:
            raise ValueError(f"--rows {args.rows!r} names no row")
        known = {e.name for e in entries} | {str(i) for i in range(len(entries))}
        unknown = [r for r in wanted if r not in known]
        if unknown:
            raise ValueError(f"unknown rows: {'; '.join(unknown)}")
        entries = [e for i, e in enumerate(entries)
                   if e.name in wanted or str(i) in wanted]
    if args.min_m is not None and args.max_m is not None \
            and args.min_m > args.max_m:
        raise ValueError(f"--min-m {args.min_m} exceeds --max-m {args.max_m}")
    tasks = []
    for entry in entries:
        ms = [m for m in sorted(entry.expected)
              if (args.max_m is None or m <= args.max_m)
              and (args.min_m is None or m >= args.min_m)]
        if ms:
            tasks.append((entry, ms, args.exact))
    if args.jobs > 1:
        import signal
        from multiprocessing import Pool
        # workers start with SIGINT ignored, so an interrupt stops the
        # parent alone, and leaving the pool terminates them
        handler = signal.signal(signal.SIGINT, signal.SIG_IGN)
        try:
            pool = Pool(args.jobs)
        finally:
            signal.signal(signal.SIGINT, handler)
        with pool:
            records = _emit_rows(pool.imap(_table_row_task, tasks), args.json)
    else:
        records = _emit_rows(map(_table_row_task, tasks), args.json)
    all_match = not any(record.get("match") is False or record.get("error")
                        for record in records)
    if not args.json:
        n_match = sum(1 for r in records if r.get("match"))
        n_exp = sum(1 for r in records if "expected" in r)
        print(f"-- {n_match}/{n_exp} expected dimensions matched "
              f"({len(records)} computations)")
    return EXIT_OK if all_match else EXIT_MISMATCH


def cmd_verify(args) -> int:
    from . import verify
    names = [s.strip() for s in args.suite.split(",")]
    seed = verify.DEFAULT_SEED if args.seed is None else args.seed
    _, results = verify.run_suites(names, seed=seed)
    failed = None
    for suite, name, good, detail in results:
        if args.json:
            print(json.dumps({"suite": suite, "check": name, "ok": good,
                              "detail": detail}, sort_keys=True))
        else:
            mark = "ok  " if good else "FAIL"
            print(f"[{mark}] ({suite}) {name}" + (f"  -- {detail}" if detail and not good else ""))
        if not good and failed is None:
            failed = f"({suite}) {name}"
    if not args.json:
        n_ok = sum(1 for r in results if r[2])
        print(f"-- {n_ok}/{len(results)} checks passed")
    if failed:
        print(f"first failing property: {failed}", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_transform(args) -> int:
    fieldh = _field_from_spec(args.field)
    if fieldh is None:
        raise UnsupportedField("transform needs a field; use Q or GF(p[,k])")
    f, var = parse_univariate(args.f, fieldh)
    g, _ = parse_univariate(args.g, fieldh)
    out = transform_monic(f, g, fieldh)
    print(format_univariate(out, fieldh, var))
    return EXIT_OK


def cmd_tower(args) -> int:
    fieldh = _field_from_spec(args.field)
    f, _ = parse_univariate(args.f, fieldh or QQ())
    tower = monogenic_tower(f, args.m, fieldh)
    if args.json:
        print(json.dumps({"base": tower.base, "degree": tower.degree,
                          "m": tower.m, "dim": tower.dim,
                          "relations": list(tower.relations)}, sort_keys=True))
    else:
        print(f"dim = {tower.dim}")
        for i, rel in enumerate(tower.relations, start=1):
            print(f"stage {i}: {rel} = 0")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="closurelab",
        description="exact closures of finite commutative algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("close", help="compute one closure")
    p.add_argument("--algebra", required=True,
                   help="presentation, e.g. 'Q[x,y]/((x,y)^2)'")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--method", choices=["general", "naive"],
                   default="general")
    p.add_argument("--exact", action="store_true",
                   help="use rational arithmetic instead of one-prime modular mode")
    p.add_argument("--json", action="store_true")
    p.add_argument("--emit", choices=["dim", "full"], default="dim")
    p.set_defaults(func=cmd_close)

    p = sub.add_parser("table", help="run a manifest of table rows")
    p.add_argument("--manifest", required=True,
                   help="path or bundled name (table1.json, table2.json)")
    p.add_argument("--rows", help="semicolon-separated row names or indices")
    p.add_argument("--max-m", type=int, default=None)
    p.add_argument("--min-m", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run property suites")
    p.add_argument("--suite", default="all",
                   help="comma list of suite names, or 'all'")
    p.add_argument("--seed", type=int, default=None,
                   help="seed of the randomized checks (default: fixed)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("transform", help="monic polynomial transform")
    p.add_argument("--f", required=True, help="monic polynomial, e.g. 'Z^3-6Z^2+11Z-6'")
    p.add_argument("--g", required=True, help="any polynomial, e.g. 'X^2'")
    p.add_argument("--field", default="Q")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("tower", help="root-splitting tower of a monic polynomial")
    p.add_argument("--f", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--field", default="Q", help="Q, GF(p[,k]), Fq, or Z")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_tower)
    return parser


_parser = None     # built on the first call of main, then reused


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except (ClosureLabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES
                    if isinstance(exc, kinds))
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPT


if __name__ == "__main__":
    sys.exit(main())
