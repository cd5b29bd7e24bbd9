"""Per-layer spans recorded from outside the program.

A Tracer replaces public functions of each closurelab layer by timing
wrappers, patched where the callers look them up: module globals such as
`closurelab.finalg.buchberger` (looked up by `algebra_from_presentation`)
and class attributes such as `RowSpace.reduce`.  A name imported with
`from ... import` into another module is a separate binding and is patched
there too.  Nothing is installed unless `install` is called, and
`uninstall` restores every original.

Each span has a name, start, end and parent; its self time is its duration
minus the durations of its child spans.  Spans stay in memory.  The two
per-call layers (`finalg.reduce`, `finalg.project`, hundreds of thousands of
calls per pass) are aggregated by parent name instead of being stored one
by one.  Time spent computing counters is charged to no span.

The wrappers' own cost is estimated from counts, not from the difference
of two pass times, which varies more from pass to pass than the cost
itself: `overhead_s` times a wrapped no-op in the same process and
multiplies by the wrapped calls recorded, then adds the counters' time.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from time import perf_counter

AGGREGATED = frozenset({"finalg.reduce", "finalg.project"})
PROBE_CALLS = 50_000         # wrapped no-op calls per timing of the wrapper
PROBE_REPEATS = 5


def _noop(*args):
    return None


class Tracer:
    def __init__(self):
        self.spans = []              # (id, name, start, end, parent id, self_s)
        self.aggregated = {}         # (name, parent name) -> [calls, incl_s, self_s]
        self.counts = defaultdict(int)
        self.hook_s = 0.0            # time spent in before/after hooks
        self._stack = []             # open frames: [name, child_s, id]
        self._next_id = 0
        self._patches = []

    # -- recording --------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        """A wrapper of fn that records one span per call.

        `before(args)` may return state; `after(args, result, state)` runs on
        success.  Both run outside the span and outside the parent's self time.
        """
        stack = self._stack
        clock = perf_counter
        aggregated = name in AGGREGATED
        tracer = self

        def traced(*args, **kwargs):
            hook_s = 0.0
            state = None
            if before is not None:
                h0 = clock()
                state = before(args)
                hook_s += clock() - h0
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [name, 0.0, span_id]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self_s = dur - frame[1]
                if aggregated:
                    key = (name, parent[0] if parent else None)
                    slot = tracer.aggregated.get(key)
                    if slot is None:
                        slot = tracer.aggregated[key] = [0, 0.0, 0.0]
                    slot[0] += 1
                    slot[1] += dur
                    slot[2] += self_s
                else:
                    tracer.spans.append((span_id, name, start, end,
                                         parent[2] if parent else None, self_s))
                if parent is not None:
                    parent[1] += dur
            if after is not None:
                h0 = clock()
                after(args, result, state)
                hook_s += clock() - h0
            tracer.hook_s += hook_s
            if parent is not None:
                parent[1] += hook_s
            return result

        return traced

    def root(self, name, fn, *args):
        """Run fn(*args) inside a top-level span."""
        return self.wrap(name, fn)(*args)

    # -- patching ---------------------------------------------------------

    def patch(self, owner, attr, name, before=None, after=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, before, after))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self, finalg, closure, cli):
        """Wrap the public functions of every layer named in the README."""
        counts = self.counts
        patch = self.patch

        patch(finalg, "buchberger", "groebner.buchberger")
        patch(closure, "algebra_from_presentation", "finalg.structure")
        patch(cli, "algebra_from_presentation", "finalg.structure")

        def charpoly_terms(args, result, state):
            counts["closure.charpoly_terms"] += sum(len(c.terms) for c in result.coeffs)

        patch(closure, "generic_char_poly", "closure.charpoly", after=charpoly_terms)

        def remainder_rows(args, result, state):
            counts["closure.genrows_rows"] += sum(1 for vec in result[1].values() if vec)

        patch(closure, "_synthetic_divide", "closure.genrows", after=remainder_rows)

        def span_before(args):
            return args[0].rank

        def span_after(args, result, state):
            space, seeds, multipliers = args[0], args[1], args[2]
            inserted = space.rank - state
            counts["finalg.span_candidates"] += len(seeds) + inserted * len(multipliers)
            counts["finalg.span_inserted"] += inserted
            nnz = [len(row) for row in space.rows.values()]
            counts["row_nnz_total"] += sum(nnz)
            counts["row_nnz_rows"] += len(nnz)
            if nnz and max(nnz) > counts["finalg.row_nnz_max"]:
                counts["finalg.row_nnz_max"] = max(nnz)

        patch(finalg.RowSpace, "close_under", "finalg.span",
              before=span_before, after=span_after)
        patch(finalg.RowSpace, "reduce", "finalg.reduce")
        patch(finalg.QuotientAlgebra, "project", "finalg.project")
        patch(finalg.AlgebraMap, "is_ring_morphism", "finalg.mapcheck")
        patch(closure, "divides_check", "closure.certificate")
        patch(cli, "monogenic_tower", "closure.tower")

        def stage_width(args, result, state):
            n = result.input_algebra.dim
            if result.strategy == "staged":
                width = max((d * n for d in result.stage_dims[:-1]), default=0)
            elif result.strategy == "flat":
                width = n ** result.m
            else:
                width = 0
            if width > counts["closure.stage_width_max"]:
                counts["closure.stage_width_max"] = width

        patch(closure, "m_closure", "closure.pipeline", after=stage_width)

    # -- summary ----------------------------------------------------------

    def totals(self):
        """name -> [calls, incl_s, self_s] over every recorded span."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for row in self.span_table():
            slot = out[row["name"]]
            slot[0] += row["calls"]
            slot[1] += row["incl_s"]
            slot[2] += row["self_s"]
        return out

    def overhead_s(self) -> float:
        """Estimated time the wrappers added to what was recorded: the
        measured extra cost of one wrapped call, on the stored and on the
        aggregated path, times the calls recorded on each, plus hook time."""
        stored = len(self.spans)
        aggregated = sum(calls for calls, _, _ in self.aggregated.values())
        return (stored * _wrapper_cost("bench.probe")
                + aggregated * _wrapper_cost(next(iter(AGGREGATED)))
                + self.hook_s)

    def layer_metrics(self) -> dict:
        """The per-layer metrics of BENCHMARK.json.

        Every `_s` value is self time, except `closure.certificate_s`, which
        is inclusive: the certificate re-runs the charpoly and generator-row
        layers, so its own self time is only the loop around them.
        """
        t = self.totals()
        c = self.counts

        def self_s(name):
            return t[name][2] if name in t else 0.0

        def calls(name):
            return t[name][0] if name in t else 0

        candidates = c["finalg.span_candidates"]
        rows = c["row_nnz_rows"]
        return {
            "groebner.buchberger_s": self_s("groebner.buchberger"),
            "groebner.buchberger_calls": calls("groebner.buchberger"),
            "finalg.structure_s": self_s("finalg.structure"),
            "closure.charpoly_s": self_s("closure.charpoly"),
            "closure.charpoly_terms": c["closure.charpoly_terms"],
            "closure.genrows_s": self_s("closure.genrows"),
            "closure.genrows_rows": c["closure.genrows_rows"],
            "finalg.span_s": self_s("finalg.span"),
            "finalg.reduce_s": self_s("finalg.reduce"),
            "finalg.reduce_calls": calls("finalg.reduce"),
            "finalg.span_candidates": candidates,
            "finalg.span_inserted": c["finalg.span_inserted"],
            "finalg.span_useful": c["finalg.span_inserted"] / candidates if candidates else 0.0,
            "finalg.row_nnz_mean": c["row_nnz_total"] / rows if rows else 0.0,
            "finalg.row_nnz_max": c["finalg.row_nnz_max"],
            "finalg.project_s": self_s("finalg.project"),
            "finalg.mapcheck_s": self_s("finalg.mapcheck"),
            "closure.certificate_s": t["closure.certificate"][1] if "closure.certificate" in t else 0.0,
            "closure.tower_s": self_s("closure.tower"),
            "closure.mclosure_calls": calls("closure.pipeline"),
            "closure.pipeline_s": self_s("closure.pipeline"),
            "closure.stage_width_max": c["closure.stage_width_max"],
            "trace.overhead_s": self.overhead_s(),
        }

    def span_table(self):
        """Self and inclusive time per (name, parent name), for the record."""
        names = {span_id: name for span_id, name, *_ in self.spans}
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for _, name, start, end, parent, self_s in self.spans:
            slot = out[(name, names.get(parent))]
            slot[0] += 1
            slot[1] += end - start
            slot[2] += self_s
        for key, (calls, incl, self_s) in self.aggregated.items():
            slot = out[key]
            slot[0] += calls
            slot[1] += incl
            slot[2] += self_s
        return [{"name": name, "parent": parent, "calls": calls,
                 "incl_s": incl, "self_s": self_s}
                for (name, parent), (calls, incl, self_s) in sorted(
                    out.items(), key=lambda kv: -kv[1][2])]


def _wrapper_cost(name) -> float:
    """Median over PROBE_REPEATS timings of the extra time one call of a
    no-op wrapped as `name`, inside a parent span, takes over a bare call."""
    probe = Tracer()
    wrapped = probe.wrap(name, _noop)
    costs = []

    def loop(fn):
        start = perf_counter()
        for _ in range(PROBE_CALLS):
            fn(1, 2)
        return perf_counter() - start

    def timed():
        costs.append((loop(wrapped) - loop(_noop)) / PROBE_CALLS)

    for _ in range(PROBE_REPEATS):
        probe.spans.clear()
        probe.root("bench.probe-parent", timed)
    return statistics.median(costs)
