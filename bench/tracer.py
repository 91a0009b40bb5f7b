"""Spans and counts at the boundaries of the program's public functions,
recorded from outside the program.

`Tracer.install` replaces each traced function by a wrapper everywhere the
package holds a reference to it: the defining module's attribute and every
name a sibling module bound with `from .x import y` (for example
`scaleiou.criteria.evaluate` is also `scaleiou.evaluation.evaluate`,
`scaleiou.rating.evaluate`, `scaleiou.loss.evaluate` and
`scaleiou.cli.evaluate`). `Tracer.uninstall` puts the originals back, so the
untraced rounds of a traced run call the program exactly as an untraced run
does.

Each wrapper records one span (name, start, end, parent) and counts calls,
raised exceptions and a measure of the work the call did. Spans stay in
memory, in flat arrays, until `write_spans` is called at the end of a run.
A span's self time is its duration minus the time covered by its child
spans; the wrappers' own bookkeeping around a child falls into the parent's
self time, which is part of the overhead a traced run reports.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from array import array
from collections import Counter

# (module, function, work measure from (args, result) or None)
TRACED = (
    ("scaleiou.cli", "main", None),
    ("scaleiou.io", "load_boxes", lambda args, result: len(result[0]) + len(result[1])),
    ("scaleiou.io", "load_ratings", lambda args, result: len(result)),
    ("scaleiou.io", "write_table", lambda args, result: len(args[0])),
    ("scaleiou.geometry", "size_class", None),
    ("scaleiou.criteria", "evaluate", None),
    ("scaleiou.evaluation", "map_report", None),
    ("scaleiou.evaluation", "match_detections", None),
    ("scaleiou.evaluation", "average_precision", lambda args, result: len(args[0])),
    ("scaleiou.stats", "moment_curve", None),
    ("scaleiou.stats", "simulate_criterion", None),
    ("scaleiou.stats", "sample_shifts", lambda args, result: result.size),
    ("scaleiou.stats", "criterion_on_shifts", lambda args, result: result.size),
    ("scaleiou.stats", "summarize", None),
    ("scaleiou.stats", "empirical_pdf", None),
    ("scaleiou.stats", "order_preservation_counts", lambda args, result: result.n_triples),
    ("scaleiou.theory", "moment_consistency_report", None),
    ("scaleiou.theory", "theoretical_moment", None),
    ("scaleiou.loss", "loss_gradient", None),
    ("scaleiou.rating", "criterion_values", lambda args, result: len(result)),
    ("scaleiou.rating", "kendall_tau", None),
    ("scaleiou.rating", "group_means", None),
    ("scaleiou.rating", "relative_gap", None),
    ("scaleiou.rating", "one_way_anova", None),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one entry per span: name id, parent span index (-1 at the root),
        # round number, start, end, time covered by child spans
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_round = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_child = array("d")
        self.calls: Counter = Counter()
        self.work: Counter = Counter()
        self.raised: Counter = Counter()  # (name, exception type) -> count
        self.round = 0
        self._stack: list[int] = []
        self._main_thread = threading.get_ident()
        self._rebound: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, measure):
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        stack = self._stack
        clock = time.perf_counter
        span_name, span_parent, span_round = self.span_name, self.span_parent, self.span_round
        span_start, span_end, span_child = self.span_start, self.span_end, self.span_child
        calls, work, raised = self.calls, self.work, self.raised

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != self._main_thread:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            index = len(span_start)
            span_name.append(name_id)
            span_parent.append(parent)
            span_round.append(self.round)
            span_start.append(0.0)
            span_end.append(0.0)
            span_child.append(0.0)
            stack.append(index)
            calls[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                raised[(name, type(exc).__name__)] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                span_start[index] = start
                span_end[index] = end
                if parent >= 0:
                    span_child[parent] += end - start
            if measure is not None:
                work[name] += measure(args, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every package-level reference to each traced function."""
        if self._rebound:
            return
        modules = [m for n, m in sys.modules.items() if n == "scaleiou" or n.startswith("scaleiou.")]
        for module_name, function, measure in TRACED:
            original = getattr(sys.modules[module_name], function)
            layer = f"{module_name.removeprefix('scaleiou.')}.{function}"
            wrapper = self._wrap(layer, original, measure)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._rebound.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def start_round(self) -> None:
        self.round += 1
        self.calls.clear()
        self.work.clear()
        self.raised.clear()

    def round_totals(self) -> dict[str, dict[str, float]]:
        """Per layer, over the spans of the current round: summed duration,
        summed self time, calls, work and raised exceptions."""
        totals: dict[str, dict[str, float]] = {}
        for i in range(len(self.span_start) - 1, -1, -1):
            if self.span_round[i] != self.round:
                break
            name = self.names[self.span_name[i]]
            entry = totals.setdefault(name, {"dur": 0.0, "self": 0.0})
            duration = self.span_end[i] - self.span_start[i]
            entry["dur"] += duration
            entry["self"] += duration - self.span_child[i]
        for name, entry in totals.items():
            entry["calls"] = self.calls[name]
            entry["work"] = self.work[name]
        for (name, exc_type), count in self.raised.items():
            totals.setdefault(name, {"dur": 0.0, "self": 0.0})[f"raised.{exc_type}"] = count
        return totals

    def write_spans(self, path) -> int:
        """Write every span as a CSV line: round,name,start,end,parent,self."""
        with open(path, "w") as fh:
            fh.write("index,round,name,start,end,parent,self\n")
            for i in range(len(self.span_start)):
                start, end = self.span_start[i], self.span_end[i]
                fh.write(
                    f"{i},{self.span_round[i]},{self.names[self.span_name[i]]},"
                    f"{start:.9f},{end:.9f},{self.span_parent[i]},{end - start - self.span_child[i]:.9f}\n"
                )
        return len(self.span_start)
