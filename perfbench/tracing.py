"""In-memory spans around calls into machin's public functions.

A span records its name, start and end (``time.perf_counter`` seconds),
the index of the span that was open when it started, and the op id. The
tracer never touches ``src/machin``: it replaces module attributes with
wrappers, so callers that look a name up at call time (``compute_pi``
finding ``machin.evaluator.arctan_recip_fixed``, ``render_text`` finding
``machin.cli.decimal_digits``) go through the wrapper.
"""
from __future__ import annotations

import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name): the lookups the traced callers make
PATCHES = (
    ("machin.evaluator", "plan_budget", "evaluator.plan_budget"),
    ("machin.cli", "to_decimal_string", "exactint.to_decimal"),
    ("machin.cli", "from_decimal_string", "exactint.from_decimal"),
    ("machin.cli", "decimal_digits", "exactint.decimal_digits"),
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, op id]
        self.stack = []
        self.op = None
        self.counters = Counter()

    def open(self, name):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, perf_counter(), None, parent, self.op])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = perf_counter()
        self.stack.pop()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def install(self):
        """Route the callers' own name lookups through spans."""
        for module_name, attr, span in PATCHES:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(span, getattr(module, attr)))
        evaluator = importlib.import_module("machin.evaluator")
        series = self.wrap("evaluator.series", evaluator.arctan_recip_fixed)

        def counted_series(q, K, scale):
            self.counters["evaluator.series.calls"] += 1
            self.counters["evaluator.series.terms"] += K + 1
            return series(q, K, scale)

        evaluator.arctan_recip_fixed = counted_series

    def self_times(self):
        """Busy (self) seconds per span name: duration minus child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        busy = defaultdict(float)
        calls = Counter()
        for (name, start, end, _, _), inner in zip(self.spans, child):
            busy[name] += end - start - inner
            calls[name] += 1
        return busy, calls

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"fields": ["name", "start_s", "end_s", "parent", "op"], "spans": self.spans},
                handle,
            )
