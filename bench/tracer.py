"""Spans around the calls into each skillsgraph layer, recorded from outside.

A Tracer replaces chosen functions in the modules that call them with
wrappers that record (name, op, start, end, parent), and puts the originals
back on uninstall. Nothing inside src/ is touched: a function is wrapped
where its caller looks it up, so `scenario.select_knapsack` is the knapsack
as run_scenario sees it.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time


class Tracer:
    def __init__(self, points):
        """points: (module name, attribute, span name) triples. The span name
        may be a callable of the call's (args, kwargs) returning the name."""
        self.points = points
        self.spans: list[dict] = []
        self.op = None
        self._stack: list[int] = []
        self._saved: list = []

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span of the given name."""
        index = len(self.spans)
        record = {
            "name": name,
            "op": self.op,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            return self.span(label, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        for module_name, attr, name in self.points:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- reading the spans ------------------------------------------------------

    def ops(self) -> list:
        return sorted({s["op"] for s in self.spans if s["op"] is not None})

    def per_op_total(self, name: str) -> float:
        """Median over traced ops of the summed time of spans called name."""
        totals = {op: 0.0 for op in self.ops()}
        for s in self.spans:
            if s["name"] == name and s["op"] is not None:
                totals[s["op"]] += s["end"] - s["start"]
        return statistics.median(totals.values()) if totals else 0.0

    def per_op_last(self, name: str) -> float:
        """Median over traced ops of the last span called name in each op."""
        last = {}
        for s in self.spans:
            if s["name"] == name and s["op"] is not None:
                last[s["op"]] = s["end"] - s["start"]
        return statistics.median(last.values()) if last else 0.0

    def per_op_self(self, name: str) -> float:
        """Median over traced ops of a span's time less its direct children."""
        own = {}
        for i, s in enumerate(self.spans):
            if s["name"] == name and s["op"] is not None:
                own[i] = s["end"] - s["start"]
        for s in self.spans:
            if s["parent"] in own:
                own[s["parent"]] -= s["end"] - s["start"]
        totals: dict = {}
        for i, value in own.items():
            op = self.spans[i]["op"]
            totals[op] = totals.get(op, 0.0) + value
        return statistics.median(totals.values()) if totals else 0.0

    def write(self, path, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "spans": self.spans}, fh)
            fh.write("\n")
