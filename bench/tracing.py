"""Spans around the calls that metamine's modules make into each other.

The traced run replaces the names a caller module imported (for example
`metamine.cycle.run_seeded`) with wrappers that record one span per call:
name, start, end, parent span and unit id. Spans stay in memory and are
written out when the run ends. A span's self time is its busy time minus
the busy time of the wrapped calls made inside it.

`Policy.decide` runs once per simulated step, so it is counted rather than
recorded: each call adds to its layer's busy time and call count and to
its parent span's child time, but leaves no span of its own.

Wrappers are installed only for traced units and removed afterwards, and a
name that its module no longer has is skipped, so tracing keeps working
when the program drops a function.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from collections import defaultdict
from time import perf_counter


def _size(path) -> int:
    return os.path.getsize(path) if path is not None and os.path.exists(path) else 0


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def _count_run_seeded(args, kwargs, result):
    return {"rover.episodes": len(result), "rover.steps": sum(len(t.records) for t in result)}


def _count_run_cycle(args, kwargs, result):
    return {"cycle.cycles": 1, "cycle.deployed": int(result[1].decision == "deployed")}


def _count_evaluate(args, kwargs, result):
    return {"cycle.eval_episodes": 2 * _arg(args, kwargs, 3, "n")}


def _count_collect(args, kwargs, result):
    return {"introspection.rows_in": len(_arg(args, kwargs, 0, "trace").records),
            "introspection.rows_out": len(result.rows)}


def _count_induce(args, kwargs, result):
    return {"mining.induce_tree.rows": len(_arg(args, kwargs, 0, "dataset"))}


def _count_apriori(args, kwargs, result):
    return {"mining.frequent_itemsets": len(result)}


def _count_rules_model(args, kwargs, result):
    return {"mining.rules": len(result.rules)}


def _count_trace_write(args, kwargs, result):
    return {"rover.trace_bytes": _size(_arg(args, kwargs, 2, "path"))}


def _count_trace_read(args, kwargs, result):
    return {"rover.trace_bytes": _size(_arg(args, kwargs, 0, "path"))}


def _count_json_write(args, kwargs, result):
    return {"jsonio.bytes_written": _size(_arg(args, kwargs, 0, "path"))}


def _count_json_read(args, kwargs, result):
    return {"jsonio.bytes_read": _size(_arg(args, kwargs, 0, "path"))}


_IMPORTERS = ("metamine.cli", "metamine.cycle")
_JSON_USERS = ("metamine.cli", "metamine.rover", "metamine.policy", "metamine.mining",
               "metamine.introspection", "metamine.knowledge")

# (owner, attribute, span name, counter). The owner is the module (or
# class) whose binding the caller looks up at call time.
TARGETS = (
    [("metamine.cycle", "run_cycle", "cycle.run_cycle", _count_run_cycle),
     ("metamine.cycle", "evaluate_candidate", "cycle.evaluate_candidate", _count_evaluate),
     ("metamine.cli", "run_experiment", "cycle.run_experiment", None),
     ("metamine.cycle", "run_seeded", "rover.run_seeded", _count_run_seeded),
     ("metamine.rover", "run_seeded", "rover.run_seeded", _count_run_seeded),
     ("metamine.cli", "save_traces", "rover.save_traces", _count_trace_write),
     ("metamine.cli", "load_traces", "rover.load_traces", _count_trace_read),
     ("metamine.cli", "save_dataset", "introspection.save_dataset", None),
     ("metamine.cli", "load_dataset", "introspection.load_dataset", None),
     ("metamine.mining", "cross_validate", "mining.cross_validate", None),
     ("metamine.mining", "induce_tree", "mining.induce_tree", _count_induce),
     ("metamine.mining", "apriori", "mining.apriori", _count_apriori),
     ("metamine.cycle", "filter_association_rules", "policy.rules_to_ruleset", None),
     ("metamine.cli", "rules_to_ruleset", "policy.rules_to_ruleset", None),
     ("metamine.cycle", "integrate_policies", "policy.integrate_policies", None)]
    + [(m, "collect_report", "introspection.collect_report", _count_collect) for m in _IMPORTERS]
    + [(m, "featurise", "introspection.featurise", None) for m in _IMPORTERS]
    + [(m, "fit_tree_model", "mining.fit_tree_model", None) for m in _IMPORTERS]
    + [(m, "fit_rules_model", "mining.fit_rules_model", _count_rules_model) for m in _IMPORTERS]
    + [(m, "tree_to_rules", "policy.tree_to_rules", None) for m in _IMPORTERS]
    + [(m, "compile_policy", "policy.compile_policy", None) for m in _IMPORTERS]
    + [(m, "read_json", "jsonio.read_json", _count_json_read) for m in _JSON_USERS]
    + [(m, "write_json", "jsonio.write_json", _count_json_write) for m in _JSON_USERS]
)
HOT_TARGETS = (("metamine.policy.Policy", "decide", "policy.decide"),)


def _resolve(owner: str):
    """Module or class named by a dotted path, or None when it is gone."""
    parts = owner.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name, None)
        return obj
    return None


class LayerStats:
    """Busy time, self time and call count of one layer within one unit."""

    __slots__ = ("busy", "self_time", "calls")

    def __init__(self):
        self.busy = 0.0
        self.self_time = 0.0
        self.calls = 0


class Tracer:
    """Records spans and per-unit layer totals while its wrappers are installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.layers: dict = defaultdict(lambda: defaultdict(LayerStats))
        self.counts: dict = defaultdict(lambda: defaultdict(int))
        self.unit = None
        self._stack: list[list] = []
        self._patched: list[tuple] = []

    def open_span(self, name: str) -> list:
        frame = [len(self.spans) + len(self._stack), name, perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def close_span(self, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        span_id, name, start, child = frame
        busy = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += busy
        self.spans.append((span_id, parent[0] if parent else None, name, start, end, self.unit))
        stats = self.layers[self.unit][name]
        stats.busy += busy
        stats.self_time += busy - child
        stats.calls += 1

    def count(self, name: str, value: int) -> None:
        self.counts[self.unit][name] += value

    def _span_wrapper(self, fn, name: str, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.open_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close_span(frame)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.count(key, value)
            return result
        return wrapper

    def _hot_wrapper(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                busy = perf_counter() - start
                if self._stack:
                    self._stack[-1][3] += busy
                stats = self.layers[self.unit][name]
                stats.busy += busy
                stats.self_time += busy
                stats.calls += 1
        return wrapper

    def install(self) -> None:
        """Wrap every target its owner still has."""
        for owner_path, attr, name, counter in TARGETS:
            self._patch(owner_path, attr, lambda fn, n=name, c=counter: self._span_wrapper(fn, n, c))
        for owner_path, attr, name in HOT_TARGETS:
            self._patch(owner_path, attr, lambda fn, n=name: self._hot_wrapper(fn, n))

    def _patch(self, owner_path: str, attr: str, make) -> None:
        owner = _resolve(owner_path)
        original = owner.__dict__.get(attr) if owner is not None else None
        if not callable(original):
            return
        setattr(owner, attr, make(original))
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        """One JSON object per span, in the order the spans closed."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, unit in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end, "unit": unit}) + "\n")
