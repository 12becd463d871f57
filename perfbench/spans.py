"""Span recorder that wraps bondkit's public entry points from outside.

Each wrapped function is replaced wherever its callers look it up: module
globals of every bondkit module, the package namespace, ``analysis.METHODS``
and the class attribute for the two ``to_csv`` methods.  Spans are kept in
memory as tuples and written out once the run ends.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

MODULES = ("model", "closed_form", "approximation", "pde", "analysis", "cli")

#: (layer, module, name) of every wrapped entry point.  A name is recorded as
#: ``<layer>.<name>``.
ENTRY_POINTS = (
    ("model", "model", "validate_params"),
    ("closed_form", "closed_form", "cir_log_price"),
    ("closed_form", "closed_form", "vasicek_log_price"),
    ("approximation", "approximation", "cw_log_price"),
    ("approximation", "approximation", "improved_log_price"),
    ("approximation", "approximation", "c5"),
    ("approximation", "approximation", "c6"),
    ("pde", "pde", "solve"),
    ("analysis", "analysis", "compute_table3_solutions"),
    ("analysis", "analysis", "build_table"),
    ("analysis", "analysis", "check_table"),
)

#: (span name, module, class, method) of wrapped methods.
METHODS = (
    ("pde.to_csv", "pde", "PdeSolution", "to_csv"),
    ("analysis.table_to_csv", "analysis", "Table", "to_csv"),
)

#: Most spans written to the spans file; aggregates always use every span.
MAX_WRITTEN = 20000


def _attrs(name, args, kwargs, result):
    """Work counts recorded on a span: nodes for pricers, grid for solves."""
    if name in ("closed_form.cir_log_price", "closed_form.vasicek_log_price",
                "approximation.cw_log_price", "approximation.improved_log_price"):
        return {"nodes": int(np.size(args[2]))}
    if name in ("approximation.c5", "approximation.c6"):
        return {"nodes": int(np.size(args[1]))}
    if name == "pde.solve":
        cfg = args[1]
        return {"n_space": cfg.n_space, "n_time": cfg.n_time}
    if name == "analysis.compute_table3_solutions":
        cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
        return {"n_space": (cfg or sys.modules["bondkit.pde"].PdeConfig()).n_space}
    if name == "analysis.check_table":
        return {"cells": len(result.cells), "in_band": sum(1 for c in result.cells if c[4])}
    if name in ("pde.to_csv", "analysis.table_to_csv"):
        target = args[1]
        if isinstance(target, (str, bytes, os.PathLike)):
            return {"bytes": os.path.getsize(target)}
    return None


class Tracer:
    """Records (id, parent, name, start_ns, end_ns, attrs, error) spans."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._next = 1
        self._restore = []

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            span_id = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else 0
            self._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.spans.append((span_id, parent, name, start, time.perf_counter_ns(), None,
                                   type(exc).__name__))
                raise
            finally:
                self._stack.pop()
            end = time.perf_counter_ns()
            attrs = _attrs(name, args, kwargs, result)
            self.spans.append((span_id, parent, name, start, end, attrs, None))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Patch the entry points in every loaded bondkit module."""
        import bondkit

        mods = [sys.modules[f"bondkit.{m}"] for m in MODULES if f"bondkit.{m}" in sys.modules]
        for layer, module, attr in ENTRY_POINTS:
            original = getattr(sys.modules[f"bondkit.{module}"], attr)
            traced = self.wrap(f"{layer}.{attr}", original)
            for mod in [bondkit, *mods]:
                if getattr(mod, attr, None) is original:
                    self._patch(mod, attr, traced)
            table = sys.modules["bondkit.analysis"].METHODS
            for key, fn in list(table.items()):
                if fn is original:
                    self._restore.append((table.__setitem__, key, fn))
                    table[key] = traced
        for name, module, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"bondkit.{module}"], cls_name)
            self._patch(cls, attr, self.wrap(name, getattr(cls, attr)))

    def _patch(self, owner, attr, value):
        self._restore.append((lambda k, v, o=owner: setattr(o, k, v), attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            setter, key, value = self._restore.pop()
            setter(key, value)

    def merge_file(self, path):
        """Append the spans a child process wrote; returns the seconds its
        ``cli.main`` span took."""
        with open(path) as fh:
            child = json.load(fh)
        offset = self._next
        main_ns = 0
        for span_id, parent, name, start, end, attrs, error in child:
            self.spans.append((span_id + offset, parent + offset if parent else 0, name,
                               start, end, attrs, error))
            self._next = max(self._next, span_id + offset + 1)
            if name.startswith("cli.main."):
                main_ns += end - start
        return main_ns * 1e-9


def self_times(spans):
    """Span id -> duration minus the time covered by its direct children."""
    child_ns = {}
    for span_id, parent, _, start, end, _, _ in spans:
        if parent:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    return {s[0]: (s[4] - s[3]) - child_ns.get(s[0], 0) for s in spans}


def write_spans(spans, path):
    """Write spans as JSON lines with parent links and self time."""
    own = self_times(spans)
    with open(path, "w") as fh:
        for span_id, parent, name, start, end, attrs, error in spans[:MAX_WRITTEN]:
            fh.write(json.dumps({
                "id": span_id, "parent": parent, "name": name, "start_ns": start,
                "dur_ns": end - start, "self_ns": own[span_id], "attrs": attrs, "error": error,
            }) + "\n")
        if len(spans) > MAX_WRITTEN:
            fh.write(json.dumps({"truncated": len(spans) - MAX_WRITTEN}) + "\n")


PRICERS = ("approximation.cw_log_price", "approximation.improved_log_price",
           "approximation.c5", "approximation.c6",
           "closed_form.cir_log_price", "closed_form.vasicek_log_price")
CLI_COMMANDS = ("price", "table", "eoc", "pde")


def layer_metrics(spans):
    """Per-layer figures derived from the spans: calls, busy (inclusive)
    seconds, self seconds and work counts."""
    by_id = {s[0]: s for s in spans}
    own = self_times(spans)
    out = {}
    groups = {}
    for s in spans:
        groups.setdefault(s[2], []).append(s)

    def named(name):
        return groups.get(name, [])

    def busy(name):
        return sum(s[4] - s[3] for s in named(name)) * 1e-9

    def attr_sum(name, key):
        return sum((s[5] or {}).get(key, 0) for s in named(name))

    solves = named("pde.solve")
    role_ns = {"desk": 0, "companion": 0, "small": 0}
    steps = node_steps = 0
    for s in solves:
        parent = by_id.get(s[1])
        role = "small"
        if parent is not None and parent[2] == "analysis.compute_table3_solutions" and s[5]:
            role = "desk" if s[5]["n_space"] == (parent[5] or {}).get("n_space") else "companion"
        role_ns[role] += s[4] - s[3]
        if s[5]:
            steps += s[5]["n_time"]
            node_steps += s[5]["n_time"] * s[5]["n_space"]
    solve_s = busy("pde.solve")
    out["pde.solve.calls"] = len(solves)
    out["pde.solve.busy_s"] = solve_s
    for role, ns in role_ns.items():
        out[f"pde.solve.{role}.busy_s"] = ns * 1e-9
    out["pde.solve.us_per_step"] = solve_s / steps * 1e6 if steps else 0.0
    out["pde.solve.ns_per_node_step"] = solve_s / node_steps * 1e9 if node_steps else 0.0
    out["pde.to_csv.busy_s"] = busy("pde.to_csv")
    out["pde.to_csv.bytes"] = attr_sum("pde.to_csv", "bytes")
    out["analysis.table_to_csv.busy_s"] = busy("analysis.table_to_csv")
    out["analysis.compute_table3_solutions.self_s"] = sum(
        own[s[0]] for s in named("analysis.compute_table3_solutions")) * 1e-9
    out["analysis.check_table.cells_checked"] = attr_sum("analysis.check_table", "cells")
    out["analysis.check_table.cells_in_band"] = attr_sum("analysis.check_table", "in_band")
    for name in PRICERS:
        nodes = attr_sum(name, "nodes")
        seconds = busy(name)
        out[f"{name}.calls"] = len(named(name))
        out[f"{name}.busy_s"] = seconds
        out[f"{name}.ns_per_node"] = seconds / nodes * 1e9 if nodes else 0.0
    out["model.validate_params.calls"] = len(named("model.validate_params"))
    out["model.validate_params.busy_s"] = busy("model.validate_params")
    for cmd in CLI_COMMANDS:
        out[f"cli.main.{cmd}.busy_s"] = busy(f"cli.main.{cmd}")
    out["trace.spans"] = len(spans)
    return out
