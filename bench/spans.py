"""Span recorder for the traced run.

The recorder wraps the public layer functions of ``spikesim`` from the
outside: each function is replaced at every place a caller looks it up (for
example ``moe.spike_matmul``, ``runner.moe_layer_forward``,
``cli.run_experiment``), so no program file changes.  Each call becomes a
span (name, start, end, parent), kept in memory and written out once.  A
layer's self time is its spans' durations minus the time their child spans
cover.  A name the program no longer defines is skipped.

Per-event helpers (``access_event``, ``fill_cycles``, ``saturate_i16``,
``lif_step``) are left unwrapped on purpose: they run once per access burst
or timestep, and wrapping them would make the tracer the largest layer.
Their time lands in the self time of the layer that calls them.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import sys
import time
import types
from collections import defaultdict
from contextlib import contextmanager

# Layer functions, by defining module; span name is "<module>.<function>".
LAYERS = {
    "tensors": ("spike_matmul", "lif_run"),
    "moe": (
        "moe_layer_forward", "compute_expert_scores", "route_topk", "gather_expert_tokens",
        "expert_forward", "merge_aligned",
    ),
    "mha": (
        "mha_forward", "partition_heads", "spiking_attention_head", "spiking_attention_map",
        "attention_weighted_integration",
    ),
    "dataflow": (
        "plan_expert_tiles", "plan_attention_tiles", "simulate_expert_array", "simulate_routing_array",
        "simulate_attention_array", "merge_traces", "expert_parallel_schedule", "write_trace_csv",
    ),
    "memory": (
        "count_accesses", "mem_report", "capacity_check", "builtin_calibration", "load_calibration",
        "dump_calibration",
    ),
    "runner": (
        "parse_workload", "run_experiment", "compare_designs", "resolve_calibration", "emit_report",
        "write_routing_csv",
    ),
    "cli": ("main",),
}


def _macs(args, result) -> dict:
    spikes, weights = args[0], args[1]
    rows, d_in = spikes.shape
    return {"tensors.spike_matmul.macs": rows * d_in * weights.data.shape[1]}


def _map_bytes(args, result) -> dict:
    return {"mha.map_bytes": result.data.nbytes}


def _tiles_events(args, result) -> dict:
    stats, events = result
    return {"dataflow.tiles": stats.tile_count, "dataflow.events": len(events)}


def _report_bytes(args, result) -> dict:
    return {"runner.report_bytes": len(result)}


# Work counted from a call's arguments or result, at the same boundary.
COUNTERS = {
    "tensors.spike_matmul": _macs,
    "mha.spiking_attention_map": _map_bytes,
    "dataflow.simulate_expert_array": _tiles_events,
    "dataflow.simulate_routing_array": _tiles_events,
    "dataflow.simulate_attention_array": _tiles_events,
    "runner.emit_report": _report_bytes,
}


class SpanRecorder:
    """Spans as [name, start, end, parent index]; parent -1 marks a root."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self._stack: list[int] = []
        self._gc_start = 0.0

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        out = list(own)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                out[parent] -= own[i]
        return out

    def root_of(self, index: int) -> int:
        while self.spans[index][3] >= 0:
            index = self.spans[index][3]
        return index

    def self_time_by_name(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for (name, *_), own in zip(self.spans, self.self_times()):
            totals[name] += own
        return dict(totals)

    def calls_by_name(self) -> dict[str, int]:
        calls: dict[str, int] = defaultdict(int)
        for name, *_ in self.spans:
            calls[name] += 1
        return dict(calls)

    def write(self, path, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"meta": meta, "columns": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
            fh.write("\n")

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if counter is not None:
                try:
                    counts = counter(args, result)
                except (AttributeError, IndexError, TypeError, ValueError):
                    counts = {}  # the signature moved on; the span still counts
                for key, value in counts.items():
                    self.counts[key] += value
            return result

        return wrapper

    @contextmanager
    def traced(self):
        """Wrap every layer function at every ``spikesim`` binding of it."""
        wrappers = {}
        for module, names in LAYERS.items():
            try:
                mod = importlib.import_module(f"spikesim.{module}")
            except ModuleNotFoundError:
                continue
            for name in names:
                fn = getattr(mod, name, None)
                if isinstance(fn, types.FunctionType):
                    wrappers[fn] = self._wrap(f"{module}.{name}", fn)
        patched = []
        for modname, mod in list(sys.modules.items()):
            if modname != "spikesim" and not modname.startswith("spikesim."):
                continue
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
                    patched.append((mod, attr, value))
        gc.callbacks.append(self._on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(self._on_gc)
            for mod, attr, value in patched:
                setattr(mod, attr, value)
