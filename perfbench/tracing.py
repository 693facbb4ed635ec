"""Span recorder that times calls into the program's layers from outside.

Nothing in ``src/`` is edited.  :class:`Tracer` replaces, for the length
of one ``with tracer.installed():`` block, the names that the placement
engine, the figure-3 pipeline and the SPMD executor import (plus a few
class methods) by wrappers that open a span around each call.  Spans
nest on one stack (the benchmark runs a single thread), so a layer's
*self time* is its span's duration minus the durations of its direct
children, and the root span's self time is the part of the workload no
wrapped layer claims.

Wrapped calls record a span only inside an open span, so work the
benchmark does around an operation (its post-run checks) is not charged
to the program's layers.  Generator functions (``Propagator.solutions``)
are timed per ``next()``: the time spent inside the generator is charged
to its layer, the time the consumer spends between two ``next()`` calls
is not.

Export is stdlib only: :meth:`Tracer.to_json` (spans plus per-layer
totals) and :meth:`Tracer.to_chrome` (trace-event format, one track per
layer; loads in Perfetto or ``chrome://tracing``).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from typing import Any, Callable, Optional

#: (module, attribute) -> layer.  Module-level names are patched in the
#: module that *imports* them, which is where the caller looks them up.
FUNCTION_LAYERS: dict[tuple[str, str], str] = {
    # placement engine: front end and search (repro-place's path)
    ("repro.placement.engine", "parse_subroutine"): "lang.parse",
    ("repro.placement.engine", "check_types"): "lang.parse",
    ("repro.placement.engine", "build_depgraph"): "analysis.deps",
    ("repro.placement.engine", "detect_idioms"): "analysis.deps",
    ("repro.placement.engine", "check_legality"): "analysis.deps",
    ("repro.placement.engine", "build_value_flow_graph"): "placement.dfg",
    ("repro.placement.engine", "reduce_vfg"): "placement.dfg",
    ("repro.placement.engine", "extract_comms"): "placement.comms",
    ("repro.placement.engine", "rank_placements"): "placement.rank",
    ("repro.placement.engine", "annotate_source"): "placement.annotate",
    ("repro.placement.engine", "placement_summary"): "placement.annotate",
    # the figure-3 pipeline's stage boundaries
    ("repro.driver.pipeline", "enumerate_placements"): "placement.search",
    ("repro.driver.pipeline", "widen_placement"): "placement.comms",
    ("repro.driver.pipeline", "build_partition"): "mesh.partition",
    ("repro.driver.pipeline", "_precheck"): "analysis.commcheck",
    ("repro.driver.pipeline", "check"): "analysis.commcheck",
    ("repro.driver.pipeline", "build_global_env"): "lang.oracle",
    ("repro.driver.pipeline", "run_sequential"): "lang.oracle",
    ("repro.placement.serialize", "result_fingerprint"): "driver.verify",
    ("repro.placement.serialize", "outputs_fingerprint"): "driver.verify",
    # the SPMD executor's calls into the wire, schedules and migration
    ("repro.runtime.executor", "overlap_post"): "runtime.halo",
    ("repro.runtime.executor", "overlap_complete"): "runtime.halo",
    ("repro.runtime.executor", "overlap_update"): "runtime.halo",
    ("repro.runtime.executor", "combine_post"): "runtime.halo",
    ("repro.runtime.executor", "combine_complete"): "runtime.halo",
    ("repro.runtime.executor", "combine_update"): "runtime.halo",
    ("repro.runtime.executor", "allreduce_scalar"): "runtime.halo",
    ("repro.runtime.executor", "build_overlap_schedule"): "mesh.schedule",
    ("repro.runtime.executor", "build_combine_schedule"): "mesh.schedule",
    ("repro.runtime.executor", "repair_wave_schedules"): "mesh.schedule",
    ("repro.runtime.executor", "repair_overlap_schedule"): "mesh.schedule",
    ("repro.runtime.executor", "repair_combine_schedule"): "mesh.schedule",
    ("repro.runtime.executor", "moved_entity_gids"): "mesh.schedule",
    ("repro.runtime.executor", "schedule_dirty_ranks"): "mesh.schedule",
    ("repro.runtime.executor", "rewrite_packing"): "mesh.migrate",
    ("repro.runtime.executor", "build_migration_schedule"): "mesh.migrate",
    ("repro.runtime.executor", "migrate"): "mesh.migrate",
    ("repro.runtime.executor", "rebuild_flat_store"): "mesh.migrate",
}

#: (module, class, method) -> layer
METHOD_LAYERS: dict[tuple[str, str, str], str] = {
    ("repro.placement.propagate", "Propagator", "__init__"):
        "placement.propagate",
    ("repro.placement.propagate", "Propagator", "solutions"):
        "placement.propagate",
    ("repro.mesh.overlap", "MeshPartition", "check_invariants"):
        "mesh.partition",
    ("repro.mesh.migrate", "RebalancePolicy", "target"): "mesh.migrate",
    ("repro.runtime.executor", "SPMDExecutor", "__init__"):
        "runtime.compute",
    ("repro.runtime.executor", "SPMDExecutor", "run"): "runtime.compute",
    ("repro.runtime.executor", "SPMDExecutor", "_migrate_epoch"):
        "mesh.migrate",
    ("repro.runtime.executor", "SPMDResult", "gather"): "driver.verify",
    ("repro.runtime.checkpoint", "CheckpointManager", "take"):
        "runtime.checkpoint",
    ("repro.runtime.checkpoint", "CheckpointManager", "restore"):
        "runtime.checkpoint",
    ("repro.runtime.checkpoint", "CheckpointManager", "restore_rank"):
        "runtime.checkpoint",
    ("repro.runtime.msglog", "MessageLog", "replay_onto"):
        "runtime.checkpoint",
}

#: span name of the whole workload operation
ROOT = "workload"


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "child_ns")

    def __init__(self, name: str, layer: str, start: int,
                 parent: Optional[int]):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.child_ns = 0

    @property
    def dur_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.dur_ns - self.child_ns


class Tracer:
    """In-memory span stack plus per-layer counters."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._origin = time.perf_counter_ns()

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, layer, time.perf_counter_ns(), parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter_ns()
        popped = self._stack.pop()
        assert popped == idx, "span stack out of order"
        if span.parent is not None:
            self.spans[span.parent].child_ns += span.dur_ns

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        idx = self._open(name, layer)
        try:
            yield
        finally:
            self._close(idx)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    if not tracer._stack:  # outside any operation
                        return (yield from gen)
                    idx = tracer._open(name, layer)
                    try:
                        item = next(gen)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        tracer._close(idx)
                    tracer.count(name + ".yields")
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._stack:  # outside any operation
                return fn(*args, **kwargs)
            idx = tracer._open(name, layer)
            try:
                value = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if name == "CheckpointManager.take":
                tracer.count("runtime.checkpoint_words", value.words)
            return value
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every listed name for the duration of the block."""
        saved: list[tuple[Any, str, Any]] = []
        try:
            for (mod_name, attr), layer in FUNCTION_LAYERS.items():
                mod = importlib.import_module(mod_name)
                orig = getattr(mod, attr)
                saved.append((mod, attr, orig))
                setattr(mod, attr, self.wrap(orig, attr, layer))
            for (mod_name, cls_name, meth), layer in METHOD_LAYERS.items():
                cls = getattr(importlib.import_module(mod_name), cls_name)
                orig = cls.__dict__[meth]
                saved.append((cls, meth, orig))
                setattr(cls, meth,
                        self.wrap(orig, f"{cls_name}.{meth}", layer))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    # -- analysis ----------------------------------------------------------

    def layer_self_ms(self) -> dict[str, float]:
        """Self time per layer in ms (the root span counts as its own)."""
        out: dict[str, float] = {}
        for span in self.spans:
            out[span.layer] = out.get(span.layer, 0.0) + span.self_ns / 1e6
        return out

    def calls(self, layer: str) -> int:
        return sum(1 for s in self.spans if s.layer == layer)

    def root_ms(self) -> float:
        return sum(s.dur_ns for s in self.spans if s.parent is None) / 1e6

    # -- export ------------------------------------------------------------

    def to_json(self, extra: Optional[dict] = None) -> dict:
        return {
            "spans": [{"name": s.name, "layer": s.layer,
                       "start_us": (s.start - self._origin) / 1e3,
                       "dur_us": s.dur_ns / 1e3,
                       "self_us": s.self_ns / 1e3,
                       "parent": s.parent} for s in self.spans],
            "layer_self_ms": self.layer_self_ms(),
            "counters": dict(self.counters),
            **(extra or {}),
        }

    def to_chrome(self) -> dict:
        """Trace-event JSON with one thread track per layer."""
        layers = sorted({s.layer for s in self.spans},
                        key=lambda name: (name != ROOT, name))
        tid = {name: i + 1 for i, name in enumerate(layers)}
        events: list[dict] = [
            {"ph": "M", "pid": 1, "tid": tid[name], "name": "thread_name",
             "args": {"name": name}} for name in layers]
        events += [
            {"ph": "M", "pid": 1, "tid": tid[name],
             "name": "thread_sort_index", "args": {"sort_index": tid[name]}}
            for name in layers]
        for s in self.spans:
            events.append({"ph": "X", "pid": 1, "tid": tid[s.layer],
                           "name": s.name, "cat": s.layer,
                           "ts": (s.start - self._origin) / 1e3,
                           "dur": s.dur_ns / 1e3})
        return {"traceEvents": events, "displayTimeUnit": "ms"}
