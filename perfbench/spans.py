"""Host-side spans around the public entry points of each layer.

The benchmark never edits the program: :class:`SpanRecorder` installs
timing wrappers from here onto the public functions and methods listed in
:data:`ENTRY_POINTS`, and removes them again. Each span records its name,
start, end, parent span and the op it belongs to, plus optional exact
counts read from the call's arguments or return value at the same
boundary. Spans are kept in memory and written out when the run ends.

:func:`profile_shares` buckets a ``cProfile`` run's self time by module
path, which locates a saving inside a call no wrapper can split (DRAM
time inside ``GCUnit.mark``), and reads exact call counts of the DRAM
scheduler's ``_scan``/``_pump``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple


def _cache_kind_pre(args, _kwargs):
    cache = args[0]
    return cache.misses, cache.disk_hits


def _cache_kind_post(before, args, _result):
    cache = args[0]
    misses, disk_hits = before
    if cache.misses > misses:
        return {"kind": "miss"}
    if cache.disk_hits > disk_hits:
        return {"kind": "disk"}
    return {"kind": "hit"}


def _schedule_counts(_before, _args, result):
    return {
        "grants": len(result.grants),
        "failovers": sum(result.failovers),
        "retry_wait_cycles": sum(result.retry_wait_cycles),
        "fallback_tax_cycles": sum(result.fallback_tax_cycles),
        "cancelled": sum(result.cancelled),
    }


def _replay_counts(_before, _args, result):
    return {"arrived": result.arrived, "completed": result.completed,
            "shed": result.shed}


def _simcache_counts(_before, _args, result):
    _experiment, acct = result
    return {"hits": acct.hits, "misses": acct.misses}


#: (span name, module, attribute path, pre hook, post hook). A dotted
#: attribute path names a method on a class. ``post`` returns the exact
#: counts stored on the span.
ENTRY_POINTS: Tuple[Tuple[str, str, str, Optional[Callable],
                          Optional[Callable]], ...] = (
    ("harness.build_heap", "repro.harness.runners", "build_heap",
     None, None),
    ("harness.heapcache.get_or_build", "repro.harness.heapcache",
     "HeapBuildCache.get_or_build", _cache_kind_pre, _cache_kind_post),
    ("harness.trace_collection", "repro.harness.tracing",
     "trace_collection", None,
     lambda _b, _a, capture: {"events": len(capture.bus)}),
    ("harness.simcache.run_experiment", "repro.harness.simcache",
     "run_experiment", None, _simcache_counts),
    ("heap.restore", "repro.heap.heapimage", "ManagedHeap.restore",
     None, None),
    ("heap.digest", "repro.heap.verify", "heap_digest", None, None),
    ("swgc.collect", "repro.swgc.marksweep", "SoftwareCollector.collect",
     None, None),
    ("core.mark", "repro.core.unit", "GCUnit.mark", None, None),
    ("core.sweep", "repro.core.unit", "GCUnit.sweep", None, None),
    ("workloads.graphgen.build", "repro.workloads.graphgen",
     "HeapGraphBuilder.build", None,
     lambda _b, _a, built: {"objects": built.n_objects}),
    ("workloads.mutator.run", "repro.workloads.mutator", "MutatorModel.run",
     None, None),
    ("workloads.latency.replay", "repro.workloads.latency",
     "QueryReplay.replay", None, _replay_counts),
    ("fleet.admission.schedule", "repro.fleet.admission", "schedule_fleet",
     None, _schedule_counts),
    ("fleet.report.simulate", "repro.fleet.report", "simulate_fleet",
     None, None),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts")

    def __init__(self, name: str, parent: int, op: int):
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.parent = parent
        self.op = op
        self.counts: Optional[Dict[str, Any]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Installs the wrappers; collects spans tagged with the current op."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op = -1  # -1: outside any op (set-up)
        self._stack: List[int] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable, pre, post) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.op)
            before = pre(args, kwargs) if pre is not None else None
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if post is not None:
                span.counts = post(before, args, result)
            return result

        return wrapper

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every entry point, in every ``repro`` module that binds it."""
        for name, module_name, path, pre, post in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                self._set(owner, attr,
                          self._wrap(name, owner.__dict__[attr], pre, post))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(name, original, pre, post)
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name.split(".")[0] == "repro"
                        and getattr(mod, path, None) is original):
                    self._set(mod, path, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path: Path, meta: Dict[str, Any]) -> None:
        rows = [[s.name, s.start, s.end, s.parent, s.op, s.counts]
                for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"meta": meta, "columns": [
            "name", "start", "end", "parent", "op", "counts"],
            "spans": rows}))


#: Self-time buckets for :func:`profile_shares`, by path under
#: ``src/repro``. Anything outside the package is ``python``.
HOST_BUCKETS = ("engine", "memory.dram", "memory.cache", "memory.tlb_ptw",
                "memory.other", "core", "swgc", "heap", "workloads", "fleet",
                "harness", "python")

_MEMORY_FILES = {"dram.py": "memory.dram", "cache.py": "memory.cache",
                 "tlb.py": "memory.tlb_ptw", "ptw.py": "memory.tlb_ptw",
                 "paging.py": "memory.tlb_ptw"}


def bucket_of(filename: str) -> str:
    parts = Path(filename).parts
    for i in range(len(parts) - 2, -1, -1):
        if parts[i:i + 2] == ("src", "repro"):
            sub = parts[i + 2:]
            break
    else:
        return "python"
    if len(sub) > 1 and sub[0] == "memory":
        return _MEMORY_FILES.get(sub[1], "memory.other")
    if len(sub) > 1 and sub[0] in HOST_BUCKETS:
        return sub[0]
    # The package's top level (CLI glue) and the static power model;
    # no benchmark workload calls into either.
    return "harness"


def profile_shares(stats: Dict[Tuple[str, int, str], tuple]
                   ) -> Tuple[Dict[str, float], Dict[str, int]]:
    """(self-time share per bucket, DRAM ``_scan``/``_pump`` call counts)
    from a ``pstats.Stats(...).stats`` table."""
    self_time = dict.fromkeys(HOST_BUCKETS, 0.0)
    calls = {"_scan": 0, "_pump": 0}
    for (filename, _line, func), (_cc, ncalls, tottime, _ct, _callers) \
            in stats.items():
        bucket = bucket_of(filename)
        self_time[bucket] += tottime
        if bucket == "memory.dram" and func in calls:
            calls[func] += ncalls
    total = sum(self_time.values()) or 1.0
    return {k: v / total for k, v in self_time.items()}, calls
