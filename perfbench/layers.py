"""Per-layer metrics of a ``--trace 1`` run.

After the untraced phase (which gives ``bench.untraced_ops_per_s``), the
run installs the span wrappers, repeats the set-up once traced, runs whole
traced passes, removes the wrappers, and runs a fixed op list under
``cProfile``. Then:

* counts (units ``count/op``, ``count/pass``, ``cycles/op``, ``bytes/op``,
  ``ratio``) come from the first traced pass, so two runs at one seed give
  identical values;
* span times (unit ``s``) are mean seconds per call over every traced
  pass, self time where the name says so, scaled to the reference host
  speed with the ``host_scale`` taken before their op;
* ``host_share.*`` and the DRAM scan/pump ratios come from the profiled
  op list.

A span metric is taken from timed ops; only the layers that run solely in
set-up on some workload (heap generation, the mutator model) fall back to
the traced set-up there. Layers a workload never calls report 0.
"""

from __future__ import annotations

import cProfile
import pstats
import statistics
from typing import Dict, List, Tuple

from runner import PROFILED, TRACED, OpRecord, host_scale, ops_per_s
from spans import HOST_BUCKETS, SpanRecorder, profile_shares

#: Units of metrics derived from host time; every other per-layer metric
#: is an exact count or a ratio of exact counts.
TIME_UNITS = frozenset({"s", "ops/s", "us/event", "Mcycles/s", "share",
                        "x", "MB"})

#: Span names that fall back to the traced set-up when no op calls them.
SETUP_LAYERS = ("workloads.graphgen.build", "workloads.mutator.run")


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _stat(records, *keys: str) -> int:
    return sum(r.counts["stats"].get(k, 0) for r in records for k in keys)


def _requests(records) -> int:
    return sum(v for r in records for k, v in r.counts["stats"].items()
               if k.startswith("mem.requests."))


class _Spans:
    """Span selection by name, op kind and pass; reference-speed times."""

    def __init__(self, recorder: SpanRecorder, records: Dict[int, OpRecord],
                 first_pass: set, setup_scale: float):
        self.spans = recorder.spans
        self.records = records
        self.first_pass = first_pass
        self.dur = [s.duration * (records[s.op].scale if s.op >= 0
                                  else setup_scale) for s in self.spans]
        # Self time: the span minus the time its direct children cover.
        self.own = list(self.dur)
        for i, span in enumerate(self.spans):
            if span.parent >= 0:
                self.own[span.parent] -= self.dur[i]

    def select(self, name: str, kinds=None, first: bool = False) -> List[int]:
        chosen = [
            i for i, s in enumerate(self.spans)
            if s.name == name and s.op >= 0
            and (kinds is None or self.records[s.op].kind in kinds)
            and (not first or s.op in self.first_pass)]
        if not chosen and name in SETUP_LAYERS:
            chosen = [i for i, s in enumerate(self.spans)
                      if s.name == name and s.op < 0]
        return chosen

    def mean_s(self, name: str, kinds=None, own: bool = False) -> float:
        times = self.own if own else self.dur
        return _mean(times[i] for i in self.select(name, kinds))

    def total_s(self, name: str, kinds) -> float:
        return sum(self.dur[i] for i in self.select(name, kinds))

    def count(self, name: str, key: str) -> int:
        return sum(self.spans[i].counts[key]
                   for i in self.select(name, first=True))

    def kinds(self, name: str, kinds: Tuple[str, ...]) -> List[int]:
        return [i for i in self.select(name)
                if self.spans[i].counts["kind"] in kinds]


def traced_metrics(runner, workload, untraced: List[OpRecord],
                   seconds: float) -> Dict[str, Tuple[float, str]]:
    recorder = SpanRecorder()
    runner.recorder = recorder
    recorder.install()
    try:
        setup_scale = host_scale()
        workload.setup()
        traced = runner.run_phase(TRACED, seconds)
    finally:
        recorder.uninstall()
    runner.profiler = cProfile.Profile()
    try:
        profiled = runner.run_phase(PROFILED, 0, max_ops=workload.profile_ops)
    finally:
        shares, calls = profile_shares(pstats.Stats(runner.profiler).stats)
        runner.profiler = None

    first = [r for r in traced if r.pass_index == 0 and not r.problems]
    sp = _Spans(recorder, {r.op_id: r for r in runner.records},
                {r.op_id for r in first}, setup_scale)
    of = {kind: [r for r in first if r.kind == kind]
          for kind in ("sw", "hw", "hw_traced")}
    sw, hw = of["sw"], of["hw"]
    all_sw = [r for r in traced if r.kind == "sw" and not r.problems]
    all_hw = [r for r in traced if r.kind == "hw" and not r.problems]
    m: Dict[str, Tuple[float, str]] = {}

    def per_op(records, key):
        return _mean(r.counts[key] for r in records)

    def hit_ratio(records, prefix):
        hits, misses = _stat(records, prefix + ".hits"), \
            _stat(records, prefix + ".misses")
        return _ratio(hits, hits + misses)

    def miss_ratio(records, prefix):
        return 1.0 - hit_ratio(records, prefix) if records else 0.0

    # -- engine -----------------------------------------------------------
    sw_collect = sp.total_s("swgc.collect", ("sw",))
    hw_collect = sp.total_s("core.mark", ("hw",)) \
        + sp.total_s("core.sweep", ("hw",))
    sw_events = sum(r.counts["events"] for r in all_sw)
    hw_events = sum(r.counts["events"] for r in all_hw)
    sim_cycles = sum(r.counts["mark_cycles"] + r.counts["sweep_cycles"]
                     for r in all_sw + all_hw)
    hw_time = sum(r.ref_seconds for r in untraced if r.kind == "hw")
    traced_hw_time = sum(r.ref_seconds for r in untraced
                         if r.kind == "hw_traced")
    m["engine.events.sw"] = (per_op(sw, "events"), "count/op")
    m["engine.events.hw"] = (per_op(hw, "events"), "count/op")
    m["engine.host_us_per_event.sw"] = (
        1e6 * _ratio(sw_collect, sw_events), "us/event")
    m["engine.host_us_per_event.hw"] = (
        1e6 * _ratio(hw_collect, hw_events), "us/event")
    m["engine.sim_mcycles_per_s"] = (
        _ratio(sim_cycles, sw_collect + hw_collect) / 1e6, "Mcycles/s")
    m["engine.trace.events"] = (per_op(of["hw_traced"], "trace_events"),
                                "count/op")
    m["engine.trace.overhead_ratio"] = (_ratio(traced_hw_time, hw_time), "x")

    # -- memory -----------------------------------------------------------
    for tag, records in (("sw", sw), ("hw", hw)):
        requests = _requests(records)
        m[f"memory.dram.requests.{tag}"] = (
            _ratio(requests, len(records)), "count/op")
        m[f"memory.dram.row_miss_ratio.{tag}"] = (
            _ratio(_stat(records, "dram.activates"), requests), "ratio")
        m[f"memory.dram.bytes.{tag}"] = (_ratio(
            _stat(records, "dram.bytes_read", "dram.bytes_written"),
            len(records)), "bytes/op")
    profiled_requests = _requests([r for r in profiled if "stats" in r.counts])
    m["memory.dram.scans_per_request"] = (
        _ratio(calls["_scan"], profiled_requests), "ratio")
    m["memory.dram.pumps_per_request"] = (
        _ratio(calls["_pump"], profiled_requests), "ratio")
    m["memory.cache.l1d.hit_ratio"] = (hit_ratio(sw, "cache.l1d"), "ratio")
    m["memory.cache.l2.hit_ratio"] = (hit_ratio(sw, "cache.l2"), "ratio")
    m["memory.cache.ptw.hit_ratio"] = (hit_ratio(hw, "cache.ptw_cache"),
                                       "ratio")
    m["memory.tlb.miss_ratio.cpu"] = (miss_ratio(sw, "tlb.cpu.dtlb"), "ratio")
    m["memory.tlb.miss_ratio.marker"] = (miss_ratio(hw, "tlb.marker"),
                                         "ratio")
    m["memory.tlb.miss_ratio.tracer"] = (miss_ratio(hw, "tlb.tracer"),
                                         "ratio")
    m["memory.ptw.walks.sw"] = (_ratio(_stat(sw, "ptw.walks"), len(sw)),
                                "count/op")
    m["memory.ptw.walks.hw"] = (_ratio(_stat(hw, "ptw.walks"), len(hw)),
                                "count/op")

    # -- core (hw ops) and swgc (sw ops) -----------------------------------
    m["core.mark_s"] = (sp.mean_s("core.mark", ("hw",)), "s")
    m["core.sweep_s"] = (sp.mean_s("core.sweep", ("hw",)), "s")
    m["core.mark_cycles"] = (per_op(hw, "mark_cycles"), "cycles/op")
    m["core.sweep_cycles"] = (per_op(hw, "sweep_cycles"), "cycles/op")
    m["core.objects_marked"] = (per_op(hw, "objects_marked"), "count/op")
    m["core.requeue_ratio"] = (_ratio(
        sum(r.counts["requeued"] for r in hw),
        sum(r.counts["objects_marked"] for r in hw)), "ratio")
    m["core.markqueue.spilled_entries"] = (per_op(hw, "spilled_entries"),
                                           "count/op")
    m["core.markbit_cache.hits"] = (per_op(hw, "markbit_hits"), "count/op")
    m["core.tracer.requests"] = (per_op(hw, "tracer_requests"), "count/op")
    m["swgc.collect_s"] = (sp.mean_s("swgc.collect", ("sw",)), "s")
    m["swgc.mark_cycles"] = (per_op(sw, "mark_cycles"), "cycles/op")
    m["swgc.sweep_cycles"] = (per_op(sw, "sweep_cycles"), "cycles/op")
    for name in ("loads", "stores", "mispredicts"):
        m[f"swgc.cpu.{name}"] = (
            _ratio(_stat(sw, f"cpu.cpu.{name}"), len(sw)), "count/op")

    # -- heap and harness -------------------------------------------------
    m["heap.restore_s"] = (sp.mean_s("heap.restore"), "s")
    m["heap.digest_s"] = (sp.mean_s("heap.digest"), "s")
    cache_span = "harness.heapcache.get_or_build"
    graphgen = "workloads.graphgen.build"
    store_s = []
    for i in sp.kinds(cache_span, ("miss",)):
        store_s.append(sp.dur[i] - sum(
            sp.dur[j] for j, s in enumerate(sp.spans)
            if s.parent == i and s.name == graphgen))
    m["harness.heapcache.reconstruct_s"] = (_mean(
        sp.dur[i] for i in sp.kinds(cache_span, ("hit",))), "s")
    m["harness.heapcache.store_s"] = (_mean(store_s), "s")
    m["harness.heapcache.disk_load_s"] = (_mean(
        sp.dur[i] for i in sp.kinds(cache_span, ("disk",))), "s")
    first_cache = [sp.spans[i].counts["kind"]
                   for i in sp.select(cache_span, first=True)]
    m["harness.heapcache.hits"] = (
        sum(k in ("hit", "disk") for k in first_cache), "count/pass")
    m["harness.heapcache.misses"] = (
        sum(k == "miss" for k in first_cache), "count/pass")
    m["harness.heapcache.disk_hits"] = (
        sum(k == "disk" for k in first_cache), "count/pass")
    m["harness.heapcache.bytes_written"] = (
        sum(r.counts.get("bytes_written", 0) for r in first), "bytes/pass")
    m["harness.simcache.read_s"] = (
        sp.mean_s("harness.simcache.run_experiment"), "s")
    m["harness.simcache.hits"] = (
        sp.count("harness.simcache.run_experiment", "hits"), "count/pass")
    m["harness.simcache.misses"] = (
        sp.count("harness.simcache.run_experiment", "misses"), "count/pass")

    # -- workloads and fleet ----------------------------------------------
    n_first = max(1, len(first))
    m["workloads.graphgen.build_s"] = (sp.mean_s(graphgen), "s")
    m["workloads.graphgen.objects"] = (_mean(
        sp.spans[i].counts["objects"]
        for i in sp.select(graphgen, first=True)), "count/build")
    m["workloads.mutator.run_s"] = (sp.mean_s("workloads.mutator.run"), "s")
    replay = "workloads.latency.replay"
    m["workloads.latency.replay_s"] = (sp.mean_s(replay), "s")
    for key in ("arrived", "completed", "shed"):
        m[f"workloads.latency.{key}"] = (sp.count(replay, key) / n_first,
                                         "count/op")
    admission = "fleet.admission.schedule"
    m["fleet.admission.schedule_s"] = (sp.mean_s(admission), "s")
    for key, unit in (("grants", "count/op"), ("failovers", "count/op"),
                      ("retry_wait_cycles", "cycles/op"),
                      ("fallback_tax_cycles", "cycles/op"),
                      ("cancelled", "count/op")):
        m[f"fleet.admission.{key}"] = (sp.count(admission, key) / n_first,
                                       unit)
    m["fleet.report.self_s"] = (
        sp.mean_s("fleet.report.simulate", own=True), "s")

    # -- host profile and the cost of tracing -------------------------------
    for bucket in HOST_BUCKETS:
        m[f"host_share.{bucket}"] = (shares[bucket], "share")
    untraced_rate = ops_per_s(untraced)
    traced_rate = ops_per_s(traced)
    m["bench.untraced_ops_per_s"] = (untraced_rate, "ops/s")
    m["bench.traced_ops_per_s"] = (traced_rate, "ops/s")
    m["bench.tracing_overhead"] = (_ratio(untraced_rate, traced_rate), "x")
    m["bench.wall_ops_per_s"] = (_ratio(
        len(untraced), sum(r.seconds for r in untraced)), "ops/s")
    m["bench.host_scale"] = (
        statistics.median(r.scale for r in untraced + traced), "x")
    return m
