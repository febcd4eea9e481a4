"""The benchmark's three closed-loop workloads and their per-op oracles.

Each workload is one client issuing ops back to back in one process. A
workload exposes:

* ``setup()``: idempotent, starts from empty caches every time, and is
  what ``setup_s`` times;
* ``ops(phase, pass_index)``: one *pass*, the fixed op list a run repeats
  whole (so every run measures the same mix);
* ``prepare(op)`` (untimed), ``run(op)`` (the timed op) and
  ``check(op, result)`` (untimed oracle): ``check`` returns the problems
  it found, the op's exact work counts, and the value pinned for the op.

Oracles share no code with what they check: the BFS over the memory image
(``ManagedHeap.reachable``) and ``HeapVerifier`` for collections, the
conservation law recomputed from the replay counters for the fleet, and
``heap_digest`` plus the cold result for the stores. See ``NOTES.md``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.core.unit import GCUnit
from repro.fleet import report as fleet_report
from repro.fleet import timeline as fleet_timeline
from repro.fleet.admission import POLICIES
from repro.fleet.faults import DEFAULT_RESILIENCE_ROSTERS, FleetFaultSpec
from repro.fleet.spec import FleetSpec
from repro.harness import heapcache, runners, simcache, tracing
from repro.heap import verify
from repro.swgc.marksweep import SoftwareCollector
from repro.workloads.profiles import BENCHMARK_ORDER, DACAPO_PROFILES

#: Heap scale of ``stw_gc`` and ``heap_store``: ~0.3 MB heaps, just above
#: the modelled 256 KB L2.
HEAP_SCALE = 0.02


@dataclass
class Op:
    kind: str
    #: Identifies the op's inputs within a run: ops with one key must give
    #: one pinned value, and at the default seed it indexes ``pins.json``.
    key: str
    params: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Outcome:
    problems: List[str]
    counts: Dict[str, Any]
    pin: Any = None


class Workload:
    """What ``runner.Runner`` drives; see the module docstring."""

    name: str
    #: Whether ``pins.json`` holds this workload's results at the default
    #: seed.
    pinned = False
    #: How many ops of a pass run under ``cProfile`` in a traced run.
    profile_ops: int

    def close(self) -> None:
        """Undo anything the workload changed in the program's modules."""


def _clear(directory: Path) -> None:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)


def _disk_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.iterdir() if p.is_file())


class StwGC(Workload):
    """One stop-the-world collection per op, as the figure pipeline runs it.

    Six profiles x {sw, hw, hw_traced} at ``HEAP_SCALE``. ``build_heap``
    is an in-process cache hit returning a fresh heap with a cold memory
    system; the op restores the checkpoint and collects.
    """

    name = "stw_gc"
    pinned = True
    profile_ops = 3  # one profile's sw, hw and hw_traced under cProfile
    KINDS = ("sw", "hw", "hw_traced")

    def __init__(self, seed: int, tmp: Path):
        self.heap_seed = seed
        self.heap_dir = Path(tmp) / "heaps"
        self.live: Dict[str, set] = {}
        self.hw_ref: Dict[str, tuple] = {}
        self.last_heap = None
        self._misses = 0
        # ``trace_collection`` builds its heap internally; this shim keeps
        # a reference to the heap ``build_heap`` hands out so the oracle
        # can check it. It adds one Python call per op, on every path.
        self._build_heap = runners.build_heap

        def capturing(*args, **kwargs):
            built = self._build_heap(*args, **kwargs)
            self.last_heap = built[0].heap
            return built

        runners.build_heap = capturing

    def close(self) -> None:
        runners.build_heap = self._build_heap

    def setup(self) -> None:
        heapcache.reset_cache()
        _clear(self.heap_dir)
        for name in BENCHMARK_ORDER:
            built, _checkpoint = runners.build_heap(
                DACAPO_PROFILES[name], scale=HEAP_SCALE, seed=self.heap_seed)
            self.live[name] = built.heap.reachable()
            del built, _checkpoint
            gc.collect()  # one dead heap at a time: a steady peak RSS

    def ops(self, phase: int, pass_index: int) -> List[Op]:
        return [Op(kind, f"{name}/{kind}", {"profile": name})
                for name in BENCHMARK_ORDER for kind in self.KINDS]

    def prepare(self, op: Op) -> None:
        self.last_heap = None
        self._misses = heapcache.get_cache().misses

    def run(self, op: Op) -> Any:
        name = op.params["profile"]
        if op.kind == "hw_traced":
            return tracing.trace_collection(name, scale=HEAP_SCALE,
                                            seed=self.heap_seed,
                                            collectors="hw")
        built, checkpoint = runners.build_heap(
            DACAPO_PROFILES[name], scale=HEAP_SCALE, seed=self.heap_seed)
        heap = built.heap
        heap.restore(checkpoint)
        if op.kind == "sw":
            return SoftwareCollector(heap).collect()
        unit = GCUnit(heap)
        return unit, unit.mark(), unit.sweep()

    def check(self, op: Op, result: Any) -> Outcome:
        name = op.params["profile"]
        problems: List[str] = []
        misses = heapcache.get_cache().misses - self._misses
        if misses:
            problems.append(f"{misses} heap build-cache miss(es) inside a "
                            "timed op: the heap was rebuilt")
        heap = self.last_heap
        counts: Dict[str, Any] = {}
        if op.kind == "sw":
            marked = result.objects_marked
            cycles = (result.mark_cycles, result.sweep_cycles)
        elif op.kind == "hw":
            unit, mark, sweep = result
            hw = unit.collect_result(mark, sweep)
            marked = hw.objects_marked
            cycles = (mark, sweep)
            counts.update(requeued=hw.objects_requeued,
                          spilled_entries=hw.spilled_entries,
                          markbit_hits=hw.markbit_cache_hits,
                          tracer_requests=hw.counters["tracer_requests"])
        else:
            phase = result.phase_cycles["hw"]
            cycles = (phase["hw.mark"], phase["hw.sweep"])
            marked = None
            counts["trace_events"] = len(result.bus)
        counts.update(events=heap.sim.events_processed,
                      mark_cycles=cycles[0], sweep_cycles=cycles[1],
                      stats=heap.memsys.stats.as_dict())
        live = self.live[name]
        report = verify.HeapVerifier(heap).full_check(live=live)
        if not report.ok:
            errors = (report.mark_errors + report.sweep_errors
                      + report.freelist_errors)
            problems.append(f"heap check failed ({len(errors)} problems): "
                            + "; ".join(errors[:3]))
        if marked is not None:
            counts["objects_marked"] = marked
            if marked != len(live):
                problems.append(f"{op.kind} marked {marked} objects, the "
                                f"reachable set holds {len(live)}")
        if op.kind == "hw":
            self.hw_ref[name] = (cycles, counts["events"], counts["stats"])
            pin = [*cycles, counts["events"], marked]
        elif op.kind == "sw":
            pin = [*cycles, counts["events"], marked]
        else:
            # Tracing must not perturb the simulation: the traced op
            # repeats the untraced hw op of this pass exactly.
            if (cycles, counts["events"], counts["stats"]) \
                    != self.hw_ref.get(name):
                problems.append("traced hw collection differs from the "
                                "untraced one (cycles, events or stats)")
            pin = [*cycles, counts["events"], result.digest[:16]]
        return Outcome(problems, counts, pin)


#: ``fleet_sweep`` scenarios: (label, n_units, dram_tax, fault spec).
FLEET_SCENARIOS: Tuple[Tuple[str, int, float, str], ...] = tuple(
    (f"units{units}-tax{tax}", units, tax, "")
    for units in (1, 2, 3) for tax in (0.25, 0.5)
) + tuple((f"roster:{label}", 3, 0.25, spec)
          for label, spec in DEFAULT_RESILIENCE_ROSTERS)

FLEET_TENANTS = 6
FLEET_QUERIES = 20_000


class FleetSweep(Workload):
    """One ``simulate_fleet`` call per op, all three policies."""

    name = "fleet_sweep"
    pinned = True
    profile_ops = len(FLEET_SCENARIOS)

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.heap_dir = Path(tmp) / "heaps"
        self._faults = None

    def spec(self, units: int = 1, tax: float = 0.25) -> FleetSpec:
        return FleetSpec(n_tenants=FLEET_TENANTS, n_queries=FLEET_QUERIES,
                         seed=self.seed, n_units=units, dram_tax=tax)

    def setup(self) -> None:
        """Fill the base-run library, so no op runs a ``MutatorModel``."""
        fleet_timeline.reset_base_cache()
        heapcache.reset_cache()
        _clear(self.heap_dir)
        spec = self.spec()
        for benchmark in sorted({t.benchmark for t in spec.tenants()}):
            for collector in ("hw", "sw"):
                fleet_timeline.base_run(benchmark, collector, spec.scale,
                                        spec.seed, spec.n_gcs)
                gc.collect()  # one dead heap at a time: a steady peak RSS

    def ops(self, phase: int, pass_index: int) -> List[Op]:
        return [Op("scenario", label, {"units": units, "tax": tax,
                                       "faults": faults})
                for label, units, tax, faults in FLEET_SCENARIOS]

    def prepare(self, op: Op) -> None:
        faults = op.params["faults"]
        self._faults = FleetFaultSpec.parse(faults) if faults else None

    def run(self, op: Op) -> Any:
        return fleet_report.simulate_fleet(
            self.spec(op.params["units"], op.params["tax"]),
            policies=POLICIES, faults=self._faults)

    def check(self, op: Op, result: Any) -> Outcome:
        problems: List[str] = []
        reports = [result.reports[(t, policy)]
                   for t in result.tenant_indices for policy in POLICIES]
        for r in reports:
            replay = r.replay
            if replay.arrived != replay.completed + replay.in_flight \
                    + replay.shed:
                problems.append(f"tenant {r.tenant.index} under {r.policy} "
                                "broke arrived == completed + in_flight + "
                                "shed")
        for policy in POLICIES:
            arrived = sum(r.replay.arrived for r in reports
                          if r.policy == policy)
            if arrived != FLEET_QUERIES:
                problems.append(f"{policy}: {arrived} queries arrived, "
                                f"{FLEET_QUERIES} were sent")
        degraded = [[r.availability, r.failovers, r.retry_wait_ms,
                     r.fallback_tax_ms, r.cancelled] for r in reports]
        payload = json.dumps([result.rows(), result.summary_rows(), degraded])
        return Outcome(problems, {},
                       hashlib.sha256(payload.encode()).hexdigest()[:16])


#: Pre-simulated figure cells that ``heap_store``'s ``cell`` ops read back.
STORE_CELLS: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("fig15", {"scale": 0.01, "benchmarks": ["avrora"]}),
    ("fig15", {"scale": 0.01, "benchmarks": ["lusearch"]}),
    ("fig20", {"scale": 0.01, "benchmarks": ["pmd"]}),
)


class HeapStore(Workload):
    """Writes and reads of the heap cache's disk layer, and sim-cache reads.

    A pass is, per profile: ``build`` (a cold ``HeapGraphBuilder`` build of
    a new (profile, seed) stored to disk), ``load`` (a fresh in-process
    cache reading that entry back) and ``cell`` (a sim-cache hit).
    """

    name = "heap_store"
    profile_ops = 3 * len(BENCHMARK_ORDER)

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.heap_dir = Path(tmp) / "heaps"
        self.sim_dir = Path(tmp) / "simcache"
        self.cold: List[Tuple[list, list]] = []
        self.built_digest: Dict[Tuple[str, int], str] = {}
        self._cache_before: Dict[str, int] = {}
        self._disk_before = 0

    def setup(self) -> None:
        heapcache.reset_cache()
        simcache.reset_code_fingerprint()
        _clear(self.heap_dir)
        _clear(self.sim_dir)
        self.cold = []
        for exp_id, kwargs in STORE_CELLS:
            result, _acct = simcache.run_experiment(
                exp_id, dict(kwargs, seed=self.seed))
            self.cold.append((list(result.headers), result.rows))
            gc.collect()  # one dead heap at a time: a steady peak RSS

    def ops(self, phase: int, pass_index: int) -> List[Op]:
        # A heap seed no earlier op of this run has used.
        base = (self.seed * 1_000 + phase) * 100_000 \
            + pass_index * len(BENCHMARK_ORDER)
        out = []
        for slot, name in enumerate(BENCHMARK_ORDER):
            params = {"profile": name, "heap_seed": base + slot}
            out.append(Op("build", f"{name}/build", params))
            out.append(Op("load", f"{name}/load", params))
            out.append(Op("cell", "cell", {"cell": slot % len(STORE_CELLS)}))
        return out

    def prepare(self, op: Op) -> None:
        if op.kind == "load":
            heapcache.reset_cache()
        self._cache_before = heapcache.get_cache().stats
        self._disk_before = _disk_bytes(self.heap_dir)

    def run(self, op: Op) -> Any:
        if op.kind == "cell":
            exp_id, kwargs = STORE_CELLS[op.params["cell"]]
            return simcache.run_experiment(exp_id,
                                           dict(kwargs, seed=self.seed))
        return runners.build_heap(DACAPO_PROFILES[op.params["profile"]],
                                  scale=HEAP_SCALE,
                                  seed=op.params["heap_seed"])

    def check(self, op: Op, result: Any) -> Outcome:
        problems: List[str] = []
        if op.kind == "cell":
            experiment, acct = result
            headers, rows = self.cold[op.params["cell"]]
            if acct.misses or not acct.hits:
                problems.append(f"sim cache: {acct.hits} hits, "
                                f"{acct.misses} misses on a stored cell")
            if list(experiment.headers) != headers or experiment.rows != rows:
                problems.append("sim-cache cell differs from its cold result")
            return Outcome(problems, {})
        after = heapcache.get_cache().stats
        delta = {k: after[k] - self._cache_before[k]
                 for k in ("hits", "misses", "disk_hits")}
        counts: Dict[str, Any] = {
            "bytes_written": _disk_bytes(self.heap_dir) - self._disk_before}
        built = result[0]
        key = (op.params["profile"], op.params["heap_seed"])
        digest = verify.heap_digest(built.heap)
        if op.kind == "build":
            if delta["misses"] != 1 or counts["bytes_written"] <= 0:
                problems.append(f"build was not a stored cold build: "
                                f"{delta}, {counts['bytes_written']} bytes")
            self.built_digest[key] = digest
        else:
            if delta["disk_hits"] != 1 or delta["misses"]:
                problems.append(f"load was not a disk read: {delta}")
            if digest != self.built_digest.pop(key, None):
                problems.append("loaded heap digest differs from the build "
                                "it came from")
        return Outcome(problems, counts)


WORKLOADS = {cls.name: cls for cls in (StwGC, FleetSweep, HeapStore)}
