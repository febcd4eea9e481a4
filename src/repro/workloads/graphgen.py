"""Synthetic object-graph generator.

Builds a heap whose *statistics* match a :class:`~repro.workloads.profiles.
BenchmarkProfile`: object size and fan-out distributions, array fraction,
live fraction at collection time, root counts, immortal/static objects,
large-object-space allocations, and the hot-object sharing skew behind
Fig. 21a.

Construction guarantees:

* exactly the requested live objects are reachable from the roots (live
  objects never reference garbage);
* garbage has internal structure (garbage subgraphs reference each other
  and may reference live objects — back-references are legal and common);
* a small hot set receives a configured fraction of all cross-references,
  so repeated mark attempts concentrate on few objects as in the paper.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.heap.heapimage import ManagedHeap
from repro.heap.layout import ObjectShape
from repro.memory.config import MemorySystemConfig
from repro.workloads.profiles import BenchmarkProfile


@dataclass
class BuiltHeap:
    """A generated heap plus the ground-truth sets used by tests/figures."""

    heap: ManagedHeap
    profile: BenchmarkProfile
    scale: float
    seed: int
    live: Set[int]  # object addrs intended reachable
    garbage: Set[int]  # MarkSweep-space addrs intended unreachable
    hot: List[int]  # the hot shared objects (subset of live)
    roots: List[int]
    rng: random.Random = field(repr=False, default=None)

    @property
    def n_objects(self) -> int:
        return len(self.live) + len(self.garbage)

    def incoming_access_counts(self) -> Dict[int, int]:
        """Mark-accesses per object in one full traversal: one per root
        occurrence plus one per reference held by a live object. This is the
        quantity histogrammed in Fig. 21a."""
        counts: Dict[int, int] = {}
        for root in self.roots:
            counts[root] = counts.get(root, 0) + 1
        for addr in self.live:
            for ref in self.heap.view(addr).refs():
                counts[ref] = counts.get(ref, 0) + 1
        return counts


class HeapGraphBuilder:
    """Generates a heap for one benchmark profile."""

    # Reference-count cap for MarkSweep-space objects (largest size class
    # holds 256 words: scan + status + refs + payload).
    _MAX_MS_REFS = 128
    _LOS_REFS_RANGE = (128, 480)

    def __init__(
        self,
        profile: BenchmarkProfile,
        scale: float = 0.1,
        seed: int = 0,
        config: Optional[MemorySystemConfig] = None,
    ):
        self.profile = profile
        self.scale = scale
        self.seed = seed
        self.config = config

    # -- distribution helpers -------------------------------------------------

    @staticmethod
    def _geometric(rng: random.Random, mean: float) -> int:
        """Geometric-ish non-negative integer with the given mean."""
        if mean <= 0:
            return 0
        return min(int(rng.expovariate(1.0 / mean)), int(mean * 8) + 1)

    def _sample_shape(self, rng: random.Random) -> ObjectShape:
        p = self.profile
        if rng.random() < p.array_fraction:
            n_refs = max(1, self._geometric(rng, p.mean_array_refs))
            n_refs = min(n_refs, self._MAX_MS_REFS)
            return ObjectShape(n_refs=n_refs, n_payload_words=1, is_array=True)
        n_refs = min(self._geometric(rng, p.mean_refs), 12)
        payload = self._geometric(rng, p.mean_payload_words)
        return ObjectShape(n_refs=n_refs, n_payload_words=payload)

    # -- construction -------------------------------------------------------------

    def build(self, heap: Optional[ManagedHeap] = None) -> BuiltHeap:
        rng = random.Random(self.seed)
        p = self.profile
        n = p.scaled_objects(self.scale)
        if heap is None:
            heap = ManagedHeap(config=self.config or self._default_config(n))

        # 1. Allocate MarkSweep-space objects.
        alloc = heap.alloc
        objects = [alloc(self._sample_shape(rng)) for _ in range(n)]

        # 2. Large-object-space arrays.
        n_los = max(0, int(n * p.los_fraction))
        for _ in range(n_los):
            refs = rng.randint(*self._LOS_REFS_RANGE)
            objects.append(alloc(ObjectShape(refs, 2, is_array=True)))

        # 3. Immortal statics (always roots: "static variables", Fig. 2).
        n_statics = max(4, n // 500)
        statics = [alloc(ObjectShape(rng.randint(2, 4), 1), space="immortal")
                   for _ in range(n_statics)]

        # Allocation is complete. The wiring below works on reference-slot
        # word indices from the SoA layout sidecar and collects every
        # store as an (index, value) pair; one scatter writes them all.
        meta = heap.metadata()
        slot_of = meta.index
        n_refs = meta.n_refs
        ref_base = meta.ref_base_index

        def ref_slots(addr: int) -> range:
            i = slot_of[addr]
            return range(ref_base[i], ref_base[i] + n_refs[i])

        # Typed columns: a list would hold a boxed int per entry, over a
        # megabyte of peak memory for a scale-0.02 heap.
        store_at = array("q")
        store_value = array("Q")
        add_index = store_at.append
        add_value = store_value.append

        # 4. Partition into live / garbage.
        indices = list(range(len(objects)))
        rng.shuffle(indices)
        n_live = max(1, int(len(objects) * p.live_fraction))
        live = [objects[i] for i in indices[:n_live]]
        garbage = [objects[i] for i in indices[n_live:]]

        hot = live[: p.hot_objects]

        # 5. Spanning structure over the live set.
        roots = list(statics)
        extra_roots = max(8, int(n_live * p.root_fraction))
        free_slots: List[int] = []
        for addr in statics:
            free_slots.extend(ref_slots(addr))
        for addr in live:
            if free_slots:
                # Mix of uniform and recency-biased parents: shallow
                # BFS-like fan-out plus deep chains, like real heaps.
                if rng.random() < 0.5 and len(free_slots) > 32:
                    slot_i = rng.randrange(len(free_slots) - 32,
                                           len(free_slots))
                else:
                    slot_i = rng.randrange(len(free_slots))
                add_index(free_slots.pop(slot_i))
                add_value(addr)
            else:
                roots.append(addr)
            free_slots.extend(ref_slots(addr))

        # 6. Extra roots straight into the live set.
        for _ in range(extra_roots):
            roots.append(rng.choice(live))

        # 7. Fill remaining live slots: nulls, hot refs, or random live refs.
        # Hot references are *bursty*: objects created around the same time
        # tend to share the same hot target (a common class, table or
        # registry object), which is what makes a small recently-marked
        # cache effective (Fig. 21b).
        current_hot = rng.choice(hot) if hot else 0
        for word in free_slots:
            r = rng.random()
            if r < p.null_ref_fraction:
                continue  # stays null
            add_index(word)
            if r < p.null_ref_fraction + p.hot_ref_fraction and hot:
                if rng.random() < 0.2:
                    current_hot = rng.choice(hot)
                add_value(current_hot)
            else:
                add_value(rng.choice(live))

        # 8. Garbage structure: spanning chains among garbage plus
        # references into the live set (legal; never marked).
        for idx, addr in enumerate(garbage):
            for word in ref_slots(addr):
                r = rng.random()
                if r < p.null_ref_fraction:
                    continue
                add_index(word)
                if r < 0.6 and idx > 0:
                    add_value(garbage[rng.randrange(idx)])
                else:
                    add_value(rng.choice(garbage))

        heap.mem.scatter(store_at, store_value)
        heap.set_roots(roots)

        built = BuiltHeap(
            heap=heap,
            profile=p,
            scale=self.scale,
            seed=self.seed,
            live=set(live).union(statics),
            garbage=set(garbage),
            hot=hot,
            roots=roots,
            rng=rng,
        )
        self._verify(built)
        return built

    def _default_config(self, n_objects: int) -> MemorySystemConfig:
        """Size physical memory generously for the object count."""
        # Mean cell ~96B, plus LOS pages, x4 headroom for mutator phases.
        need = max(64, (n_objects * 96 * 4) // (1024 * 1024) + 32)
        size = 1
        while size < need:
            size *= 2
        return MemorySystemConfig(total_bytes=size * 1024 * 1024)

    def _verify(self, built: BuiltHeap) -> None:
        """Reachability must match the intended live set exactly."""
        reachable = built.heap.reachable()
        if reachable != built.live:
            missing = built.live - reachable
            extra = reachable - built.live
            raise AssertionError(
                f"graph generation broke reachability: {len(missing)} live "
                f"objects unreachable, {len(extra)} garbage reachable"
            )
