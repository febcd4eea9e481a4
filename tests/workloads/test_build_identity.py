"""Bulk heap build == the per-word build it replaced, byte for byte.

``HeapGraphBuilder.build`` threads fresh blocks with one strided store,
writes each object's metadata as one slice and wires every reference with
one scatter store. This module keeps the per-word carve, allocation,
initialisation and wiring those replaced as a test-side reference, sharing
no allocator, layout or sidecar code with them, and asserts that both
produce identical heaps: checkpoints compared block by block, allocator
state, the ``BuiltHeap`` fields and the RNG state. It also checks
allocation into cells a sweep freed, through direct allocations and one
``MutatorModel`` phase.

Builds go through ``HeapGraphBuilder`` directly, never ``build_heap``, so
an on-disk heap cache cannot satisfy a test.
"""

import dataclasses
import random

import numpy as np
import pytest

from repro.heap.blocks import BLOCK_BYTES
from repro.heap.header import make_header, make_scan_word
from repro.heap.heapimage import ManagedHeap
from repro.heap.layout import ObjectShape
from repro.memory.config import WORD_BYTES
from repro.memory.paging import PAGE_SIZE, VIRT_OFFSET
from repro.workloads.graphgen import BuiltHeap, HeapGraphBuilder
from repro.workloads.mutator import MutatorModel
from repro.workloads.profiles import DACAPO_PROFILES

SEEDS = (1, 7, 23)
SCALES = (0.004, 0.02)


# -- the reference: the pre-bulk per-word build ---------------------------------


def _ref_carve(heap, class_index):
    a = heap.allocator
    base_paddr = a._fresh_cursor
    a._fresh_cursor += BLOCK_BYTES
    cell_bytes = heap.size_classes.classes_words[class_index] * WORD_BYTES
    n_cells = BLOCK_BYTES // cell_bytes
    base_vaddr = base_paddr + VIRT_OFFSET
    for i in range(n_cells):
        next_vaddr = base_vaddr + (i + 1) * cell_bytes if i + 1 < n_cells else 0
        heap.mem.write_word(base_paddr + i * cell_bytes, next_vaddr)
    desc = heap.block_list.append(base_vaddr, cell_bytes, n_cells, base_vaddr)
    a._class_blocks[class_index].append(desc.index)
    a._block_class[desc.index] = class_index


def _ref_pop_cell(heap, class_index):
    blocks = heap.allocator._class_blocks[class_index]
    while blocks:
        head = heap.block_list.freelist_head(blocks[0])
        if head == 0:
            blocks.pop(0)
            continue
        heap.block_list.set_freelist_head(
            blocks[0], heap.mem.read_word(head - VIRT_OFFSET))
        return head
    _ref_carve(heap, class_index)
    return _ref_pop_cell(heap, class_index)


def _ref_initialize(mem, cell_paddr, shape, mark):
    mem.write_word(cell_paddr, make_scan_word(shape.n_refs, shape.is_array))
    for k in range(shape.n_refs):
        mem.write_word(cell_paddr + WORD_BYTES * (1 + k), 0)
    status_paddr = cell_paddr + WORD_BYTES * (1 + shape.n_refs)
    mem.write_word(status_paddr,
                   make_header(shape.n_refs, shape.is_array, mark=mark))
    return status_paddr + VIRT_OFFSET


def _ref_alloc(heap, shape, space="auto"):
    n_words = 2 + shape.n_refs + shape.n_payload_words
    a = heap.allocator
    if space == "auto" and n_words <= heap.size_classes.classes_words[-1]:
        class_index = next(i for i, w in enumerate(
            heap.size_classes.classes_words) if w >= n_words)
        cell_paddr = _ref_pop_cell(heap, class_index) - VIRT_OFFSET
        addr = _ref_initialize(heap.mem, cell_paddr, shape, a.alloc_mark_value)
        a.objects_allocated += 1
        a.bytes_allocated += heap.size_classes.classes_words[class_index] \
            * WORD_BYTES
    else:
        target = {"auto": heap.plan.los, "immortal": heap.plan.immortal}[space]
        nbytes = n_words * WORD_BYTES
        align = PAGE_SIZE if space == "auto" else WORD_BYTES
        if space == "auto":
            nbytes = -(-nbytes // PAGE_SIZE) * PAGE_SIZE
        cell_paddr = target.bump_alloc(nbytes, align=align)
        addr = _ref_initialize(heap.mem, cell_paddr, shape, a.alloc_mark_value)
        if space == "auto":
            heap.los_objects.append(addr)
    heap.objects.append(addr)
    heap._metadata = None
    return addr


def _ref_build(builder):
    """``HeapGraphBuilder.build`` as it was: one store per reference."""
    rng = random.Random(builder.seed)
    p = builder.profile
    n = p.scaled_objects(builder.scale)
    heap = ManagedHeap(config=builder._default_config(n))
    n_refs = {}

    def alloc(shape, space="auto"):
        addr = _ref_alloc(heap, shape, space)
        n_refs[addr] = shape.n_refs
        return addr

    def set_ref(addr, i, target):
        heap.mem.write_word(addr - VIRT_OFFSET - WORD_BYTES * (n_refs[addr] - i),
                            target)

    objs = [alloc(builder._sample_shape(rng)) for _ in range(n)]
    for _ in range(max(0, int(n * p.los_fraction))):
        refs = rng.randint(*builder._LOS_REFS_RANGE)
        objs.append(alloc(ObjectShape(refs, 2, is_array=True)))
    statics = [alloc(ObjectShape(rng.randint(2, 4), 1), "immortal")
               for _ in range(max(4, n // 500))]
    indices = list(range(len(objs)))
    rng.shuffle(indices)
    n_live = max(1, int(len(objs) * p.live_fraction))
    live = [objs[i] for i in indices[:n_live]]
    garbage = [objs[i] for i in indices[n_live:]]
    hot = live[:p.hot_objects]
    roots = list(statics)
    extra_roots = max(8, int(n_live * p.root_fraction))
    free = [(s, i) for s in statics for i in range(n_refs[s])]
    for v in live:
        if free:
            if rng.random() < 0.5 and len(free) > 32:
                k = rng.randrange(len(free) - 32, len(free))
            else:
                k = rng.randrange(len(free))
            set_ref(*free.pop(k), v)
        else:
            roots.append(v)
        free.extend((v, i) for i in range(n_refs[v]))
    for _ in range(extra_roots):
        roots.append(rng.choice(live))
    current_hot = rng.choice(hot) if hot else 0
    for parent, i in free:
        r = rng.random()
        if r < p.null_ref_fraction:
            continue
        if r < p.null_ref_fraction + p.hot_ref_fraction and hot:
            if rng.random() < 0.2:
                current_hot = rng.choice(hot)
            set_ref(parent, i, current_hot)
        else:
            set_ref(parent, i, rng.choice(live))
    for idx, v in enumerate(garbage):
        for i in range(n_refs[v]):
            r = rng.random()
            if r < p.null_ref_fraction:
                continue
            if r < 0.6 and idx > 0:
                set_ref(v, i, garbage[rng.randrange(idx)])
            else:
                set_ref(v, i, rng.choice(garbage))
    heap.set_roots(roots)
    return BuiltHeap(heap=heap, profile=p, scale=builder.scale,
                     seed=builder.seed, live=set(live) | set(statics),
                     garbage=set(garbage), hot=hot, roots=roots, rng=rng)


# -- comparison -------------------------------------------------------------------


def _assert_same_heap(a, b):
    """Checkpoints equal, image block by block, plus the cursors, counters,
    object lists and class tables the checkpoint carries."""
    cp_a, cp_b = a.checkpoint(), b.checkpoint()
    assert cp_a.image.n_words == cp_b.image.n_words
    assert sorted(cp_a.image.blocks) == sorted(cp_b.image.blocks)
    for block, data in cp_a.image.blocks.items():
        assert np.array_equal(data, cp_b.image.blocks[block]), block
    for fld in dataclasses.fields(cp_a):
        if fld.name != "image":
            assert getattr(cp_a, fld.name) == getattr(cp_b, fld.name), fld.name
    assert a.block_list.count == b.block_list.count


def _assert_same_built(a, b):
    _assert_same_heap(a.heap, b.heap)
    for fld in ("live", "garbage", "hot", "roots", "scale", "seed"):
        assert getattr(a, fld) == getattr(b, fld), fld
    assert a.rng.getstate() == b.rng.getstate()


# -- tests --------------------------------------------------------------------------


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(DACAPO_PROFILES))
def test_build_matches_per_word_reference(name, seed, scale):
    builder = HeapGraphBuilder(DACAPO_PROFILES[name], scale=scale, seed=seed)
    _assert_same_built(builder.build(), _ref_build(builder))


def _swept_twins(name="lusearch", scale=0.006, seed=5):
    """Two heaps restored from one checkpoint taken after a collection."""
    built = HeapGraphBuilder(DACAPO_PROFILES[name], scale=scale,
                             seed=seed).build()
    MutatorModel(built).collect_once()
    checkpoint = built.heap.checkpoint()
    twins = []
    for _ in range(2):
        heap = ManagedHeap(config=built.heap.memsys.config)
        heap.restore(checkpoint)
        twins.append(dataclasses.replace(built, heap=heap,
                                         rng=random.Random(seed)))
    return built, twins


def test_post_sweep_allocation_matches_reference():
    built, (new, ref) = _swept_twins()
    fresh_cursor = built.heap.allocator._fresh_cursor
    builder = HeapGraphBuilder(built.profile, built.scale, built.seed)
    rng = random.Random(11)
    addrs = []
    for k in range(600):
        shape = builder._sample_shape(rng)
        space = "immortal" if k % 97 == 0 else "auto"
        if k % 151 == 0:
            shape = ObjectShape(200, 2, is_array=True)  # large-object space
        addrs.append(new.heap.alloc(shape, space))
        assert _ref_alloc(ref.heap, shape, space) == addrs[-1]
    # The sequence really reused swept cells (below the fresh cursor).
    ms = built.heap.plan.marksweep
    reused = [a for a in addrs
              if ms.contains(a - VIRT_OFFSET) and a - VIRT_OFFSET < fresh_cursor]
    assert len(reused) > 100
    _assert_same_heap(new.heap, ref.heap)
    new.heap.check_free_lists()


def test_mutator_phase_matches_reference():
    _built, (new, ref) = _swept_twins(name="pmd")
    ref.heap.alloc = lambda shape, space="auto": _ref_alloc(ref.heap, shape,
                                                             space)
    a, b = MutatorModel(new, seed=3), MutatorModel(ref, seed=3)
    assert a.mutate_phase() == b.mutate_phase() > 0
    _assert_same_heap(new.heap, ref.heap)
    assert a.rng.getstate() == b.rng.getstate()
    assert new.heap.roots.read_all() == ref.heap.roots.read_all()
