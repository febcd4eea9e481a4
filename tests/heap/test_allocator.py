"""Segregated free-list allocator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.heap.allocator import OutOfMemoryError, SegregatedFreeListAllocator
from repro.heap.blocks import BLOCK_BYTES, BlockList
from repro.heap.heapimage import ManagedHeap
from repro.heap.layout import ObjectShape
from repro.memory.config import MemorySystemConfig
from repro.memory.memimage import PhysicalMemory

VIRT = 0x4000_0000


def make_allocator(space_bytes=BLOCK_BYTES * 8):
    mem = PhysicalMemory(space_bytes + 1024 * 1024)
    block_list = BlockList(mem, (4096, 256 * 1024))
    alloc = SegregatedFreeListAllocator(
        mem, block_list, 256 * 1024, 256 * 1024 + space_bytes, VIRT
    )
    return mem, alloc


class TestAllocation:
    def test_alloc_returns_status_word_vaddr(self):
        mem, alloc = make_allocator()
        addr = alloc.alloc(ObjectShape(n_refs=2, n_payload_words=1))
        paddr = alloc.to_physical(addr)
        # The word at the returned address is a valid live status word.
        assert mem.read_word(paddr) & 1

    def test_same_class_objects_pack_one_block(self):
        _mem, alloc = make_allocator()
        shape = ObjectShape(2, 1)  # 5 words -> 8-word class
        cells_per_block = BLOCK_BYTES // 64
        for _ in range(cells_per_block):
            alloc.alloc(shape)
        assert alloc.blocks_in_use == 1
        alloc.alloc(shape)
        assert alloc.blocks_in_use == 2

    def test_distinct_classes_use_distinct_blocks(self):
        _mem, alloc = make_allocator()
        alloc.alloc(ObjectShape(1, 0))  # small class
        alloc.alloc(ObjectShape(50, 50))  # big class
        assert alloc.blocks_in_use == 2

    def test_fresh_block_free_list_is_threaded(self):
        _mem, alloc = make_allocator()
        alloc.alloc(ObjectShape(1, 0))
        assert alloc.free_cells() == BLOCK_BYTES // (4 * 8) - 1

    def test_out_of_memory(self):
        _mem, alloc = make_allocator(space_bytes=BLOCK_BYTES)
        shape = ObjectShape(100, 100)  # 256-word cells: 4 per block
        for _ in range(4):
            alloc.alloc(shape)
        with pytest.raises(OutOfMemoryError):
            alloc.alloc(shape)

    def test_counters(self):
        _mem, alloc = make_allocator()
        alloc.alloc(ObjectShape(1, 0))
        alloc.alloc(ObjectShape(1, 0))
        assert alloc.objects_allocated == 2
        assert alloc.bytes_allocated == 2 * 32

    @given(shapes=st.lists(
        st.tuples(st.integers(0, 10), st.integers(0, 20), st.booleans()),
        min_size=1, max_size=120,
    ))
    @settings(max_examples=30, deadline=None)
    def test_no_two_objects_overlap(self, shapes):
        """Property: allocated cells never overlap and stay class-aligned."""
        _mem, alloc = make_allocator(space_bytes=BLOCK_BYTES * 40)
        spans = []
        for n_refs, payload, is_array in shapes:
            shape = ObjectShape(max(n_refs, 1) if is_array else n_refs,
                                payload, is_array)
            addr = alloc.alloc(shape)
            words = 2 + shape.n_refs + shape.n_payload_words
            cell_start = addr - 8 * (1 + shape.n_refs)
            spans.append((cell_start, cell_start + words * 8))
        spans.sort()
        for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
            assert e1 <= s2, "cells overlap"


class TestReuseAfterSweep:
    def test_allocator_reuses_swept_cells(self):
        """After a GC frees cells, allocation consumes them before carving
        fresh blocks (the paper's free-list handoff, §IV-C)."""
        heap = ManagedHeap(config=MemorySystemConfig(total_bytes=32 * 1024 * 1024))
        from repro.swgc import SoftwareCollector
        views = [heap.new_object(1, 1) for _ in range(600)]
        heap.set_roots([views[0].addr])  # everything else is garbage
        blocks_before = heap.allocator.blocks_in_use
        SoftwareCollector(heap).collect()
        heap.complete_gc_cycle()
        for _ in range(500):
            heap.new_object(1, 1)
        assert heap.allocator.blocks_in_use == blocks_before

    def test_refresh_free_lists_rescans_blocks(self):
        _mem, alloc = make_allocator()
        alloc.alloc(ObjectShape(1, 0))
        alloc.refresh_free_lists()
        # Block rediscovered with its remaining free cells.
        assert alloc.free_cells() > 0
        addr = alloc.alloc(ObjectShape(1, 0))
        assert addr != 0


class TestRejectedAlloc:
    """A rejected allocation changes nothing: no cell leaves a free list,
    no counter moves and no object is tracked."""

    @staticmethod
    def _state(heap):
        a = heap.allocator
        heads = [heap.block_list.freelist_head(i)
                 for i in range(len(heap.block_list))]
        return (heap.check_free_lists(), heads, a._fresh_cursor,
                a.objects_allocated, a.bytes_allocated, list(heap.objects),
                list(heap.los_objects), [s.cursor for s in heap.plan])

    @pytest.fixture
    def heap(self):
        heap = ManagedHeap(config=MemorySystemConfig(
            total_bytes=32 * 1024 * 1024))
        heap.alloc(ObjectShape(1, 0))  # one block with free cells left
        return heap

    @pytest.mark.parametrize("space", ["auto", "immortal"])
    def test_invalid_shape_leaks_no_cell(self, heap, space):
        # A shape that skipped ObjectShape's checks: alloc(ObjectShape(-3, 0))
        # used to pop a cell and then raise from make_scan_word.
        bad = tuple.__new__(ObjectShape, (-3, 0, False))
        before = self._state(heap)
        with pytest.raises(ValueError, match="reference count"):
            heap.alloc(bad, space)
        assert self._state(heap) == before

    def test_bad_mark_value_leaks_no_cell(self, heap):
        heap.allocator.alloc_mark_value = 2
        before = self._state(heap)
        with pytest.raises(ValueError, match="mark"):
            heap.alloc(ObjectShape(1, 0))
        assert self._state(heap) == before

    def test_unknown_space_leaks_nothing(self, heap):
        before = self._state(heap)
        with pytest.raises(ValueError, match="unknown space"):
            heap.alloc(ObjectShape(1, 0), space="stack")
        assert self._state(heap) == before

    def test_oversized_direct_alloc_leaks_no_cell(self, heap):
        before = self._state(heap)
        with pytest.raises(ValueError, match="large object space"):
            heap.allocator.alloc(ObjectShape(300, 0))
        assert self._state(heap) == before

    def test_out_of_memory_leaks_no_cell(self):
        mem, alloc = make_allocator(space_bytes=BLOCK_BYTES)
        shape = ObjectShape(100, 100)  # 256-word cells: 4 per block
        for _ in range(4):
            alloc.alloc(shape)
        counters = (alloc.objects_allocated, alloc.bytes_allocated,
                    alloc._fresh_cursor, alloc.free_cells())
        with pytest.raises(OutOfMemoryError):
            alloc.alloc(shape)
        assert (alloc.objects_allocated, alloc.bytes_allocated,
                alloc._fresh_cursor, alloc.free_cells()) == counters


class TestCarve:
    @pytest.mark.parametrize("class_index", range(7))
    def test_fresh_block_is_threaded_cell_by_cell(self, class_index):
        mem, alloc = make_allocator()
        alloc._carve_block(class_index)
        cell_bytes = alloc.size_classes.cell_bytes(class_index)
        n_cells = BLOCK_BYTES // cell_bytes
        base = 256 * 1024
        links = [mem.read_word(base + i * cell_bytes) for i in range(n_cells)]
        assert links == [VIRT + base + (i + 1) * cell_bytes
                         for i in range(n_cells - 1)] + [0]
        # Nothing but the links was written.
        block = mem.read_words(base, BLOCK_BYTES // 8)
        assert sum(1 for w in block if w) == n_cells - 1
        assert alloc.free_cells() == n_cells
