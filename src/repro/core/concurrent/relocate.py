"""Relocating sweep: block evacuation with a forwarding table (§IV-B opt. 1).

The reclamation unit's relocating variant "evacuat[es] all live objects in
a block into a new location" instead of threading dead cells onto free
lists. Evacuation produces the forwarding table the read barrier consults
(Fig. 9) and invalidates the evacuated pages; a later *fixup* (remap) pass
rewrites stale references — in a Pauseless-style collector that work rides
along with the next traversal, here it is an explicit phase so tests can
exercise each step.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.concurrent.forwarding import ForwardingTable
from repro.heap.blocks import BlockDescriptor
from repro.heap.header import decode_refcount, header_is_marked, scan_word_is_object
from repro.heap.heapimage import ManagedHeap
from repro.memory.config import WORD_BYTES
from repro.memory.paging import PAGE_SIZE


class RelocatingSweep:
    """Evacuates whole blocks, building old->new forwardings."""

    def __init__(self, heap: ManagedHeap, parity: Optional[int] = None):
        self.heap = heap
        #: Mark parity identifying live objects (defaults to the parity the
        #: just-finished mark used).
        self.parity = parity if parity is not None else heap.mark_parity
        self.objects_moved = 0
        self.bytes_copied = 0
        # Fresh destination blocks per size class (never evacuated from).
        self._dest_blocks: Dict[int, int] = {}

    # -- destination allocation (fresh blocks only) -------------------------

    def _fresh_cell(self, class_index: int) -> int:
        """A cell from a destination block that is not being evacuated."""
        allocator = self.heap.allocator
        block_index = self._dest_blocks.get(class_index)
        if block_index is not None:
            head = allocator.pop_free(block_index)
            if head:
                return head
        block_index = allocator._carve_block(class_index)
        self._dest_blocks[class_index] = block_index
        return allocator.pop_free(block_index)

    # -- evacuation -------------------------------------------------------------

    def evacuate_blocks(self, block_indices: Iterable[int],
                        defer_free: bool = False) -> ForwardingTable:
        """Evacuate the live objects of the given blocks.

        Returns the forwarding table; the evacuated blocks end up fully
        free (their free lists rebuilt), and every page they span is marked
        invalidated for the read-barrier protocol.

        With ``defer_free`` the source blocks are *quarantined* instead:
        scan words cleared, free-list head left empty. A concurrent cycle
        needs this because the forwarding table is keyed by old addresses —
        if the allocator handed an evacuated cell out again while the table
        is live, a reference to the new object would resolve through the
        stale forwarding entry (the ABA race). The cycle's own sweep
        relinks the quarantined cells, so they become allocatable exactly
        when the table is dropped.
        """
        heap = self.heap
        mem = heap.mem
        table = ForwardingTable()
        for index in block_indices:
            desc = heap.block_list.read(index)
            class_index = heap.size_classes.class_for(
                desc.cell_bytes // WORD_BYTES
            )
            for i in range(desc.n_cells):
                cell_vaddr = desc.base_vaddr + i * desc.cell_bytes
                cell_paddr = heap.to_physical(cell_vaddr)
                first = mem.read_word(cell_paddr)
                if not scan_word_is_object(first):
                    continue
                n_refs, _ = decode_refcount(first)
                status_paddr = cell_paddr + WORD_BYTES * (1 + n_refs)
                status = mem.read_word(status_paddr)
                if not header_is_marked(status, self.parity):
                    continue  # dead: evacuation simply abandons it
                # Copy the whole cell (scan word, refs, status, payload)
                # into a fresh cell of the same class — preserving the mark
                # state, unlike a fresh allocation.
                new_cell_vaddr = self._fresh_cell(class_index)
                new_cell_paddr = heap.to_physical(new_cell_vaddr)
                words = mem.read_words(cell_paddr,
                                       desc.cell_bytes // WORD_BYTES)
                mem.write_words(new_cell_paddr, words)
                old_obj = cell_vaddr + WORD_BYTES * (1 + n_refs)
                new_obj = new_cell_vaddr + WORD_BYTES * (1 + n_refs)
                table.add(old_obj, new_obj)
                self.objects_moved += 1
                self.bytes_copied += desc.cell_bytes
            # The whole source block is now free: rebuild its free list and
            # invalidate its pages.
            if defer_free:
                self._quarantine_block(desc)
            else:
                self._free_whole_block(desc)
            span = desc.cell_bytes * desc.n_cells
            for off in range(0, span, PAGE_SIZE):
                table.invalidate_page(desc.base_vaddr + off)
        return table

    def _free_whole_block(self, desc: BlockDescriptor) -> None:
        mem = self.heap.mem
        for i in range(desc.n_cells):
            cell_vaddr = desc.base_vaddr + i * desc.cell_bytes
            next_vaddr = (
                desc.base_vaddr + (i + 1) * desc.cell_bytes
                if i + 1 < desc.n_cells else 0
            )
            mem.write_word(self.heap.to_physical(cell_vaddr), next_vaddr)
        self.heap.block_list.set_freelist_head(desc.index, desc.base_vaddr)

    def _quarantine_block(self, desc: BlockDescriptor) -> None:
        """Empty the block without making its cells allocatable: scan words
        cleared (so the sweeper relinks every cell as free) and the
        free-list head zeroed (so the allocator cannot reuse an old address
        while the forwarding table still maps it)."""
        mem = self.heap.mem
        for i in range(desc.n_cells):
            cell_vaddr = desc.base_vaddr + i * desc.cell_bytes
            mem.write_word(self.heap.to_physical(cell_vaddr), 0)
        self.heap.block_list.set_freelist_head(desc.index, 0)

    # -- remap / fixup -------------------------------------------------------------

    def fixup_references(self, table: ForwardingTable) -> int:
        """Rewrite every stale reference (roots + live heap fields).

        In a concurrent collector this is folded into the next traversal;
        standalone it lets tests verify the heap is identical (modulo
        placement) after relocation. Returns the number of fields fixed.
        """
        heap = self.heap
        fixed = 0
        new_roots = []
        for root in heap.roots.read_all():
            resolved = table.resolve(root)
            if resolved != root:
                fixed += 1
            new_roots.append(resolved)
        heap.roots.write_roots(new_roots)
        # Walk from the (fixed) roots, resolving fields as we go.
        frontier = [r for r in new_roots if r != 0]
        seen: Set[int] = set()
        while frontier:
            addr = frontier.pop()
            if addr in seen:
                continue
            seen.add(addr)
            view = heap.view(addr)
            for i in range(view.n_refs):
                ref = view.get_ref(i)
                if ref == 0:
                    continue
                resolved = table.resolve(ref)
                if resolved != ref:
                    view.set_ref(i, resolved)
                    fixed += 1
                frontier.append(resolved)
        return fixed
