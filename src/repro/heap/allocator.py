"""Segregated free-list allocator over blocks and size classes (§V-A).

Functional (untimed) — in the paper this is the application/runtime side:
the GC unit only *produces* free lists; the mutator consumes them during
allocation. The allocator:

* carves fresh :data:`~repro.heap.blocks.BLOCK_BYTES` blocks out of the
  MarkSweep space, assigns each a size class, and threads all cells of a
  fresh block onto its free list (next pointers stored in the cells
  themselves, Fig. 11);
* pops cells off per-class free lists, consulting the block list's
  sweeper-updated ``freelist_head`` fields after a GC ("places the
  resulting free lists into main memory for the application on the CPU to
  use during allocation", §IV);
* initializes object metadata through the bidirectional layout and returns
  the object reference (virtual address of the status word).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.heap.blocks import BLOCK_BYTES, BlockList
from repro.heap.layout import BidirectionalLayout, ObjectShape
from repro.heap.sizeclass import SizeClassTable
from repro.memory.config import WORD_BYTES
from repro.memory.memimage import PhysicalMemory


class OutOfMemoryError(MemoryError):
    """The MarkSweep space has no free cells and no room for fresh blocks."""


class SegregatedFreeListAllocator:
    """Allocation front-end for the MarkSweep space."""

    def __init__(
        self,
        mem: PhysicalMemory,
        block_list: BlockList,
        space_pstart: int,
        space_pend: int,
        virt_offset: int,
        size_classes: Optional[SizeClassTable] = None,
        alloc_mark_value: int = 0,
    ):
        self.mem = mem
        self.block_list = block_list
        self.space_pstart = space_pstart
        self.space_pend = space_pend
        self.virt_offset = virt_offset
        self.size_classes = size_classes or SizeClassTable()
        #: Mark-bit value written into fresh objects; the heap updates this
        #: when mark parity flips after a GC.
        self.alloc_mark_value = alloc_mark_value
        self._fresh_cursor = space_pstart
        # Per size class: indices of blocks that may still have free cells.
        self._class_blocks: Dict[int, List[int]] = {
            i: [] for i in range(len(self.size_classes))
        }
        self._block_class: Dict[int, int] = {}  # block index -> class
        self.objects_allocated = 0
        self.bytes_allocated = 0

    # -- address helpers ---------------------------------------------------

    def to_virtual(self, paddr: int) -> int:
        return paddr + self.virt_offset

    def to_physical(self, vaddr: int) -> int:
        return vaddr - self.virt_offset

    # -- block management ----------------------------------------------------

    def _carve_block(self, class_index: int) -> int:
        """Take a fresh block from the space; returns its block-list index."""
        if self._fresh_cursor + BLOCK_BYTES > self.space_pend:
            raise OutOfMemoryError(
                f"MarkSweep space exhausted at {self._fresh_cursor:#x}"
            )
        base_paddr = self._fresh_cursor
        self._fresh_cursor += BLOCK_BYTES
        cell_bytes = self.size_classes.cell_bytes(class_index)
        n_cells = BLOCK_BYTES // cell_bytes
        base_vaddr = self.to_virtual(base_paddr)
        # Thread every cell onto the block's free list: cell i's first word
        # holds cell i+1's address, and the last cell's holds 0. One strided
        # store writes them all.
        links = np.arange(1, n_cells + 1, dtype=np.uint64)
        links *= np.uint64(cell_bytes)
        links += np.uint64(base_vaddr)
        links[-1] = 0
        cell_words = cell_bytes // WORD_BYTES
        first = base_paddr // WORD_BYTES
        self.mem.words[first : first + n_cells * cell_words : cell_words] = links
        self.mem.note_dirty(first, (n_cells - 1) * cell_words + 1)
        desc = self.block_list.append(base_vaddr, cell_bytes, n_cells, base_vaddr)
        self._class_blocks[class_index].append(desc.index)
        self._block_class[desc.index] = class_index
        return desc.index

    def refresh_free_lists(self) -> None:
        """Re-discover free cells after a sweep.

        The sweeper wrote per-block free-list heads into the block list;
        every block whose head is non-zero can serve allocations again.
        """
        self._class_blocks = {i: [] for i in range(len(self.size_classes))}
        for desc in self.block_list:
            class_index = self._block_class.get(desc.index)
            if class_index is None:
                # A block created by someone else (tests); infer its class.
                class_index = self.size_classes.class_for(
                    desc.cell_bytes // WORD_BYTES
                )
                self._block_class[desc.index] = class_index
            if desc.freelist_head != 0:
                self._class_blocks[class_index].append(desc.index)

    # -- allocation -------------------------------------------------------------

    def pop_free(self, block_index: int) -> int:
        """Unlink the head of a block's free list; returns its *virtual*
        address, or 0 (leaving the list as it is) if the list is empty."""
        words = self.mem.words
        head_index = self.block_list.freelist_head_index(block_index)
        head = int(words[head_index])
        if head:
            words[head_index] = self.mem.read_word(head - self.virt_offset)
            self.mem.note_dirty(head_index)
        return head

    def _pop_cell(self, class_index: int) -> int:
        """Pop a free cell for the class; returns its *virtual* address."""
        blocks = self._class_blocks[class_index]
        while blocks:
            head = self.pop_free(blocks[0])
            if head:
                return head
            blocks.pop(0)
        return self.pop_free(self._carve_block(class_index))

    def alloc(self, shape: ObjectShape, n_words: Optional[int] = None) -> int:
        """Allocate an object; returns its reference (virtual address).

        ``n_words`` is ``shape.bidirectional_words``, for a caller that has
        already computed it. Only MarkSweep-space sizes are accepted;
        larger objects belong to the large-object space (see
        :class:`~repro.heap.heapimage.ManagedHeap`). Everything that can
        reject the request runs before a cell is taken.
        """
        if n_words is None:
            n_words = shape.bidirectional_words
        class_index = self.size_classes.class_for(n_words)
        words = BidirectionalLayout.metadata_words(shape, self.alloc_mark_value)
        status_paddr = BidirectionalLayout.initialize(
            self.mem, self._pop_cell(class_index) - self.virt_offset, words)
        self.objects_allocated += 1
        self.bytes_allocated += self.size_classes.cell_bytes(class_index)
        return status_paddr + self.virt_offset

    # -- introspection -----------------------------------------------------------

    @property
    def blocks_in_use(self) -> int:
        return (self._fresh_cursor - self.space_pstart) // BLOCK_BYTES

    def free_cells(self) -> int:
        """Total free cells across all blocks (walks the real free lists)."""
        total = 0
        for desc in self.block_list:
            head = desc.freelist_head
            seen = 0
            while head != 0:
                seen += 1
                if seen > desc.n_cells:
                    raise RuntimeError(
                        f"free list of block {desc.index} is cyclic or corrupt"
                    )
                head = self.mem.read_word(self.to_physical(head))
            total += seen
        return total
