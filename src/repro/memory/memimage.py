"""Functional physical-memory image.

A flat, word-addressed memory backed by a numpy ``uint64`` array. Every
functional artifact of the system — object headers, reference fields, free
lists, page tables, the spill region, the hwgc root region — lives in this
image, so the GC algorithms (software and accelerator) operate on *real*
in-memory data structures rather than Python mirrors.

Timing is handled separately by the DRAM/cache models; see
:mod:`repro.memory.interconnect` for how functional access and timing are
paired.

Snapshots and restores work in 32 KiB blocks. A :class:`Snapshot` holds
copies of only the blocks that can be nonzero. The image tracks the
blocks written since its *clean point*, the snapshot it last equalled (the
all-zero image before any snapshot or restore); everywhere else it equals
that snapshot, so it is zero outside the dirty blocks and the clean
point's blocks. A snapshot copies just those blocks, and a restore
rewrites just those blocks plus the restored snapshot's. A generated heap
uses a few dozen of a 64 MiB image's 2,048 blocks, so checkpoints,
heap-cache entries and restores cost a megabyte or less, never the full
array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.memory.config import WORD_BYTES

_U64_MASK = (1 << 64) - 1

#: Dirty-tracking granularity: 4096 words = 32 KiB per block. A GC run
#: touches a few percent of the image (mark bits, free-list links, spill
#: region), so block-sparse snapshots and restores copy megabytes instead
#: of the full multi-hundred-MB array.
_BLOCK_SHIFT = 12
_BLOCK_WORDS = 1 << _BLOCK_SHIFT


@dataclass(frozen=True, eq=False)
class Snapshot:
    """An image of ``n_words`` words that is zero outside ``blocks``.

    ``blocks`` maps a block index to a copy of that block's words (the
    last block of a ragged image is short). Snapshots are compared by
    identity: restoring the clean point itself is the cheap case.
    """

    n_words: int
    blocks: Dict[int, np.ndarray]


class PhysicalMemory:
    """Word-granularity physical memory with atomic-update helpers.

    Mutations are tracked at block granularity (:data:`_BLOCK_WORDS` words)
    relative to the current *clean point* — the snapshot the image was last
    taken from or restored to, or the all-zero image before either happens
    (see the module docstring). The handful of direct ``words[...] = ...``
    writers outside this class (the SoA object-view fast path, the
    page-table bulk mapper) must call :meth:`note_dirty` — everything else
    funnels through the write helpers here.
    """

    def __init__(self, size_bytes: int):
        if size_bytes % WORD_BYTES != 0:
            raise ValueError(f"memory size must be word-aligned: {size_bytes}")
        self.size_bytes = size_bytes
        self.words = np.zeros(size_bytes // WORD_BYTES, dtype=np.uint64)
        #: Block indices written since the clean point.
        self._dirty_blocks: set = set()
        #: The snapshot the image equals outside ``_dirty_blocks``.
        self._clean = Snapshot(len(self.words), {})

    def note_dirty(self, index: int, count: int = 1) -> None:
        """Record an out-of-band write of ``count`` words at word ``index``."""
        first = index >> _BLOCK_SHIFT
        last = (index + count - 1) >> _BLOCK_SHIFT
        if first == last:
            self._dirty_blocks.add(first)
        else:
            self._dirty_blocks.update(range(first, last + 1))

    def _index(self, addr: int) -> int:
        if addr % WORD_BYTES != 0:
            raise ValueError(f"unaligned word access: {addr:#x}")
        if not 0 <= addr < self.size_bytes:
            raise IndexError(f"physical address out of range: {addr:#x}")
        return addr // WORD_BYTES

    # -- scalar access ----------------------------------------------------

    def read_word(self, addr: int) -> int:
        """Read the 64-bit word at byte address ``addr``."""
        # Checks inlined (``_index`` only re-run to raise its message):
        # every functional access in a run goes through here.
        if addr % WORD_BYTES or not 0 <= addr < self.size_bytes:
            self._index(addr)
        return int(self.words[addr // WORD_BYTES])

    def write_word(self, addr: int, value: int) -> None:
        """Write the 64-bit word at byte address ``addr``."""
        if addr % WORD_BYTES or not 0 <= addr < self.size_bytes:
            self._index(addr)
        idx = addr // WORD_BYTES
        self.words[idx] = np.uint64(value & _U64_MASK)
        self._dirty_blocks.add(idx >> _BLOCK_SHIFT)

    # -- atomics (the marker's fetch-or / fetch-and, §IV-A) ---------------

    def fetch_or(self, addr: int, mask: int) -> int:
        """Atomically OR ``mask`` into the word; returns the *old* value."""
        idx = self._index(addr)
        old = int(self.words[idx])
        self.words[idx] = np.uint64((old | mask) & _U64_MASK)
        self._dirty_blocks.add(idx >> _BLOCK_SHIFT)
        return old

    def fetch_and(self, addr: int, mask: int) -> int:
        """Atomically AND ``mask`` into the word; returns the *old* value."""
        idx = self._index(addr)
        old = int(self.words[idx])
        self.words[idx] = np.uint64(old & mask & _U64_MASK)
        self._dirty_blocks.add(idx >> _BLOCK_SHIFT)
        return old

    # -- bulk access (the tracer's unit-stride reference copies) ----------

    def _span(self, addr: int, count: int) -> int:
        """Word index of ``addr``, checking that ``count`` words fit there."""
        if addr % WORD_BYTES or not 0 <= addr < self.size_bytes:
            self._index(addr)
        if count < 0:
            raise ValueError(f"negative word count: {count}")
        idx = addr // WORD_BYTES
        if idx + count > len(self.words):
            raise IndexError(f"bulk access past end: {addr:#x} +{count} words")
        return idx

    def read_words(self, addr: int, count: int) -> List[int]:
        """Read ``count`` consecutive words starting at ``addr``."""
        idx = self._span(addr, count)
        return [int(w) for w in self.words[idx : idx + count]]

    def write_words(self, addr: int, values: Iterable[int]) -> None:
        """Write consecutive words starting at ``addr``."""
        vals = [v & _U64_MASK for v in values]
        idx = self._span(addr, len(vals))
        if vals:
            self.words[idx : idx + len(vals)] = vals
            self.note_dirty(idx, len(vals))

    def scatter(self, indices: Sequence[int], values: Sequence[int]) -> None:
        """Store ``values[k]`` at word index ``indices[k]`` for every ``k``
        in one numpy store, marking every block written dirty.

        Values must lie in ``[0, 2**64)``. A repeated index keeps the value
        stored last.
        """
        if len(indices) != len(values):
            raise ValueError(f"{len(indices)} indices for {len(values)} "
                             "values")
        if not len(indices):
            return
        idx = np.asarray(indices, dtype=np.int64)
        if idx.min() < 0 or idx.max() >= len(self.words):
            raise IndexError(f"scatter index out of range: "
                             f"[{idx.min()}, {idx.max()}] in "
                             f"{len(self.words)} words")
        self.words[idx] = np.asarray(values, dtype=np.uint64)
        # ``bincount`` rather than ``np.unique``, whose first call imports
        # ``numpy.ma`` (a megabyte of peak memory).
        self._dirty_blocks.update(
            np.flatnonzero(np.bincount(idx >> _BLOCK_SHIFT)).tolist())

    def fill(self, addr: int, count: int, value: int = 0) -> None:
        """Fill ``count`` words starting at ``addr`` with ``value``."""
        idx = self._span(addr, count)
        if count:
            self.words[idx : idx + count] = np.uint64(value & _U64_MASK)
            self.note_dirty(idx, count)

    # -- snapshots (runs mutate mark bits / free lists) --------------------

    def snapshot(self) -> Snapshot:
        """A copy of every block that can be nonzero, for restoring later.

        Those are the dirty blocks plus the clean point's blocks; the
        image is zero everywhere else. All-zero blocks are left out. The
        snapshot becomes the image's clean point.
        """
        words = self.words
        blocks = {}
        for block in self._dirty_blocks.union(self._clean.blocks):
            lo = block << _BLOCK_SHIFT
            data = words[lo : lo + _BLOCK_WORDS]
            if data.any():
                blocks[block] = data.copy()
        snap = Snapshot(len(words), blocks)
        self._clean = snap
        self._dirty_blocks.clear()
        return snap

    def restore(self, snap: Snapshot) -> None:
        """Make the image equal ``snap``, which may come from any image of
        the same size, and make ``snap`` the clean point.

        Only blocks that can differ are rewritten: the dirty blocks when
        ``snap`` is the clean point, else the dirty blocks, the clean
        point's blocks and ``snap``'s blocks. A rewritten block that
        ``snap`` leaves out is zeroed.
        """
        words = self.words
        if snap.n_words != len(words):
            raise ValueError(f"snapshot of {snap.n_words} words restored "
                             f"into an image of {len(words)}")
        rewrite = self._dirty_blocks
        if snap is not self._clean:
            rewrite = rewrite.union(self._clean.blocks, snap.blocks)
        blocks = snap.blocks
        for block in rewrite:
            lo = block << _BLOCK_SHIFT
            data = blocks.get(block)
            if data is None:
                words[lo : lo + _BLOCK_WORDS] = 0
            else:
                words[lo : lo + len(data)] = data
        self._clean = snap
        self._dirty_blocks.clear()

    def __repr__(self) -> str:
        return f"PhysicalMemory({self.size_bytes // (1024 * 1024)} MiB)"
