"""Functional physical-memory image.

A flat, word-addressed memory backed by a numpy ``uint64`` array. Every
functional artifact of the system — object headers, reference fields, free
lists, page tables, the spill region, the hwgc root region — lives in this
image, so the GC algorithms (software and accelerator) operate on *real*
in-memory data structures rather than Python mirrors.

Timing is handled separately by the DRAM/cache models; see
:mod:`repro.memory.interconnect` for how functional access and timing are
paired.

Restores are block-sparse against a *clean point*: the snapshot the image
last equalled, modulo the blocks written since. A fresh image's clean
point is the all-zero image, so restoring any snapshot into it copies only
its dirty blocks and the snapshot's nonzero blocks. A heap-cache hit
restores into a fresh full-size image that way, without touching the
pages the heap never uses.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from repro.memory.config import WORD_BYTES

_U64_MASK = (1 << 64) - 1

#: Dirty-tracking granularity: 4096 words = 32 KiB per block. A GC run
#: touches a few percent of the image (mark bits, free-list links, spill
#: region), so block-sparse restore copies megabytes instead of the full
#: multi-hundred-MB array — profiling showed the dense ``ndarray.copy``/
#: ``copyto`` pair was ~40% of a cold ``run_gc_comparison``.
_BLOCK_SHIFT = 12
_BLOCK_WORDS = 1 << _BLOCK_SHIFT


class PhysicalMemory:
    """Word-granularity physical memory with atomic-update helpers.

    Mutations are tracked at block granularity (:data:`_BLOCK_WORDS` words)
    relative to the current *clean point* — the snapshot the image was last
    taken from or restored to, or all zeros before either happens.
    :meth:`restore` back to that snapshot copies only the dirty blocks; a
    foreign snapshot restores into a fresh image by adding its nonzero
    blocks, and into any other image densely. Either way the clean point
    re-bases there. The handful of direct ``words[...] = ...`` writers
    outside this class (the SoA object-view fast path, the page-table bulk
    mapper) must call :meth:`note_dirty` — everything else funnels through
    the write helpers here.
    """

    def __init__(self, size_bytes: int):
        if size_bytes % WORD_BYTES != 0:
            raise ValueError(f"memory size must be word-aligned: {size_bytes}")
        self.size_bytes = size_bytes
        self.words = np.zeros(size_bytes // WORD_BYTES, dtype=np.uint64)
        #: Block indices written since the clean point (see class docstring).
        self._dirty_blocks: set = set()
        #: The snapshot array the image currently equals modulo
        #: ``_dirty_blocks`` (``None`` until the first snapshot/restore:
        #: the image is then zero outside ``_dirty_blocks``).
        self._clean_snap = None

    def note_dirty(self, index: int, count: int = 1) -> None:
        """Record an out-of-band write of ``count`` words at word ``index``."""
        if count == 1:
            self._dirty_blocks.add(index >> _BLOCK_SHIFT)
        else:
            self._dirty_blocks.update(
                range(index >> _BLOCK_SHIFT,
                      ((index + count - 1) >> _BLOCK_SHIFT) + 1))

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

    def read_words(self, addr: int, count: int) -> List[int]:
        """Read ``count`` consecutive words starting at ``addr``."""
        idx = self._index(addr)
        if idx + count > len(self.words):
            raise IndexError(f"bulk read past end: {addr:#x} +{count} words")
        return [int(w) for w in self.words[idx : idx + count]]

    def write_words(self, addr: int, values: Iterable[int]) -> None:
        """Write consecutive words starting at ``addr``."""
        idx = self._index(addr)
        vals = [np.uint64(v & _U64_MASK) for v in values]
        if idx + len(vals) > len(self.words):
            raise IndexError(f"bulk write past end: {addr:#x} +{len(vals)} words")
        self.words[idx : idx + len(vals)] = vals
        self.note_dirty(idx, len(vals))

    def fill(self, addr: int, count: int, value: int = 0) -> None:
        """Fill ``count`` words starting at ``addr`` with ``value``."""
        idx = self._index(addr)
        self.words[idx : idx + count] = np.uint64(value & _U64_MASK)
        self.note_dirty(idx, count)

    # -- snapshots (runs mutate mark bits / free lists) --------------------

    def snapshot(self) -> np.ndarray:
        """A copy of the entire image, for restoring between GC runs.

        The copy becomes the image's clean point: until another snapshot
        (or a foreign restore) supersedes it, restores back to it are
        block-sparse.
        """
        snap = self.words.copy()
        self._clean_snap = snap
        self._dirty_blocks.clear()
        return snap

    def restore(self, snap: np.ndarray, nonzero: Optional[np.ndarray] = None
                ) -> None:
        """Restore a snapshot taken from this memory.

        Restoring the current clean point copies only the blocks written
        since it was established — the common checkpoint/collect/restore/
        collect pattern of every comparison harness. An image that was
        never snapshotted or restored has the all-zero clean point, so any
        snapshot restores into it by copying the dirty blocks plus the
        snapshot's nonzero blocks; ``nonzero`` (the snapshot's nonzero word
        indices) spares that search when the caller already holds it. Any
        other snapshot is restored densely. Either way ``snap`` becomes the
        new clean point.
        """
        if snap.shape != self.words.shape:
            raise ValueError("snapshot shape mismatch")
        dirty = self._dirty_blocks
        if self._clean_snap is None:
            if nonzero is None:
                nonzero = np.flatnonzero(snap)
            dirty.update(np.unique(nonzero >> _BLOCK_SHIFT).tolist())
        elif snap is not self._clean_snap:
            np.copyto(self.words, snap)
            dirty.clear()
        words = self.words
        for block in dirty:
            lo = block << _BLOCK_SHIFT
            hi = lo + _BLOCK_WORDS
            words[lo:hi] = snap[lo:hi]
        self._clean_snap = snap
        dirty.clear()

    def __repr__(self) -> str:
        return f"PhysicalMemory({self.size_bytes // (1024 * 1024)} MiB)"
