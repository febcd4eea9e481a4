"""Segregated free-list size classes.

Jikes's Mark & Sweep plan "uses a segregated free list allocator. Memory is
divided into blocks, and each block is assigned a size class, which
determines the size of the cells that the block is divided into" (§V-A).
The runtime informs the GC unit of the "available size classes" as
configuration parameters (§IV-C).

Cell sizes are in 8-byte words and include the two metadata words
(scan word + status word) of the bidirectional layout.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Sequence

from repro.memory.config import WORD_BYTES

#: Default cell sizes in words: 32 B .. 2 KiB.
SIZE_CLASSES_WORDS: Sequence[int] = (4, 8, 16, 32, 64, 128, 256)


class SizeClassTable:
    """Maps a requested object size (in words) to a size class index."""

    def __init__(self, classes_words: Sequence[int] = SIZE_CLASSES_WORDS):
        if not classes_words:
            raise ValueError("at least one size class required")
        if list(classes_words) != sorted(set(classes_words)):
            raise ValueError("size classes must be strictly increasing")
        if any(c < 3 for c in classes_words):
            raise ValueError(
                "cells must hold at least scan word + status word + 1 field"
            )
        self.classes_words: List[int] = list(classes_words)

    def __len__(self) -> int:
        return len(self.classes_words)

    @property
    def max_words(self) -> int:
        """Largest cell size; bigger objects go to the large-object space."""
        return self.classes_words[-1]

    def class_for(self, n_words: int) -> int:
        """Smallest size class whose cells fit ``n_words``; raises if none."""
        index = bisect_left(self.classes_words, n_words)
        if index < len(self.classes_words):
            return index
        raise ValueError(
            f"object of {n_words} words exceeds the largest size class "
            f"({self.max_words} words); allocate it in the large object space"
        )

    def cell_words(self, index: int) -> int:
        return self.classes_words[index]

    def cell_bytes(self, index: int) -> int:
        return self.classes_words[index] * WORD_BYTES

    def fits(self, n_words: int) -> bool:
        """Whether an object of ``n_words`` belongs in the MarkSweep space."""
        return n_words <= self.max_words
