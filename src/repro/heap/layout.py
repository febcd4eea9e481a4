"""Object layouts: bidirectional (the co-designed one) and conventional/TIB.

**Bidirectional layout** (Fig. 6b, Fig. 11). Within a cell of ``C`` words::

    word 0           scan word   (#refs | array? | 0b101)   <- cell start
    words 1..R       reference fields
    word R+1         status word (#refs | array? | mark | tag)  <- object ref
    words R+2..C-1   non-reference payload

An object *reference* is the virtual address of the status word. The
reference fields sit immediately below it, so the traversal unit locates
them with no extra accesses: ``[obj - 8R, obj)`` — the unit-stride copy the
tracer performs.

**Conventional layout** (Fig. 6a), used only by the layout-ablation study:
the header points to a type-information block (TIB) listing reference-field
offsets, costing "two additional memory accesses per object in a cacheless
system" (§IV-A). Cells are::

    word 0           status word (tag | mark)                <- object ref
    word 1           TIB pointer
    words 2..C-1     fields (references interspersed, per the TIB)

Both layouts implement the same protocol so the collectors can be
parameterized by layout.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence, Tuple

from repro.heap.header import (
    MAX_REFS,
    decode_refcount,
    make_header,
    make_scan_word,
)
from repro.memory.config import WORD_BYTES
from repro.memory.memimage import PhysicalMemory


class _ShapeFields(NamedTuple):
    n_refs: int
    n_payload_words: int = 0
    is_array: bool = False


class ObjectShape(_ShapeFields):
    """The allocation request for one object (an immutable tuple).

    A negative field would describe a cell smaller than the words its
    object writes, so both counts are checked here, before any allocator
    state can change.
    """

    __slots__ = ()

    def __new__(cls, n_refs: int, n_payload_words: int = 0,
                is_array: bool = False) -> "ObjectShape":
        if not 0 <= n_refs <= MAX_REFS:
            raise ValueError(
                f"n_refs must be in [0, {MAX_REFS}] (got {n_refs})")
        if not n_payload_words >= 0:
            raise ValueError(
                f"n_payload_words must be at least 0 (got {n_payload_words})")
        return tuple.__new__(cls, (n_refs, n_payload_words, is_array))

    @classmethod
    def _make(cls, iterable) -> "ObjectShape":
        # ``_replace`` builds through here; keep the checks on that path.
        return cls(*iterable)

    @property
    def bidirectional_words(self) -> int:
        """Cell words needed under the bidirectional layout."""
        return 2 + self.n_refs + self.n_payload_words

    @property
    def conventional_words(self) -> int:
        """Cell words needed under the conventional layout (header + TIB)."""
        return 2 + self.n_refs + self.n_payload_words


class BidirectionalLayout:
    """Writer/reader for the bidirectional cell format."""

    name = "bidirectional"

    @staticmethod
    def words_needed(shape: ObjectShape) -> int:
        return shape.bidirectional_words

    @staticmethod
    def metadata_words(shape: ObjectShape, mark: int) -> List[int]:
        """The scan word, the null reference fields and the status word of
        a fresh object, in cell order; raises for an invalid shape or mark
        before anything is written."""
        n_refs = shape.n_refs
        words = [0] * (n_refs + 2)
        words[0] = make_scan_word(n_refs, shape.is_array)
        words[-1] = make_header(n_refs, shape.is_array, mark=mark)
        return words

    @staticmethod
    def initialize(mem: PhysicalMemory, cell_paddr: int,
                   words: List[int]) -> int:
        """Write a fresh object's :meth:`metadata_words` at the cell start
        as one slice; returns the *physical* address of the status word
        (callers convert to virtual for references)."""
        n = len(words)
        # The words are in range by construction, so the store skips
        # ``write_words``' per-word masking.
        idx = mem._span(cell_paddr, n)
        mem.words[idx : idx + n] = words
        mem.note_dirty(idx, n)
        return cell_paddr + WORD_BYTES * (n - 1)

    @staticmethod
    def status_paddr_from_cell(mem: PhysicalMemory, cell_paddr: int) -> int:
        """Locate the status word from the cell start via the scan word —
        the computation each block sweeper performs (§V-D)."""
        scan = mem.read_word(cell_paddr)
        n_refs, _is_array = decode_refcount(scan)
        return cell_paddr + WORD_BYTES * (1 + n_refs)

    @staticmethod
    def ref_field_addr(obj_addr: int, n_refs: int, index: int) -> int:
        """Address of reference field ``index`` given the object address."""
        if not 0 <= index < n_refs:
            raise IndexError(f"ref index {index} out of {n_refs}")
        return obj_addr - WORD_BYTES * (n_refs - index)

    @staticmethod
    def ref_section(obj_addr: int, n_refs: int) -> Tuple[int, int]:
        """(start, nbytes) of the reference section below the status word."""
        return obj_addr - WORD_BYTES * n_refs, WORD_BYTES * n_refs

    @staticmethod
    def cell_paddr_from_status(status_paddr: int, n_refs: int) -> int:
        return status_paddr - WORD_BYTES * (1 + n_refs)


class ConventionalLayout:
    """Conventional TIB-based layout for the ablation study.

    The TIB itself is a separate heap structure shared per "type"; we model
    one TIB per distinct reference count, each a small immortal array of
    field offsets. Collectors traversing this layout must (1) read the
    header, (2) read the TIB pointer, (3) read the TIB's offset list, then
    (4) gather each reference field individually — the extra accesses the
    bidirectional layout removes.
    """

    name = "conventional"

    def __init__(self) -> None:
        # type id -> list of field offsets (in words, relative to object).
        self._tibs: Dict[int, List[int]] = {}
        self._tib_addrs: Dict[int, int] = {}

    @staticmethod
    def words_needed(shape: ObjectShape) -> int:
        return shape.conventional_words

    def register_tib(
        self, mem: PhysicalMemory, type_id: int, offsets: Sequence[int], paddr: int
    ) -> None:
        """Materialize a TIB: word 0 = count, then one offset per word."""
        self._tibs[type_id] = list(offsets)
        self._tib_addrs[type_id] = paddr
        mem.write_word(paddr, len(offsets))
        mem.write_words(paddr + WORD_BYTES, offsets)

    def tib_addr(self, type_id: int) -> int:
        return self._tib_addrs[type_id]

    def offsets(self, type_id: int) -> List[int]:
        return self._tibs[type_id]
