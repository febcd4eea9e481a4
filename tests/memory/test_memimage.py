"""Physical-memory image: word access, atomics, bulk ops, snapshots."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.memimage import PhysicalMemory
from repro.memory.paging import PageTable

U64 = (1 << 64) - 1


@pytest.fixture
def mem():
    return PhysicalMemory(64 * 1024)


class TestScalar:
    def test_roundtrip(self, mem):
        mem.write_word(0x100, 0xDEAD_BEEF_CAFE_F00D)
        assert mem.read_word(0x100) == 0xDEAD_BEEF_CAFE_F00D

    def test_wraps_to_64_bits(self, mem):
        mem.write_word(8, (1 << 70) | 5)
        assert mem.read_word(8) == 5

    def test_unaligned_rejected(self, mem):
        with pytest.raises(ValueError):
            mem.read_word(3)
        with pytest.raises(ValueError):
            mem.write_word(12, 0)  # 12 is not 8-aligned

    def test_out_of_range_rejected(self, mem):
        with pytest.raises(IndexError):
            mem.read_word(64 * 1024)

    def test_size_must_be_word_aligned(self):
        with pytest.raises(ValueError):
            PhysicalMemory(100)


class TestAtomics:
    def test_fetch_or_returns_old(self, mem):
        mem.write_word(0, 0b0101)
        assert mem.fetch_or(0, 0b0010) == 0b0101
        assert mem.read_word(0) == 0b0111

    def test_fetch_and_returns_old(self, mem):
        mem.write_word(0, 0b0111)
        assert mem.fetch_and(0, ~0b0010 & U64) == 0b0111
        assert mem.read_word(0) == 0b0101

    def test_fetch_or_idempotent_on_set_bit(self, mem):
        mem.fetch_or(0, 1)
        old = mem.fetch_or(0, 1)
        assert old == 1 and mem.read_word(0) == 1


class TestBulk:
    def test_read_write_words(self, mem):
        mem.write_words(0x200, [1, 2, 3])
        assert mem.read_words(0x200, 3) == [1, 2, 3]

    def test_fill(self, mem):
        mem.fill(0x300, 4, 9)
        assert mem.read_words(0x300, 4) == [9, 9, 9, 9]

    def test_bulk_bounds(self, mem):
        with pytest.raises(IndexError):
            mem.read_words(64 * 1024 - 8, 2)
        with pytest.raises(IndexError):
            mem.write_words(64 * 1024 - 8, [1, 2])


class TestSnapshot:
    def test_snapshot_restore(self, mem):
        mem.write_word(0x80, 42)
        snap = mem.snapshot()
        mem.write_word(0x80, 0)
        mem.restore(snap)
        assert mem.read_word(0x80) == 42

    def test_snapshot_is_a_copy(self, mem):
        snap = mem.snapshot()
        mem.write_word(0, 7)
        assert snap[0] == 0

    def test_shape_mismatch_rejected(self, mem):
        with pytest.raises(ValueError):
            mem.restore(np.zeros(3, dtype=np.uint64))


class TestDirtyBlockRestore:
    """The block-sparse restore must be byte-exact vs. a dense copy.

    Every write helper, both atomics, and the out-of-band ``note_dirty``
    contract feed the dirty set; restoring the clean-point snapshot copies
    only those blocks, so a missed dirty bit would silently leave stale
    data behind — these tests pin exactness for every mutation path.
    """

    # A memory spanning several 32 KiB blocks.
    SIZE = 256 * 1024

    def _scribble_then_restore(self, mutate):
        mem = PhysicalMemory(self.SIZE)
        for addr in range(0, self.SIZE, 4096 * 8):
            mem.write_word(addr, addr | 1)
        snap = mem.snapshot()
        reference = snap.copy()
        mutate(mem)
        mem.restore(snap)
        assert np.array_equal(mem.words, reference)
        # The clean point survives a sparse restore: a second
        # mutate/restore round must also be exact.
        mutate(mem)
        mem.restore(snap)
        assert np.array_equal(mem.words, reference)

    def test_write_word_tracked(self):
        self._scribble_then_restore(
            lambda m: [m.write_word(a, 0xBAD) for a in (0, 40960, self.SIZE - 8)])

    def test_atomics_tracked(self):
        def mutate(m):
            m.fetch_or(32768, 0xFF)
            m.fetch_and(self.SIZE - 16, 0)
        self._scribble_then_restore(mutate)

    def test_bulk_writes_tracked(self):
        def mutate(m):
            m.write_words(8, list(range(100)))
            m.fill(65536, 5000, 7)  # spans a block boundary
        self._scribble_then_restore(mutate)

    def test_note_dirty_covers_direct_writes(self):
        def mutate(m):
            # The SoA fast-path idiom: raw array store + note_dirty.
            m.words[5000] = np.uint64(123)
            m.note_dirty(5000)
            m.words[9000:9300] = np.uint64(9)
            m.note_dirty(9000, 300)
        self._scribble_then_restore(mutate)

    def test_foreign_snapshot_restores_densely_and_rebases(self):
        mem = PhysicalMemory(self.SIZE)
        snap_a = mem.snapshot()
        mem.write_word(0, 1)
        foreign = mem.words.copy()  # not produced by snapshot()
        mem.write_word(0, 2)
        mem.restore(foreign)
        assert mem.read_word(0) == 1
        # ``foreign`` is now the clean point; sparse restore back to it
        # must still be exact.
        mem.write_word(0, 3)
        mem.write_word(self.SIZE - 8, 4)
        mem.restore(foreign)
        assert mem.read_word(0) == 1
        assert mem.read_word(self.SIZE - 8) == 0
        # And the original snapshot still restores correctly (densely).
        mem.restore(snap_a)
        assert mem.read_word(0) == 0

    # -- zero-based restore: a never-snapshotted image is zero outside its
    # dirty blocks, so a foreign restore copies only those blocks plus the
    # snapshot's nonzero blocks.

    def _raw_store(m):
        # The SoA fast-path idiom: raw array store + note_dirty.
        m.words[9000:9300] = np.uint64(9)
        m.note_dirty(9000, 300)

    MUTATIONS = {
        "write_word": lambda m: [m.write_word(a, 0xBAD)
                                 for a in (0, 40960, m.size_bytes - 8)],
        "write_words": lambda m: m.write_words(32760, list(range(1, 40))),
        "fill": lambda m: m.fill(65536 - 80, 5000, 7),
        "fetch_or": lambda m: m.fetch_or(m.size_bytes - 16, 0xFF),
        "fetch_and": lambda m: (m.write_word(8, U64), m.fetch_and(8, 0xF0)),
        "note_dirty": _raw_store,
        "map_linear": lambda m: PageTable(m, (32768, 32768 + 4 * 4096))
        .map_linear(0x4000_0000, 0, m.size_bytes),
    }

    @staticmethod
    def _foreign_snapshot(size):
        """A snapshot taken from *another* memory, nonzero in a few blocks
        (including the last, partial one when ``size`` is ragged)."""
        source = PhysicalMemory(size)
        for addr in (16, 4096 * 8 + 64, size - 8):
            source.write_word(addr, addr | 1)
        return source.snapshot()

    @pytest.mark.parametrize("size", [256 * 1024, 100 * 1024],
                             ids=["whole-blocks", "ragged"])
    @pytest.mark.parametrize("hint", [False, True], ids=["search", "hint"])
    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_fresh_image_restores_foreign_snapshot_exactly(
            self, mutation, hint, size):
        mutate = self.MUTATIONS[mutation]
        snap = self._foreign_snapshot(size)
        reference = snap.copy()
        nonzero = np.flatnonzero(snap) if hint else None
        mem = PhysicalMemory(size)
        mutate(mem)
        mem.restore(snap, nonzero)
        assert np.array_equal(mem.words, reference)
        # ``snap`` is now the clean point: another mutate/restore round is
        # block-sparse and must be exact too.
        mutate(mem)
        mem.restore(snap)
        assert np.array_equal(mem.words, reference)

    def test_snapshotted_image_restores_foreign_snapshot_densely(self):
        # After a snapshot the image is no longer zero outside its dirty
        # blocks: block 2 holds data no dirty bit records and the foreign
        # snapshot is zero there, so only a dense copy clears it.
        mem = PhysicalMemory(self.SIZE)
        mem.write_word(2 * 4096 * 8, 0xAB)
        mem.snapshot()
        snap = self._foreign_snapshot(self.SIZE)
        mem.restore(snap, np.flatnonzero(snap))
        assert np.array_equal(mem.words, snap)


@given(
    writes=st.lists(
        st.tuples(st.integers(0, 1023), st.integers(0, U64)),
        max_size=50,
    )
)
@settings(max_examples=50, deadline=None)
def test_last_write_wins(writes):
    mem = PhysicalMemory(8 * 1024)
    expected = {}
    for word_index, value in writes:
        mem.write_word(word_index * 8, value)
        expected[word_index] = value
    for word_index, value in expected.items():
        assert mem.read_word(word_index * 8) == value
