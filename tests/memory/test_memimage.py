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

    def test_scatter(self, mem):
        mem.scatter([3, 1000, 3], [7, U64, 9])
        assert mem.read_word(3 * 8) == 9  # a repeated index: last wins
        assert mem.read_word(1000 * 8) == U64
        mem.scatter([], [])

    @pytest.mark.parametrize("at,values,error", [
        ([1, 2], [5], ValueError),
        ([-1], [5], IndexError),
        ([64 * 1024 // 8], [5], IndexError),
        ([1], [-1], OverflowError),
        ([1], [U64 + 1], OverflowError),
    ])
    def test_scatter_rejects_bad_input_before_storing(self, mem, at, values,
                                                      error):
        with pytest.raises(error):
            mem.scatter(at, values)
        assert not mem.words.any()

    def test_fill_rejects_negative_count(self, mem):
        # A negative count used to slice from the end: 8,189 words written
        # with no dirty block recorded.
        with pytest.raises(ValueError):
            mem.fill(8, -3, 1)
        assert not mem.words.any()

    def test_read_words_rejects_negative_count(self, mem):
        with pytest.raises(ValueError):
            mem.read_words(0, -2)

    def test_fill_rejects_range_past_end(self, mem):
        # Used to write the 2 words that fit and mark a block past the
        # image dirty.
        with pytest.raises(IndexError):
            mem.fill(64 * 1024 - 16, 10, 7)
        assert not mem.words.any()
        assert mem.snapshot().blocks == {}

    def test_empty_ranges_allowed(self, mem):
        assert mem.read_words(0x100, 0) == []
        mem.write_words(0x100, [])
        mem.fill(0x100, 0, 5)
        assert not mem.words.any()


BLOCK_WORDS = 4096  # 32 KiB


def dense(snap) -> np.ndarray:
    """The full image a :class:`Snapshot` stands for."""
    out = np.zeros(snap.n_words, dtype=np.uint64)
    for block, data in snap.blocks.items():
        lo = block * BLOCK_WORDS
        out[lo:lo + len(data)] = data
    return out


class TestSnapshot:
    def test_snapshot_restore(self, mem):
        mem.write_word(0x80, 42)
        snap = mem.snapshot()
        mem.write_word(0x80, 0)
        mem.restore(snap)
        assert mem.read_word(0x80) == 42

    def test_snapshot_is_a_copy(self, mem):
        mem.write_word(0, 5)
        snap = mem.snapshot()
        mem.write_word(0, 7)
        assert dense(snap)[0] == 5
        assert not any(np.shares_memory(data, mem.words)
                       for data in snap.blocks.values())

    def test_size_mismatch_rejected(self, mem):
        with pytest.raises(ValueError):
            mem.restore(PhysicalMemory(128 * 1024).snapshot())

    def test_snapshot_holds_only_nonzero_blocks(self):
        mem = PhysicalMemory(256 * 1024)
        mem.write_word(8, 1)
        mem.write_word(BLOCK_WORDS * 8 * 5, 2)
        assert sorted(mem.snapshot().blocks) == [0, 5]
        # A clean-point block that is zero now is left out.
        mem.write_word(BLOCK_WORDS * 8 * 5, 0)
        snap = mem.snapshot()
        assert sorted(snap.blocks) == [0]
        assert snap.n_words == len(mem.words)
        assert all(len(data) == BLOCK_WORDS for data in snap.blocks.values())

    def test_ragged_last_block_is_short(self):
        mem = PhysicalMemory(100 * 1024)
        mem.write_word(100 * 1024 - 8, 9)
        snap = mem.snapshot()
        assert len(snap.blocks[3]) == 100 * 1024 // 8 - 3 * BLOCK_WORDS
        assert np.array_equal(dense(snap), mem.words)


class TestDirtyBlockRestore:
    """The block-sparse snapshot and restore must be exact.

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
        reference = mem.words.copy()
        snap = mem.snapshot()
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

    def test_foreign_snapshot_restores_and_rebases(self):
        mem = PhysicalMemory(self.SIZE)
        snap_a = mem.snapshot()
        other = PhysicalMemory(self.SIZE)
        other.write_word(0, 1)
        foreign = other.snapshot()
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
        # And the original snapshot still restores correctly.
        mem.restore(snap_a)
        assert not mem.words.any()

    # -- a never-snapshotted image is zero outside its dirty blocks, so a
    # foreign restore rewrites only those blocks plus the snapshot's.

    def _raw_store(m):
        # The SoA fast-path idiom: raw array store + note_dirty.
        m.words[9000:9300] = np.uint64(9)
        m.note_dirty(9000, 300)

    MUTATIONS = {
        "write_word": lambda m: [m.write_word(a, 0xBAD)
                                 for a in (0, 40960, m.size_bytes - 8)],
        "write_words": lambda m: m.write_words(32760, list(range(1, 40))),
        "fill": lambda m: m.fill(65536 - 80, 4000, 7),
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
    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_fresh_image_restores_foreign_snapshot_exactly(
            self, mutation, size):
        mutate = self.MUTATIONS[mutation]
        snap = self._foreign_snapshot(size)
        reference = dense(snap)
        mem = PhysicalMemory(size)
        mutate(mem)
        mem.restore(snap)
        assert np.array_equal(mem.words, reference)
        # ``snap`` is now the clean point: another mutate/restore round is
        # block-sparse and must be exact too.
        mutate(mem)
        mem.restore(snap)
        assert np.array_equal(mem.words, reference)

    def test_snapshotted_image_restore_clears_clean_point_blocks(self):
        # After a snapshot the image is no longer zero outside its dirty
        # blocks: block 2 holds data no dirty bit records and the foreign
        # snapshot is zero there, so the restore must rewrite the clean
        # point's blocks too.
        mem = PhysicalMemory(self.SIZE)
        mem.write_word(2 * 4096 * 8, 0xAB)
        mem.snapshot()
        snap = self._foreign_snapshot(self.SIZE)
        mem.restore(snap)
        assert np.array_equal(mem.words, dense(snap))


# -- exactness battery --------------------------------------------------------
#
# Random sequences of every mutation path, snapshots, and restores of own,
# older and foreign snapshots across two images, checked against a dense
# reference: one plain ``np.ndarray`` per image, updated with numpy slicing
# only, and a full ``words.copy()`` of it per snapshot.

_VALUES = st.one_of(st.sampled_from([0, 1, U64]), st.integers(0, U64))
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["write_word", "write_words", "fill", "fetch_or",
                         "fetch_and", "note_dirty", "map_linear", "scatter"]
                        + ["snapshot", "restore"] * 3),
        st.integers(0, 1),                  # which image
        # A word position (block, offset); also picks a snapshot to restore.
        st.tuples(st.integers(0, 3),
                  st.one_of(st.sampled_from([0, 1, BLOCK_WORDS - 1]),
                            st.integers(0, BLOCK_WORDS - 1))),
        # A word count: mostly a few words, sometimes across blocks.
        st.one_of(st.integers(0, 8), st.integers(0, 8), st.integers(0, 9000)),
        _VALUES,
    ),
    max_size=30,
)


def _run_battery(size, ops):
    n = size // 8
    images = [PhysicalMemory(size), PhysicalMemory(size)]
    refs = [np.zeros(n, dtype=np.uint64), np.zeros(n, dtype=np.uint64)]
    snaps = []  # (snapshot, dense copy of the image it was taken from)
    for kind, which, (block, offset), count, value in ops:
        mem, ref = images[which], refs[which]
        pos = block * BLOCK_WORDS + offset
        i = pos % n
        count = min(count, n - i)
        if kind == "write_word":
            mem.write_word(i * 8, value)
            ref[i] = value
        elif kind == "write_words":
            values = [(value + k) & U64 for k in range(count)]
            mem.write_words(i * 8, values)
            ref[i:i + count] = np.array(values, dtype=np.uint64)
        elif kind == "fill":
            mem.fill(i * 8, count, value)
            ref[i:i + count] = value
        elif kind == "fetch_or":
            old = mem.fetch_or(i * 8, value)
            assert old == int(ref[i])
            ref[i] |= np.uint64(value)
        elif kind == "fetch_and":
            old = mem.fetch_and(i * 8, value)
            assert old == int(ref[i])
            ref[i] &= np.uint64(value)
        elif kind == "note_dirty":
            count = max(count, 1)
            mem.words[i:i + count] = np.uint64(value)
            mem.note_dirty(i, count)
            ref[i:i + count] = value
        elif kind == "scatter":
            # ``count`` words ``stride`` apart, wrapping around the image,
            # so stores cross blocks and may repeat an index (the last
            # store to it wins).
            stride = 1 + value % 4500
            at = [(i + k * stride) % n for k in range(count)]
            values = [(value + k) & U64 for k in range(count)]
            mem.scatter(at, values)
            for k in range(count):
                ref[at[k]] = values[k]
        elif kind == "map_linear":
            # The page-table layout is not modelled here: the reference
            # adopts the image's words, and a missed dirty block shows up
            # at the next restore.
            start = offset % (size // 4096 - 4) * 4096
            PageTable(mem, (start, start + 4 * 4096)).map_linear(
                0x4000_0000, 0, size)
            ref[:] = mem.words
        elif kind == "snapshot":
            snap = mem.snapshot()
            assert snap.n_words == n
            assert np.array_equal(dense(snap), ref)
            snaps.append((snap, ref.copy()))
        elif snaps:  # restore
            snap, image = snaps[offset % len(snaps)]
            mem.restore(snap)
            ref[:] = image
        assert np.array_equal(mem.words, ref), (kind, which)
    # Every snapshot still stands for the image it was taken from.
    for snap, image in snaps:
        assert np.array_equal(dense(snap), image)


@pytest.mark.parametrize("size", [128 * 1024, 100 * 1024],
                         ids=["whole-blocks", "ragged"])
@given(ops=_OPS)
@settings(max_examples=300, deadline=None)
def test_snapshot_battery(size, ops):
    _run_battery(size, ops)


#: The sequences each broken snapshot or restore rule fails on.
NAMED_SEQUENCES = {
    # Restoring a foreign snapshot must clear the clean point's blocks.
    "clean blocks": [("write_word", 0, (2, 0), 0, 5),
                     ("snapshot", 0, (0, 0), 0, 0),
                     ("snapshot", 1, (0, 0), 0, 0),
                     ("restore", 0, (0, 1), 0, 0)],
    # ... and must write the snapshot's blocks.
    "snapshot blocks": [("write_word", 1, (3, 0), 0, 6),
                        ("snapshot", 1, (0, 0), 0, 0),
                        ("restore", 0, (0, 0), 0, 0)],
    # A snapshot after a restore must copy the clean point's blocks.
    "snapshot of a restored image": [("write_word", 1, (0, 1), 0, 7),
                                     ("snapshot", 1, (0, 0), 0, 0),
                                     ("restore", 0, (0, 0), 0, 0),
                                     ("snapshot", 0, (0, 0), 0, 0),
                                     ("write_word", 0, (0, 1), 0, 0),
                                     ("restore", 0, (0, 1), 0, 0)],
    # A scatter after a snapshot must mark its blocks dirty, or the
    # restore leaves them as they are.
    "scatter dirty": [("snapshot", 0, (0, 0), 0, 0),
                      ("scatter", 0, (2, 5), 3, 7),
                      ("restore", 0, (0, 0), 0, 0)],
    # A dirty block the snapshot leaves out must be zeroed.
    "zeroing": [("snapshot", 0, (0, 0), 0, 0),
                ("fill", 0, (0, 0), BLOCK_WORDS, 3),
                ("restore", 0, (0, 0), 0, 0)],
}


@pytest.mark.parametrize("name", sorted(NAMED_SEQUENCES))
def test_snapshot_battery_named_sequence(name):
    _run_battery(128 * 1024, NAMED_SEQUENCES[name])


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
