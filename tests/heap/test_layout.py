"""Bidirectional object layout: placement of scan word, refs, status word."""

import pytest

from repro.heap.header import decode_refcount, scan_word_is_object
from repro.heap.layout import BidirectionalLayout, ConventionalLayout, ObjectShape
from repro.memory.memimage import PhysicalMemory


@pytest.fixture
def mem():
    return PhysicalMemory(64 * 1024)


def _initialize(mem, cell, shape, mark):
    return BidirectionalLayout.initialize(
        mem, cell, BidirectionalLayout.metadata_words(shape, mark))


class TestShape:
    def test_words_needed(self):
        # scan word + refs + status word + payload
        assert ObjectShape(3, 2).bidirectional_words == 2 + 3 + 2

    def test_layout_words(self):
        assert BidirectionalLayout.words_needed(ObjectShape(1, 0)) == 3

    def test_defaults_and_fields(self):
        shape = ObjectShape(2)
        assert (shape.n_refs, shape.n_payload_words, shape.is_array) == \
            (2, 0, False)
        assert shape == ObjectShape(2, 0, False)
        assert hash(shape) == hash(ObjectShape(2, 0, False))
        assert repr(shape) == \
            "ObjectShape(n_refs=2, n_payload_words=0, is_array=False)"

    def test_immutable(self):
        shape = ObjectShape(2, 1)
        with pytest.raises(AttributeError):
            shape.n_refs = 3

    @pytest.mark.parametrize("args,field", [
        ((-3, 0), "n_refs"),
        ((5, -4), "n_payload_words"),
        ((2 ** 31, 0), "n_refs"),
    ])
    def test_bad_counts_rejected_naming_the_field(self, args, field):
        # ObjectShape(5, -4) used to get a 4-word cell and write 7 words.
        with pytest.raises(ValueError, match=field):
            ObjectShape(*args)

    def test_replace_keeps_the_checks(self):
        with pytest.raises(ValueError, match="n_payload_words"):
            ObjectShape(1, 2)._replace(n_payload_words=-1)


class TestBidirectional:
    def test_initialize_layout(self, mem):
        cell = 0x400
        shape = ObjectShape(n_refs=3, n_payload_words=2)
        mem.fill(cell, 7, 0xDEAD_BEEF)  # a reused cell's stale words
        status_paddr = _initialize(mem, cell, shape, mark=0)
        # Scan word at cell start, status after the refs.
        assert status_paddr == cell + 8 * (1 + 3)
        scan = mem.read_word(cell)
        assert scan_word_is_object(scan)
        assert decode_refcount(scan) == (3, False)
        assert decode_refcount(mem.read_word(status_paddr)) == (3, False)
        # Reference fields initialized to null; the payload is untouched.
        assert mem.read_words(cell + 8, 3) == [0, 0, 0]
        assert mem.read_words(status_paddr + 8, 2) == [0xDEAD_BEEF] * 2

    def test_status_paddr_from_cell(self, mem):
        cell = 0x800
        shape = ObjectShape(n_refs=5)
        status = _initialize(mem, cell, shape, mark=1)
        assert BidirectionalLayout.status_paddr_from_cell(mem, cell) == status

    def test_ref_field_addresses(self):
        obj = 0x1000  # status-word address
        # Refs sit immediately below the status word.
        assert BidirectionalLayout.ref_field_addr(obj, 3, 0) == obj - 24
        assert BidirectionalLayout.ref_field_addr(obj, 3, 2) == obj - 8
        with pytest.raises(IndexError):
            BidirectionalLayout.ref_field_addr(obj, 3, 3)

    def test_ref_section_is_unit_stride_below_header(self):
        start, nbytes = BidirectionalLayout.ref_section(0x1000, 4)
        assert start == 0x1000 - 32 and nbytes == 32

    def test_cell_from_status_inverse(self, mem):
        cell = 0xC00
        shape = ObjectShape(n_refs=2, n_payload_words=1)
        status = _initialize(mem, cell, shape, mark=0)
        assert BidirectionalLayout.cell_paddr_from_status(status, 2) == cell

    def test_array_flag_propagates(self, mem):
        cell = 0x1400
        status = _initialize(mem, cell, ObjectShape(4, 0, is_array=True),
                             mark=0)
        assert decode_refcount(mem.read_word(cell)) == (4, True)
        assert decode_refcount(mem.read_word(status)) == (4, True)


class TestConventional:
    def test_tib_registration(self, mem):
        layout = ConventionalLayout()
        layout.register_tib(mem, type_id=7, offsets=[2, 5, 9], paddr=0x2000)
        assert layout.tib_addr(7) == 0x2000
        assert layout.offsets(7) == [2, 5, 9]
        assert mem.read_word(0x2000) == 3
        assert mem.read_words(0x2008, 3) == [2, 5, 9]
