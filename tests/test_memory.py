"""Tests for the simulated DRAM model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    AllocationError,
    InvalidAddressError,
    UncorrectableMemoryError,
)
from repro.sim import MemoryRegion, SimMemory


class TestRegions:
    def test_overlap_detection(self):
        a = MemoryRegion(0, 100)
        b = MemoryRegion(50, 100)
        c = MemoryRegion(100, 10)
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c)

    def test_zero_size_region_overlaps_nothing(self):
        a = MemoryRegion(10, 0)
        b = MemoryRegion(0, 100)
        assert not a.overlaps(b)

    def test_subregion_bounds(self):
        region = MemoryRegion(64, 128, "blob")
        sub = region.subregion(8, 16)
        assert sub.addr == 72 and sub.size == 16
        with pytest.raises(InvalidAddressError):
            region.subregion(120, 16)

    def test_line_span(self):
        region = MemoryRegion(60, 10)  # crosses the 64-byte boundary
        assert list(region.line_span(64)) == [0, 1]


class TestAllocator:
    def test_alignment(self):
        mem = SimMemory(1024)
        a = mem.alloc(3)
        b = mem.alloc(5)
        assert a.addr % 8 == 0 and b.addr % 8 == 0
        assert not a.overlaps(b)

    def test_exhaustion(self):
        mem = SimMemory(64)
        mem.alloc(48)
        with pytest.raises(AllocationError):
            mem.alloc(32)

    def test_free_all_resets(self):
        mem = SimMemory(64)
        mem.alloc(48)
        mem.free_all()
        mem.alloc(48)  # fits again


class TestReadWrite:
    @pytest.mark.parametrize("ecc", [True, False])
    def test_roundtrip(self, ecc):
        mem = SimMemory(4096, ecc=ecc)
        region = mem.alloc(100)
        payload = bytes(range(100))
        mem.write_region(region, payload)
        assert mem.read_region(region) == payload

    def test_unaligned_partial_write(self):
        mem = SimMemory(4096)
        region = mem.alloc(32)
        mem.write_region(region, b"\xff" * 32)
        mem.write(region.addr + 3, b"abc")
        expect = b"\xff" * 3 + b"abc" + b"\xff" * 26
        assert mem.read_region(region) == expect

    def test_out_of_bounds_read(self):
        mem = SimMemory(64)
        with pytest.raises(InvalidAddressError):
            mem.read(60, 10)

    def test_oversized_region_write(self):
        mem = SimMemory(64)
        region = mem.alloc(8)
        with pytest.raises(InvalidAddressError):
            mem.write_region(region, b"123456789")

    @given(st.binary(min_size=1, max_size=200), st.integers(0, 31))
    @settings(max_examples=50)
    def test_roundtrip_property(self, payload, offset):
        mem = SimMemory(4096)
        mem.write(offset, payload)
        assert mem.read(offset, len(payload)) == payload


class TestEccBehaviour:
    def test_single_flip_corrected_and_counted(self):
        mem = SimMemory(4096, ecc=True)
        region = mem.alloc(64)
        mem.write_region(region, bytes(range(64)))
        mem.flip_bit(region.addr + 10, 3)
        assert mem.read_region(region) == bytes(range(64))
        assert mem.stats.corrected_errors == 1

    def test_correction_scrubs(self):
        mem = SimMemory(4096, ecc=True)
        region = mem.alloc(8)
        mem.write_region(region, b"ABCDEFGH")
        mem.flip_bit(region.addr, 0)
        mem.read_region(region)
        mem.read_region(region)
        assert mem.stats.corrected_errors == 1  # second read was clean

    def test_double_flip_same_word_detected(self):
        mem = SimMemory(4096, ecc=True)
        region = mem.alloc(8)
        mem.write_region(region, b"ABCDEFGH")
        mem.flip_bit(region.addr, 0)
        mem.flip_bit(region.addr + 4, 7)
        with pytest.raises(UncorrectableMemoryError):
            mem.read_region(region)
        assert mem.stats.detected_errors >= 1

    def test_flips_in_different_words_both_corrected(self):
        mem = SimMemory(4096, ecc=True)
        region = mem.alloc(64)
        mem.write_region(region, bytes(64))
        mem.flip_bit(region.addr + 1, 0)
        mem.flip_bit(region.addr + 33, 5)
        assert mem.read_region(region) == bytes(64)
        assert mem.stats.corrected_errors == 2

    def test_non_ecc_flip_is_silent(self):
        mem = SimMemory(4096, ecc=False)
        region = mem.alloc(8)
        mem.write_region(region, b"\x00" * 8)
        mem.flip_bit(region.addr, 0)
        assert mem.read_region(region) == b"\x01" + b"\x00" * 7
        assert mem.stats.corrected_errors == 0

    def test_check_bit_flip_corrected(self):
        mem = SimMemory(4096, ecc=True)
        region = mem.alloc(8)
        mem.write_region(region, b"12345678")
        mem.flip_check_bit(region.addr // 8, 2)
        assert mem.read_region(region) == b"12345678"
        assert mem.stats.corrected_errors == 1

    def test_partial_overwrite_of_flipped_word_scrubs_first(self):
        mem = SimMemory(4096, ecc=True)
        region = mem.alloc(8)
        mem.write_region(region, b"ABCDEFGH")
        mem.flip_bit(region.addr, 0)  # corrupt byte 0
        mem.write(region.addr + 4, b"wxyz")  # partial word write
        assert mem.read_region(region) == b"ABCDwxyz"

    def test_scrub_fixes_everything(self):
        mem = SimMemory(4096, ecc=True)
        region = mem.alloc(256)
        payload = bytes(np.random.default_rng(0).integers(0, 256, 256, dtype=np.uint8))
        mem.write_region(region, payload)
        for offset in (0, 64, 128):
            mem.flip_bit(region.addr + offset, 1)
        assert mem.scrub() == 3
        assert mem.read_region(region) == payload

    def test_peek_bypasses_correction(self):
        mem = SimMemory(4096, ecc=True)
        region = mem.alloc(8)
        mem.write_region(region, b"\x00" * 8)
        mem.flip_bit(region.addr, 0)
        assert mem.peek(region.addr, 1) == b"\x01"


def _two_reads(mem, addr, limit):
    length = min(int.from_bytes(mem.read(addr, 4), "little"), limit)
    return mem.read(addr + 4, length)


def _prefixed_outcome(read, mem, addr, limit):
    """What one length-prefixed read leaves behind: its value or its
    error, the stats, the dirty words and the stored bits."""
    try:
        value = read(mem, addr, limit)
    except (InvalidAddressError, UncorrectableMemoryError) as exc:
        value = (type(exc).__name__, str(exc))
    stats = mem.stats
    return (
        value,
        (stats.reads, stats.bytes_read, stats.corrected_errors,
         stats.detected_errors, stats.corrected_addresses),
        sorted(mem._dirty_words),
        mem.peek(0, mem.size),
        None if mem._checks is None else bytes(mem._checks),
    )


class TestReadPrefixed:
    """``read_prefixed`` against the two reads it replaces."""

    @given(
        ecc=st.booleans(),
        addr=st.integers(0, 120),
        declared=st.integers(0, 300),
        limit=st.integers(0, 140),
        payload=st.binary(max_size=140),
        flips=st.lists(
            st.tuples(st.booleans(), st.integers(0, 255), st.integers(0, 7)),
            max_size=4,
        ),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_two_reads(self, ecc, addr, declared, limit, payload, flips):
        outcomes = []
        for read in (SimMemory.read_prefixed, _two_reads):
            mem = SimMemory(256, ecc=ecc)
            record = declared.to_bytes(4, "little") + payload
            mem.write(addr, record[: mem.size - addr])
            for check, where, bit in flips:
                if check and ecc:
                    mem.flip_check_bit(where // 8, bit)
                else:
                    mem.flip_bit(where, bit)
            outcomes.append(_prefixed_outcome(read, mem, addr, limit))
        assert outcomes[0] == outcomes[1]

    def test_counts_as_two_reads(self):
        mem = SimMemory(4096)
        region = mem.alloc(64)
        mem.write(region.addr, (5).to_bytes(4, "little") + b"hello-and-more")
        assert mem.read_prefixed(region.addr, 60) == b"hello"
        assert (mem.stats.reads, mem.stats.bytes_read) == (2, 9)

    def test_address_past_the_device_raises_before_counting(self):
        mem = SimMemory(64)
        with pytest.raises(InvalidAddressError):
            mem.read_prefixed(62, 0)
        assert mem.stats.reads == 0
