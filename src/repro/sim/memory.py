"""Simulated DRAM with an optional SECDED ECC layer.

The byte store is real: workloads read and write actual bytes here, and
radiation faults flip actual stored bits (without updating the check
bits — exactly what an energetic particle does). On a read, an
ECC-equipped DRAM corrects single-bit flips per 64-bit word, counts the
correction, and raises :class:`~repro.errors.UncorrectableMemoryError`
for double-bit flips — giving EMR its *reliability frontier*. With
``ecc=False`` (the Snapdragon-801 configuration the paper flew to Mars)
flips silently corrupt the data a reader sees.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import AllocationError, InvalidAddressError, UncorrectableMemoryError
from . import ecc
from .faults import FaultRegion

_WORD = 8


@dataclass(frozen=True)
class MemoryRegion:
    """A contiguous span of simulated memory, ``[addr, addr + size)``."""

    addr: int
    size: int
    label: str = ""

    @property
    def end(self) -> int:
        return self.addr + self.size

    def overlaps(self, other: "MemoryRegion") -> bool:
        if not self.size or not other.size:
            return False
        return self.addr < other.end and other.addr < self.end

    def contains(self, addr: int) -> bool:
        return self.addr <= addr < self.end

    def subregion(self, offset: int, size: int, label: str = "") -> "MemoryRegion":
        if offset < 0 or size < 0 or offset + size > self.size:
            raise InvalidAddressError(
                f"subregion ({offset}, {size}) exceeds {self.label or 'region'}"
                f" of size {self.size}"
            )
        return MemoryRegion(self.addr + offset, size, label or self.label)

    def line_span(self, line_size: int) -> range:
        """Cache-line indices this region touches."""
        first = self.addr // line_size
        last = (self.end - 1) // line_size if self.size else first - 1
        return range(first, last + 1)


@dataclass
class MemoryStats:
    """Access and error accounting for one DRAM device."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    corrected_errors: int = 0
    detected_errors: int = 0
    injected_flips: int = 0
    corrected_addresses: list = field(default_factory=list)

    def reset(self) -> None:
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.corrected_errors = 0
        self.detected_errors = 0
        self.injected_flips = 0
        self.corrected_addresses.clear()

    def copy(self) -> "MemoryStats":
        return replace(self, corrected_addresses=list(self.corrected_addresses))


@dataclass(frozen=True)
class MemorySnapshot:
    """Full logical state of one :class:`SimMemory` device.

    Only the touched prefix (``high_water`` bytes) is materialised:
    every byte beyond it is guaranteed zero, because writes and
    injected flips are the only mutation paths and both advance the
    high-water mark. A snapshot of a mostly-empty 48 MB device is
    therefore KB-sized and cheap to pickle into worker processes.
    """

    size: int
    has_ecc: bool
    high_water: int
    data: bytes
    checks: "bytes | None"
    bump: int
    allocations: "tuple[MemoryRegion, ...]"
    dirty_words: "tuple[int, ...]"
    stats: MemoryStats


class SimMemory:
    """Byte-addressable simulated DRAM.

    Parameters
    ----------
    size:
        Capacity in bytes (rounded up to a multiple of 8).
    ecc:
        Whether this DRAM carries SECDED check bits (per 64-bit word).
    name:
        Used in error messages and telemetry labels.
    """

    def __init__(self, size: int, ecc: bool = True, name: str = "dram") -> None:
        if size <= 0:
            raise AllocationError(f"memory size must be positive, got {size}")
        size = (size + _WORD - 1) // _WORD * _WORD
        self.size = size
        self.name = name
        self.has_ecc = ecc
        # np.zeros is calloc-backed: a 48 MB device costs microseconds
        # (lazy zero pages) instead of the milliseconds bytearray spends
        # memset-ing, which dominates Machine construction in campaigns.
        # Data and check bytes share one allocation: a separate check
        # array is small enough for the allocator to serve from reused
        # heap, which calloc must memset on every machine built.
        # All-zero data with all-zero checks is a valid SECDED codeword
        # (encode(0) == 0), so fresh memory needs no initial encoding.
        store = np.zeros(size + (size // _WORD if ecc else 0), dtype=np.uint8)
        self._data = store[:size]
        self._checks = store[size:] if ecc else None
        self._bump = 0
        self._allocations: list[MemoryRegion] = []
        self.stats = MemoryStats()
        # Word indices whose stored bits diverge from their check bits
        # (i.e. radiation landed there and has not yet been scrubbed).
        # Reads of spans that avoid these words can skip ECC decode:
        # every write re-encodes, so untouched words are valid codewords
        # and decoding them is the identity.
        self._dirty_words: set[int] = set()
        # Word-aligned upper bound of every byte ever written or
        # flipped; bytes at or beyond it are still calloc-zero. Keeps
        # snapshots proportional to *touched* memory, not capacity.
        self._high_water = 0

    def _note_touch(self, end: int) -> None:
        if end > self._high_water:
            self._high_water = min(self.size, (end + _WORD - 1) // _WORD * _WORD)

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def alloc(self, size: int, label: str = "", align: int = _WORD) -> MemoryRegion:
        """Bump-allocate a region aligned to ``align`` (>= 8) bytes.

        EMR allocates input blobs cache-line aligned so that conflict
        detection in blob-relative coordinates matches the machine's
        physical line layout.
        """
        if size < 0:
            raise AllocationError(f"allocation size must be >= 0, got {size}")
        if align < _WORD or align % _WORD:
            raise AllocationError(f"align must be a multiple of {_WORD}, got {align}")
        self._bump = (self._bump + align - 1) // align * align
        aligned = (size + align - 1) // align * align
        if self._bump + aligned > self.size:
            raise AllocationError(
                f"{self.name}: out of memory allocating {size} bytes "
                f"({self.size - self._bump} free of {self.size})"
            )
        region = MemoryRegion(self._bump, size, label)
        self._bump += aligned
        self._allocations.append(region)
        return region

    def free_all(self) -> None:
        """Release every allocation (contents remain until overwritten)."""
        self._bump = 0
        self._allocations.clear()

    @property
    def allocations(self) -> tuple[MemoryRegion, ...]:
        return tuple(self._allocations)

    @property
    def allocated_bytes(self) -> int:
        return self._bump

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def _span_dirty(self, first_word: int, last_word: int) -> bool:
        if not self._dirty_words:
            return False
        if last_word - first_word + 1 < len(self._dirty_words):
            return any(
                w in self._dirty_words for w in range(first_word, last_word + 1)
            )
        return any(first_word <= w <= last_word for w in self._dirty_words)

    def _check_span(self, addr: int, n: int) -> None:
        if addr < 0 or n < 0 or addr + n > self.size:
            raise InvalidAddressError(
                f"{self.name}: access [{addr}, {addr + n}) outside device "
                f"of size {self.size}"
            )

    def _reencode_words(self, first_word: int, count: int) -> None:
        assert self._checks is not None
        start = first_word * _WORD
        stop = (first_word + count) * _WORD
        words = self._data[start:stop].view("<u8")
        self._checks[first_word : first_word + count] = ecc.encode_array(words)

    def write(self, addr: int, data: bytes) -> None:
        """Store ``data`` at ``addr`` and refresh ECC for touched words.

        Partial-word writes decode-and-correct the word first (the
        read-modify-write a real ECC memory controller performs), so a
        latent single-bit error in untouched bytes is scrubbed rather
        than laundered into a freshly valid codeword.
        """
        n = len(data)
        self._check_span(addr, n)
        if n == 0:
            return
        self._note_touch(addr + n)
        if self.has_ecc:
            first_word = addr // _WORD
            last_word = (addr + n - 1) // _WORD
            # Scrub partially-covered boundary words before overwriting.
            # A word outside _dirty_words is a valid codeword, so its
            # decode is the identity and is skipped (as in read()).
            if addr % _WORD and first_word in self._dirty_words:
                self._scrub_word(first_word)
            if (
                (addr + n) % _WORD
                and last_word != first_word
                and last_word in self._dirty_words
            ):
                self._scrub_word(last_word)
        self._data[addr : addr + n] = np.frombuffer(data, dtype=np.uint8)
        if self.has_ecc:
            self._reencode_words(first_word, last_word - first_word + 1)
            if self._dirty_words:
                self._dirty_words.difference_update(
                    range(first_word, last_word + 1)
                )
        self.stats.writes += 1
        self.stats.bytes_written += n

    def _scrub_word(self, word_index: int) -> None:
        assert self._checks is not None
        start = word_index * _WORD
        word = int(self._data[start : start + _WORD].view("<u8")[0])
        result = ecc.decode(word, int(self._checks[word_index]))
        if result.uncorrectable:
            self.stats.detected_errors += 1
            raise UncorrectableMemoryError(start)
        if result.corrected:
            self.stats.corrected_errors += 1
            self.stats.corrected_addresses.append(start)
            self._data[start : start + _WORD].view("<u8")[0] = result.data
            self._checks[word_index] = ecc.encode(result.data)
        self._dirty_words.discard(word_index)

    def read(self, addr: int, n: int) -> bytes:
        """Load ``n`` bytes, correcting single-bit errors on the way."""
        self._check_span(addr, n)
        self.stats.reads += 1
        self.stats.bytes_read += n
        if n == 0:
            return b""
        if not self.has_ecc:
            return bytes(self._data[addr : addr + n])
        first_word = addr // _WORD
        last_word = (addr + n - 1) // _WORD
        if not self._span_dirty(first_word, last_word):
            return bytes(self._data[addr : addr + n])
        start = first_word * _WORD
        stop = (last_word + 1) * _WORD
        words = self._data[start:stop].view("<u8")
        checks = self._checks[first_word : last_word + 1]
        fixed, corrected, uncorrectable = ecc.decode_array(words, checks)
        if uncorrectable.any():
            bad = int(np.nonzero(uncorrectable)[0][0])
            self.stats.detected_errors += int(uncorrectable.sum())
            raise UncorrectableMemoryError(start + bad * _WORD)
        if corrected.any():
            # Write the corrected words (and fresh checks) back: scrubbing.
            idx = np.nonzero(corrected)[0]
            self.stats.corrected_errors += len(idx)
            words[idx] = fixed[idx]
            checks[idx] = ecc.encode_array(fixed[idx])
            for i in idx:
                self.stats.corrected_addresses.append(start + int(i) * _WORD)
                self._dirty_words.discard(first_word + int(i))
        return ecc.words_to_bytes(fixed)[addr - start : addr - start + n]

    def read_prefixed(self, addr: int, limit: int) -> bytes:
        """Load a length-prefixed record: the 4-byte little-endian
        length at ``addr``, capped at ``limit``, then that many bytes.

        The same bytes, exceptions, scrubs and stats (two reads) as
        ``read(addr, 4)`` followed by ``read(addr + 4, length)``, which
        it is when a word of the record holds an unscrubbed flip;
        otherwise no word needs decoding and it is one slice pass.
        """
        self._check_span(addr, 4)
        if self.has_ecc and self._span_dirty(addr // _WORD, (addr + 3 + limit) // _WORD):
            length = min(int.from_bytes(self.read(addr, 4), "little"), limit)
            return self.read(addr + 4, length)
        stats = self.stats
        stats.reads += 1
        stats.bytes_read += 4
        data = self._data
        length = min(int.from_bytes(bytes(data[addr : addr + 4]), "little"), limit)
        self._check_span(addr + 4, length)
        stats.reads += 1
        stats.bytes_read += length
        return bytes(data[addr + 4 : addr + 4 + length])

    def read_region(self, region: MemoryRegion) -> bytes:
        return self.read(region.addr, region.size)

    def write_region(self, region: MemoryRegion, data: bytes) -> None:
        if len(data) > region.size:
            raise InvalidAddressError(
                f"{len(data)} bytes do not fit region {region.label!r} "
                f"of size {region.size}"
            )
        self.write(region.addr, data)

    # ------------------------------------------------------------------
    # Fault domain (see repro.sim.faults)
    # ------------------------------------------------------------------
    def fault_census(self) -> "tuple[FaultRegion, ...]":
        """Live DRAM state: the allocated data bytes, plus — on an ECC
        device — the SECDED check bytes, one per allocated word (check
        storage is silicon too; particles do not skip it)."""
        protection = "secded" if self.has_ecc else "none"
        regions = [
            FaultRegion(
                "data", self._bump * 8, protection=protection, scope="shared"
            )
        ]
        if self.has_ecc:
            regions.append(
                FaultRegion(
                    "checks", (self._bump // _WORD) * 8,
                    protection="secded", scope="shared",
                )
            )
        return tuple(regions)

    def fault_strike(self, region: str, offset: int, bit: int) -> str:
        """``data`` offsets are byte addresses; ``checks`` offsets are
        word indices (one check byte per 64-bit word)."""
        if region == "data":
            if not 0 <= offset < self._bump:
                raise InvalidAddressError(
                    f"{self.name}: data offset {offset} outside the "
                    f"{self._bump} allocated bytes"
                )
            self.flip_bit(offset, bit & 7)
            return f"{self.name} data 0x{offset:x} bit {bit & 7}"
        if region == "checks":
            if not 0 <= offset < self._bump // _WORD:
                raise InvalidAddressError(
                    f"{self.name}: check word {offset} outside the "
                    f"{self._bump // _WORD} allocated words"
                )
            self.flip_check_bit(offset, bit)
            return f"{self.name} check word {offset} bit {bit & 7}"
        raise InvalidAddressError(f"{self.name}: no fault region {region!r}")

    # ------------------------------------------------------------------
    # Radiation interface
    # ------------------------------------------------------------------
    def flip_bit(self, addr: int, bit: int) -> None:
        """Flip one stored data bit *without* updating ECC (a particle hit)."""
        self._check_span(addr, 1)
        if not 0 <= bit < 8:
            raise InvalidAddressError(f"bit index {bit} out of range")
        self._data[addr] ^= 1 << bit
        self.stats.injected_flips += 1
        self._dirty_words.add(addr // _WORD)
        self._note_touch(addr + 1)

    def flip_check_bit(self, word_index: int, bit: int) -> None:
        """Flip one ECC check bit (particles hit check storage too)."""
        if self._checks is None:
            raise InvalidAddressError(f"{self.name} has no ECC check bits")
        if not 0 <= word_index < len(self._checks):
            raise InvalidAddressError(f"word index {word_index} out of range")
        self._checks[word_index] ^= 1 << (bit & 7)
        self.stats.injected_flips += 1
        self._dirty_words.add(word_index)
        self._note_touch((word_index + 1) * _WORD)

    def peek(self, addr: int, n: int) -> bytes:
        """Raw store contents, bypassing ECC (for tests and injectors)."""
        self._check_span(addr, n)
        return bytes(self._data[addr : addr + n])

    def scrub(self) -> int:
        """Read every allocated word to force correction; returns fixes."""
        before = self.stats.corrected_errors
        if self._bump:
            self.read(0, self._bump)
        return self.stats.corrected_errors - before

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def snapshot(self) -> MemorySnapshot:
        """Capture the device's full logical state (see MemorySnapshot)."""
        hw = self._high_water
        return MemorySnapshot(
            size=self.size,
            has_ecc=self.has_ecc,
            high_water=hw,
            data=self._data[:hw].tobytes(),
            checks=(
                None
                if self._checks is None
                else self._checks[: hw // _WORD].tobytes()
            ),
            bump=self._bump,
            allocations=tuple(self._allocations),
            dirty_words=tuple(sorted(self._dirty_words)),
            stats=self.stats.copy(),
        )

    def restore(self, snap: MemorySnapshot) -> None:
        """Rewind to a snapshot taken from an identically-shaped device."""
        if snap.size != self.size or snap.has_ecc != self.has_ecc:
            raise AllocationError(
                f"{self.name}: snapshot shape ({snap.size}B, "
                f"ecc={snap.has_ecc}) does not match device "
                f"({self.size}B, ecc={self.has_ecc})"
            )
        hw = snap.high_water
        # Zero only the span this device touched beyond the snapshot's
        # high-water mark — the calloc tail past our own mark is
        # untouched, so a restore never faults in the full capacity.
        if self._high_water > hw:
            self._data[hw : self._high_water] = 0
            if self._checks is not None:
                self._checks[hw // _WORD : self._high_water // _WORD] = 0
        if hw:
            self._data[:hw] = np.frombuffer(snap.data, dtype=np.uint8)
            if self._checks is not None:
                self._checks[: hw // _WORD] = np.frombuffer(
                    snap.checks, dtype=np.uint8
                )
        self._high_water = hw
        self._bump = snap.bump
        self._allocations = list(snap.allocations)
        self._dirty_words = set(snap.dirty_words)
        self.stats = snap.stats.copy()

    def __repr__(self) -> str:
        kind = "ECC" if self.has_ecc else "non-ECC"
        return f"SimMemory({self.name!r}, {self.size}B, {kind})"
