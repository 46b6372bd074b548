"""Cache hierarchy: private L1 per core group, one shared L2.

The cache is the heart of the EMR story. Commodity CPU caches have no
ECC, so an SEU that lands in a *shared* cache line corrupts every
executor that reads that line — which is exactly why naive parallel
3-MR is unsound (§3.2) and why EMR forbids two conflicting datasets in
the same jobset. The model therefore keeps real byte copies per line:
a fill snapshots DRAM, later reads serve the snapshot, and an injected
flip in the snapshot is visible to every subsequent reader of the line
until it is flushed or evicted.

Writes are write-through (memory is updated immediately and any
resident copy of the line is refreshed), which matches how EMR reasons
about outputs: results are pushed back inside the reliability frontier
as soon as they are produced.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from ..errors import ConfigurationError, InvalidAddressError, UncorrectableMemoryError
from . import ecc as ecc_codec
from .faults import FaultRegion
from .memory import MemoryRegion, SimMemory


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    flushed_lines: int = 0
    injected_flips: int = 0
    corrected_errors: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.flushed_lines = 0
        self.injected_flips = 0
        self.corrected_errors = 0


@dataclass(frozen=True)
class CacheSnapshot:
    """Logical state of one cache level.

    ``lines`` preserves LRU order (oldest first) — recency is semantic
    state: it decides the next eviction victim.
    """

    lines: "tuple[tuple[int, bytes], ...]"
    checks: "tuple[tuple[int, bytes], ...]"
    dirty: "tuple[int, ...]"
    stats: CacheStats


@dataclass(frozen=True)
class HierarchySnapshot:
    """State of every level of a :class:`CacheHierarchy`."""

    l1: "tuple[CacheSnapshot, ...]"
    l2: CacheSnapshot


@dataclass
class AccessTrace:
    """Where the lines of one logical access were served from."""

    l1_hits: int = 0
    l2_hits: int = 0
    memory_fills: int = 0

    @property
    def lines(self) -> int:
        return self.l1_hits + self.l2_hits + self.memory_fills

    def merge(self, other: "AccessTrace") -> None:
        self.l1_hits += other.l1_hits
        self.l2_hits += other.l2_hits
        self.memory_fills += other.memory_fills


class Cache:
    """A single LRU cache level holding real line copies.

    With ``ecc=True`` the level models SECDED-protected SRAM arrays
    (some server-class and automotive SoCs have them): every fill
    records per-word check bytes, and a lookup of a line that radiation
    has touched is decoded and corrected (or flagged uncorrectable).
    EMR detects ECC caches and reverts to plain parallel 3-MR (§3.2).
    """

    def __init__(self, capacity_lines: int, line_size: int, name: str,
                 ecc: bool = False, scope: str = "shared",
                 die_bucket: "str | None" = None) -> None:
        if capacity_lines <= 0:
            raise ConfigurationError(f"{name}: capacity must be positive")
        if line_size <= 0 or line_size % 8:
            raise ConfigurationError(f"{name}: line size must be a positive multiple of 8")
        self.capacity_lines = capacity_lines
        self.line_size = line_size
        self.name = name
        self.has_ecc = ecc
        #: Fault-surface attributes: whether this level is private to
        #: one executor's core group, and which Table 4 die bucket its
        #: SRAM belongs to (see repro.sim.faults).
        self.scope = scope
        self.die_bucket = die_bucket
        self._lines: "OrderedDict[int, bytearray]" = OrderedDict()
        self._checks: "dict[int, bytes]" = {}
        self._dirty: "set[int]" = set()  # lines radiation has touched
        self.stats = CacheStats()

    def lookup(self, line_index: int) -> "bytearray | None":
        data = self._lines.get(line_index)
        if data is None:
            self.stats.misses += 1
            return None
        self._lines.move_to_end(line_index)
        self.stats.hits += 1
        if self.has_ecc and line_index in self._dirty:
            self._correct_line(line_index, data)
        return data

    def _correct_line(self, line_index: int, data: bytearray) -> None:
        words = ecc_codec.bytes_to_words(bytes(data))
        checks = np.frombuffer(self._checks[line_index], dtype=np.uint8)
        fixed, corrected, uncorrectable = ecc_codec.decode_array(words, checks)
        if uncorrectable.any():
            raise UncorrectableMemoryError(
                line_index * self.line_size,
                f"{self.name}: uncorrectable cache line {line_index}",
            )
        if corrected.any():
            data[:] = ecc_codec.words_to_bytes(fixed)
            self.stats.corrected_errors += int(corrected.sum())
        self._dirty.discard(line_index)

    def fill(self, line_index: int, data: bytes) -> bytearray:
        copy = bytearray(data)
        if line_index in self._lines:
            self._lines.move_to_end(line_index)
        elif len(self._lines) >= self.capacity_lines:
            evicted, _ = self._lines.popitem(last=False)
            self._checks.pop(evicted, None)
            self._dirty.discard(evicted)
            self.stats.evictions += 1
        self._lines[line_index] = copy
        if self.has_ecc:
            words = ecc_codec.bytes_to_words(bytes(copy))
            self._checks[line_index] = ecc_codec.encode_array(words).tobytes()
            self._dirty.discard(line_index)
        return copy

    def update_if_present(self, line_index: int, data: bytes) -> None:
        if line_index in self._lines:
            self._lines[line_index][:] = data
            if self.has_ecc:
                words = ecc_codec.bytes_to_words(bytes(data))
                self._checks[line_index] = ecc_codec.encode_array(words).tobytes()
                self._dirty.discard(line_index)

    def flush_lines(self, lines) -> int:
        """Drop the resident ones of ``lines``; returns how many."""
        table = self._lines
        resident = [line_index for line_index in lines if line_index in table]
        for line_index in resident:
            del table[line_index]
        # Check bytes exist only with ECC and dirty lines only after a
        # strike: most flushes have neither to drop.
        if self._checks:
            for line_index in resident:
                self._checks.pop(line_index, None)
        if self._dirty:
            self._dirty.difference_update(resident)
        self.stats.flushed_lines += len(resident)
        return len(resident)

    def flush_all(self) -> int:
        flushed = len(self._lines)
        self._lines.clear()
        self._checks.clear()
        self._dirty.clear()
        self.stats.flushed_lines += flushed
        return flushed

    @property
    def resident_lines(self) -> tuple[int, ...]:
        return tuple(self._lines.keys())

    def __len__(self) -> int:
        return len(self._lines)

    def __contains__(self, line_index: int) -> bool:
        return line_index in self._lines

    # -- snapshot / restore -------------------------------------------
    def snapshot(self) -> CacheSnapshot:
        return CacheSnapshot(
            lines=tuple(
                (index, bytes(data)) for index, data in self._lines.items()
            ),
            checks=tuple(sorted(self._checks.items())),
            dirty=tuple(sorted(self._dirty)),
            stats=replace(self.stats),
        )

    def restore(self, snap: CacheSnapshot) -> None:
        self._lines = OrderedDict(
            (index, bytearray(data)) for index, data in snap.lines
        )
        self._checks = dict(snap.checks)
        self._dirty = set(snap.dirty)
        self.stats = replace(snap.stats)

    # -- fault domain (see repro.sim.faults) --------------------------
    def fault_census(self) -> "tuple[FaultRegion, ...]":
        """Live SRAM state: the resident line copies. Addressing is
        line-strided: offset ``p * line_size + b`` is byte ``b`` of the
        ``p``-th resident line (LRU order, oldest first)."""
        return (
            FaultRegion(
                "lines",
                len(self._lines) * self.line_size * 8,
                protection="secded" if self.has_ecc else "none",
                scope=self.scope,
                die_bucket=self.die_bucket,
            ),
        )

    def fault_strike(self, region: str, offset: int, bit: int) -> str:
        if region != "lines":
            raise InvalidAddressError(f"{self.name}: no fault region {region!r}")
        resident = self.resident_lines
        position = offset // self.line_size
        if not 0 <= position < len(resident):
            raise InvalidAddressError(
                f"{self.name}: offset {offset} outside the "
                f"{len(resident)} resident lines"
            )
        line_index = resident[position]
        byte_offset = offset % self.line_size
        self.flip_bit(line_index, byte_offset, bit)
        return f"{self.name} line {line_index} +{byte_offset} bit {bit & 7}"

    # -- radiation interface ------------------------------------------
    def flip_bit(self, line_index: int, byte_offset: int, bit: int) -> None:
        """Flip one bit of a resident line copy (a particle strike)."""
        try:
            line = self._lines[line_index]
        except KeyError:
            raise InvalidAddressError(
                f"{self.name}: line {line_index} is not resident"
            ) from None
        if not 0 <= byte_offset < self.line_size:
            raise InvalidAddressError(f"byte offset {byte_offset} out of line")
        line[byte_offset] ^= 1 << (bit & 7)
        self._dirty.add(line_index)
        self.stats.injected_flips += 1

    def peek_line(self, line_index: int) -> bytes:
        return bytes(self._lines[line_index])


class CacheHierarchy:
    """Private L1 per core group, shared L2, backed by one DRAM device.

    ``n_groups`` matches the machine's executor core groups: EMR pins
    each executor to a group, so an L1 flip only affects one executor
    while an L2 flip can affect all of them.
    """

    def __init__(
        self,
        memory: SimMemory,
        n_groups: int,
        l1_lines: int = 512,
        l2_lines: int = 8192,
        line_size: int = 64,
        ecc: bool = False,
    ) -> None:
        if n_groups <= 0:
            raise ConfigurationError("need at least one core group")
        self.memory = memory
        self.line_size = line_size
        self.has_ecc = ecc
        self.l1 = tuple(
            Cache(l1_lines, line_size, f"L1[{g}]", ecc=ecc,
                  scope="private", die_bucket="l1_caches")
            for g in range(n_groups)
        )
        self.l2 = Cache(l2_lines, line_size, "L2", ecc=ecc,
                        scope="shared", die_bucket="shared_cache")

    @property
    def n_groups(self) -> int:
        return len(self.l1)

    def read(
        self, addr: int, n: int, group: int, trace: "AccessTrace | None" = None
    ) -> tuple[bytes, AccessTrace]:
        """Read ``n`` bytes at ``addr``: :meth:`read_spans` of one span."""
        if trace is None:
            trace = AccessTrace()
        return self.read_spans(((addr, n),), group, trace)[0], trace

    def read_spans(self, spans, group: int, trace: AccessTrace) -> "list[bytes]":
        """Read each ``(addr, n)`` span through the group's cache path,
        in order, exactly as that series of :meth:`read` calls would.

        Where a span's lines were served from is added to ``trace`` only
        once that span succeeded, so a pass that raises leaves the
        counts of the spans before the failing one.

        Each level is probed inline, as :meth:`Cache.lookup` would. Line
        sources are tallied in locals and added to the trace and to each
        level's :class:`CacheStats` on the way out, also when a line
        raises: the stats then hold every line probed up to the failing
        one, as per-line counting would, and the trace the spans before
        it.

        A line missing from both levels whose DRAM words are clean (no
        ECC device, or none of its words in ``_dirty_words``) is copied
        straight from the device and counted in :class:`MemoryStats` as
        the one-line :meth:`SimMemory.read` it stands for; a dirty,
        partial or out-of-range line goes through that read, so it
        corrects or raises as before. Without cache ECC the L2 and L1
        fills (and their LRU evictions) also run inline, as
        :meth:`Cache.fill` would.
        """
        l1, l2, memory, ecc = self.l1[group], self.l2, self.memory, self.has_ecc
        l1_lines, l2_lines = l1._lines, l2._lines
        l1_get, l2_get = l1_lines.get, l2_lines.get
        l1_touch, l2_touch = l1_lines.move_to_end, l2_lines.move_to_end
        l1_capacity, l2_capacity = l1.capacity_lines, l2.capacity_lines
        line_size = self.line_size
        dram, dram_ecc = memoryview(memory._data), memory.has_ecc
        full_lines = memory.size // line_size
        words_per_line = line_size // 8
        out: "list[bytes]" = []
        # Line sources of every line probed, and of the finished spans.
        l1_hits = l2_hits = fills = dram_reads = 0
        done_l1 = done_l2 = done_fills = 0
        try:
            for addr, n in spans:
                if n == 0:
                    out.append(b"")
                    continue
                first = addr // line_size
                parts: "list[bytearray]" = []
                for line_index in range(first, (addr + n - 1) // line_size + 1):
                    data = l1_get(line_index)
                    if data is not None:
                        l1_touch(line_index)
                        l1_hits += 1
                        if ecc and line_index in l1._dirty:
                            l1._correct_line(line_index, data)
                        parts.append(data)
                        continue
                    data = l2_get(line_index)
                    if data is not None:
                        l2_touch(line_index)
                        l2_hits += 1
                        if ecc and line_index in l2._dirty:
                            l2._correct_line(line_index, data)
                    else:
                        fills += 1
                        line_addr = line_index * line_size
                        dirty = memory._dirty_words
                        if 0 <= line_index < full_lines and not (
                            dirty and dram_ecc and not dirty.isdisjoint(
                                range(line_addr // 8, line_addr // 8 + words_per_line)
                            )
                        ):
                            fresh = dram[line_addr : line_addr + line_size]
                            dram_reads += 1
                        else:
                            fresh = memory.read(
                                line_addr, min(line_size, memory.size - line_addr)
                            )
                        if ecc:
                            data = l2.fill(line_index, fresh)
                        else:
                            data = bytearray(fresh)
                            if len(l2_lines) >= l2_capacity:
                                evicted, _ = l2_lines.popitem(last=False)
                                l2._dirty.discard(evicted)
                                l2.stats.evictions += 1
                            l2_lines[line_index] = data
                    # L1 copies the (possibly corrupted) L2 line: corruption
                    # in the shared level propagates to private levels.
                    if ecc:
                        data = l1.fill(line_index, data)
                    else:
                        data = bytearray(data)
                        if len(l1_lines) >= l1_capacity:
                            evicted, _ = l1_lines.popitem(last=False)
                            l1._dirty.discard(evicted)
                            l1.stats.evictions += 1
                        l1_lines[line_index] = data
                    parts.append(data)
                start = addr - first * line_size
                out.append(b"".join(parts)[start : start + n])
                done_l1, done_l2, done_fills = l1_hits, l2_hits, fills
        finally:
            trace.l1_hits += done_l1
            trace.l2_hits += done_l2
            trace.memory_fills += done_fills
            l1.stats.hits += l1_hits
            l1.stats.misses += l2_hits + fills
            l2.stats.hits += l2_hits
            l2.stats.misses += fills
            memory.stats.reads += dram_reads
            memory.stats.bytes_read += dram_reads * line_size
        return out

    def write(self, addr: int, data: bytes, group: int) -> AccessTrace:
        """Write-through: memory first, then refresh resident copies."""
        self.memory.write(addr, data)
        trace = AccessTrace()
        n = len(data)
        if n == 0:
            return trace
        first = addr // self.line_size
        last = (addr + n - 1) // self.line_size
        tables = [cache._lines for cache in (self.l2, *self.l1)]
        for line_index in range(first, last + 1):
            for lines in tables:
                if line_index in lines:
                    break
            else:
                continue  # resident nowhere
            line_addr = line_index * self.line_size
            span = min(self.line_size, self.memory.size - line_addr)
            fresh = self.memory.read(line_addr, span)
            self.l2.update_if_present(line_index, fresh)
            for l1 in self.l1:
                l1.update_if_present(line_index, fresh)
            trace.memory_fills += 1
        return trace

    def flush_region(self, region: MemoryRegion, group: "int | None" = None) -> int:
        """Drop every cached copy of ``region``'s lines.

        With ``group=None`` all levels are flushed; otherwise only that
        group's L1 plus the shared L2 (the lines another group's L1
        holds were private to *its* jobs and flushed by its executor).
        """
        return self.flush_lines(region.line_span(self.line_size), group)

    def flush_lines(self, lines, group: "int | None" = None) -> int:
        """:meth:`flush_region` over any collection of line indices,
        one pass per level; only resident lines count as flushed."""
        flushed = self.l2.flush_lines(lines)
        for l1 in self.l1 if group is None else (self.l1[group],):
            flushed += l1.flush_lines(lines)
        return flushed

    def flush_all(self) -> int:
        flushed = self.l2.flush_all()
        for l1 in self.l1:
            flushed += l1.flush_all()
        return flushed

    def snapshot(self) -> HierarchySnapshot:
        return HierarchySnapshot(
            l1=tuple(cache.snapshot() for cache in self.l1),
            l2=self.l2.snapshot(),
        )

    def restore(self, snap: HierarchySnapshot) -> None:
        if len(snap.l1) != len(self.l1):
            raise ConfigurationError(
                f"snapshot has {len(snap.l1)} L1 caches, hierarchy has "
                f"{len(self.l1)}"
            )
        for cache, cache_snap in zip(self.l1, snap.l1):
            cache.restore(cache_snap)
        self.l2.restore(snap.l2)

    def total_stats(self) -> CacheStats:
        agg = CacheStats()
        for cache in (*self.l1, self.l2):
            agg.hits += cache.stats.hits
            agg.misses += cache.stats.misses
            agg.evictions += cache.stats.evictions
            agg.flushed_lines += cache.stats.flushed_lines
            agg.injected_flips += cache.stats.injected_flips
            agg.corrected_errors += cache.stats.corrected_errors
        return agg
