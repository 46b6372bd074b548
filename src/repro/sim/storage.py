"""Flash storage with built-in SECDED ECC and a droppable page cache.

Commodity eMMC/SD storage ships with per-sector ECC, so the paper
treats *data at rest* as safe: storage is always inside the reliability
frontier. What is **not** safe is the OS page cache, which lives in
DRAM — on a machine without ECC DRAM, a cached page can be corrupted
after it was read from flash. That is why EMR must "clear the page
cache before proceeding" when the frontier sits at storage (§3.2).

The model mirrors this split: the backing store is an ECC
:class:`~repro.sim.memory.SimMemory`, while the page cache holds plain
``bytearray`` copies that the radiation layer may flip.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import ConfigurationError, InvalidAddressError
from .faults import FaultRegion
from .memory import MemorySnapshot, SimMemory


@dataclass
class StorageStats:
    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    page_cache_hits: int = 0
    page_cache_drops: int = 0
    read_ios: int = 0
    write_ios: int = 0

    def reset(self) -> None:
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.page_cache_hits = 0
        self.page_cache_drops = 0
        self.read_ios = 0
        self.write_ios = 0


@dataclass(frozen=True)
class StorageSnapshot:
    """Logical state of a flash device: media, file table, page cache."""

    backing: MemorySnapshot
    files: "tuple[tuple[str, tuple[int, int]], ...]"
    page_cache: "tuple[tuple[str, bytes], ...]"
    stats: StorageStats


@dataclass(frozen=True)
class StorageAccess:
    """Data plus the simulated time the access cost."""

    data: bytes
    seconds: float
    from_page_cache: bool


class FlashStorage:
    """A named-file flash device with ECC sectors and a page cache.

    Parameters
    ----------
    capacity:
        Device size in bytes.
    read_bandwidth / write_bandwidth:
        Sustained throughput in bytes/second (defaults are SD-card
        class, matching the Raspberry Pi testbed).
    access_latency:
        Fixed per-IO latency in seconds.
    io_size:
        Bytes per IO request, used to convert transfers into the
        read/write IO counts that feed ILD's Table 1 disk metrics.
    """

    def __init__(
        self,
        capacity: int = 64 << 20,
        read_bandwidth: float = 40e6,
        write_bandwidth: float = 18e6,
        access_latency: float = 0.4e-3,
        io_size: int = 4096,
        name: str = "flash",
    ) -> None:
        if read_bandwidth <= 0 or write_bandwidth <= 0:
            raise ConfigurationError("bandwidths must be positive")
        if io_size <= 0:
            raise ConfigurationError("io_size must be positive")
        self.name = name
        self.read_bandwidth = read_bandwidth
        self.write_bandwidth = write_bandwidth
        self.access_latency = access_latency
        self.io_size = io_size
        self._backing = SimMemory(capacity, ecc=True, name=f"{name}-backing")
        self._files: dict[str, "tuple[int, int]"] = {}  # name -> (addr, size)
        self._page_cache: dict[str, bytearray] = {}
        self.stats = StorageStats()

    # ------------------------------------------------------------------
    # File table
    # ------------------------------------------------------------------
    def store(self, filename: str, data: bytes) -> None:
        """Write a file to flash (replacing any previous version)."""
        if filename in self._files and self._files[filename][1] >= len(data):
            addr, _ = self._files[filename]
            self._files[filename] = (addr, len(data))
        else:
            region = self._backing.alloc(len(data), label=filename)
            self._files[filename] = (region.addr, region.size)
            addr = region.addr
        self._backing.write(addr, data)
        self._page_cache.pop(filename, None)
        self.stats.writes += 1
        self.stats.bytes_written += len(data)
        self.stats.write_ios += self._ios(len(data))

    def exists(self, filename: str) -> bool:
        return filename in self._files

    def file_size(self, filename: str) -> int:
        return self._entry(filename)[1]

    def _entry(self, filename: str) -> "tuple[int, int]":
        try:
            return self._files[filename]
        except KeyError:
            raise InvalidAddressError(f"{self.name}: no such file {filename!r}") from None

    def _ios(self, nbytes: int) -> int:
        return max(1, (nbytes + self.io_size - 1) // self.io_size)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def read(
        self, filename: str, offset: int = 0, size: "int | None" = None
    ) -> StorageAccess:
        """Read ``size`` bytes of a file.

        Whole files are staged through the page cache: the first read
        pulls from flash (slow, ECC-verified); subsequent reads hit the
        page-cache copy in DRAM (fast, *unverified* — flippable).
        """
        addr, fsize = self._entry(filename)
        if size is None:
            size = fsize - offset
        if offset < 0 or size < 0 or offset + size > fsize:
            raise InvalidAddressError(
                f"{self.name}: read [{offset}, {offset + size}) outside "
                f"{filename!r} of size {fsize}"
            )
        self.stats.reads += 1
        self.stats.bytes_read += size
        cached = self._page_cache.get(filename)
        if cached is not None:
            self.stats.page_cache_hits += 1
            # DRAM-speed copy: charge a token cost, not flash latency.
            return StorageAccess(
                bytes(cached[offset : offset + size]),
                seconds=size / 2e9,
                from_page_cache=True,
            )
        blob = self._backing.read(addr, fsize)
        self._page_cache[filename] = bytearray(blob)
        seconds = self.access_latency + fsize / self.read_bandwidth
        self.stats.read_ios += self._ios(fsize)
        return StorageAccess(blob[offset : offset + size], seconds, False)

    def drop_page_cache(self) -> int:
        """Evict every cached page (``echo 3 > drop_caches`` analog)."""
        dropped = len(self._page_cache)
        self._page_cache.clear()
        self.stats.page_cache_drops += 1
        return dropped

    @property
    def cached_files(self) -> tuple[str, ...]:
        return tuple(self._page_cache)

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def snapshot(self) -> StorageSnapshot:
        return StorageSnapshot(
            backing=self._backing.snapshot(),
            files=tuple(self._files.items()),
            page_cache=tuple(
                (name, bytes(page)) for name, page in self._page_cache.items()
            ),
            stats=replace(self.stats),
        )

    def restore(self, snap: StorageSnapshot) -> None:
        self._backing.restore(snap.backing)
        self._files = dict(snap.files)
        self._page_cache = {
            name: bytearray(page) for name, page in snap.page_cache
        }
        self.stats = replace(snap.stats)

    # ------------------------------------------------------------------
    # Fault domain (see repro.sim.faults)
    # ------------------------------------------------------------------
    def page_cache_address(self, filename: str, byte_offset: int) -> int:
        """Region offset of one cached byte: pages concatenate in
        cache-insertion order, so ``page_cache`` offsets stay stable
        between a census and the strikes aimed with it."""
        base = 0
        for name, page in self._page_cache.items():
            if name == filename:
                if not 0 <= byte_offset < len(page):
                    raise InvalidAddressError(
                        f"offset {byte_offset} outside cached page {filename!r}"
                    )
                return base + byte_offset
            base += len(page)
        raise InvalidAddressError(
            f"{self.name}: {filename!r} is not in the page cache"
        )

    def _locate(self, entries, offset: int, what: str) -> "tuple[str, int]":
        for name, size in entries:
            if offset < size:
                return name, offset
            offset -= size
        raise InvalidAddressError(f"{self.name}: offset outside {what}")

    def fault_census(self) -> "tuple[FaultRegion, ...]":
        """The at-rest split §3.2 relies on: media bytes sit behind
        per-sector SECDED (always inside the reliability frontier),
        while their page-cache copies are plain DRAM bytes."""
        cached = sum(len(page) for page in self._page_cache.values())
        stored = sum(size for _, size in self._files.values())
        return (
            FaultRegion("page_cache", cached * 8, protection="none",
                        scope="shared"),
            FaultRegion("media", stored * 8, protection="secded",
                        scope="shared"),
        )

    def fault_strike(self, region: str, offset: int, bit: int) -> str:
        if region == "page_cache":
            entries = [
                (name, len(page)) for name, page in self._page_cache.items()
            ]
            filename, local = self._locate(entries, offset, "the page cache")
            self.flip_page_cache_bit(filename, local, bit)
            return f"{self.name} page cache {filename}+{local} bit {bit & 7}"
        if region == "media":
            entries = [
                (name, size) for name, (_, size) in self._files.items()
            ]
            filename, local = self._locate(entries, offset, "stored files")
            self.flip_media_bit(filename, local, bit)
            return f"{self.name} media {filename}+{local} bit {bit & 7}"
        raise InvalidAddressError(f"{self.name}: no fault region {region!r}")

    # ------------------------------------------------------------------
    # Radiation interface
    # ------------------------------------------------------------------
    def flip_page_cache_bit(self, filename: str, byte_offset: int, bit: int) -> None:
        """Corrupt a page-cache copy (DRAM-resident, no ECC coverage)."""
        try:
            page = self._page_cache[filename]
        except KeyError:
            raise InvalidAddressError(
                f"{self.name}: {filename!r} is not in the page cache"
            ) from None
        if not 0 <= byte_offset < len(page):
            raise InvalidAddressError(f"offset {byte_offset} outside cached page")
        page[byte_offset] ^= 1 << (bit & 7)

    def flip_media_bit(self, filename: str, byte_offset: int, bit: int) -> None:
        """Corrupt the flash medium itself (ECC will correct on read)."""
        addr, fsize = self._entry(filename)
        if not 0 <= byte_offset < fsize:
            raise InvalidAddressError(f"offset {byte_offset} outside {filename!r}")
        self._backing.flip_bit(addr + byte_offset, bit)

    @property
    def media_stats(self):
        return self._backing.stats
