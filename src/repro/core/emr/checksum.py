"""Checksum-based memory protection — the paper's other prior art.

§2.2: "Another approach involves storing checksums of critical memory
values, which are recomputed every time memory is written to and
verified every time the memory location is read [54–57]. Both
approaches are computationally expensive and draw significant power."

This scheme wraps a *single* (non-replicated) run: every input region
gets a CRC32 computed inside the reliability frontier at staging; every
job fetch re-computes and verifies it. A mismatch means the cached copy
is stale or corrupt: the guard flushes the lines and refetches from the
frontier (correcting cache-level strikes); a repeat mismatch means the
trusted copy itself is corrupt — a detected, unrecoverable error.

What it cannot do — and the reason the paper builds EMR instead — is
catch *compute* faults: a pipeline SEU corrupts the result after the
inputs verified clean, and the corrupted output sails through. The
fault-injection campaign demonstrates exactly that.

The CRC32 here is the real IEEE 802.3 polynomial, table-driven,
implemented from scratch (no zlib).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...errors import UncorrectableMemoryError
from ...obs import NULL_OBS, Observability
from ...radiation.seu import corrupt_bytes
from ...sim.machine import Machine
from ...sim.memory import MemoryRegion
from ...workloads.base import Workload, WorkloadSpec
from .frontier import Frontier
from .jobs import Job
from .materialize import MaterializedWorkload
from .runtime import EmrConfig, EmrHooks, RunResult, SchemeRun, fault_description

_CRC_POLY = 0xEDB88320


def _build_crc_table() -> "tuple[int, ...]":
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ _CRC_POLY if crc & 1 else crc >> 1
        table.append(crc)
    return tuple(table)


_CRC_TABLE = _build_crc_table()


def crc32(data: bytes, crc: int = 0) -> int:
    """IEEE CRC-32 (the zlib-compatible one), from scratch."""
    crc ^= 0xFFFFFFFF
    for byte in data:
        crc = (crc >> 8) ^ _CRC_TABLE[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFFFFFF


#: Software CRC32 cost: table lookup + xor + shift per byte.
CRC_INSTRUCTIONS_PER_BYTE = 6


@dataclass
class ChecksumStats:
    verifications: int = 0
    bytes_verified: int = 0
    mismatches_corrected: int = 0
    mismatches_fatal: int = 0


class ChecksumGuard:
    """Region checksum table + verify-on-read machinery."""

    def __init__(
        self,
        machine: Machine,
        materialized: MaterializedWorkload,
        obs: Observability = NULL_OBS,
    ) -> None:
        self.machine = machine
        self.materialized = materialized
        self.obs = obs
        self._expected: "dict[object, int]" = {}
        self.stats = ChecksumStats()

    def register_all(self, spec: WorkloadSpec) -> int:
        """Checksum every distinct input region from the frontier.
        Returns the number of bytes hashed (for timing)."""
        hashed = 0
        for ds in spec.datasets:
            for ref in ds.regions.values():
                if ref in self._expected:
                    continue
                data = self._trusted_bytes(ref)
                self._expected[ref] = crc32(data)
                hashed += len(data)
        return hashed

    def _trusted_bytes(self, ref) -> bytes:
        """Read a region from inside the frontier (no cache)."""
        mat = self.materialized
        if mat.frontier is Frontier.DRAM:
            base = mat._blob_regions[ref.blob]
            return self.machine.memory.read(base.addr + ref.offset, ref.length)
        return self.machine.storage.read(
            mat._flash_name(ref.blob), ref.offset, ref.length
        ).data

    def verify(self, job: Job, role: str, data: bytes) -> bytes:
        """Verify one fetched region; correct via refetch if possible."""
        ref = job.dataset.regions[role]
        expected = self._expected[ref]
        self.stats.verifications += 1
        self.stats.bytes_verified += len(data)
        if crc32(data) == expected:
            return data
        if self.obs.enabled:
            self.obs.tracer.event(
                "checksum.mismatch", t=self.machine.clock.now,
                ds=job.dataset.index, role=role, blob=ref.blob,
            )
            self.obs.metrics.counter("checksum.mismatches").inc()
        # Cached copy is corrupt: flush and refetch from the frontier.
        if self.materialized.frontier is Frontier.DRAM:
            base = self.materialized._blob_regions[ref.blob]
            region = MemoryRegion(base.addr + ref.offset, ref.length)
            self.machine.caches.flush_region(region)
        fresh = self._trusted_bytes(ref)
        if crc32(fresh) == expected:
            self.stats.mismatches_corrected += 1
            if self.obs.enabled:
                self.obs.tracer.event(
                    "checksum.refetch", t=self.machine.clock.now,
                    ds=job.dataset.index, role=role, corrected=True,
                )
                self.obs.metrics.counter("checksum.refetch_corrections").inc()
            return fresh
        self.stats.mismatches_fatal += 1
        if self.obs.enabled:
            self.obs.metrics.counter("checksum.fatal_mismatches").inc()
        raise UncorrectableMemoryError(
            ref.offset,
            f"checksum mismatch persists for {ref.blob}+{ref.offset} "
            "after refetch from the frontier",
        )


def checksum_protected_run(
    machine: Machine,
    workload: Workload,
    spec: "WorkloadSpec | None" = None,
    config: "EmrConfig | None" = None,
    hooks: "EmrHooks | None" = None,
    seed: int = 0,
    obs: "Observability | None" = None,
) -> RunResult:
    """One verified-read pass on a single core (scheme ``checksum``)."""
    cfg = config or EmrConfig()
    core = machine.cores[0]
    core.set_freq(machine.spec.core_spec.max_freq)
    run = SchemeRun(
        machine, workload, cfg, hooks, obs, np.random.default_rng(seed), spec, 1
    )
    materialized, stats = run.materialized, run.stats
    guard = ChecksumGuard(machine, materialized, obs=run.obs)
    hashed = guard.register_all(run.spec)
    setup_seconds = hashed * CRC_INSTRUCTIONS_PER_BYTE / (
        core.spec.base_ipc * core.freq
    )
    busy = run.charge({"checksum": setup_seconds})

    for ds in run.spec.datasets:
        job = Job(dataset=ds, executor_id=0)
        if hooks is not None:
            hooks.before_job(None, job)
        timings = {"compute": 0.0, "checksum": 0.0, "disk_read": 0.0}
        inputs: "dict[str, bytes]" = {}
        l1 = l2 = fills = 0
        failed = None
        try:
            for role in ds.regions:
                fetched = materialized.fetch(job, role)
                verified = guard.verify(job, role, fetched.data)
                inputs[role] = verified
                l1 += fetched.trace.l1_hits
                l2 += fetched.trace.l2_hits
                fills += fetched.trace.memory_fills
                timings["disk_read"] += fetched.disk_seconds
                stats.disk_ios += fetched.disk_ios
                timings["checksum"] += (
                    len(verified) * CRC_INSTRUCTIONS_PER_BYTE
                    / (core.spec.base_ipc * core.freq)
                )
            output = workload.run_job(inputs, dict(ds.params))
        except Exception as exc:  # noqa: BLE001 - crash containment, as in JobEngine.run_job
            failed = fault_description(exc)
            stats.detected_faults.append(f"ds={ds.index}: {failed}")
        if failed is None:
            if core.poisoned:
                output = corrupt_bytes(output, run.rng, bits=1)
                core.poisoned = False
            if hooks is not None:
                output = hooks.after_job_output(None, job, output)
            cost = core.execute(
                workload.instructions_per_job(ds),
                l1_hits=l1, l2_hits=l2, memory_fills=fills,
            )
            timings["compute"] += cost.seconds
            timings["compute"] += materialized.store_replica_output(job, output)
        # Commit before the next job: a later strike on this output
        # slot must not reach the committed output.
        run.commit_unverified(ds.index, 0, failed is None)
        busy += run.charge(timings)
        stats.jobs += 1
    stats.vote_corrections = guard.stats.mismatches_corrected
    return run.finish("checksum", [busy])
