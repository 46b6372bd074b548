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

The run is :func:`~repro.core.emr.baselines.single_run`'s pass with
one change: the job engine reads each job's inputs through
:meth:`ChecksumGuard.read`, which verifies every role and charges the
CRC time to the ``checksum`` bucket. Everything else is the engine's,
as in every other scheme: output validation, pipeline poisoning,
compute charges (half a job's for a failed one), counts, and the
``emr.job`` / ``emr.fault`` / ``emr.corruption`` records.

What it cannot do — and the reason the paper builds EMR instead — is
catch *compute* faults: a pipeline SEU corrupts the result after the
inputs verified clean, and the corrupted output sails through. The
fault-injection campaign demonstrates exactly that.

The CRC32 here is the real IEEE 802.3 polynomial, table-driven,
implemented from scratch (no zlib).
"""

from __future__ import annotations

import numpy as np

from ...errors import UncorrectableMemoryError
from ...obs import NULL_OBS, Observability
from ...sim.machine import Machine
from ...workloads.base import Workload, WorkloadSpec
from .jobs import Job
from .materialize import FetchResult, MaterializedWorkload
from .runtime import EmrConfig, EmrHooks, RunResult, SchemeRun

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
        #: Mismatches a refetch from the frontier corrected.
        self.corrected = 0

    def crc_seconds(self, nbytes: int) -> float:
        """Core 0's time to CRC ``nbytes``."""
        core = self.machine.cores[0]
        return nbytes * CRC_INSTRUCTIONS_PER_BYTE / (core.spec.base_ipc * core.freq)

    def register_all(self, spec: WorkloadSpec) -> float:
        """Checksum every distinct input region from the frontier.
        Returns the seconds hashing them took."""
        hashed = 0
        for ds in spec.datasets:
            for ref in ds.regions.values():
                if ref in self._expected:
                    continue
                data = self.materialized.read_trusted(ref)
                self._expected[ref] = crc32(data)
                hashed += len(data)
        return self.crc_seconds(hashed)

    def read(self, job: Job, counts: FetchResult) -> "dict[str, bytes]":
        """The job engine's read for this scheme: fetch every input,
        then verify each role, charging the CRC time to the
        ``checksum`` bucket of ``counts.seconds``."""
        inputs = self.materialized.fetch_job(job, counts)
        seconds = counts.seconds
        for role, data in inputs.items():
            inputs[role] = verified = self.verify(job, role, data)
            seconds["checksum"] = seconds.get("checksum", 0.0) + self.crc_seconds(
                len(verified)
            )
        return inputs

    def verify(self, job: Job, role: str, data: bytes) -> bytes:
        """Verify one fetched region; correct via refetch if possible."""
        ref = job.dataset.regions[role]
        expected = self._expected[ref]
        if crc32(data) == expected:
            return data
        if self.obs.enabled:
            self.obs.tracer.event(
                "checksum.mismatch", t=self.machine.clock.now,
                ds=job.dataset.index, role=role, blob=ref.blob,
            )
            self.obs.metrics.counter("checksum.mismatches").inc()
        # Cached copy is corrupt: flush and refetch from the frontier.
        fresh = self.materialized.read_trusted(ref, flush=True)
        if crc32(fresh) == expected:
            self.corrected += 1
            if self.obs.enabled:
                self.obs.tracer.event(
                    "checksum.refetch", t=self.machine.clock.now,
                    ds=job.dataset.index, role=role, corrected=True,
                )
                self.obs.metrics.counter("checksum.refetch_corrections").inc()
            return fresh
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
    machine.cores[0].set_freq(machine.spec.core_spec.max_freq)
    run = SchemeRun(
        machine, workload, cfg, hooks, obs, np.random.default_rng(seed), spec, 1
    )
    guard = ChecksumGuard(machine, run.materialized, obs=run.obs)
    busy = run.charge({"checksum": guard.register_all(run.spec)})
    run.engine.read = guard.read
    busy += run.single_pass()
    run.stats.vote_corrections = guard.corrected
    return run.finish("checksum", [busy])
