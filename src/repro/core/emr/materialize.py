"""Mapping a workload spec onto the machine, per reliability frontier.

DRAM frontier (ECC DRAM present):
  inputs are staged flash -> DRAM once; executors fetch through the
  CPU caches (where the hazards live); replicated refs get one private
  DRAM copy per executor; replica outputs land in DRAM slots.

Storage frontier (no ECC DRAM):
  only flash is trusted. Every executor stages its *own* copy of a
  region from flash media ("data currently being processed by a
  particular executor is read independently from an ECC-protected
  source"), and staged copies are dropped at every jobset boundary
  (the paper's page-cache clear), so each jobset pays flash latency
  again — the Fig 12 disk-frontier slowdown. Outputs are written back
  to flash.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...errors import InvalidAddressError, SegmentationFault
from ...sim.cache import AccessTrace
from ...sim.clock import Stopwatch
from ...sim.machine import Machine
from ...sim.memory import MemoryRegion
from ...workloads.base import RegionRef, WorkloadSpec
from .frontier import Frontier, FrontierCosts
from .jobs import Job
from .replication import ReplicationPlan


@dataclass
class FetchResult:
    """Bytes one fetch returned, where their cache lines came from, and
    what staging them from flash cost, in ``seconds["disk_read"]``.
    :meth:`MaterializedWorkload.fetch_job` sums a whole job's counts
    into one (its ``data`` stays empty); the job engine passes the
    job's own time buckets as ``seconds``."""

    data: bytes
    trace: AccessTrace = field(default_factory=AccessTrace)
    seconds: "dict[str, float]" = field(default_factory=lambda: {"disk_read": 0.0})
    disk_ios: int = 0


class MaterializedWorkload:
    """One workload instance staged onto one machine."""

    def __init__(
        self,
        machine: Machine,
        spec: WorkloadSpec,
        frontier: Frontier,
        plan: ReplicationPlan,
        n_executors: int,
        stopwatch: Stopwatch,
        costs: "FrontierCosts | None" = None,
    ) -> None:
        self.machine = machine
        self.spec = spec
        self.frontier = frontier
        self.plan = plan
        self.n_executors = n_executors
        self.stopwatch = stopwatch
        self.costs = costs or FrontierCosts()
        self._line = machine.spec.line_size
        self._blob_regions: "dict[str, MemoryRegion]" = {}
        self._replica_copies: "dict[tuple, MemoryRegion]" = {}  # (ref, exec) -> region
        self._replica_blob_bytes: "dict[tuple, bytes]" = {}  # storage frontier copies
        self._staged: "dict[tuple, bytes]" = {}  # (executor, ref) -> bytes (storage)
        self._output_slots: "dict[tuple, MemoryRegion]" = {}  # (ds, exec)
        self._final_outputs: "dict[int, bytes]" = {}
        self._stage_all()
        # Per dataset, derived once per spec: each role's ref and whether
        # it is replicated, and the lines flush_job_regions drops (which
        # depend on where this machine staged the blobs).
        replicated = plan.replicated
        self._fetch_plans: "dict[int, dict[str, tuple[RegionRef, bool]]]" = spec.memo(
            ("fetch", replicated),
            lambda: {
                ds.index: {role: (ref, ref in replicated) for role, ref in ds.regions.items()}
                for ds in spec.datasets
            },
        )
        if frontier is Frontier.DRAM:
            bases = tuple(region.addr for region in self._blob_regions.values())
            self._flush_plans: "dict[int, tuple[int, ...]]" = spec.memo(
                ("flush", replicated, self._line, bases),
                lambda: {
                    index: self._lines_to_flush(roles.values())
                    for index, roles in self._fetch_plans.items()
                },
            )

    # ------------------------------------------------------------------
    # Staging
    # ------------------------------------------------------------------
    def _flash_name(self, blob: str) -> str:
        return f"{self.spec.name}/{blob}"

    def _replicated_refs(self) -> "list[RegionRef]":
        """The plan's replicated refs in a stable order. The plan holds
        a frozenset, whose iteration order follows randomized string
        hashing — staging allocations in that order would scatter
        replica copies (and every cache line index derived from them)
        differently on every interpreter run."""
        return sorted(
            self.plan.replicated, key=lambda r: (r.blob, r.offset, r.length)
        )

    def _ensure_on_flash(self) -> None:
        """Inputs originate at the ground station: they arrive on flash."""
        for blob, data in self.spec.blobs.items():
            name = self._flash_name(blob)
            if not self.machine.storage.exists(name):
                self.machine.storage.store(name, data)

    def _charge_disk(self, seconds: float) -> None:
        self.machine.clock.advance(seconds)
        self.stopwatch.add("disk_read", seconds)

    def _charge_alloc(self, nbytes: int) -> None:
        seconds = nbytes * self.costs.alloc_seconds_per_byte
        self.machine.clock.advance(seconds)
        self.stopwatch.add("allocation", seconds)

    def _stage_all(self) -> None:
        self._ensure_on_flash()
        mem = self.machine.memory
        if self.frontier is Frontier.DRAM:
            # One trusted copy of every blob in ECC DRAM.
            for blob, data in self.spec.blobs.items():
                access = self.machine.storage.read(self._flash_name(blob))
                self._charge_disk(access.seconds)
                region = mem.alloc(len(data), label=blob, align=self._line)
                self._charge_alloc(len(data))
                mem.write_region(region, access.data)
                self._blob_regions[blob] = region
            # Private per-executor copies of replicated refs.
            for ref in self._replicated_refs():
                base = self._blob_regions[ref.blob]
                payload = mem.read(base.addr + ref.offset, ref.length)
                for executor in range(self.n_executors):
                    copy = mem.alloc(
                        ref.length,
                        label=f"{ref.blob}+{ref.offset}~exec{executor}",
                        align=self._line,
                    )
                    self._charge_alloc(ref.length)
                    mem.write_region(copy, payload)
                    self._replica_copies[(ref, executor)] = copy
            # Replica output slots (inside the frontier). Each slot
            # carries a 4-byte length prefix: outputs are variable-size
            # (compressed blocks) and the voter needs exact bytes back.
            for ds in self.spec.datasets:
                for executor in range(self.n_executors):
                    self._output_slots[(ds.index, executor)] = mem.alloc(
                        self.spec.output_size + 4,
                        label=f"out{ds.index}~{executor}",
                        align=self._line,
                    )
            self._charge_alloc(
                len(self.spec.datasets) * self.n_executors * self.spec.output_size
            )
        else:
            # Storage frontier: replicated refs staged once per executor
            # from flash media (independent ECC-verified reads).
            for ref in self._replicated_refs():
                for executor in range(self.n_executors):
                    access = self.machine.storage.read(
                        self._flash_name(ref.blob), ref.offset, ref.length
                    )
                    self.machine.storage.drop_page_cache()
                    self._charge_disk(access.seconds)
                    self._charge_alloc(ref.length)
                    self._replica_blob_bytes[(ref, executor)] = access.data

    def restage(self) -> None:
        """Re-read every blob from flash into its DRAM region.

        Sequential 3-MR treats each replica pass as an independent
        process launch: page cache cold, inputs re-read — the 3× disk
        traffic of Table 6's 3-MR column."""
        if self.frontier is not Frontier.DRAM:
            return  # the storage frontier stages per fetch anyway
        self.machine.storage.drop_page_cache()
        for blob, region in self._blob_regions.items():
            access = self.machine.storage.read(self._flash_name(blob))
            self._charge_disk(access.seconds)
            self.machine.memory.write_region(region, access.data)

    # ------------------------------------------------------------------
    # Job data path
    # ------------------------------------------------------------------
    def fetch(self, job: Job, role: str) -> FetchResult:
        """Read one input region on behalf of a job, via the path the
        frontier dictates. Raises :class:`SegmentationFault` when the
        job's (possibly corrupted) pointer leaves the blob."""
        result = FetchResult(data=b"")
        (result.data,) = self._read(job, (role,), result)
        return result

    def fetch_job(self, job: Job, counts: FetchResult) -> "dict[str, bytes]":
        """Read every input region of ``job`` in one pass, in role
        order, as :meth:`fetch` would one by one. The line sources and
        disk charges of each region that read successfully accumulate
        in ``counts``, so a pass that raises leaves the counts of the
        regions before the failing one."""
        roles = job.dataset.regions
        return dict(zip(roles, self._read(job, roles, counts)))

    def _read(self, job: Job, roles, counts: FetchResult) -> "list[bytes]":
        plan = self._fetch_plans[job.dataset.index]
        pointers = job.pointers
        if self.frontier is Frontier.DRAM:
            # Every role's address first, then one cache pass; a bad
            # pointer ends the pass after the spans before its role.
            spans: "list[tuple[int, int]]" = []
            bad = None  # the first out-of-bounds pointer, as the fault names it
            for role in roles:
                ref, replicated = plan[role]
                offset, length = pointers[role]
                if replicated:
                    # Pointer into the copy is copy-relative.
                    copy = self._replica_copies[(ref, job.executor_id)]
                    spans.append((copy.addr + offset - ref.offset, length))
                    continue
                base = self._blob_regions[ref.blob]
                if offset < 0 or offset + length > base.size:
                    bad = f"{role}=({offset}, {length})"
                    break
                spans.append((base.addr + offset, length))
            try:
                data = self.machine.caches.read_spans(spans, job.group, counts.trace)
            except InvalidAddressError as exc:
                raise SegmentationFault(str(exc)) from exc
            if bad is not None:
                # Built here, not kept in a local: a raised exception held by
                # its own frame is a reference cycle that keeps the machine
                # alive until the cyclic collector runs.
                raise self._segfault(job, bad)
            return data
        out = []
        for role in roles:
            ref, replicated = plan[role]
            offset, length = pointers[role]
            if replicated:
                data = self._replica_blob_bytes[(ref, job.executor_id)]
                seconds = ios = 0
            else:
                data, seconds, ios = self._staged_copy(job, ref)
            rel = offset - ref.offset
            if rel < 0 or rel + length > len(data):
                # A fault on a staged region names no role.
                where = f"{role}=" if replicated else ""
                raise self._segfault(job, f"{where}({offset}, {length})")
            counts.seconds["disk_read"] += seconds
            counts.disk_ios += ios
            out.append(data[rel : rel + length])
        return out

    def read_trusted(self, ref: RegionRef, flush: bool = False) -> bytes:
        """``ref``'s bytes read from inside the frontier, past the
        caches. With ``flush``, the region's cached lines are dropped
        first, so a stale or corrupt cached copy is not read again."""
        if self.frontier is Frontier.DRAM:
            addr = self._blob_regions[ref.blob].addr + ref.offset
            if flush:
                self.machine.caches.flush_region(MemoryRegion(addr, ref.length))
            return self.machine.memory.read(addr, ref.length)
        return self.machine.storage.read(
            self._flash_name(ref.blob), ref.offset, ref.length
        ).data

    @staticmethod
    def _segfault(job: Job, pointer: str) -> SegmentationFault:
        return SegmentationFault(
            f"job ds={job.dataset_index} exec={job.executor_id}: corrupted "
            f"pointer {pointer}"
        )

    def _staged_copy(self, job: Job, ref: RegionRef) -> "tuple[bytes, float, int]":
        """Storage frontier: the executor's staged copy of ``ref`` and
        the disk seconds and ios staging it cost now (zero when it was
        already staged this jobset)."""
        key = (job.executor_id, ref)
        staged = self._staged.get(key)
        if staged is not None:
            return staged, 0.0, 0
        access = self.machine.storage.read(
            self._flash_name(ref.blob), ref.offset, ref.length
        )
        # Independent read: don't let another executor's fetch hit
        # this page-cache copy.
        self.machine.storage.drop_page_cache()
        self._staged[key] = access.data
        return access.data, access.seconds, 1

    def flush_job_regions(self, job: Job) -> int:
        """Post-job cache hygiene: drop every non-replicated line this
        job touched (replicated copies stay hot — that's the point),
        in one pass per cache level over the union of their lines."""
        if self.frontier is not Frontier.DRAM:
            return 0
        return self.machine.caches.flush_lines(
            self._flush_plans[job.dataset.index], group=job.group
        )

    def _lines_to_flush(self, roles) -> "tuple[int, ...]":
        """The union of the DRAM lines of the non-replicated ``roles``
        (``(ref, replicated)`` pairs), sorted."""
        line = self._line
        lines: "set[int]" = set()
        for ref, replicated in roles:
            if not replicated:
                addr = self._blob_regions[ref.blob].addr + ref.offset
                lines.update(range(addr // line, (addr + ref.length - 1) // line + 1))
        return tuple(sorted(lines))

    def end_of_jobset(self) -> None:
        """Barrier hygiene for the storage frontier: drop staged pages."""
        self._staged.clear()
        if self.frontier is Frontier.STORAGE:
            self.machine.storage.drop_page_cache()

    # ------------------------------------------------------------------
    # Outputs
    # ------------------------------------------------------------------
    def store_replica_output(self, job: Job, output: bytes) -> float:
        """Put one replica's output inside the frontier; returns the
        simulated seconds the store cost."""
        if len(output) > self.spec.output_size:
            raise InvalidAddressError(
                f"{self.spec.name}: job output of {len(output)} bytes exceeds "
                f"declared output_size {self.spec.output_size}"
            )
        if self.frontier is Frontier.DRAM:
            slot = self._output_slots[(job.dataset_index, job.executor_id)]
            payload = len(output).to_bytes(4, "little") + output
            self.machine.caches.write(slot.addr, payload, job.group)
            return len(payload) / 1.2e9  # DRAM store bandwidth
        name = f"{self.spec.name}/out{job.dataset_index}~{job.executor_id}"
        self.machine.storage.store(name, output)
        return (
            self.machine.storage.access_latency
            + len(output) / self.machine.storage.write_bandwidth
        )

    def load_replica_output(self, dataset_index: int, executor: int) -> bytes:
        if self.frontier is Frontier.DRAM:
            slot = self._output_slots[(dataset_index, executor)]
            return self.machine.memory.read_prefixed(slot.addr, slot.size - 4)
        name = f"{self.spec.name}/out{dataset_index}~{executor}"
        return self.machine.storage.read(name).data

    def commit_output(self, dataset_index: int, output: bytes) -> None:
        self._final_outputs[dataset_index] = output

    def snapshot(self) -> "tuple[dict, dict]":
        """What a run changes here besides the machine: the storage
        frontier's staged copies and the committed outputs. The staging
        layout (regions, replica copies, output slots) is fixed once
        staged."""
        return dict(self._staged), dict(self._final_outputs)

    def restore(self, state: "tuple[dict, dict]") -> None:
        """Rewind to a :meth:`snapshot`, which stays reusable."""
        staged, outputs = state
        self._staged, self._final_outputs = dict(staged), dict(outputs)

    def final_outputs(self) -> "list[bytes]":
        return [
            self._final_outputs[ds.index] for ds in self.spec.datasets
        ]

    @property
    def allocated_input_bytes(self) -> int:
        base = self.spec.total_input_bytes
        return base + self.plan.extra_memory_bytes(self.n_executors)
