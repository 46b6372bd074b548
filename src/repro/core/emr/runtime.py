"""The EMR runtime: orchestrator + three executors (§3.2).

Execution model, mirroring the paper's runtime implementation:

* Each executor owns one core group; its jobs run sequentially at max
  frequency. Jobs of a jobset run concurrently across executors, so a
  jobset's wall time is the slowest executor's total (plus serialized
  flash access on the storage frontier).
* "After a job completes, the worker flushes the cache lines related
  to that job" — amortized into the executor's own timeline.
* At each jobset barrier the orchestrator votes every dataset whose
  three replicas have all completed, commits the majority output
  inside the frontier, and (on the storage frontier) drops staged
  pages.
* Pipeline SEUs: a job computed on a poisoned core emits a corrupted
  output (and the transient clears). Pointer SEUs: a corrupted job
  pointer raises a :class:`SegmentationFault` — a detected error the
  other two replicas out-vote.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ...errors import (
    ConfigurationError,
    DetectedFaultError,
    VotingInconclusiveError,
)
from ...obs import NULL_OBS, Observability
from ...radiation.seu import corrupt_bytes
from ...sim.clock import Stopwatch
from ...sim.machine import Machine, MachineSnapshot
from ...sim.power import EnergyReport
from ...workloads.base import Workload, WorkloadSpec
from .conflicts import ConflictGraph, detect_conflicts
from .frontier import Frontier, FrontierCosts, validate_frontier
from .jobs import Job, JobResult, JobSet
from .materialize import FetchResult, MaterializedWorkload
from .replication import ReplicationPlan, plan_replication
from .scheduler import (
    ModeSegment,
    build_jobsets,
    order_jobs,
    validate_jobsets,
    validate_schedule,
)
from .voting import VoteStatus, vote


@dataclass(frozen=True)
class EmrConfig:
    """Tunables of the EMR runtime."""

    replication_threshold: float = 0.01
    frontier: "Frontier | None" = None  # None = widest the machine supports
    n_executors: int = 3
    ordering: str = "rotated"
    flush_cycles_per_line: int = 60
    validate_schedule: bool = True
    raise_on_inconclusive: bool = True
    costs: FrontierCosts = field(default_factory=FrontierCosts)

    def __post_init__(self) -> None:
        if self.n_executors < 2:
            raise ConfigurationError("redundancy needs >= 2 executors")
        if self.flush_cycles_per_line < 0:
            raise ConfigurationError("flush_cycles_per_line must be >= 0")


class EmrHooks:
    """Fault-injection (and observation) points. Subclass and override."""

    def before_job(self, runtime: "EmrRuntime", job: Job) -> None:
        """Called before a job fetches its inputs."""

    def after_job_output(
        self, runtime: "EmrRuntime", job: Job, output: bytes
    ) -> bytes:
        """May replace a job's output (models in-flight corruption)."""
        return output

    def after_jobset(self, runtime: "EmrRuntime", jobset: JobSet) -> None:
        """Called at each jobset barrier."""

    def before_vote(
        self, runtime: "EmrRuntime", dataset_index: int, results: "list"
    ) -> "list":
        """May replace the refreshed replica results right before the
        orchestrator votes — the *vote buffer*, EMR's own control
        plane. Chaos testing corrupts entries here to prove a strike
        on the voter's inputs is out-voted or detected, never silent."""
        return results


@dataclass
class RunStats:
    """Counters the experiments report."""

    jobs: int = 0
    jobsets: int = 0
    conflict_edges: int = 0
    replicated_bytes: int = 0
    memory_bytes: int = 0
    flushed_lines: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    memory_fills: int = 0
    vote_corrections: int = 0
    unanimous_votes: int = 0
    detected_faults: "list[str]" = field(default_factory=list)
    disk_ios: int = 0

    def copy(self) -> "RunStats":
        return replace(self, detected_faults=list(self.detected_faults))


@dataclass
class RunResult:
    """Everything one protected (or baseline) run produced."""

    scheme: str
    workload: str
    outputs: "list[bytes]"
    wall_seconds: float
    breakdown: "dict[str, float]"
    energy: EnergyReport
    stats: RunStats
    frontier: Frontier

    @property
    def corrected(self) -> bool:
        return self.stats.vote_corrections > 0

    @property
    def had_detected_error(self) -> bool:
        return bool(self.stats.detected_faults)

    def matches(self, golden: "list[bytes]") -> bool:
        """True when committed outputs equal the golden reference."""
        return self.outputs == golden


class JobEngine:
    """Executes individual jobs with full fault semantics. Every scheme
    runs its jobs here, so every scheme sees the same machine
    behaviour."""

    def __init__(
        self,
        machine: Machine,
        workload: Workload,
        materialized: MaterializedWorkload,
        hooks: "EmrHooks | None",
        rng: np.random.Generator,
        flush_cycles_per_line: int,
        stats: RunStats,
        obs: "Observability | None" = None,
    ) -> None:
        self.machine = machine
        self.workload = workload
        self.materialized = materialized
        self.hooks = hooks
        self.rng = rng
        self.flush_cycles_per_line = flush_cycles_per_line
        self.stats = stats
        self.obs = obs if obs is not None else NULL_OBS
        #: Reads a job's inputs: ``read(job, counts)`` returns them by
        #: role and adds what reading them cost to ``counts`` (line
        #: sources, disk ios, and seconds by time bucket). The checksum
        #: scheme swaps in a read that verifies every role.
        self.read = materialized.fetch_job
        #: ``workload.run_job``'s output by ``(dataset index, fetched
        #: input bytes in role order)``. A replica's output is a pure
        #: function of the bytes it fetched, so replicas whose fetches
        #: agree share one kernel call; a struck input is a new key.
        #: Everything after the kernel still runs per replica. There is
        #: one engine per run, so the memo dies with its run.
        self.outputs: "dict[tuple, bytes]" = {}

    def run_job(
        self,
        job: Job,
        core_id: int,
        runtime: "EmrRuntime | None" = None,
        flush_after: bool = True,
    ) -> "tuple[JobResult, dict]":
        """Returns (result, seconds-by-bucket for this job)."""
        machine = self.machine
        core = machine.cores[core_id]
        timings = {"compute": 0.0, "cache_clear": 0.0, "disk_read": 0.0}
        # The read charges its seconds straight to the job's buckets, and
        # a failed read still paid for the regions read before it.
        fetched = FetchResult(data=b"", seconds=timings)
        trace = fetched.trace
        try:
            if self.hooks is not None:
                self.hooks.before_job(runtime, job)
            try:
                inputs = self.read(job, fetched)
            finally:
                self.stats.disk_ios += fetched.disk_ios
            key = (job.dataset_index, *inputs.values())
            output = self.outputs.get(key)
            if output is None:
                output = self.workload.run_job(inputs, dict(job.dataset.params))
                self.outputs[key] = output
            self.workload.validate_output(output)
        except Exception as exc:  # noqa: BLE001 - crash containment, see below
            # Detected faults (segfault-analogs, ECC double-bits, ...)
            # and arbitrary replica crashes are both *contained*: one
            # replica failing must never abort the protected run — it
            # becomes a recorded fault the other replicas out-vote.
            fault = (
                str(exc) if isinstance(exc, DetectedFaultError)
                else f"replica crash: {type(exc).__name__}: {exc}"
            )
            self.stats.detected_faults.append(
                f"ds={job.dataset_index} exec={job.executor_id}: {fault}"
            )
            # The failed fetch/compute still burned time on the core.
            cost = core.execute(
                self.workload.instructions_per_job(job.dataset) // 2,
                l1_hits=trace.l1_hits, l2_hits=trace.l2_hits,
                memory_fills=trace.memory_fills,
            )
            timings["compute"] += cost.seconds
            if self.obs.enabled:
                self.obs.tracer.event(
                    "emr.fault", t=machine.clock.now,
                    ds=job.dataset_index, executor=job.executor_id,
                    error=fault,
                )
                self.obs.metrics.counter("emr.detected_faults").inc()
            return (
                JobResult(job.dataset_index, job.executor_id, None, fault=fault),
                timings,
            )
        # A transient latched in this core's datapath corrupts the
        # result in flight, then dissipates.
        if core.poisoned:
            output = corrupt_bytes(output, self.rng, bits=1)
            core.poisoned = False
            if self.obs.enabled:
                self.obs.tracer.event(
                    "emr.corruption", t=machine.clock.now,
                    ds=job.dataset_index, executor=job.executor_id,
                    kind="pipeline",
                )
                self.obs.metrics.counter("emr.pipeline_corruptions").inc()
        if self.hooks is not None:
            output = self.hooks.after_job_output(runtime, job, output)
        cost = core.execute(
            self.workload.instructions_per_job(job.dataset),
            l1_hits=trace.l1_hits,
            l2_hits=trace.l2_hits,
            memory_fills=trace.memory_fills,
        )
        timings["compute"] += cost.seconds
        timings["compute"] += self.materialized.store_replica_output(job, output)
        self.stats.l1_hits += trace.l1_hits
        self.stats.l2_hits += trace.l2_hits
        self.stats.memory_fills += trace.memory_fills
        if flush_after:
            flushed = self.materialized.flush_job_regions(job)
            self.stats.flushed_lines += flushed
            timings["cache_clear"] += (
                flushed * self.flush_cycles_per_line / core.freq
            )
        self.stats.jobs += 1
        if self.obs.enabled:
            # The clock advances at the jobset barrier, so the span
            # anchors at the barrier time with the job's own sim cost.
            self.obs.tracer.span(
                "emr.job", t=machine.clock.now,
                dur=sum(timings.values()),
                ds=job.dataset_index, executor=job.executor_id,
            )
            self.obs.metrics.counter("emr.jobs").inc()
        return (
            JobResult(job.dataset_index, job.executor_id, output),
            timings,
        )


#: A replication threshold above 1: no region is frequent enough, so
#: every scheme but EMR on unprotected caches stages single copies.
_NO_REPLICATION_THRESHOLD = 1.5


def _replication_plan(spec: WorkloadSpec, threshold: float) -> ReplicationPlan:
    """:func:`plan_replication` over all of ``spec``'s datasets, planned
    once per spec and threshold."""
    return spec.memo(
        ("plan", threshold), lambda: plan_replication(spec.datasets, threshold)
    )


#: How a job step books the job's time buckets: charge them to the
#: clock at once and add them to its executor's busy seconds (the
#: one-core schemes); add them to its executor's buckets, which EMR's
#: jobset barrier charges; or do both the unprotected parallel run's
#: way, which charges its slowest executor's buckets at the end.
CHARGE, BUCKET, BUCKET_AND_BUSY = "charge", "bucket", "bucket+busy"


def _zero_buckets(n: int) -> "list[dict[str, float]]":
    return [{"compute": 0.0, "cache_clear": 0.0, "disk_read": 0.0} for _ in range(n)]


def _fresh(step: tuple) -> tuple:
    """``step`` over a copy of its job, if it is a job step."""
    if step[0] is SchemeRun.run_job:
        return (step[0], step[1].copy(), *step[2:])
    return step


@dataclass
class RunState:
    """A scheme run between two steps of its program, as data.

    ``steps`` is the program (see :class:`SchemeRun`); its job steps
    hold the run's own jobs, because a pointer strike mutates a job's
    pointers. ``cursor`` is the next step and ``jobs_run`` the ordinal
    of the next job. ``results`` holds each dataset's replica results
    until ``pending`` (the datasets whose replicas all completed) is
    settled. ``busy`` is each executor's busy seconds and ``buckets``
    its time buckets not yet charged."""

    steps: "list[tuple]"
    busy: "list[float]"
    buckets: "list[dict[str, float]]"
    cursor: int = 0
    jobs_run: int = 0
    results: "dict[int, list[JobResult]]" = field(default_factory=dict)
    pending: "list[int]" = field(default_factory=list)

    def copy(self) -> "RunState":
        """An independent copy, over fresh copies of the jobs still to run."""
        cursor = self.cursor
        return RunState(
            steps=self.steps[:cursor] + [_fresh(step) for step in self.steps[cursor:]],
            busy=list(self.busy),
            buckets=[dict(buckets) for buckets in self.buckets],
            cursor=cursor,
            jobs_run=self.jobs_run,
            results={ds: list(results) for ds, results in self.results.items()},
            pending=list(self.pending),
        )


@dataclass(frozen=True)
class Checkpoint:
    """A scheme run stopped before job ``state.jobs_run``: everything
    the rest of the run reads. That is the machine's state, the
    :class:`RunState`, the run's ``RunStats``, its stopwatch buckets,
    the staged copies and committed outputs of its
    ``MaterializedWorkload`` and its engine's generator state.
    :meth:`SchemeRun.restore` resumes the run from it, on any machine
    built like the one it came from, as often as needed."""

    machine: MachineSnapshot
    state: RunState
    stats: RunStats
    spans: "dict[str, float]"
    materialized: "tuple[dict, dict]"
    rng: dict


class SchemeRun:
    """The scaffold every protection scheme runs on.

    Built once per run, it stages the workload at the configured
    frontier and owns the run's generator, spec, ``RunStats``,
    stopwatch, clock and DRAM baselines, ``MaterializedWorkload`` and
    ``JobEngine``. A scheme is a *program* for it (:meth:`load`): a
    list of steps, each a ``(method, *args)`` tuple of this class —
    :meth:`run_job`, :meth:`settle`, :meth:`barrier`,
    :meth:`restage`, :meth:`charge_straggler`, :meth:`set_freq` and
    :meth:`add_busy` — that :meth:`advance` interprets and
    :meth:`complete` closes with :meth:`finish`. Between two steps the
    whole run is data, so :meth:`checkpoint` can stop it before any
    job and :meth:`restore` resume it on another machine.
    """

    def __init__(
        self,
        machine: Machine,
        workload: Workload,
        config: EmrConfig,
        hooks: "EmrHooks | None",
        obs: "Observability | None",
        rng: np.random.Generator,
        spec: "WorkloadSpec | None",
        n_executors: int,
        plan: "ReplicationPlan | None" = None,
        runtime: "EmrRuntime | None" = None,
    ) -> None:
        self.machine = machine
        self.workload = workload
        self.config = config
        self.hooks = hooks
        self.obs = obs if obs is not None else NULL_OBS
        self.runtime = runtime
        self.rng = rng
        self.spec = spec or workload.build(rng)
        self.frontier = config.frontier or Frontier.for_machine(machine)
        validate_frontier(machine, self.frontier)
        if plan is None:
            plan = _replication_plan(self.spec, _NO_REPLICATION_THRESHOLD)
        self.stats = RunStats(replicated_bytes=plan.replicated_bytes)
        self.stopwatch = Stopwatch(machine.clock)
        self.start_time = machine.clock.now
        self.dram_bytes_before = self._dram_bytes()
        self.materialized = MaterializedWorkload(
            machine, self.spec, self.frontier, plan,
            n_executors, self.stopwatch, config.costs,
        )
        self.stats.memory_bytes = self.materialized.allocated_input_bytes
        self.engine = JobEngine(
            machine, workload, self.materialized, hooks, rng,
            config.flush_cycles_per_line, self.stats, obs=self.obs,
        )
        self.scheme = ""
        self.state = RunState(steps=[], busy=[], buckets=[])

    def _dram_bytes(self) -> int:
        stats = self.machine.memory.stats
        return stats.bytes_read + stats.bytes_written

    # ------------------------------------------------------------------
    # The program
    # ------------------------------------------------------------------
    def load(self, scheme: str, steps: "list[tuple]", executors: int = 1) -> "SchemeRun":
        """Load the program ``steps``, to close as ``scheme`` with
        ``executors`` busy counters."""
        self.scheme = scheme
        self.state = RunState(
            steps=steps, busy=[0.0] * executors, buckets=_zero_buckets(executors)
        )
        return self

    @staticmethod
    def job_step(
        job: Job,
        core_id: int,
        executor: int = 0,
        expected: int = 1,
        booking: str = CHARGE,
        flush_after: bool = False,
    ) -> tuple:
        """The step that runs ``job`` on ``core_id``: a dataset is
        pending once ``expected`` replicas completed, and ``booking``
        says where the job's time goes (:data:`CHARGE`, :data:`BUCKET`
        or :data:`BUCKET_AND_BUSY`) for busy counter ``executor``."""
        return (SchemeRun.run_job, job, core_id, flush_after, executor, expected, booking)

    def single_pass(self) -> "list[tuple]":
        """Steps that run every dataset once on core 0 and commit each
        output unverified before the next job: a later strike on this
        output slot must not reach the committed output. A run without
        a vote surfaces a fault directly, as an empty output."""
        steps: "list[tuple]" = []
        for ds in self.spec.datasets:
            steps += [self.job_step(Job(dataset=ds, executor_id=0), 0), (SchemeRun.settle,)]
        return steps

    def advance(self, ordinal: "int | None" = None) -> bool:
        """Interpret steps until job ``ordinal`` is next (True) or the
        program has ended (False)."""
        state = self.state
        steps = state.steps
        while state.cursor < len(steps):
            op, *args = steps[state.cursor]
            if op is SchemeRun.run_job:
                if state.jobs_run == ordinal:
                    return True
                state.jobs_run += 1
            state.cursor += 1
            op(self, *args)
        return False

    def complete(self) -> RunResult:
        """Run the rest of the program and close the run."""
        self.advance()
        return self.finish(self.scheme, self.state.busy)

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    def checkpoint(self) -> Checkpoint:
        """The run as it stands, between two steps."""
        return Checkpoint(
            machine=self.machine.snapshot(),
            state=self.state.copy(),
            stats=self.stats.copy(),
            spans=self.stopwatch.breakdown(),
            materialized=self.materialized.snapshot(),
            rng=self.rng.bit_generator.state,
        )

    def restore(
        self,
        checkpoint: Checkpoint,
        machine: Machine,
        hooks: "EmrHooks | None" = None,
    ) -> None:
        """Resume from ``checkpoint`` on ``machine`` (this run's or one
        built like it, rewound to the checkpoint), with ``hooks``.

        The engine's output memo carries over: it holds a pure function
        of each job's fetched bytes, so it is the same for every run of
        one spec and workload."""
        machine.restore(checkpoint.machine)
        self.machine = self.materialized.machine = self.engine.machine = machine
        self.hooks = self.engine.hooks = hooks
        if self.runtime is not None:
            self.runtime.machine, self.runtime.hooks = machine, hooks
        self.state = checkpoint.state.copy()
        self.stats = self.engine.stats = checkpoint.stats.copy()
        self.stopwatch = self.materialized.stopwatch = Stopwatch(
            machine.clock, checkpoint.spans
        )
        self.materialized.restore(checkpoint.materialized)
        self.rng.bit_generator.state = checkpoint.rng

    def release(self) -> None:
        """Drop the run's machine and hooks until the next
        :meth:`restore`, so a finished run's machine can be freed
        before the next one is built."""
        self.machine = self.materialized.machine = self.engine.machine = None
        self.hooks = self.engine.hooks = None
        self.stopwatch = self.materialized.stopwatch = None
        if self.runtime is not None:
            self.runtime.machine = self.runtime.hooks = None

    # ------------------------------------------------------------------
    # Steps
    # ------------------------------------------------------------------
    def run_job(
        self,
        job: Job,
        core_id: int,
        flush_after: bool,
        executor: int,
        expected: int,
        booking: str,
    ) -> None:
        """Run one job through the engine and book its time."""
        state = self.state
        result, timings = self.engine.run_job(
            job, core_id, runtime=self.runtime, flush_after=flush_after
        )
        results = state.results.setdefault(job.dataset_index, [])
        results.append(result)
        if len(results) == expected:
            state.pending.append(job.dataset_index)
        if booking == CHARGE:
            state.busy[executor] += self.charge(timings)
            return
        if booking == BUCKET_AND_BUSY:
            state.busy[executor] += sum(timings.values())
        buckets = state.buckets[executor]
        for bucket, seconds in timings.items():
            buckets[bucket] += seconds

    def settle(self) -> None:
        """Vote every pending dataset, in order, and commit the
        majority output; a single replica commits unverified."""
        state = self.state
        for ds in state.pending:
            results = state.results.pop(ds)
            if len(results) == 1:
                # Nothing to compare: a replica fault is already a
                # recorded detected fault.
                self.commit_unverified(ds, results[0].executor_id, results[0].ok)
            else:
                self.vote(ds, results)
        state.pending.clear()

    def barrier(self, n_executors: int, jobset: JobSet) -> None:
        """EMR's jobset barrier: the jobset's wall time is its slowest
        executor's, but flash is one device, so serialized disk time is
        a floor. Then the barrier cost, the votes of the datasets it
        completed, and the frontier's barrier hygiene."""
        state = self.state
        per_executor = state.buckets[:n_executors]
        executor_totals = [sum(buckets.values()) for buckets in per_executor]
        total_disk = sum(buckets["disk_read"] for buckets in per_executor)
        wall = max(max(executor_totals), total_disk)
        straggler = int(np.argmax(executor_totals))
        self.charge(per_executor[straggler], elapsed=wall)
        if wall > executor_totals[straggler]:
            self.stopwatch.add("disk_read", wall - executor_totals[straggler])
        for executor, buckets in enumerate(per_executor):
            state.busy[executor] += sum(buckets.values())
        self.charge({"orchestration": self.config.costs.barrier_seconds})
        state.pending.sort()
        self.settle()
        self.materialized.end_of_jobset()
        if self.hooks is not None:
            self.hooks.after_jobset(self.runtime, jobset)
        state.buckets = _zero_buckets(len(state.buckets))

    def charge_straggler(self) -> None:
        """Charge the slowest executor's buckets as the wall time of
        executors that ran concurrently."""
        state = self.state
        straggler = int(np.argmax(state.busy))
        self.charge(state.buckets[straggler], elapsed=state.busy[straggler])

    def restage(self) -> None:
        """A fresh process on core 0: cold caches, cold page cache,
        inputs re-read."""
        machine, cfg = self.machine, self.config
        flushed = machine.caches.flush_all()
        self.stats.flushed_lines += flushed
        self.charge(
            {"cache_clear": flushed * cfg.flush_cycles_per_line / machine.cores[0].freq}
        )
        self.materialized.restage()
        self.materialized.end_of_jobset()

    def set_freq(self, core_ids: "tuple[int, ...]", freq: float) -> None:
        for core_id in core_ids:
            self.machine.cores[core_id].set_freq(freq)

    def add_busy(self, executor: int, seconds: float) -> None:
        self.state.busy[executor] += seconds

    # ------------------------------------------------------------------
    # Shared accounting
    # ------------------------------------------------------------------
    def charge(
        self, timings: "dict[str, float]", elapsed: "float | None" = None
    ) -> float:
        """Credit each time bucket to the stopwatch and advance the
        clock by ``elapsed`` (default: the buckets' sum), returned."""
        for bucket, seconds in timings.items():
            self.stopwatch.add(bucket, seconds)
        if elapsed is None:
            elapsed = sum(timings.values())
        self.machine.clock.advance(elapsed)
        return elapsed

    def commit_unverified(self, ds: int, executor: int, ok: bool) -> None:
        """Commit one replica's stored output with nothing to compare it
        against; a faulted replica commits an empty output."""
        materialized = self.materialized
        output = materialized.load_replica_output(ds, executor) if ok else b""
        materialized.commit_output(ds, output)

    def vote(self, ds: int, results: "list[JobResult]") -> None:
        """Vote one dataset's replicas and commit the majority output.

        The orchestrator reads replica outputs back from inside the
        frontier — the authoritative copies, not the python objects
        (a DRAM SEU on a slot shows up here)."""
        load = self.materialized.load_replica_output
        refreshed = [
            JobResult(ds, r.executor_id, load(ds, r.executor_id)) if r.ok else r
            for r in results
        ]
        if self.hooks is not None:
            refreshed = self.hooks.before_vote(self.runtime, ds, refreshed)
        outcome = vote(refreshed)
        compare_bytes = sum(
            len(r.output) for r in refreshed if r.output is not None
        )
        self.charge(
            {"orchestration": compare_bytes * self.config.costs.vote_seconds_per_byte}
        )
        status = outcome.status
        if self.obs.enabled:
            self.obs.tracer.event(
                "emr.vote", t=self.machine.clock.now,
                ds=outcome.dataset_index, status=status.value,
                dissenting=list(outcome.dissenting_executors),
            )
            metrics = self.obs.metrics
            metrics.counter("emr.votes").inc()
            if status is VoteStatus.CORRECTED:
                metrics.counter("emr.vote_corrections").inc()
            elif status is VoteStatus.INCONCLUSIVE:
                metrics.counter("emr.votes_inconclusive").inc()
        stats = self.stats
        if status is VoteStatus.INCONCLUSIVE:
            stats.detected_faults.append(f"ds={ds}: inconclusive vote")
            if self.config.raise_on_inconclusive:
                raise VotingInconclusiveError(f"dataset {ds}: no majority")
            self.materialized.commit_output(ds, b"")
            return
        if status is VoteStatus.CORRECTED:
            stats.vote_corrections += 1
        else:
            stats.unanimous_votes += 1
        self.materialized.commit_output(ds, outcome.output)

    def finish(self, scheme: str, executor_busy: "list[float]") -> RunResult:
        """Measure the run's energy, emit its ``emr.run`` span and run
        counter, and return its result."""
        machine = self.machine
        stats = self.stats
        wall_seconds = machine.clock.now - self.start_time
        energy = machine.energy_meter.measure(
            wall_seconds, executor_busy,
            dram_bytes=self._dram_bytes() - self.dram_bytes_before,
            disk_ios=stats.disk_ios,
        )
        outputs = self.materialized.final_outputs()
        if self.obs.enabled:
            # Only EMR's span counts jobsets, and only EMR reports the
            # workload's output rate; the baselines count their runs
            # per scheme.
            is_emr = scheme == "emr"
            name = self.workload.name
            self.obs.tracer.span(
                "emr.run", t=self.start_time, dur=wall_seconds,
                scheme=scheme, workload=name, jobs=stats.jobs,
                **({"jobsets": stats.jobsets} if is_emr else {}),
                corrections=stats.vote_corrections,
            )
            metrics = self.obs.metrics
            if is_emr:
                metrics.counter("emr.runs").inc()
                output_bytes = sum(len(o) for o in outputs)
                metrics.counter(f"workload.{name}.output_bytes").inc(output_bytes)
                if wall_seconds > 0:
                    metrics.gauge(f"workload.{name}.bytes_per_sim_s").set(
                        output_bytes / wall_seconds
                    )
            else:
                metrics.counter(f"scheme.{scheme}.runs").inc()
        return RunResult(
            scheme=scheme,
            workload=self.workload.name,
            outputs=outputs,
            wall_seconds=wall_seconds,
            breakdown=self.stopwatch.breakdown(),
            energy=energy,
            stats=stats,
            frontier=self.frontier,
        )


class EmrRuntime:
    """Plans and runs one workload under EMR on one machine."""

    def __init__(
        self,
        machine: Machine,
        workload: Workload,
        config: "EmrConfig | None" = None,
        hooks: "EmrHooks | None" = None,
        seed: int = 0,
        obs: "Observability | None" = None,
    ) -> None:
        self.machine = machine
        self.workload = workload
        self.config = config or EmrConfig()
        self.hooks = hooks
        self.seed = seed
        self.obs = obs if obs is not None else NULL_OBS
        frontier = self.config.frontier or Frontier.for_machine(machine)
        validate_frontier(machine, frontier)
        self.frontier = frontier
        # Populated by plan()/run():
        self.spec: "WorkloadSpec | None" = None
        self.plan_: "ReplicationPlan | None" = None
        self.conflicts_: "ConflictGraph | None" = None
        self.jobsets_: "list[JobSet] | None" = None
        self.mode_schedule_: "list[ModeSegment] | None" = None
        #: dataset index -> replicas that must complete before commit.
        #: Empty means "the config's n_executors for every dataset".
        self._expected_replicas: "dict[int, int]" = {}

    # ------------------------------------------------------------------
    @property
    def cache_protected(self) -> bool:
        """ECC covers the caches: shared lines cannot silently alias,
        so jobset isolation, flushes, and replication buy nothing.
        "EMR simply reverts to 3-MR" (§3.2) — plain protected parallel
        triple execution with voting."""
        return self.machine.spec.cache_ecc

    def plan(self, spec: "WorkloadSpec | None" = None,
             rng: "np.random.Generator | None" = None,
             mode_schedule: "list[ModeSegment] | None" = None) -> "list[JobSet]":
        """Build replication plan, conflict graph, and jobset schedule.

        ``mode_schedule`` splits the dataset list into contiguous
        :class:`~repro.core.emr.scheduler.ModeSegment` runs, each
        planned under its own executor width, replication factor, and
        threshold; the runtime then switches modes at the jobset
        barriers between segments. Without one, planning is the
        historical fixed-``n_executors`` path, bit for bit.
        """
        rng = rng or np.random.default_rng(self.seed)
        self.spec = spec or self.workload.build(rng)
        self.mode_schedule_ = None
        self._expected_replicas = {}
        if mode_schedule is not None:
            if self.cache_protected:
                raise ConfigurationError(
                    "mode schedules need the unprotected cache hierarchy; "
                    "an ECC-cached machine already reverts EMR to 3-MR"
                )
            return self._plan_schedule(mode_schedule)
        # The plan, conflict graph and jobsets depend only on the spec's
        # layout: derived once per spec, and each run gets its own jobs.
        spec, cfg = self.spec, self.config
        threshold, line_size = cfg.replication_threshold, self.machine.spec.line_size
        if self.cache_protected:
            threshold, line_size = _NO_REPLICATION_THRESHOLD, None
        plan = self.plan_ = _replication_plan(spec, threshold)
        conflicts = self.conflicts_ = spec.memo(
            ("conflicts", threshold, line_size),
            lambda: ConflictGraph(neighbours={}) if line_size is None
            else detect_conflicts(spec.datasets, set(plan.replicated), line_size=line_size),
        )

        def schedule() -> "list[JobSet]":
            jobs = order_jobs(spec.datasets, cfg.n_executors, cfg.ordering)
            # Without isolation (ECC caches) every job runs in one jobset.
            return [JobSet(0, jobs)] if line_size is None else build_jobsets(jobs, conflicts)

        key = ("jobsets", threshold, line_size, cfg.n_executors, cfg.ordering)
        self.jobsets_ = [jobset.fresh_copy() for jobset in spec.memo(key, schedule)]
        if cfg.validate_schedule and line_size is not None:
            validate_jobsets(self.jobsets_, conflicts)
        return self.jobsets_

    def _plan_schedule(
        self, mode_schedule: "list[ModeSegment]"
    ) -> "list[JobSet]":
        """Per-segment planning: each mode segment gets its own
        replication plan, conflict graph, and jobsets; the staged
        replication plan is the union (conservative — a copy staged
        for one segment is simply unused by the others)."""
        segments = validate_schedule(mode_schedule, len(self.spec.datasets))
        line_size = self.machine.spec.line_size
        jobsets: "list[JobSet]" = []
        union_refs: set = set()
        frequencies: dict = {}
        neighbours: "dict[int, frozenset]" = {}
        expected: "dict[int, int]" = {}
        start = 0
        for segment in segments:
            subset = self.spec.datasets[start : start + segment.datasets]
            start += segment.datasets
            threshold = (
                segment.replication_threshold
                if segment.replication_threshold is not None
                else self.config.replication_threshold
            )
            seg_plan = plan_replication(subset, threshold)
            replicas = segment.effective_replicas
            if replicas < 2:
                # An unprotected segment runs without jobset isolation:
                # it accepts cache-aliasing risk (no vote would catch
                # the corruption anyway) in exchange for full packing.
                seg_conflicts = ConflictGraph(neighbours={})
            else:
                seg_conflicts = detect_conflicts(
                    subset, set(seg_plan.replicated), line_size=line_size
                )
            jobs = order_jobs(
                subset, segment.n_executors, self.config.ordering,
                replicas=replicas,
            )
            seg_jobsets = build_jobsets(jobs, seg_conflicts)
            if self.config.validate_schedule:
                validate_jobsets(seg_jobsets, seg_conflicts)
            for jobset in seg_jobsets:
                jobset.n_executors = segment.n_executors
                jobset.mode_name = segment.name
                jobset.freq_level = segment.freq_level
                jobsets.append(jobset)
            union_refs |= set(seg_plan.replicated)
            for ref, freq in seg_plan.frequencies.items():
                frequencies[ref] = max(frequencies.get(ref, 0.0), freq)
            # Segments cover disjoint dataset index ranges, so their
            # conflict graphs merge without collisions.
            neighbours.update(seg_conflicts.neighbours)
            for ds in subset:
                expected[ds.index] = replicas
        for index, jobset in enumerate(jobsets):
            jobset.jobset_id = index
            for job in jobset.jobs:
                job.jobset_id = index
        self.plan_ = ReplicationPlan(
            replicated=frozenset(union_refs),
            threshold=self.config.replication_threshold,
            n_datasets=len(self.spec.datasets),
            frequencies=frequencies,
        )
        self.conflicts_ = ConflictGraph(neighbours=neighbours)
        self.jobsets_ = jobsets
        self.mode_schedule_ = segments
        self._expected_replicas = expected
        return self.jobsets_

    # ------------------------------------------------------------------
    def start(self, spec: "WorkloadSpec | None" = None,
              rng: "np.random.Generator | None" = None,
              mode_schedule: "list[ModeSegment] | None" = None) -> SchemeRun:
        """Plan (as :meth:`run` does), stage, and load EMR's program:
        per jobset, a frequency step on mode entry, each executor's
        jobs, and the barrier. Returns the run before its first job."""
        rng = rng or np.random.default_rng(self.seed)
        if spec is not None or self.jobsets_ is None or mode_schedule is not None:
            self.plan(spec, rng, mode_schedule=mode_schedule)
        machine = self.machine
        cfg = self.config
        # Executor width: the widest jobset (mode schedules mix widths;
        # without one, every jobset inherits the config and this is
        # exactly the historical cfg.n_executors).
        width = max(
            (js.n_executors or cfg.n_executors for js in self.jobsets_),
            default=cfg.n_executors,
        )
        groups = machine.default_core_groups(width)
        core_ids = tuple(core_id for group in groups for core_id in group.core_ids)
        core_spec = machine.spec.core_spec
        for core_id in core_ids:
            machine.cores[core_id].set_freq(core_spec.max_freq)
        applied_freq = core_spec.max_freq

        run = SchemeRun(
            machine, self.workload, cfg, self.hooks, self.obs, rng, self.spec,
            width, plan=self.plan_, runtime=self,
        )
        run.stats.conflict_edges = self.conflicts_.edge_count
        run.stats.jobsets = len(self.jobsets_)
        steps: "list[tuple]" = []
        for jobset in self.jobsets_:
            n_executors = jobset.n_executors or cfg.n_executors
            # The segment's DVFS operating point, applied at the
            # barrier on mode entry (None = the top step, today's
            # fixed-mode behaviour).
            freq = (
                core_spec.max_freq if jobset.freq_level is None
                else core_spec.freq_levels[jobset.freq_level]
            )
            if freq != applied_freq:
                steps.append((SchemeRun.set_freq, core_ids, freq))
                applied_freq = freq
            for executor in range(n_executors):
                core_id = groups[executor].core_ids[0]
                for job in jobset.jobs_for_executor(executor):
                    expected = self._expected_replicas.get(
                        job.dataset_index, cfg.n_executors
                    )
                    steps.append(run.job_step(
                        job, core_id, executor, expected, BUCKET,
                        # Unprotected (single-replica) segments accept
                        # aliasing risk instead of paying cache hygiene.
                        flush_after=not self.cache_protected and expected >= 2,
                    ))
            steps.append((SchemeRun.barrier, n_executors, jobset))
        return run.load("emr", steps, width)

    def run(self, spec: "WorkloadSpec | None" = None,
            rng: "np.random.Generator | None" = None,
            mode_schedule: "list[ModeSegment] | None" = None) -> RunResult:
        return self.start(spec, rng, mode_schedule).complete()


def emr_protect(
    machine: Machine,
    workload: Workload,
    config: "EmrConfig | None" = None,
    seed: int = 0,
    spec: "WorkloadSpec | None" = None,
    hooks: "EmrHooks | None" = None,
    obs: "Observability | None" = None,
) -> RunResult:
    """One-call convenience: plan and run a workload under EMR (on
    ``spec``, or on a spec built from ``seed``), called with the same
    keywords as the baselines."""
    return EmrRuntime(
        machine, workload, config=config, hooks=hooks, seed=seed, obs=obs
    ).run(spec=spec)


def start_emr(
    machine: Machine,
    workload: Workload,
    spec: "WorkloadSpec | None" = None,
    config: "EmrConfig | None" = None,
    hooks: "EmrHooks | None" = None,
    seed: int = 0,
    obs: "Observability | None" = None,
) -> SchemeRun:
    """:func:`emr_protect`'s run, before its first job."""
    return EmrRuntime(
        machine, workload, config=config, hooks=hooks, seed=seed, obs=obs
    ).start(spec=spec)
