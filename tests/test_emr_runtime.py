"""End-to-end tests of the EMR runtime, baselines, and voting."""

import numpy as np
import pytest

from repro.core.emr import (
    EmrConfig,
    EmrRuntime,
    Frontier,
    JobResult,
    VoteStatus,
    checksum_protected_run,
    emr_protect,
    sequential_3mr,
    single_run,
    unprotected_parallel_3mr,
    vote,
    vote_or_raise,
)
from repro.core.emr.runtime import EmrHooks
from repro.errors import ConfigurationError, VotingInconclusiveError, WorkloadError
from repro.obs import MetricsRegistry, Observability, TraceRecorder
from repro.sim import Machine
from repro.workloads import AesWorkload, DeflateWorkload


@pytest.fixture
def workload():
    return AesWorkload(chunk_bytes=64, chunks=9)


@pytest.fixture
def spec(workload):
    return workload.build(np.random.default_rng(0))


@pytest.fixture
def golden(workload, spec):
    return workload.reference_outputs(spec)


def _config(**kw):
    kw.setdefault("replication_threshold", 0.5)
    return EmrConfig(**kw)


#: Every scheme's entry point, each called as ``runner(machine,
#: workload, config=...)`` (``emr_protect`` builds an ``EmrRuntime``).
RUNNERS = [
    emr_protect,
    sequential_3mr,
    unprotected_parallel_3mr,
    single_run,
    checksum_protected_run,
]
RUNNER_IDS = ["emr", "3mr", "unprotected", "none", "checksum"]
#: Replicas each runner runs of every dataset.
REPLICAS = [3, 3, 3, 1, 1]


class TestVoting:
    def test_unanimous(self):
        results = [JobResult(0, e, b"same") for e in range(3)]
        outcome = vote(results)
        assert outcome.status is VoteStatus.UNANIMOUS
        assert outcome.output == b"same"

    def test_majority_corrects_one_dissenter(self):
        results = [
            JobResult(0, 0, b"good"),
            JobResult(0, 1, b"bad!"),
            JobResult(0, 2, b"good"),
        ]
        outcome = vote(results)
        assert outcome.status is VoteStatus.CORRECTED
        assert outcome.output == b"good"
        assert outcome.dissenting_executors == (1,)

    def test_faulted_replica_out_voted(self):
        results = [
            JobResult(0, 0, b"good"),
            JobResult(0, 1, None, fault="segfault"),
            JobResult(0, 2, b"good"),
        ]
        outcome = vote(results)
        assert outcome.status is VoteStatus.CORRECTED

    def test_three_way_split_inconclusive(self):
        results = [JobResult(0, e, bytes([e])) for e in range(3)]
        assert vote(results).status is VoteStatus.INCONCLUSIVE
        with pytest.raises(VotingInconclusiveError):
            vote_or_raise(results)

    def test_two_faults_inconclusive(self):
        results = [
            JobResult(0, 0, b"good"),
            JobResult(0, 1, None, fault="segfault"),
            JobResult(0, 2, None, fault="ecc"),
        ]
        assert vote(results).status is VoteStatus.INCONCLUSIVE

    def test_mixed_datasets_rejected(self):
        with pytest.raises(ConfigurationError):
            vote([JobResult(0, 0, b"x"), JobResult(1, 1, b"x")])


class TestEmrCorrectness:
    def test_outputs_match_golden(self, workload, spec, golden):
        machine = Machine.rpi_zero2w()
        runtime = EmrRuntime(machine, workload, config=_config())
        result = runtime.run(spec=spec)
        assert result.matches(golden)
        assert result.stats.unanimous_votes == len(spec.datasets)
        assert result.stats.vote_corrections == 0

    def test_all_schemes_agree_fault_free(self, workload, spec, golden):
        for runner in (sequential_3mr, unprotected_parallel_3mr, single_run):
            machine = Machine.rpi_zero2w()
            result = runner(machine, workload, spec=spec, config=_config())
            assert result.outputs == golden, runner.__name__

    def test_deflate_chain_workload(self):
        workload = DeflateWorkload(block_bytes=256, blocks=8)
        spec = workload.build(np.random.default_rng(1))
        golden = workload.reference_outputs(spec)
        machine = Machine.rpi_zero2w()
        result = emr_protect(machine, workload, config=_config(), seed=1)
        # emr_protect rebuilds the spec from the same seed.
        assert result.outputs == golden

    def test_storage_frontier_on_non_ecc_machine(self, workload, spec, golden):
        machine = Machine.snapdragon801()
        runtime = EmrRuntime(machine, workload, config=_config())
        assert runtime.frontier is Frontier.STORAGE
        result = runtime.run(spec=spec)
        assert result.matches(golden)

    @pytest.mark.parametrize("runner", RUNNERS, ids=RUNNER_IDS)
    def test_dram_frontier_rejected_without_ecc(self, workload, runner):
        machine = Machine.snapdragon801()
        with pytest.raises(ConfigurationError):
            runner(machine, workload, config=_config(frontier=Frontier.DRAM))

    @pytest.mark.parametrize("runner", RUNNERS, ids=RUNNER_IDS)
    def test_configured_storage_frontier_used_on_ecc_machine(
        self, workload, golden, runner
    ):
        result = runner(
            Machine.rpi_zero2w(), workload,
            config=_config(frontier=Frontier.STORAGE),
        )
        assert result.frontier is Frontier.STORAGE
        assert result.stats.disk_ios > 0
        assert result.matches(golden)


class TestEmrTiming:
    def test_emr_faster_than_sequential_3mr(self, workload, spec):
        emr_result = EmrRuntime(
            Machine.rpi_zero2w(), workload, config=_config()
        ).run(spec=spec)
        seq_result = sequential_3mr(
            Machine.rpi_zero2w(), workload, spec=spec, config=_config()
        )
        assert emr_result.wall_seconds < seq_result.wall_seconds

    def test_emr_slower_than_unprotected(self, workload, spec):
        emr_result = EmrRuntime(
            Machine.rpi_zero2w(), workload, config=_config()
        ).run(spec=spec)
        unprotected = unprotected_parallel_3mr(
            Machine.rpi_zero2w(), workload, spec=spec, config=_config()
        )
        assert emr_result.wall_seconds >= unprotected.wall_seconds

    def test_sequential_reads_disk_three_times(self, workload, spec):
        seq = sequential_3mr(
            Machine.rpi_zero2w(), workload, spec=spec, config=_config()
        )
        emr = EmrRuntime(Machine.rpi_zero2w(), workload, config=_config()).run(spec=spec)
        assert seq.breakdown["disk_read"] > 2.5 * emr.breakdown["disk_read"]

    def test_storage_frontier_slower_than_dram(self, workload, spec):
        dram = EmrRuntime(
            Machine.rpi_zero2w(), workload, config=_config()
        ).run(spec=spec)
        storage = EmrRuntime(
            Machine.rpi_zero2w(), workload,
            config=_config(frontier=Frontier.STORAGE),
        ).run(spec=spec)
        assert storage.wall_seconds > dram.wall_seconds

    def test_energy_ordering(self, workload, spec):
        emr = EmrRuntime(Machine.rpi_zero2w(), workload, config=_config()).run(spec=spec)
        seq = sequential_3mr(
            Machine.rpi_zero2w(), workload, spec=spec, config=_config()
        )
        assert emr.energy.total_joules < seq.energy.total_joules

    def test_breakdown_buckets_present(self, workload, spec):
        result = EmrRuntime(
            Machine.rpi_zero2w(), workload, config=_config()
        ).run(spec=spec)
        for bucket in ("disk_read", "allocation", "compute", "orchestration"):
            assert bucket in result.breakdown
        assert result.breakdown["compute"] > 0


class TestSharedCacheHazard:
    """The paper's core soundness claim: naive parallel 3-MR lets one
    shared-cache SEU corrupt multiple replicas identically; EMR's
    jobset isolation + flushes prevent it."""

    def _flip_chunk_line(self, machine, spec):
        """Flip the L2 copy of dataset 0's data chunk, if resident."""
        # Blob "plaintext" was allocated first at a line boundary; its
        # chunk 0 occupies the first line(s) of DRAM.
        line = 0
        if line in machine.caches.l2:
            machine.caches.l2.flip_bit(line, 5, 1)
            return True
        return False

    def test_unprotected_parallel_suffers_sdc(self):
        workload = AesWorkload(chunk_bytes=64, chunks=4)
        spec = workload.build(np.random.default_rng(2))
        golden = workload.reference_outputs(spec)
        machine = Machine.rpi_zero2w()
        outer = self

        class Hooks(EmrHooks):
            fired = False

            def before_job(self, runtime, job):
                # After replica 0 of dataset 0 ran, its chunk line is
                # still in L2 (no flushes). Corrupt it before replicas
                # 1 and 2 read it.
                if not self.fired and job.dataset_index == 0 and job.executor_id == 1:
                    self.fired = outer._flip_chunk_line(machine, spec)

        hooks = Hooks()
        result = unprotected_parallel_3mr(
            machine, workload, spec=spec, config=_config(), hooks=hooks
        )
        assert hooks.fired, "test setup: line was not resident"
        # Two replicas read the corrupted line -> the corrupted output
        # WINS the vote. Silent data corruption.
        assert result.outputs != golden
        assert not result.stats.detected_faults

    def test_emr_immune_to_the_same_strike(self):
        workload = AesWorkload(chunk_bytes=64, chunks=4)
        spec = workload.build(np.random.default_rng(2))
        golden = workload.reference_outputs(spec)
        machine = Machine.rpi_zero2w()
        outer = self
        fired = []

        class Hooks(EmrHooks):
            def before_job(self, runtime, job):
                if not fired and job.dataset_index == 0 and job.executor_id == 1:
                    if outer._flip_chunk_line(machine, spec):
                        fired.append(True)

        runtime = EmrRuntime(
            machine, workload, config=_config(), hooks=Hooks()
        )
        result = runtime.run(spec=spec)
        # EMR flushed the chunk's lines after replica 0's job, so the
        # line was NOT resident when the hook tried to strike — or if a
        # strike landed, at most one replica saw it.
        assert result.matches(golden)


class TestPipelineFaults:
    def test_poisoned_core_is_out_voted(self, workload, spec, golden):
        machine = Machine.rpi_zero2w()

        class PoisonOnce(EmrHooks):
            fired = False

            def before_job(self, runtime, job):
                if not self.fired and job.dataset_index == 3:
                    machine.cores[job.group].poisoned = True
                    self.fired = True

        result = EmrRuntime(
            machine, workload, config=_config(), hooks=PoisonOnce()
        ).run(spec=spec)
        assert result.matches(golden)
        assert result.stats.vote_corrections == 1

    def test_corrupted_pointer_segfaults_but_recovers(self, workload, spec, golden):
        machine = Machine.rpi_zero2w()

        class BreakPointer(EmrHooks):
            fired = False

            def before_job(self, runtime, job):
                if not self.fired and job.dataset_index == 2 and job.executor_id == 0:
                    offset, length = job.pointers["data"]
                    job.pointers["data"] = (offset + (1 << 27), length)
                    self.fired = True

        result = EmrRuntime(
            machine, workload, config=_config(), hooks=BreakPointer()
        ).run(spec=spec)
        assert result.matches(golden)
        assert result.had_detected_error
        assert "corrupted" in result.stats.detected_faults[0]

    def test_replica_crash_is_contained(self, workload, spec, golden):
        """An arbitrary exception in one replica (not a modeled
        DetectedFaultError — a plain crash) must not abort the run: it
        becomes a recorded fault the other replicas out-vote."""
        machine = Machine.rpi_zero2w()

        class CrashOnce(EmrHooks):
            fired = False

            def before_job(self, runtime, job):
                if not self.fired and job.dataset_index == 1 and job.executor_id == 2:
                    self.fired = True
                    raise RuntimeError("cosmic ray in the scheduler")

        result = EmrRuntime(
            machine, workload, config=_config(), hooks=CrashOnce()
        ).run(spec=spec)
        assert result.matches(golden)
        assert result.had_detected_error
        assert any(
            "replica crash: RuntimeError" in fault
            for fault in result.stats.detected_faults
        )

    def test_single_run_has_no_protection(self, workload, spec, golden):
        machine = Machine.rpi_zero2w()

        class PoisonOnce(EmrHooks):
            fired = False

            def before_job(self, runtime, job):
                if not self.fired and job.dataset_index == 3:
                    machine.cores[0].poisoned = True
                    self.fired = True

        result = single_run(
            machine, workload, spec=spec, config=_config(), hooks=PoisonOnce()
        )
        assert result.outputs != golden  # silent corruption committed


class RejectSecondOutput(AesWorkload):
    """Its ``validate_output`` rejects the second output it sees."""

    validated = 0

    def validate_output(self, output):
        super().validate_output(output)
        self.validated += 1
        if self.validated == 2:
            raise WorkloadError("malformed block")


@pytest.mark.parametrize(
    "runner, replicas", list(zip(RUNNERS, REPLICAS)), ids=RUNNER_IDS
)
class TestSharedFaultSemantics:
    """Every scheme runs its jobs through ``JobEngine.run_job``, so a
    strike or a rejected output is recorded, charged and counted the
    same way in all five."""

    def _run(self, runner, workload, spec, strike=None):
        """Run ``runner`` with ``strike(machine, job)`` applied before
        the first job of dataset 2; returns the result and the names of
        the trace records the run emitted."""
        machine = Machine.rpi_zero2w()
        obs = Observability(
            tracer=TraceRecorder(ring_size=None), metrics=MetricsRegistry()
        )
        fired = []

        class Strike(EmrHooks):
            def before_job(self, runtime, job):
                if strike is not None and not fired and job.dataset_index == 2:
                    strike(machine, job)
                    fired.append(job)

        result = runner(
            machine, workload, spec=spec,
            config=_config(raise_on_inconclusive=False), hooks=Strike(), obs=obs,
        )
        assert fired or strike is None
        return result, {record.name for record in obs.tracer.records()}

    def test_pipeline_strike_is_recorded(self, workload, spec, runner, replicas):
        def poison(machine, job):
            machine.cores[job.group].poisoned = True

        result, names = self._run(runner, workload, spec, poison)
        assert {"emr.job", "emr.corruption"} <= names
        assert result.stats.jobs == replicas * len(spec.datasets)

    def test_pointer_strike_is_a_recorded_fault(
        self, workload, spec, runner, replicas
    ):
        def break_pointer(machine, job):
            offset, length = job.pointers["data"]
            job.pointers["data"] = (offset + (1 << 27), length)

        result, names = self._run(runner, workload, spec, break_pointer)
        assert "emr.fault" in names
        assert result.stats.detected_faults[0].startswith("ds=2 exec=")
        assert result.stats.jobs == replicas * len(spec.datasets) - 1

    def test_rejected_output_is_a_detected_fault(self, spec, runner, replicas):
        workload = RejectSecondOutput(chunk_bytes=64, chunks=9)
        result, names = self._run(runner, workload, spec)
        assert len(result.stats.detected_faults) == 1
        assert "replica crash: WorkloadError: malformed block" in (
            result.stats.detected_faults[0]
        )
        assert "emr.fault" in names
        # Only the jobs that completed count.
        assert result.stats.jobs == replicas * len(spec.datasets) - 1
