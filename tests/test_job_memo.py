"""The job engine's run-scoped output memo.

Replicas of a dataset whose fetched inputs agree share one
``Workload.run_job`` call; a replica whose inputs a strike changed gets
its own call, and everything after the kernel (pipeline corruption,
hooks, stores, counters) still runs per replica. The memo lives for one
run: a second run on the same spec computes its jobs again.

The property at the end runs seeded strike programs with the memo and
with a mapping that never stores, and asks for equal ``RunResult``s.
"""

import hashlib
import json
import pickle
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.emr import (
    EmrConfig,
    EmrRuntime,
    sequential_3mr,
    unprotected_parallel_3mr,
)
from repro.core.emr.runtime import EmrHooks, JobEngine
from repro.errors import DetectedFaultError, SimulationError
from repro.obs import MetricsRegistry, Observability, TraceRecorder
from repro.radiation import SeuTarget
from repro.radiation.injector import CampaignConfig, TrialTask, run_campaign_trial
from repro.radiation.seu import flip_dram, flip_l1, flip_l2, poison_pipeline
from repro.sim import Machine, ecc
from repro.workloads import AesWorkload, ImageProcessingWorkload

#: The schemes that run every dataset on three replicas.
REPLICATED = ("3mr", "unprotected", "emr")
MACHINES = {"ecc": Machine.rpi_zero2w, "no-ecc": Machine.snapdragon801}


def _run(scheme, machine, workload, spec, hooks=None, obs=None):
    config = EmrConfig(replication_threshold=0.5, raise_on_inconclusive=False)
    if scheme == "emr":
        runtime = EmrRuntime(
            machine, workload, config=config, hooks=hooks, seed=5, obs=obs
        )
        return runtime.run(spec=spec)
    runner = sequential_3mr if scheme == "3mr" else unprotected_parallel_3mr
    return runner(
        machine, workload, spec=spec, config=config, hooks=hooks, seed=5, obs=obs
    )


class _Counting(ImageProcessingWorkload):
    """Logs the window origin of every ``run_job`` call; raises for the
    window at ``crash_at``."""

    def __init__(self, crash_at=None):
        super().__init__(map_size=32, template_size=8, stride=8)
        self.crash_at = crash_at
        self.calls = []

    def run_job(self, inputs, params):
        origin = (params["row"], params["col"])
        self.calls.append(origin)
        if origin == self.crash_at:
            raise ValueError("bad window")
        return super().run_job(inputs, params)


class _Record(EmrHooks):
    """Runs ``strike(job)`` before the job of replica ``at`` (a
    ``(dataset, executor)`` pair) and records every replica's output."""

    def __init__(self, at=None, strike=None):
        self.at = at
        self.strike = strike
        self.struck = False
        self.outputs = {}

    def before_job(self, runtime, job):
        if (job.dataset_index, job.executor_id) == self.at:
            self.strike(job)
            self.struck = True

    def after_job_output(self, runtime, job, output):
        self.outputs[(job.dataset_index, job.executor_id)] = output
        return output


@pytest.fixture
def workload():
    return _Counting()


@pytest.fixture
def spec(workload):
    return workload.build(np.random.default_rng(11))


@pytest.fixture
def golden(workload, spec):
    return workload.reference_outputs(spec)


def _origins(spec):
    return sorted((ds.params["row"], ds.params["col"]) for ds in spec.datasets)


class TestOneCallPerDistinctJob:
    @pytest.mark.parametrize("machine", sorted(MACHINES))
    @pytest.mark.parametrize("scheme", REPLICATED)
    def test_each_dataset_computes_once(self, scheme, machine, workload, spec, golden):
        result = _run(scheme, MACHINES[machine](), workload, spec)
        assert result.outputs == golden
        assert result.stats.jobs == 3 * len(spec.datasets)
        assert sorted(workload.calls) == _origins(spec)

    @pytest.mark.parametrize("scheme", REPLICATED)
    def test_every_run_makes_its_own_calls(self, scheme, workload, spec, golden):
        for runs in (1, 2):
            result = _run(scheme, Machine.rpi_zero2w(), workload, spec)
            assert result.outputs == golden
            assert sorted(workload.calls) == sorted(_origins(spec) * runs)

    @pytest.mark.parametrize("scheme", REPLICATED)
    def test_a_run_leaves_the_trial_pickles_unchanged(self, scheme):
        workload = ImageProcessingWorkload(map_size=32, template_size=8, stride=8)
        spec = workload.build(np.random.default_rng(11))
        task = TrialTask(
            scheme={"unprotected": "unprotected-parallel"}.get(scheme, scheme),
            workload=workload,
            spec=spec,
            golden=tuple(workload.reference_outputs(spec)),
            config=CampaignConfig(weights={SeuTarget.PIPELINE: 1.0}),
            machine_factory=Machine.rpi_zero2w,
        )
        before = [pickle.dumps(obj) for obj in (workload, spec, task)]
        for seed in range(3):
            run_campaign_trial(task, np.random.default_rng(seed))
        assert [pickle.dumps(obj) for obj in (workload, spec, task)] == before


def _blob_addr(machine, blob):
    return next(r.addr for r in machine.memory.allocations if r.label == blob)


def _aliasing_dram_flip(memory, addr, bit):
    """Flip one data bit and the check bits that keep its word a valid
    SECDED codeword: a multi-bit upset the ECC decoder reads as clean."""
    start = addr // 8 * 8

    def checks():
        return ecc.encode(int.from_bytes(memory.peek(start, 8), "little"))

    before = checks()
    memory.flip_bit(addr, bit)
    changed = before ^ checks()
    for check_bit in range(8):
        if changed >> check_bit & 1:
            memory.flip_check_bit(start // 8, check_bit)


def _row0_addr(machine, job):
    return _blob_addr(machine, "map") + job.dataset.regions["row0"].offset


class TestStrikes:
    """A struck replica gets its own call and its own output; its
    siblings keep the clean one."""

    def _assert_own_call(self, workload, spec, golden, hooks, result, new_inputs=True):
        ds, executor = hooks.at
        assert hooks.struck
        origin = (spec.datasets[ds].params["row"], spec.datasets[ds].params["col"])
        assert workload.calls.count(origin) == (2 if new_inputs else 1)
        assert len(workload.calls) == len(spec.datasets) + (1 if new_inputs else 0)
        for (index, replica), output in hooks.outputs.items():
            if (index, replica) == hooks.at:
                assert output != golden[index]
            else:
                assert output == golden[index], (index, replica)
        assert result.outputs == golden
        assert result.stats.vote_corrections == 1

    def test_dram_strike(self, workload, spec, golden):
        # Sequential 3-MR flushes every cache and restages DRAM before
        # each pass, so only the second pass's dataset 0 reads the flip.
        machine = Machine.rpi_zero2w()
        hooks = _Record(
            at=(0, 1),
            strike=lambda job: _aliasing_dram_flip(
                machine.memory, _row0_addr(machine, job), bit=0
            ),
        )
        result = _run("3mr", machine, workload, spec, hooks=hooks)
        self._assert_own_call(workload, spec, golden, hooks, result)

    def test_l1_strike(self, workload, spec, golden):
        # Unprotected 3-MR keeps every line: dataset 0's fetch left the
        # line of dataset 1's first row in each executor's L1.
        machine = Machine.rpi_zero2w()
        line_size = machine.spec.line_size

        def strike(job):
            addr = _row0_addr(machine, job)
            l1 = machine.caches.l1[job.group]
            assert addr // line_size in l1
            l1.flip_bit(addr // line_size, addr % line_size, 0)

        hooks = _Record(at=(1, 1), strike=strike)
        result = _run("unprotected", machine, workload, spec, hooks=hooks)
        self._assert_own_call(workload, spec, golden, hooks, result)

    @pytest.mark.parametrize("scheme", REPLICATED)
    def test_pointer_strike(self, scheme, workload, spec, golden):
        # The first row's pointer now names the second row, in bounds.
        def strike(job):
            offset, length = job.pointers["row0"]
            job.pointers["row0"] = (offset + workload.map_size, length)

        hooks = _Record(at=(2, 1), strike=strike)
        result = _run(scheme, Machine.rpi_zero2w(), workload, spec, hooks=hooks)
        self._assert_own_call(workload, spec, golden, hooks, result)

    @pytest.mark.parametrize("scheme", ("3mr", "unprotected"))
    def test_pipeline_strike_on_a_memo_hit(self, scheme, workload, spec, golden):
        # Replica 0 computes dataset 3 first in both schemes, so replica
        # 1 is served from the memo; its corruption must not reach
        # replica 2, which is served from the memo after it.
        machine = Machine.rpi_zero2w()
        rng = np.random.default_rng(0)
        hooks = _Record(
            at=(3, 1),
            strike=lambda job: poison_pipeline(machine, rng, core_id=job.group),
        )
        result = _run(scheme, machine, workload, spec, hooks=hooks)
        self._assert_own_call(
            workload, spec, golden, hooks, result, new_inputs=False
        )


@pytest.mark.parametrize("scheme", REPLICATED)
def test_a_raising_job_runs_and_raises_for_every_replica(scheme, spec, golden):
    crash_at = (spec.datasets[5].params["row"], spec.datasets[5].params["col"])
    workload = _Counting(crash_at=crash_at)
    result = _run(scheme, Machine.rpi_zero2w(), workload, spec)
    assert workload.calls.count(crash_at) == 3
    assert len(workload.calls) == len(spec.datasets) + 2
    assert sorted(result.stats.detected_faults) == [
        f"ds=5 exec={executor}: replica crash: ValueError: bad window"
        for executor in range(3)
    ] + ["ds=5: inconclusive vote"]
    assert result.outputs == golden[:5] + [b""] + golden[6:]


# ----------------------------------------------------------------------
# Equivalence with a memo that never stores
# ----------------------------------------------------------------------

_WORKLOADS = {
    "image": ImageProcessingWorkload(map_size=32, template_size=8, stride=8),
    "aes": AesWorkload(chunk_bytes=64, chunks=8),
}
_SPECS = {
    name: workload.build(np.random.default_rng(3))
    for name, workload in _WORKLOADS.items()
}


class _NeverStores(dict):
    def __setitem__(self, key, value):
        pass


class _Program(EmrHooks):
    """Applies each ``(target, job ordinal, bits)`` strike of a program
    before the job with that ordinal, drawing sites from ``seed``."""

    def __init__(self, machine, program, seed):
        self.machine = machine
        self.program = program
        self.rng = np.random.default_rng(seed)
        self.jobs = 0

    def before_job(self, runtime, job):
        for target, ordinal, bits in self.program:
            if ordinal == self.jobs:
                try:
                    self._strike(target, job, bits)
                except SimulationError:
                    pass  # no live state: dead silicon
        self.jobs += 1

    def _strike(self, target, job, bits):
        machine, rng = self.machine, self.rng
        if target is SeuTarget.DRAM:
            flip_dram(machine, rng, bits=bits)
        elif target is SeuTarget.L1_CACHE:
            flip_l1(machine, rng, group=job.group, bits=bits)
        elif target is SeuTarget.L2_CACHE:
            flip_l2(machine, rng, bits=bits)
        elif target is SeuTarget.PIPELINE:
            poison_pipeline(machine, rng, core_id=job.group)
        else:
            role = sorted(job.pointers)[int(rng.integers(0, len(job.pointers)))]
            offset, length = job.pointers[role]
            job.pointers[role] = (offset ^ (1 << int(rng.integers(0, 12))), length)


def _fingerprint(name, scheme, machine, program, seed):
    machine = MACHINES[machine]()
    obs = Observability(tracer=TraceRecorder(ring_size=None), metrics=MetricsRegistry())
    fingerprint = {}
    try:
        result = _run(
            scheme, machine, _WORKLOADS[name], _SPECS[name],
            hooks=_Program(machine, program, seed), obs=obs,
        )
    except DetectedFaultError as exc:
        # Raised outside the job engine (a restage or a vote read-back):
        # the run ends as a Table 7 trial's detected error.
        fingerprint["error"] = f"{type(exc).__name__}: {exc}"
    else:
        fingerprint.update(
            outputs=result.outputs,
            stats=asdict(result.stats),
            breakdown=list(result.breakdown.items()),
            wall_seconds=result.wall_seconds,
            energy=asdict(result.energy),
        )
    trace = hashlib.sha256()
    for record in obs.tracer.records():
        trace.update(record.json_line().encode() + b"\n")
    trace.update(json.dumps(obs.metrics.snapshot(), sort_keys=True).encode())
    fingerprint.update(
        obs=trace.hexdigest(),
        memory=asdict(machine.memory.stats),
        clock=machine.clock.now,
    )
    return fingerprint


def _check_memo_changes_nothing(name, scheme, machine, program, seed):
    with pytest.MonkeyPatch.context() as mp:
        init = JobEngine.__init__

        def without_memo(self, *args, **kwargs):
            init(self, *args, **kwargs)
            self.outputs = _NeverStores()

        mp.setattr(JobEngine, "__init__", without_memo)
        reference = _fingerprint(name, scheme, machine, program, seed)
    assert _fingerprint(name, scheme, machine, program, seed) == reference


_strikes = st.tuples(
    st.sampled_from(
        [SeuTarget.DRAM, SeuTarget.L1_CACHE, SeuTarget.L2_CACHE,
         SeuTarget.PIPELINE, SeuTarget.POINTER]
    ),
    st.integers(0, 47),
    st.integers(1, 2),
)
_runs = {
    "name": st.sampled_from(sorted(_WORKLOADS)),
    "scheme": st.sampled_from(REPLICATED),
    "machine": st.sampled_from(sorted(MACHINES)),
    "program": st.lists(_strikes, max_size=3),
    "seed": st.integers(0, 2**16),
}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(**_runs)
# A double-bit DRAM flip that the sequential restage meets: the run raises.
@example(name="aes", scheme="3mr", machine="ecc", program=[(SeuTarget.DRAM, 0, 2)], seed=44)
def test_memo_changes_no_run_result(name, scheme, machine, program, seed):
    _check_memo_changes_nothing(name, scheme, machine, program, seed)


@pytest.mark.slow
@settings(max_examples=400, deadline=None)
@given(**_runs)
def test_memo_changes_no_run_result_long(name, scheme, machine, program, seed):
    _check_memo_changes_nothing(name, scheme, machine, program, seed)
