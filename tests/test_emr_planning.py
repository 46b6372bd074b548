"""Tests for EMR's planning layers: replication, conflicts, scheduling."""

import copy
import pickle

import numpy as np
import pytest

from repro.core.emr import (
    EmrConfig,
    EmrRuntime,
    build_jobsets,
    checksum_protected_run,
    detect_conflicts,
    order_jobs,
    plan_replication,
    schedule_summary,
    sequential_3mr,
    single_run,
    validate_jobsets,
)
from repro.core.emr.runtime import EmrHooks
from repro.errors import ConfigurationError
from repro.sim import Machine
from repro.workloads import (
    AesWorkload,
    DeflateWorkload,
    DnnWorkload,
    ImageProcessingWorkload,
    IntrusionDetectionWorkload,
)
from repro.workloads.base import DatasetSpec, RegionRef


def _datasets(*region_lists):
    return [
        DatasetSpec(index=i, regions={f"r{j}": ref for j, ref in enumerate(refs)})
        for i, refs in enumerate(region_lists)
    ]


class TestReplicationPlan:
    def test_common_ref_detected(self):
        shared = RegionRef("key", 0, 32)
        datasets = _datasets(
            [RegionRef("d", 0, 64), shared],
            [RegionRef("d", 64, 64), shared],
            [RegionRef("d", 128, 64), shared],
        )
        plan = plan_replication(datasets, threshold=0.5)
        assert plan.replicated == frozenset({shared})
        assert plan.replicated_bytes == 32
        assert plan.extra_memory_bytes(3) == 96

    def test_threshold_is_strict(self):
        shared = RegionRef("key", 0, 32)
        datasets = _datasets(
            [RegionRef("d", 0, 64), shared],
            [RegionRef("d", 64, 64), shared],
        )
        # Frequency is exactly 1.0; threshold 1.0 excludes it.
        assert plan_replication(datasets, threshold=1.0).replicated == frozenset()
        assert plan_replication(datasets, threshold=0.99).replicated != frozenset()

    def test_above_one_disables(self):
        spec = AesWorkload(chunks=8).build(np.random.default_rng(0))
        plan = plan_replication(spec.datasets, threshold=1.5)
        assert not plan.replicated

    def test_zero_threshold_replicates_everything(self):
        spec = AesWorkload(chunks=8).build(np.random.default_rng(0))
        plan = plan_replication(spec.datasets, threshold=0.0)
        all_refs = {ref for ds in spec.datasets for ref in ds.regions.values()}
        assert plan.replicated == frozenset(all_refs)

    def test_paper_strategies_emerge_at_default_threshold(self):
        """Table 5: the optimal replication per workload falls out of
        the frequency rule — key, nothing, patterns, template, weights."""
        rng = np.random.default_rng(1)
        cases = [
            (AesWorkload(), {"key"}),
            (DeflateWorkload(), set()),
            (IntrusionDetectionWorkload(), {"patterns"}),
            (ImageProcessingWorkload(), {"template"}),
            (DnnWorkload(), {"weights"}),
        ]
        for workload, expected_blobs in cases:
            spec = workload.build(rng)
            plan = plan_replication(
                spec.datasets, workload.default_replication_threshold
            )
            blobs = {ref.blob for ref in plan.replicated}
            assert blobs == expected_blobs, workload.name


class TestConflictDetection:
    def test_byte_disjoint_same_line_conflicts(self):
        datasets = _datasets(
            [RegionRef("b", 0, 32)],
            [RegionRef("b", 32, 32)],  # same 64-byte line
            [RegionRef("b", 64, 32)],  # next line
        )
        graph = detect_conflicts(datasets, set(), line_size=64)
        assert graph.conflicts(0, 1)
        assert not graph.conflicts(0, 2)

    def test_replicated_refs_carry_no_edges(self):
        shared = RegionRef("key", 0, 32)
        datasets = _datasets(
            [RegionRef("d", 0, 64), shared],
            [RegionRef("d", 64, 64), shared],
        )
        with_shared = detect_conflicts(datasets, set(), line_size=64)
        assert with_shared.conflicts(0, 1)
        without = detect_conflicts(datasets, {shared}, line_size=64)
        assert not without.conflicts(0, 1)

    def test_deflate_chain_graph(self):
        spec = DeflateWorkload(block_bytes=256, blocks=6).build(np.random.default_rng(0))
        graph = detect_conflicts(spec.datasets, set(), line_size=64)
        for i in range(5):
            assert graph.conflicts(i, i + 1)
        assert not graph.conflicts(0, 2)
        assert graph.edge_count == 5

    def test_image_window_conflicts(self):
        workload = ImageProcessingWorkload(map_size=48, template_size=16, stride=8)
        spec = workload.build(np.random.default_rng(1))
        plan = plan_replication(spec.datasets, workload.default_replication_threshold)
        graph = detect_conflicts(spec.datasets, set(plan.replicated), line_size=64)
        # Overlapping windows (stride < template) must conflict.
        assert graph.conflicts(0, 1)
        assert graph.edge_count > 0

    def test_extra_conflicts_hook(self):
        datasets = _datasets(
            [RegionRef("a", 0, 64)],
            [RegionRef("b", 0, 64)],
        )
        plain = detect_conflicts(datasets, set(), line_size=64)
        assert plain.edge_count == 0
        hooked = detect_conflicts(
            datasets, set(), line_size=64, extra_conflicts=lambda a, b: True
        )
        assert hooked.conflicts(0, 1)

    def test_density(self):
        datasets = _datasets(
            [RegionRef("b", 0, 64)],
            [RegionRef("b", 0, 64)],
            [RegionRef("b", 128, 64)],
        )
        graph = detect_conflicts(datasets, set(), line_size=64)
        assert graph.density(3) == pytest.approx(1 / 3)


class TestScheduler:
    def _schedule(self, workload, threshold, strategy="rotated"):
        spec = workload.build(np.random.default_rng(2))
        plan = plan_replication(spec.datasets, threshold)
        graph = detect_conflicts(spec.datasets, set(plan.replicated), line_size=64)
        jobs = order_jobs(spec.datasets, 3, strategy)
        jobsets = build_jobsets(jobs, graph)
        validate_jobsets(jobsets, graph)
        return spec, graph, jobsets

    def test_every_job_scheduled_exactly_once(self):
        spec, _, jobsets = self._schedule(AesWorkload(chunks=10), 0.5)
        seen = [(j.dataset_index, j.executor_id) for js in jobsets for j in js.jobs]
        assert len(seen) == len(set(seen)) == 30

    def test_replicas_in_distinct_jobsets(self):
        spec, _, jobsets = self._schedule(AesWorkload(chunks=10), 0.5)
        for ds in spec.datasets:
            js_ids = {
                js.jobset_id
                for js in jobsets
                for j in js.jobs
                if j.dataset_index == ds.index
            }
            assert len(js_ids) == 3

    def test_disjoint_datasets_give_three_jobsets(self):
        _, _, jobsets = self._schedule(AesWorkload(chunks=12), 0.5)
        assert len(jobsets) == 3

    def test_full_conflicts_serialize(self):
        # Threshold > 1: the shared key is not replicated, every dataset
        # conflicts with every other -> one dataset per jobset (the
        # Fig 13 "0% replication = serial 3-MR" endpoint).
        spec, graph, jobsets = self._schedule(AesWorkload(chunks=6), 1.5)
        assert graph.density(len(spec.datasets)) == 1.0
        assert len(jobsets) == 18
        assert all(len(js) == 1 for js in jobsets)

    def test_rotated_beats_naive_balance(self):
        _, _, rotated = self._schedule(AesWorkload(chunks=12), 0.5, "rotated")
        _, _, naive = self._schedule(AesWorkload(chunks=12), 0.5, "naive")
        rotated_summary = schedule_summary(rotated, 3)
        naive_summary = schedule_summary(naive, 3)
        assert rotated_summary["balance"] > naive_summary["balance"]

    def test_unknown_strategy(self):
        spec = AesWorkload(chunks=2).build(np.random.default_rng(3))
        with pytest.raises(ConfigurationError):
            order_jobs(spec.datasets, 3, "zigzag")

    def test_validate_catches_duplicates(self):
        from repro.core.emr import ConflictGraph, JobSet, Job

        spec = AesWorkload(chunks=2).build(np.random.default_rng(4))
        jobset = JobSet(jobset_id=0)
        jobset.add(Job(dataset=spec.datasets[0], executor_id=0))
        jobset.add(Job(dataset=spec.datasets[0], executor_id=1))
        with pytest.raises(ConfigurationError):
            validate_jobsets([jobset], ConflictGraph(neighbours={}))


def _image_workload():
    return ImageProcessingWorkload(map_size=64, template_size=16, stride=8)


def _emr(machine, workload, spec, hooks=None):
    config = EmrConfig(replication_threshold=workload.default_replication_threshold)
    return EmrRuntime(machine, workload, config=config, hooks=hooks).run(spec=spec)


class TestPlanningOncePerSpec:
    """EMR derives its plans once per workload spec; every run of the
    spec must behave exactly as a run on a fresh copy of it."""

    @pytest.mark.parametrize(
        "workload", [_image_workload(), AesWorkload(chunk_bytes=64, chunks=9)],
        ids=["image", "aes"],
    )
    def test_cached_plans_equal_fresh_ones(self, workload):
        spec = workload.build(np.random.default_rng(0))
        machine = Machine.rpi_zero2w()
        threshold = workload.default_replication_threshold
        runtime = EmrRuntime(
            machine, workload, config=EmrConfig(replication_threshold=threshold)
        )
        first = runtime.plan(spec)
        plan, conflicts = runtime.plan_, runtime.conflicts_
        second = runtime.plan(spec)
        assert runtime.plan_ is plan and runtime.conflicts_ is conflicts
        fresh_plan = plan_replication(spec.datasets, threshold)
        fresh_conflicts = detect_conflicts(
            spec.datasets, set(fresh_plan.replicated), line_size=machine.spec.line_size
        )
        assert plan == fresh_plan
        assert conflicts == fresh_conflicts
        fresh_jobsets = build_jobsets(order_jobs(spec.datasets, 3), fresh_conflicts)
        assert first == second == fresh_jobsets
        # Each plan() hands out its own jobs.
        assert first[0].jobs[0] is not second[0].jobs[0]
        assert first[0].jobs[0].pointers is not second[0].jobs[0].pointers

    def test_a_run_leaves_the_spec_pickle_unchanged(self):
        workload = _image_workload()
        spec = workload.build(np.random.default_rng(0))
        before = pickle.dumps(spec)
        _emr(Machine.rpi_zero2w(), workload, spec)
        single_run(Machine.rpi_zero2w(), workload, spec=spec)
        assert pickle.dumps(spec) == before

    def test_pointer_strike_does_not_leak_into_the_next_run(self):
        workload = _image_workload()
        spec = workload.build(np.random.default_rng(0))
        golden = workload.reference_outputs(spec)

        class BreakPointers(EmrHooks):
            def before_job(self, runtime, job):
                if job.dataset_index == 1 and job.executor_id == 0:
                    for role, (offset, length) in job.pointers.items():
                        job.pointers[role] = (offset ^ (1 << 24), length)

        struck = _emr(Machine.rpi_zero2w(), workload, spec, hooks=BreakPointers())
        assert struck.matches(golden)
        assert struck.stats.detected_faults == [
            "ds=1 exec=0: job ds=1 exec=0: corrupted pointer row0=(16777224, 16)"
        ]
        clean = _emr(Machine.rpi_zero2w(), workload, spec)
        assert clean.matches(golden)
        assert clean.stats.detected_faults == []

    @pytest.mark.parametrize(
        "runner",
        [_emr, sequential_3mr, single_run, checksum_protected_run],
        ids=["emr", "3mr", "none", "checksum"],
    )
    def test_runs_on_one_spec_equal_runs_on_copies(self, runner):
        workload = _image_workload()
        spec = workload.build(np.random.default_rng(0))
        copies = [copy.deepcopy(spec) for _ in range(2)]

        def fingerprint(result):
            return (
                result.outputs, result.stats, list(result.breakdown.items()),
                result.wall_seconds, result.energy,
            )

        def run(on):
            if runner is _emr:
                return _emr(Machine.rpi_zero2w(), workload, on)
            return runner(Machine.rpi_zero2w(), workload, spec=on)

        shared = [fingerprint(run(spec)) for _ in range(2)]
        copied = [fingerprint(run(on)) for on in copies]
        assert shared == copied
