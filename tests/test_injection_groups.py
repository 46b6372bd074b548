"""Injection groups: trials that share the run before their strike run
it once (``repro.radiation.injector.run_injection_group``).

A group's golden pass checkpoints the scheme run before each job
ordinal a lane needs (``SchemeRun.checkpoint``), and every lane resumes
its checkpoint on its own machine (``SchemeRun.restore``). Every test
here holds that path to the scalar one: a resumed run must equal a run
from the first cycle field by field, and a grouped campaign must give
the scalar campaign's values and store bytes.
"""

from __future__ import annotations

import shutil
from dataclasses import asdict, replace

import numpy as np
import pytest

from perfbench.workloads import machine_seconds, store_listing
from repro.campaign import TrialStore, execute
from repro.core.emr.runtime import EmrConfig
from repro.errors import DetectedFaultError
from repro.obs import MetricsRegistry
from repro.radiation import injector
from repro.radiation.events import SeuTarget
from repro.radiation.injector import (
    SCHEMES,
    CampaignConfig,
    FaultInjectionCampaign,
    TrialTask,
    _draw_strike,
    _InjectionHooks,
    encode_outcome,
    injection_lockstep_key,
    run_campaign_trial,
    run_injection_group,
)
from repro.sim import Machine
from repro.workloads import AesWorkload

FACTORIES = {"dram": Machine.rpi_zero2w, "storage": Machine.snapdragon801}
WORKLOAD = AesWorkload(chunk_bytes=32, chunks=4)


def _task(scheme, bits=1, factory=Machine.rpi_zero2w, weights=None, seed=0):
    spec = WORKLOAD.build(np.random.default_rng(seed))
    config = CampaignConfig(bits=bits)
    if weights is not None:
        config = replace(config, weights=weights)
    return TrialTask(
        scheme=scheme, workload=WORKLOAD, spec=spec,
        golden=tuple(WORKLOAD.reference_outputs(spec)),
        config=config, machine_factory=factory,
    )


def _n_jobs(task):
    replicas = 1 if task.scheme in ("none", "checksum") else 3
    return len(task.spec.datasets) * replicas


def _summary(run, machine):
    """Everything ``run()`` produced, or the detected fault that ended
    it, and the machine it left behind."""
    try:
        result = run()
    except DetectedFaultError as exc:
        return {"error": str(exc), "machine": machine.state_digest()}
    return {
        "outputs": result.outputs,
        "stats": asdict(result.stats),
        "breakdown": list(result.breakdown.items()),
        "wall_seconds": repr(result.wall_seconds),
        "energy": asdict(result.energy),
        "machine": machine.state_digest(),
    }


def _config(task):
    return EmrConfig(
        replication_threshold=task.config.replication_threshold,
        n_executors=3, raise_on_inconclusive=False,
    )


def _scalar_run(task, target, ordinal, seed):
    """The scheme run from the machine's first cycle, struck by the
    campaign's hooks before job ``ordinal``."""
    module, runner, _ = SCHEMES[task.scheme]
    machine = task.machine_factory()
    hooks = _InjectionHooks(
        machine, target, ordinal, task.config.bits, np.random.default_rng(seed)
    )
    summary = _summary(
        lambda: getattr(module, runner)(
            machine, task.workload, spec=task.spec, config=_config(task), hooks=hooks,
        ),
        machine,
    )
    return summary, hooks.detail


def _resumed_runs(task, lanes):
    """``lanes`` (target, ordinal, seed) resumed, in order, from one
    golden pass's checkpoints, each on a fresh machine."""
    module, _, start = SCHEMES[task.scheme]
    run = getattr(module, start)(
        task.machine_factory(), task.workload, spec=task.spec, config=_config(task),
    )
    checkpoints = {}
    for ordinal in sorted({ordinal for _, ordinal, _ in lanes}):
        run.advance(ordinal)
        checkpoints[ordinal] = run.checkpoint()
        assert checkpoints[ordinal].state.jobs_run == ordinal
    summaries = []
    for target, ordinal, seed in lanes:
        machine = task.machine_factory()
        hooks = _InjectionHooks(
            machine, target, ordinal, task.config.bits,
            np.random.default_rng(seed), jobs_run=ordinal,
        )
        run.restore(checkpoints[ordinal], machine, hooks)
        summaries.append((_summary(run.complete, machine), hooks.detail))
    return summaries


class TestResumedRunEqualsScalarRun:
    """A run resumed from a checkpoint equals the run from the first
    cycle in every output, count, time bucket, joule and machine bit."""

    @pytest.mark.parametrize("frontier", sorted(FACTORIES))
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    @pytest.mark.parametrize("bits", [1, 2])
    def test_every_target_at_the_first_middle_and_last_job(self, scheme, bits, frontier):
        task = _task(scheme, bits, FACTORIES[frontier])
        last = _n_jobs(task) - 1
        lanes = [
            (target, ordinal, seed)
            for seed, target in enumerate(SeuTarget)
            for ordinal in (0, last // 2, last)
        ]
        assert _resumed_runs(task, lanes) == [
            _scalar_run(task, *lane) for lane in lanes
        ]

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_a_pointer_strike_does_not_reach_the_next_lane(self, scheme):
        # Both lanes resume the same checkpoint and strike the same job.
        task = _task(scheme)
        lanes = [(SeuTarget.POINTER, 1, 3), (SeuTarget.L1_CACHE, 1, 4)]
        assert _resumed_runs(task, lanes) == [
            _scalar_run(task, *lane) for lane in lanes
        ]

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_pipeline_poisons_draw_from_the_restored_generator(self, scheme):
        # Each poisoned output draws its corruption from the engine's
        # generator: a second lane that did not rewind it would flip
        # other bits than its scalar run.
        task = _task(scheme)
        lanes = [(SeuTarget.PIPELINE, 2, seed) for seed in (5, 6, 7)]
        scalar = [_scalar_run(task, *lane) for lane in lanes]
        assert _resumed_runs(task, lanes) == scalar
        poisoned = scalar[0][0]
        assert poisoned["outputs"] != list(task.golden) or poisoned["stats"]["vote_corrections"]


def _seeds(task, want, count):
    """The first ``count`` seeds whose strike draws satisfy ``want``."""
    found = [
        seed for seed in range(2000)
        if want(*_draw_strike(task, np.random.default_rng(seed)))
    ]
    assert len(found) >= count
    return found[:count]


def _grouped(tasks, seeds):
    return [
        encode_outcome(outcome)
        for outcome in run_injection_group(tasks, [np.random.default_rng(s) for s in seeds])
    ]


def _scalar(tasks, seeds):
    return [
        encode_outcome(run_campaign_trial(task, np.random.default_rng(seed)))
        for task, seed in zip(tasks, seeds)
    ]


class TestGroupRunner:
    def test_lanes_sharing_an_ordinal_and_the_end_ordinals(self):
        task = _task("emr", weights={SeuTarget.POINTER: 0.5, SeuTarget.L2_CACHE: 0.5})
        last = _n_jobs(task) - 1
        seeds = (
            _seeds(task, lambda target, ordinal: ordinal == 0, 2)
            + _seeds(task, lambda target, ordinal: ordinal == last, 2)
            + _seeds(task, lambda target, ordinal: ordinal == 4, 3)
        )
        tasks = [task] * len(seeds)
        assert _grouped(tasks, seeds) == _scalar(tasks, seeds)

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_a_pointer_strike_does_not_leak_through_the_group(self, scheme):
        # A pointer lane, then lanes that strike elsewhere before the
        # same job: a leaked pointer would fault their replicas.
        task = _task(scheme, weights={SeuTarget.POINTER: 0.5, SeuTarget.DRAM: 0.5})
        pointer = _seeds(task, lambda t, k: t is SeuTarget.POINTER and k == 2, 1)
        dram = _seeds(task, lambda t, k: t is SeuTarget.DRAM and k == 2, 2)
        tasks = [task] * 3
        assert _grouped(tasks, pointer + dram) == _scalar(tasks, pointer + dram)

    def test_a_one_lane_group_is_its_scalar_trial(self, monkeypatch):
        calls = []

        def counted(task, rng, tracer=None):
            calls.append(task)
            return run_campaign_trial(task, rng, tracer)

        task = _task("emr")
        expected = _scalar([task], [11])
        monkeypatch.setattr(injector, "run_campaign_trial", counted)
        assert _grouped([task], [11]) == expected
        assert calls == [task]


class TestLockstepKey:
    def test_key_follows_the_prefix_content(self):
        task = _task("emr")
        same = _task("emr", bits=2, weights={SeuTarget.PIPELINE: 1.0})
        assert same.spec is not task.spec
        assert injection_lockstep_key(same) == injection_lockstep_key(task)
        for other in (
            _task("3mr"),
            _task("emr", seed=1),
            _task("emr", factory=Machine.snapdragon801),
            replace(task, config=replace(task.config, replication_threshold=0.5)),
            replace(task, config=replace(task.config, n_executors=2)),
        ):
            assert injection_lockstep_key(other) != injection_lockstep_key(task)

    def test_the_executor_count_only_keys_emr(self):
        task = _task("3mr")
        wider = replace(task, config=replace(task.config, n_executors=2))
        assert injection_lockstep_key(wider) == injection_lockstep_key(task)


def _campaign(scheme, bits=1, factory=Machine.rpi_zero2w, runs=6, seed=3):
    return FaultInjectionCampaign(
        WORKLOAD, CampaignConfig(runs_per_scheme=runs, bits=bits),
        machine_factory=factory, seed=seed,
    ).campaign((scheme,))


def _execute(campaign, root, **kwargs):
    result = execute(campaign, store=TrialStore(root), **kwargs)
    return [encode_outcome(v) for v in result.values], store_listing(root)


class TestGroupedCampaigns:
    """The campaign path: ``FaultInjectionCampaign.campaign()`` declares
    the group runner, and every execution of it must give the values
    and store bytes of its scalar ``trial_fn``."""

    @pytest.mark.parametrize("frontier", sorted(FACTORIES))
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    @pytest.mark.parametrize("bits", [1, 2])
    def test_grouped_equals_scalar(self, scheme, bits, frontier, tmp_path):
        campaign = _campaign(scheme, bits, FACTORIES[frontier])
        assert campaign.batch_fn is run_injection_group
        metrics = MetricsRegistry()
        grouped = _execute(campaign, tmp_path / "grouped", metrics=metrics)
        scalar = _execute(replace(campaign, batch_fn=None), tmp_path / "scalar")
        assert grouped == scalar
        assert metrics.snapshot()["counters"]["campaign.batch.lanes"] == 6

    @pytest.mark.parametrize("workers", [1, 2])
    def test_resume_over_a_half_filled_store(self, workers, tmp_path):
        campaign = _campaign("emr", runs=8)
        scalar = _execute(replace(campaign, batch_fn=None), tmp_path / "scalar")
        half = tmp_path / "half"
        half.mkdir()
        for path in sorted((tmp_path / "scalar").glob("??/*.json"))[::2]:
            (half / path.parent.name).mkdir(exist_ok=True)
            shutil.copyfile(path, half / path.parent.name / path.name)
        metrics = MetricsRegistry()
        resumed = _execute(
            campaign, half, workers=workers, force_pool=workers > 1, metrics=metrics,
        )
        assert resumed == scalar
        counters = metrics.snapshot()["counters"]
        assert counters["campaign.store.hits"] == 4
        assert counters["campaign.trials.executed"] == 4

    def test_pooled_groups_equal_serial_scalar(self, tmp_path):
        campaign = FaultInjectionCampaign(
            WORKLOAD, CampaignConfig(runs_per_scheme=4), seed=8
        ).campaign(tuple(SCHEMES))
        result = execute(
            campaign, workers=2, force_pool=True, store=TrialStore(tmp_path / "pool")
        )
        assert result.report.mode == "fork-pool"
        assert len(result.report.timings) == len(SCHEMES)  # one task per group
        pooled = [encode_outcome(v) for v in result.values], store_listing(tmp_path / "pool")
        assert pooled == _execute(replace(campaign, batch_fn=None), tmp_path / "scalar")

    def test_a_traced_run_takes_the_scalar_trials(self, tmp_path, monkeypatch):
        groups = []
        monkeypatch.setattr(
            run_injection_group, "lockstep_key",
            lambda task: groups.append(task) or injection_lockstep_key(task),
        )
        campaign = _campaign("none", runs=3)
        execute(campaign, trace_path=str(tmp_path / "trace.jsonl"))
        assert groups == []
        execute(campaign)
        assert len(groups) == 3

    def test_a_copy_with_another_trial_fn_and_no_batch_fn_runs_it(self):
        calls = []

        def other(task, rng, tracer=None):
            calls.append(task)
            return run_campaign_trial(task, rng, tracer)

        campaign = _campaign("none", runs=2)
        metrics = MetricsRegistry()
        execute(replace(campaign, trial_fn=other, batch_fn=None), metrics=metrics)
        assert calls == [trial.item for trial in campaign.trials]
        assert "campaign.batch.lanes" not in metrics.snapshot()["counters"]


def test_one_machine_per_lane_in_grid_order_at_the_scalar_clocks(tmp_path):
    """perfbench's ``table7`` set-up reads one machine per trial, in
    grid order, and each machine's final clock."""
    from repro.experiments.table7_fault_injection import campaign

    grid = campaign(runs_per_scheme=3, seed=0)
    with machine_seconds() as grouped:
        execute(grid, store=TrialStore(tmp_path / "grouped"))
    with machine_seconds() as scalar:
        execute(replace(grid, batch_fn=None), store=TrialStore(tmp_path / "scalar"))
    assert len(scalar) == len(grid.trials)
    assert grouped == scalar
    assert store_listing(tmp_path / "grouped") == store_listing(tmp_path / "scalar")


@pytest.mark.slow
def test_registered_table7_grid_grouped_at_two_workers(tmp_path):
    """The registered Table 7 grid (20 runs per scheme, 80 trials),
    grouped on a 2-worker pool, against the scalar trials at one."""
    from repro.experiments import CAMPAIGNS

    grid = CAMPAIGNS["table7"]()
    assert len(grid.trials) == 80 and grid.batch_fn is run_injection_group
    grouped = execute(
        grid, workers=2, force_pool=True, store=TrialStore(tmp_path / "grouped")
    )
    assert grouped.report.mode == "fork-pool"
    scalar = execute(replace(grid, batch_fn=None), store=TrialStore(tmp_path / "scalar"))
    assert [encode_outcome(v) for v in grouped.values] == [
        encode_outcome(v) for v in scalar.values
    ]
    assert store_listing(tmp_path / "grouped") == store_listing(tmp_path / "scalar")
