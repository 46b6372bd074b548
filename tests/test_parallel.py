"""Determinism contract of the parallel experiment engine."""

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError, PoolTaskError
from repro.ground import GroundPolicy
from repro.parallel import (
    ParallelReport,
    WorkerPool,
    _Batch,
    pmap_report,
    resolve_workers,
)


def _square(x):
    return x * x


def _draw(seed):
    """A task that carries its own seed: ``seed`` is ``(root, i)``."""
    return seed[1] + float(np.random.default_rng(seed).random())


def _seeds(root, n):
    return [(root, i) for i in range(n)]


def _reject(x):
    if x == 2:
        raise ConfigurationError(f"bad item {x}")
    return x


class _TwoArgError(Exception):
    """Pickles but cannot unpickle: ``__init__`` wants two arguments."""

    def __init__(self, a, b):
        super().__init__(a)


def _reject_unportably(x):
    if x == 1:
        raise _TwoArgError("stuck in the worker", None)
    return x


def _touch(marker):
    """Write ``marker`` (when given) and return it."""
    if marker is not None:
        Path(marker).write_text("ran")
    return marker


class _Counted:
    """An item that counts, in the process that pickles it, how often
    it is pickled. ``marker`` is for :func:`_square_or_die`."""

    pickles = 0

    def __init__(self, value, marker=None):
        self.value = value
        self.marker = marker

    def __reduce__(self):
        _Counted.pickles += 1
        return (_Counted, (self.value, self.marker))


def _square_or_die(item):
    """``item.value`` squared; a worker that meets an unwritten
    ``item.marker`` writes it and exits without a reply."""
    if item.marker is not None and not Path(item.marker).exists():
        Path(item.marker).write_text("crashed")
        os._exit(3)
    return item.value * item.value


#: Replication plans built in this process (see ``TestInheritedItems``).
_plans_built = []


def _planning_trial(item, rng, tracer):
    """A Table 7 trial's stored form, plus how many replication plans
    the process that ran it built meanwhile."""
    from repro.radiation.injector import encode_outcome, run_campaign_trial

    before = len(_plans_built)
    outcome = run_campaign_trial(item, rng, tracer)
    return {**encode_outcome(outcome), "plans": len(_plans_built) - before}


def _store_bytes(root):
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(Path(root).rglob("*.json"))
    }


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the pool needs the fork start method",
)


class TestPrimitives:
    def test_resolve_workers(self):
        assert resolve_workers(4) == 4
        assert resolve_workers(4, n_items=2) == 2
        assert resolve_workers(0) == 1
        assert resolve_workers(None, n_items=1) == 1

    def test_batch_tokens_never_repeat(self):
        # Each batch is freed at once, so the next one usually gets its
        # address: a token taken from id() would repeat.
        tokens = [_Batch(_square, [], None, 1, None, None).token for _ in range(10)]
        assert len(set(tokens)) == 10


class TestPmap:
    def test_order_preserved(self):
        assert pmap_report(_square, range(10)).values == [x * x for x in range(10)]

    def test_empty(self):
        report = pmap_report(_square, [])
        assert report.values == []
        assert report.timings == ()

    def test_seeded_runs_repeat(self):
        first = pmap_report(_draw, _seeds(7, 6)).values
        second = pmap_report(_draw, _seeds(7, 6)).values
        assert first == second

    def test_seed_changes_values(self):
        first = pmap_report(_draw, _seeds(7, 6)).values
        assert first != pmap_report(_draw, _seeds(8, 6)).values

    def test_report_accounting(self):
        report = pmap_report(_draw, _seeds(1, 5), workers=1)
        assert isinstance(report, ParallelReport)
        assert report.mode == "serial"
        assert report.workers == 1
        assert len(report.timings) == 5
        assert [t.index for t in report.timings] == list(range(5))
        assert report.task_seconds >= 0

    def test_forced_pool_matches_serial(self):
        # force_pool exercises the fork-pool path even on one CPU.
        serial = pmap_report(_draw, _seeds(3, 12), workers=1)
        pooled = pmap_report(
            _draw, _seeds(3, 12), workers=4, force_pool=True
        )
        assert pooled.values == serial.values
        if pooled.mode == "fork-pool":  # may degrade where fork is absent
            assert pooled.workers == 4


    @needs_fork
    def test_freed_worker_redispatched_before_on_result(self, tmp_path):
        # Two workers take tasks 0 and 1. The first result's callback
        # blocks until task 2 has run, which happens only if the worker
        # that returned it was handed task 2 before the callback.
        marker = tmp_path / "task-2-ran"
        seen = []

        def on_result(index, value):
            if seen:
                return
            deadline = time.monotonic() + 30.0
            while not marker.exists() and time.monotonic() < deadline:
                time.sleep(0.005)
            seen.append(marker.exists())

        report = pmap_report(
            _touch, [None, None, str(marker)], workers=2, force_pool=True,
            on_result=on_result,
        )
        assert report.mode == "fork-pool"
        assert report.values == [None, None, str(marker)]
        assert seen == [True]


class TestWorkerPool:
    @needs_fork
    def test_batches_share_workers_forked_once(self, worker_starts):
        with WorkerPool(2, force_pool=True) as pool:
            first = pmap_report(_square, range(6), pool=pool)
            second = pmap_report(_draw, _seeds(5, 6), pool=pool)
            assert pool.started == 2
        assert first.mode == second.mode == "fork-pool"
        assert second.values == pmap_report(_draw, _seeds(5, 6), workers=1).values
        pids = {t.pid for report in (first, second) for t in report.timings}
        assert pids == set(worker_starts) and len(worker_starts) == 2
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize(
        "pool", [{"workers": 1}, {"workers": 2, "force_pool": True}]
    )
    def test_follow_up_items_join_the_batch(self, pool):
        # An even square asks for its successor's square: 0 -> 1 and
        # 4 -> 25 join the batch after every task submitted before them.
        def on_result(index, value):
            return [value + 1] if value % 2 == 0 else None

        report = pmap_report(_square, [0, 2, 3], on_result=on_result, **pool)
        assert report.values[:3] == [0, 4, 9]
        assert sorted(report.values[3:]) == [1, 25]
        assert [t.index for t in report.timings] == [0, 1, 2, 3, 4]

    @needs_fork
    def test_never_forks_while_deferred_io_runs(self, worker_starts, monkeypatch):
        from repro import parallel

        busy = []
        seen = []
        original = parallel._Worker.__init__

        def spawn(self, ctx):
            seen.append(bool(busy))
            original(self, ctx)

        monkeypatch.setattr(parallel._Worker, "__init__", spawn)

        def slow_io():
            busy.append(True)
            time.sleep(0.3)
            busy.clear()

        with WorkerPool(2, force_pool=True) as pool:
            job = pool.defer(slow_io)
            while not busy:
                time.sleep(0.001)
            report = pmap_report(_square, range(4), pool=pool)
            assert job.done()
        assert report.mode == "fork-pool"
        assert seen == [False, False]


#: One pooled executor per worker count: the fork pool needs two
#: workers, a supervised batch runs in a child even at one.
INHERITING_POOLS = [
    pytest.param(2, None, id="fork-pool"),
    pytest.param(1, GroundPolicy(backoff_base_seconds=0.0), id="ground-pool"),
]


@needs_fork
@pytest.mark.parametrize("workers, supervision", INHERITING_POOLS)
class TestInheritedItems:
    """A worker forked while a batch runs reads that batch's items from
    its own memory; every other worker gets them pickled."""

    @pytest.fixture(autouse=True)
    def _count_from_zero(self, monkeypatch):
        monkeypatch.setattr(_Counted, "pickles", 0)

    def test_only_workers_forked_before_the_batch_get_pickles(
        self, workers, supervision
    ):
        with WorkerPool(workers, force_pool=True) as pool:
            first = pmap_report(
                _square_or_die, [_Counted(x) for x in range(6)],
                pool=pool, supervision=supervision,
            )
            assert _Counted.pickles == 0
            second = pmap_report(
                _square_or_die, [_Counted(x) for x in range(6, 10)],
                pool=pool, supervision=supervision,
            )
            assert _Counted.pickles == 4
            assert pool.started == workers
        assert first.mode == second.mode != "serial"
        assert first.values == [x * x for x in range(6)]
        assert second.values == [x * x for x in range(6, 10)]

    def test_follow_up_items_are_pickled(self, workers, supervision):
        # 2 -> 4 asks for 5, 0 asks for 1: both join after the fork.
        def on_result(index, value):
            return [_Counted(value + 1)] if value % 2 == 0 else None

        report = pmap_report(
            _square_or_die, [_Counted(0), _Counted(2), _Counted(3)],
            workers=workers, force_pool=True, supervision=supervision,
            on_result=on_result,
        )
        assert report.mode != "serial"
        assert report.values[:3] == [0, 4, 9]
        assert sorted(report.values[3:]) == [1, 25]
        assert _Counted.pickles == 2

    def test_consecutive_batches_read_their_own_items(self, workers, supervision):
        # Workers forked during the first batch serve all ten; a batch
        # that took a freed batch's token would have them read the
        # freed batch's items.
        batches = [range(100 * b, 100 * b + 3 + b % 3) for b in range(10)]
        with WorkerPool(workers, force_pool=True) as pool:
            reports = [
                pmap_report(_square, items, pool=pool, supervision=supervision)
                for items in batches
            ]
        assert all(report.mode != "serial" for report in reports)
        assert [report.values for report in reports] == [
            [x * x for x in items] for items in batches
        ]


@needs_fork
@pytest.mark.parametrize("workers", [1, 2])
def test_retry_on_a_replacement_worker_reads_the_inherited_item(
    workers, tmp_path, worker_starts, monkeypatch
):
    # Task 0 kills its worker on its first attempt. Its retry runs on a
    # worker forked during the batch: at one worker, the replacement;
    # at two, whichever is idle (the parent sees the dead worker a few
    # milliseconds late, time enough for the other one to drain this
    # batch of trivial tasks).
    monkeypatch.setattr(_Counted, "pickles", 0)
    marker = tmp_path / "crashed"
    items = [_Counted(x, str(marker) if x == 0 else None) for x in range(12)]
    report = pmap_report(
        _square_or_die, items, workers=workers,
        supervision=GroundPolicy(backoff_base_seconds=0.0),
    )
    assert marker.exists()
    assert report.mode == "ground-pool"
    assert (report.worker_losses, report.retries) == (1, 1)
    if workers == 1:
        assert report.timings[0].pid == worker_starts[-1] != worker_starts[0]
    assert report.values == pmap_report(_square, range(12), workers=1).values
    assert _Counted.pickles == 0


@needs_fork
def test_pooled_table7_trials_reuse_the_parents_plans(tmp_path, monkeypatch):
    from dataclasses import replace

    from repro.campaign import TrialStore, execute
    from repro.core.emr import runtime
    from repro.experiments import CAMPAIGNS
    from repro.radiation.injector import encode_outcome

    grid = CAMPAIGNS["table7"]()
    grid = replace(grid, trials=grid.trials[::10])  # every scheme and stage
    warm = execute(grid, workers=1)  # fills each spec's memo in this process

    original = runtime.plan_replication

    def counting(*args, **kwargs):
        _plans_built.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(runtime, "plan_replication", counting)
    planning = replace(
        grid, trial_fn=_planning_trial, batch_fn=None, encode=None, decode=None
    )
    serial = execute(planning, workers=1, store=TrialStore(tmp_path / "serial"))
    pooled = execute(
        planning, workers=2, force_pool=True, store=TrialStore(tmp_path / "pooled")
    )
    assert pooled.report.mode == "fork-pool"
    assert [value["plans"] for value in pooled.values] == [0] * len(grid.trials)
    assert pooled.values == serial.values
    assert [
        {k: v for k, v in value.items() if k != "plans"} for value in pooled.values
    ] == [encode_outcome(outcome) for outcome in warm.values]
    assert _store_bytes(tmp_path / "pooled") == _store_bytes(tmp_path / "serial")


class TestFailures:
    def test_trial_exception_same_serial_and_pool(self):
        for kwargs in ({"workers": 1}, {"workers": 2, "force_pool": True}):
            with pytest.raises(ConfigurationError, match=r"^bad item 2$"):
                pmap_report(_reject, range(4), **kwargs)

    def test_supervised_trial_exception_quarantines(self):
        report = pmap_report(
            _reject, range(4), workers=2,
            supervision=GroundPolicy(max_attempts=1),
        )
        assert report.values == [0, 1, None, 3]
        assert [q.to_dict() for q in report.quarantined] == [{
            "index": 2,
            "attempts": 1,
            "error": "trial_error: ConfigurationError: bad item 2",
        }]

    @needs_fork
    def test_unportable_exception_names_the_task(self):
        with pytest.raises(
            PoolTaskError,
            match=r"^task 1: trial_error: _TwoArgError: stuck in the worker$",
        ):
            pmap_report(_reject_unportably, range(4), workers=2, force_pool=True)

    @needs_fork
    def test_lost_worker_raises_and_leaves_no_child(self):
        # Run in a subprocess with its own deadline: an executor that
        # hangs on a dead worker fails this test in seconds, not never.
        script = textwrap.dedent("""
            import os, time
            from repro.errors import PoolTaskError
            from repro.parallel import pmap_report

            def die_on_three(x):
                if x == 3:
                    os._exit(1)
                return x

            started = time.perf_counter()
            try:
                pmap_report(die_on_three, range(8), workers=2, force_pool=True)
            except PoolTaskError as exc:
                print("raised:", exc)
            print("seconds:", time.perf_counter() - started)
            try:
                os.waitpid(-1, os.WNOHANG)
                print("children: left behind")
            except ChildProcessError:
                print("children: none")
        """)
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, env=env,
            start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the workers too
            proc.communicate()
            pytest.fail("pmap_report hung on a dead worker")
        assert proc.returncode == 0, stderr
        lines = stdout.splitlines()
        assert lines[0] == (
            "raised: task 3: worker_crash: worker process died mid-trial"
        )
        assert float(lines[1].split()[1]) < 10.0
        assert lines[2] == "children: none"


@pytest.mark.slow
class TestCampaignDeterminism:
    def test_injector_pool_equals_serial(self):
        from repro.radiation.injector import (
            CampaignConfig,
            FaultInjectionCampaign,
        )
        from repro.workloads.imageproc import ImageProcessingWorkload

        def campaign():
            return FaultInjectionCampaign(
                ImageProcessingWorkload(map_size=48, template_size=16, stride=16),
                CampaignConfig(runs_per_scheme=4),
                seed=11,
            )

        serial_campaign = campaign()
        serial = serial_campaign.run(schemes=("none", "emr"), workers=1)
        parallel_campaign = campaign()
        parallel = parallel_campaign.run(schemes=("none", "emr"), workers=4)
        assert serial == parallel
        assert [o.detail for o in serial_campaign.outcomes] == [
            o.detail for o in parallel_campaign.outcomes
        ]

        # Force the fork-pool path regardless of host CPU count.
        forced = pmap_report(
            _seeded_injection_trial,
            [
                (task, 11, i)
                for i, task in enumerate(
                    _campaign_tasks(serial_campaign, ("none", "emr"))
                )
            ],
            workers=4,
            force_pool=True,
        )
        assert [
            (o.scheme, o.outcome, o.target, o.detail) for o in forced.values
        ] == [
            (o.scheme, o.outcome, o.target, o.detail)
            for o in serial_campaign.outcomes
        ]

    def test_calibration_sweep_workers_equal(self, _calibration_setup):
        from repro.core.ild.calibration import sweep_thresholds

        factory, labelled = _calibration_setup
        serial = sweep_thresholds(factory, labelled, workers=1)
        parallel = sweep_thresholds(factory, labelled, workers=4)
        assert serial.scores == parallel.scores
        assert serial.chosen == parallel.chosen


def _seeded_injection_trial(payload):
    """One injection trial with the generator its campaign trial gets."""
    from repro.campaign import trial_rng
    from repro.radiation.injector import run_campaign_trial

    task, root, index = payload
    return run_campaign_trial(task, trial_rng(root, index))


def _campaign_tasks(campaign, schemes):
    from repro.radiation.injector import TrialTask

    rng = np.random.default_rng(campaign.seed)
    spec = campaign.workload.build(rng)
    golden = tuple(campaign.workload.reference_outputs(spec))
    return [
        TrialTask(
            scheme=scheme,
            workload=campaign.workload,
            spec=spec,
            golden=golden,
            config=campaign.config,
            machine_factory=campaign.machine_factory,
        )
        for scheme in schemes
        for _ in range(campaign.config.runs_per_scheme)
    ]


@pytest.fixture(scope="module")
def _calibration_setup():
    from repro.core.ild import IldDetector, LabelledTrace, train_ild
    from repro.sim import CurrentStep, TraceGenerator, quiescent_segment

    generator = TraceGenerator()
    rng = np.random.default_rng(5)
    train_trace = generator.generate(
        [quiescent_segment(120.0)], rng=rng, housekeeping=None
    )
    trained = train_ild(
        train_trace, max_instruction_rate=generator.max_instruction_rate
    )
    labelled = [
        LabelledTrace(
            trace=generator.generate(
                [quiescent_segment(60.0)], rng=rng,
                current_steps=[CurrentStep(start=25.0, delta_amps=0.07)],
            ),
            sel_onset=25.0,
        ),
        LabelledTrace(
            trace=generator.generate([quiescent_segment(60.0)], rng=rng),
            sel_onset=None,
        ),
    ]

    def factory(config):
        return IldDetector(
            trained.model, trained.quiescence.max_instruction_rate, config
        )

    return factory, labelled
