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
from repro.parallel import ParallelReport, pmap_report, resolve_workers


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
