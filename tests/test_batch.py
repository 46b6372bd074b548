"""The SoA batch tick engine vs its scalar canon (`repro.sim.batch`).

The contract under test is byte-identity: `BatchMachines` advancing N
lanes in lockstep must produce exactly the state — engine digests,
full machine digests after sync-back, alarm/death reports — that N
independent `FleetTicker`s produce, including RNG stream positions.
Also covers the campaign batch executor (`execute(..., batch_fn=)`) and the
mission-layer satellites (sorted event indexing, memoized ILD ground
training, `MissionSimulator.run_batch`).
"""

import json
import os
import tempfile

import numpy as np
import pytest

from repro.campaign import (
    Campaign,
    Diverged,
    Trial,
    TrialStore,
    execute,
    trial_rng,
)
from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry
from repro.sim import Machine, MachineSpec
from repro.sim.batch import (
    BatchMachines,
    FleetTicker,
    LaneEvents,
    SelStep,
    SeuStrike,
    TickConfig,
    TickProgram,
    merge_reports,
)

SPEC = MachineSpec(
    dram_size=1 << 16, l1_lines=8, l2_lines=16, flash_capacity=1 << 16
)
CONFIG = TickConfig()


def varied_program(ticks: int, n_cores: int = SPEC.n_cores) -> TickProgram:
    t = np.arange(ticks, dtype=float)
    rows = np.clip(
        0.5 + 0.4 * np.sin(t[:, None] / 11.0 + np.arange(n_cores)), 0.0, 1.0
    )
    override = np.full(ticks, np.nan)
    override[ticks // 2 : ticks // 2 + 5] = 1.0e9
    return TickProgram(rows, freq_override=override)


def scalar_fleet(seeds, program, lane_events=None, config=CONFIG, spec=SPEC):
    tickers = [FleetTicker(Machine(spec, seed=s), config, lane_id=i)
               for i, s in enumerate(seeds)]
    reports = [
        t.run(program, None if lane_events is None else lane_events[i])
        for i, t in enumerate(tickers)
    ]
    return tickers, merge_reports(reports)


class TestBatchIdentity:
    def test_digests_and_reports_match_scalar(self):
        program = varied_program(300)
        program.sels = (SelStep(40, 0.03),)
        program.seus = (SeuStrike(150, 2),)
        events = [
            None,
            LaneEvents(sels=(SelStep(60, 0.02),), seus=(SeuStrike(61, 0),)),
            LaneEvents(sels=(SelStep(90, 0.06), SelStep(200, -0.06))),
        ]
        seeds = [7, 8, 9]
        tickers, scalar_report = scalar_fleet(seeds, program, events)
        batch = BatchMachines.from_specs(SPEC, seeds=seeds, config=CONFIG)
        batch_report = batch.run(program, events)
        assert batch.lane_digests() == [t.state_digest() for t in tickers]
        assert batch_report.alarms == scalar_report.alarms
        assert batch_report.deaths == scalar_report.deaths
        assert batch_report.ticks == scalar_report.ticks

    def test_thermal_death_freezes_lane_identically(self):
        # dt=1 s so the ~220 s damage deadline of a 0.08 A latchup
        # (it crosses the damage asymptote) falls inside the run.
        config = TickConfig(dt=1.0)
        ticks = 600
        program = varied_program(ticks)
        events = [None, LaneEvents(sels=(SelStep(10, 0.08),))]
        seeds = [3, 4]
        tickers, scalar_report = scalar_fleet(seeds, program, events,
                                              config=config)
        batch = BatchMachines.from_specs(SPEC, seeds=seeds, config=config)
        batch_report = batch.run(program, events)
        assert len(scalar_report.deaths) == 1
        assert batch_report.deaths == scalar_report.deaths
        assert batch.lane_digests() == [t.state_digest() for t in tickers]
        assert batch.active_lanes == [0]

    def test_sync_back_full_machine_digest(self):
        program = varied_program(200)
        seeds = [21, 22]
        scalar_machines = [Machine(SPEC, seed=s) for s in seeds]
        for i, m in enumerate(scalar_machines):
            FleetTicker(m, CONFIG, lane_id=i).run(program)
        batch = BatchMachines.from_specs(SPEC, seeds=seeds, config=CONFIG)
        batch.run(program)
        for lane, m in enumerate(scalar_machines):
            assert batch.machine(lane).state_digest() == m.state_digest()

    def test_peel_continues_scalar_byte_identically(self):
        first, second = varied_program(150), varied_program(90)
        seeds = [31, 32, 33]
        # Twin fleet runs both halves scalar.
        tickers, _ = scalar_fleet(seeds, first)
        for t in tickers:
            t.run(second)
        # Batch runs the first half, peels lane 1, both continue.
        batch = BatchMachines.from_specs(SPEC, seeds=seeds, config=CONFIG)
        batch.run(first)
        (peeled,) = batch.peel([1])
        batch.run(second)
        peeled.run(second)
        assert peeled.state_digest() == tickers[1].state_digest()
        assert [batch.state_digest(0), batch.state_digest(2)] == [
            tickers[0].state_digest(),
            tickers[2].state_digest(),
        ]

    def test_seu_core_out_of_range_raises_before_any_tick(self):
        spec = MachineSpec(n_cores=2, dram_size=1 << 16, l1_lines=8,
                           l2_lines=16, flash_capacity=1 << 16)
        program = TickProgram.constant(0.5, 60, n_cores=2)
        bad = [LaneEvents(seus=(SeuStrike(30, 5),))]
        batch = BatchMachines.from_specs(spec, seeds=[1], config=CONFIG)
        before = batch.lane_digests()
        with pytest.raises(ConfigurationError, match="core 5"):
            batch.run(program, bad)
        assert batch.lane_digests() == before
        ticker = FleetTicker(Machine(spec, seed=1), CONFIG)
        before = ticker.state_digest()
        with pytest.raises(ConfigurationError, match="core 5"):
            ticker.run(program, bad[0])
        assert ticker.state_digest() == before

    def test_adopted_machines_must_not_share_rngs(self):
        m1, m2 = Machine(SPEC, seed=5), Machine(SPEC, seed=6)
        m2.rng = m1.rng
        with pytest.raises(ConfigurationError):
            BatchMachines([m1, m2])


N_TICKS = 150


def _tick_trial(item, rng, tracer):
    program = TickProgram.constant(item["util"], N_TICKS, n_cores=SPEC.n_cores)
    machine = Machine(SPEC, seed=0)
    machine.rng = rng
    ticker = FleetTicker(machine, CONFIG)
    ticker.run(program)
    return {"digest": ticker.state_digest()}


def _tick_batch_fn(items, rngs):
    out = [Diverged("forced") if it.get("diverge") else None for it in items]
    lanes = [i for i, it in enumerate(items) if not it.get("diverge")]
    if lanes:
        program = TickProgram.constant(
            items[lanes[0]]["util"], N_TICKS, n_cores=SPEC.n_cores
        )
        batch = BatchMachines.from_specs(
            SPEC, config=CONFIG, rngs=[rngs[i] for i in lanes]
        )
        batch.run(program)
        for lane, i in enumerate(lanes):
            out[i] = {"digest": batch.state_digest(lane)}
    return out


def _util_key(item):
    return item["util"]


def _keyed_tick_batch_fn(items, rngs):
    """:func:`_tick_batch_fn` as keyed groups: one program per call."""
    if len({_util_key(item) for item in items}) != 1:
        raise AssertionError("a lockstep group mixed keys")
    return _tick_batch_fn(items, rngs)


_keyed_tick_batch_fn.lockstep_key = _util_key


def _group_probe(items, rngs):
    """Each lane reports the keys and size of the call it rode in."""
    keys = sorted({_util_key(item) for item in items})
    return [
        {"util": item["util"], "keys": keys, "lanes": len(items)}
        for item in items
    ]


_group_probe.lockstep_key = _util_key


def _poison_low_util(items, rngs):
    """:func:`_keyed_tick_batch_fn`, but the 0.3 group always raises."""
    if items[0]["util"] == 0.3:
        raise RuntimeError("poisoned group")
    return _keyed_tick_batch_fn(items, rngs)


_poison_low_util.lockstep_key = _util_key


def _keyed_campaign(name="batch-keyed"):
    """Nine lanes under three keys (sizes 4, 3, 2); lane 1 diverges."""
    utils = [0.6, 0.3, 0.6, 0.9, 0.3, 0.6, 0.9, 0.3, 0.6]
    trials = [
        Trial(params={"k": k, "util": u}, item={"util": u, "diverge": k == 1})
        for k, u in enumerate(utils)
    ]
    return Campaign(name=name, trial_fn=_tick_trial, trials=trials, seed=78)


def _store_bytes(root) -> "dict[str, bytes]":
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.glob("??/*.json"))
    }


class TestLockstepGroups:
    @pytest.mark.parametrize(
        "pool", [{"workers": 1}, {"workers": 2, "force_pool": True}]
    )
    def test_keyed_groups_are_never_split(self, pool):
        camp = _keyed_campaign()
        result = execute(camp, batch_fn=_group_probe, **pool)
        sizes = {0.6: 4, 0.3: 3, 0.9: 2}
        for value in result.values:
            assert value["keys"] == [value["util"]]
            assert value["lanes"] == sizes[value["util"]]

    def test_pool_and_serial_groups_store_identically(self, tmp_path):
        camp = _keyed_campaign()
        scalar = execute(camp, store=tmp_path / "scalar")
        serial = execute(
            camp, batch_fn=_keyed_tick_batch_fn, store=tmp_path / "serial",
            workers=1,
        )
        pooled = execute(
            camp, batch_fn=_keyed_tick_batch_fn, store=tmp_path / "pooled",
            workers=2, force_pool=True,
        )
        assert pooled.values == serial.values == scalar.values
        assert (
            _store_bytes(tmp_path / "pooled")
            == _store_bytes(tmp_path / "serial")
            == _store_bytes(tmp_path / "scalar")
        )

    def test_diverged_lane_of_a_pooled_group_reruns_through_trial_fn(self):
        camp = _keyed_campaign()
        metrics = MetricsRegistry()
        result = execute(
            camp, batch_fn=_keyed_tick_batch_fn, workers=2, force_pool=True,
            metrics=metrics,
        )
        counters = metrics.snapshot()["counters"]
        assert counters["campaign.batch.lanes"] == 9
        assert counters["campaign.batch.diverged"] == 1
        # The round is one batch: the three group tasks, then the
        # diverged lane, which joined it when its group landed.
        assert len(result.report.timings) == 4
        assert result.report.values[3] == (result.values[1], None)
        assert result.values[1] == _tick_trial(
            camp.trials[1].item, trial_rng(78, 1), None
        )

    def test_keyless_closure_runs_once_in_process(self):
        calls = []

        def batch_fn(items, rngs):
            calls.append((len(items), os.getpid()))
            return _tick_batch_fn(items, rngs)

        camp = self._uniform_campaign()
        result = execute(camp, batch_fn=batch_fn, workers=2, force_pool=True)
        assert calls == [(4, os.getpid())]
        assert result.values == execute(camp).values

    def test_supervised_poison_group_quarantined_under_every_lane(
        self, tmp_path
    ):
        from repro.ground import GroundPolicy

        camp = _keyed_campaign()
        plain = execute(
            camp, batch_fn=_keyed_tick_batch_fn, store=tmp_path / "plain"
        )
        supervised = execute(
            camp, batch_fn=_poison_low_util, store=tmp_path / "supervised",
            workers=2, force_pool=True,
            supervision=GroundPolicy(max_attempts=2, backoff_base_seconds=0.0),
        )
        assert supervised.report.mode == "ground-pool"
        poisoned = [1, 4, 7]  # the 0.3 group, diverging lane 1 included
        specs = camp.specs()
        assert [
            (q.index, q.fingerprint, q.attempts) for q in supervised.quarantined
        ] == [(i, specs[i].fingerprint, 2) for i in poisoned]
        assert all("poisoned group" in q.error for q in supervised.quarantined)
        assert supervised.executed == 6
        assert supervised.values == [
            None if i in poisoned else value
            for i, value in enumerate(plain.values)
        ]
        lost = {
            f"{specs[i].fingerprint[:2]}/{specs[i].fingerprint}.json"
            for i in poisoned
        }
        assert _store_bytes(tmp_path / "supervised") == {
            name: data
            for name, data in _store_bytes(tmp_path / "plain").items()
            if name not in lost
        }

    @staticmethod
    def _uniform_campaign():
        trials = [
            Trial(params={"k": k}, item={"util": 0.6, "diverge": k == 2})
            for k in range(4)
        ]
        return Campaign(
            name="batch-keyless", trial_fn=_tick_trial, trials=trials, seed=79
        )


class TestExecuteBatched:
    def _campaign(self):
        trials = [
            Trial(params={"k": k, "diverge": k == 1},
                  item={"util": 0.6, "diverge": k == 1})
            for k in range(4)
        ]
        return Campaign(
            name="batch-equiv", trial_fn=_tick_trial, trials=trials, seed=77
        )

    def test_matches_scalar_execute_and_stores_identically(self):
        camp = self._campaign()
        with tempfile.TemporaryDirectory() as d1, \
                tempfile.TemporaryDirectory() as d2:
            metrics = MetricsRegistry()
            scalar = execute(camp, store=d1, metrics=MetricsRegistry())
            batched = execute(
                camp, store=d2, metrics=metrics, batch_fn=_tick_batch_fn
            )
            assert batched.values == scalar.values
            s1, s2 = TrialStore.coerce(d1), TrialStore.coerce(d2)
            for spec in scalar.specs:
                e1, e2 = s1.get(spec.fingerprint), s2.get(spec.fingerprint)
                assert json.dumps(e1, sort_keys=True) == json.dumps(
                    e2, sort_keys=True
                )
            counters = metrics.snapshot()["counters"]
            assert counters["campaign.batch.lanes"] == 4
            assert counters["campaign.batch.diverged"] == 1

    def test_resume_across_backends(self):
        camp = self._campaign()
        with tempfile.TemporaryDirectory() as store:
            cold = execute(camp, store=store, batch_fn=_tick_batch_fn)
            warm = execute(camp, store=store)
            assert warm.executed == 0
            assert warm.store_hits == len(camp.trials)
            assert warm.values == cold.values
            rewarm = execute(camp, store=store, batch_fn=_tick_batch_fn)
            assert rewarm.executed == 0 and rewarm.values == cold.values

    def test_lane_count_mismatch_raises(self):
        camp = self._campaign()
        with pytest.raises(ConfigurationError):
            execute(camp, batch_fn=lambda items, rngs: [])

    def test_corrupt_entry_is_counted_and_rerun(self, tmp_path):
        camp = self._campaign()
        cold = execute(camp, store=tmp_path, batch_fn=_tick_batch_fn)
        fp = camp.specs()[2].fingerprint
        (tmp_path / fp[:2] / f"{fp}.json").write_text("{garbage")
        metrics = MetricsRegistry()
        with pytest.warns(RuntimeWarning, match="corrupt entry"):
            warm = execute(
                camp, store=tmp_path, metrics=metrics, batch_fn=_tick_batch_fn
            )
        counters = metrics.snapshot()["counters"]
        assert counters["campaign.store.corrupt"] == 1
        assert warm.executed == 1 and warm.store_hits == 3
        assert json.dumps(warm.values, sort_keys=True) == json.dumps(
            cold.values, sort_keys=True
        )


class TestMissionSatellites:
    def test_events_until_advances_index(self):
        from repro.missions.simulator import _events_until

        class E:
            def __init__(self, time):
                self.time = time

        events = [E(0.5), E(1.0), E(1.5), E(4.0)]
        first, i = _events_until(events, 0, 1.5)
        assert [e.time for e in first] == [0.5, 1.0]
        second, i = _events_until(events, i, 5.0)
        assert [e.time for e in second] == [1.5, 4.0]
        tail, i = _events_until(events, i, 99.0)
        assert tail == [] and i == 4

    def test_ild_training_cache_shares_model_not_detector(self):
        from repro.missions.simulator import (
            _ILD_TRAINING_CACHE,
            MissionConfig,
            _trained_ild,
        )
        from repro.sim import TelemetryConfig, TraceGenerator

        _ILD_TRAINING_CACHE.clear()
        cfg = MissionConfig(seed=123)
        generator = TraceGenerator(TelemetryConfig(tick=cfg.tick))
        first = _trained_ild(cfg, generator)
        assert len(_ILD_TRAINING_CACHE) == 1
        second = _trained_ild(cfg, generator)
        assert len(_ILD_TRAINING_CACHE) == 1
        assert first is not second
        assert first.model is not second.model
        cached = _ILD_TRAINING_CACHE[(cfg.seed, cfg.tick)]
        assert first.model is not cached and second.model is not cached
        _ILD_TRAINING_CACHE.clear()


@pytest.mark.slow
class TestSlowIdentity:
    def test_n256_identity(self):
        program = varied_program(120)
        program.sels = (SelStep(30, 0.03),)
        seeds = range(2000, 2256)
        tickers, scalar_report = scalar_fleet(seeds, program)
        batch = BatchMachines.from_specs(SPEC, seeds=seeds, config=CONFIG)
        batch_report = batch.run(program)
        assert batch.lane_digests() == [t.state_digest() for t in tickers]
        assert batch_report.alarms == scalar_report.alarms

    def test_run_batch_full_short_mission_byte_identity(self):
        from repro.missions.simulator import MissionConfig, MissionSimulator
        from repro.radiation.environment import LOW_EARTH_ORBIT

        def canon(report):
            return (
                report.survived,
                report.mission_seconds,
                report.downtime_seconds,
                report.power_cycles,
                report.workload_runs,
                report.silent_corruptions,
                tuple(
                    (r.mission_time_s, r.event_type, r.detail, r.detected,
                     r.detected_by, r.detection_latency_s, r.outcome, r.action)
                    for r in report.dataset
                ),
                tuple((e.name, e.time, e.severity.name) for e in report.events),
            )

        configs = [
            MissionConfig(duration_days=0.02, environment=LOW_EARTH_ORBIT,
                          seed=11),
            MissionConfig(duration_days=0.02, environment=LOW_EARTH_ORBIT,
                          seed=11, emr_enabled=False),
        ]
        scalar = [canon(MissionSimulator(c).run()) for c in configs]
        batched = [canon(r) for r in MissionSimulator.run_batch(configs)]
        assert batched == scalar
