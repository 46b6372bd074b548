"""Tests for the chaos harness and the supervised mission loop.

The full 24-scenario matrix runs in CI as the ``chaos`` row of
``scripts/check_equivalence.py``; here we run a representative subset
and pin the properties the harness itself promises: invariants hold,
reports are deterministic, control-plane strikes are survived, and the
supervised mission recovers every latchup while the policy visibly
moves the replication level.
"""

import numpy as np
import pytest

from repro.chaos import (
    ChaosScenario,
    decode_chaos_report,
    default_scenarios,
    encode_chaos_report,
    reports_digest,
    run_chaos,
    run_scenario,
)
from repro.errors import ConfigurationError
from repro.missions import MissionConfig, MissionSimulator
from repro.radiation import RadiationEnvironment

BUSY_SKY = RadiationEnvironment(
    name="chaos-test-sky",
    seu_per_day=10.0,
    sel_per_year=1200.0,
    sel_delta_amps_range=(0.07, 0.2),
)


def _run(name):
    (scenario,) = [s for s in default_scenarios() if s.name == name]
    return run_scenario(scenario, np.random.default_rng(scenario.seed))


class TestScenarios:
    def test_matrix_is_large_and_unique(self):
        scenarios = default_scenarios()
        assert len(scenarios) >= 20
        names = [s.name for s in scenarios]
        assert len(set(names)) == len(names)
        seeds = [s.seed for s in scenarios]
        assert len(set(seeds)) == len(seeds)

    def test_matrix_covers_every_control_surface(self):
        struck = set()
        for scenario in default_scenarios():
            struck.update(scenario.control_strikes)
        assert struck == {"ild", "vote", "eventlog"}

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ChaosScenario(name="bad", seed=0, duration_seconds=-1.0)
        with pytest.raises(ConfigurationError):
            ChaosScenario(name="bad", seed=0, control_strikes=("psu",))


class TestEpisodes:
    def test_quiet_episode_is_clean(self):
        report = _run("quiet-standard")
        assert report.ok
        assert report.counters.get("sels_injected", 0) == 0
        assert report.counters.get("recoveries", 0) == 0
        assert report.final_level == "standard"
        assert report.events_logged == 0

    def test_sel_storm_recovers_every_latchup(self):
        report = _run("sel-storm-standard")
        assert report.ok
        assert report.counters["sels_injected"] >= 1
        assert report.counters["recoveries"] >= 1

    def test_control_plane_strikes_survived(self):
        for name in ("control-ild", "control-vote", "control-eventlog"):
            report = _run(name)
            assert report.ok, (name, report.violations)

    def test_economy_vote_strike_never_silent(self):
        report = _run("economy-vote-strike-0")
        assert report.ok
        struck = report.counters["vote_strikes"]
        noticed = report.counters.get(
            "vote_strikes_detected", 0
        ) + report.counters.get("vote_strikes_outvoted", 0)
        assert struck >= 1 and noticed == struck

    def test_watchdog_hang_bites(self):
        report = _run("watchdog-hang-standard")
        assert report.ok
        assert report.counters["watchdog_bites"] >= 1

    def test_report_roundtrip(self):
        report = _run("quiet-economy")
        assert decode_chaos_report(encode_chaos_report(report)) == report


class TestDeterminism:
    SUBSET = ("quiet-standard", "sel-storm-standard", "control-vote")

    def _subset(self):
        return tuple(
            s for s in default_scenarios() if s.name in self.SUBSET
        )

    def test_rerun_is_byte_identical(self):
        first, digest_a = run_chaos(self._subset())
        second, digest_b = run_chaos(self._subset())
        assert digest_a == digest_b
        assert [encode_chaos_report(r) for r in first] == [
            encode_chaos_report(r) for r in second
        ]
        assert reports_digest(first) == digest_a

    @pytest.mark.slow
    def test_workers_do_not_change_the_digest(self):
        _, serial = run_chaos(self._subset(), workers=1)
        _, parallel = run_chaos(self._subset(), workers=2)
        assert serial == parallel

    def test_store_replay_identical(self, tmp_path):
        _, first = run_chaos(self._subset(), store=tmp_path / "store")
        _, replayed = run_chaos(self._subset(), store=tmp_path / "store")
        assert first == replayed


class TestSupervisedMission:
    @pytest.fixture(scope="class")
    def report(self):
        config = MissionConfig(
            duration_days=0.5, environment=BUSY_SKY, tick=8e-3, seed=8,
            supervised=True,
        )
        return MissionSimulator(config).run()

    def test_mission_survives_the_storm(self, report):
        assert report.survived
        assert report.silent_corruptions == 0

    def test_every_sel_recovered(self, report):
        sels = report.dataset.by_type("sel")
        assert sels  # this sky latches at least once in half a day
        assert all(r.detected for r in sels)
        assert all(r.action == "power_cycle" for r in sels)
        assert report.recoveries >= len(sels)
        assert report.replays_ok >= 1

    def test_policy_moved_the_replication_level(self, report):
        assert report.level_changes >= 1
        degrades = [e for e in report.events if e.name == "emr.degrade"]
        assert degrades  # the move is in the flight log, with reasons
        assert report.final_level in ("economy", "standard", "hardened")

    def test_recovery_chain_in_flight_log(self, report):
        names = {e.name for e in report.events}
        assert "sel.trip" in names
        assert "sel.power_cycle" in names
        assert "recovery.rollback" in names
        assert "recovery.replay" in names

    def test_summary_mentions_supervision(self, report):
        assert "supervised recoveries" in report.summary()
