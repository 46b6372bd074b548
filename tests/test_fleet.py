"""Tests for the constellation fleet engine (`repro.fleet`).

The determinism tests share one session-scoped tiny fleet and one
TrialStore, so the SEU calibration campaign (42 real injection cells)
runs exactly once for the whole module.
"""

import dataclasses
import functools
import json

import numpy as np
import pytest

from repro.__main__ import main
from repro.campaign import TrialStore, execute
from repro.errors import ConfigurationError
from repro.fleet.engine import _fleet_batch_fn
from repro.fleet import (
    PRESETS,
    PROFILES,
    BandSpec,
    FleetSpec,
    OrbitBandPreset,
    build_report,
    build_utilization,
    calibration_table,
    fleet_campaign,
    fleet_status,
    get_preset,
    get_profile,
    load_spec,
    reference_spec,
    register_preset,
    report_json,
    run_fleet,
    smoke_spec,
    storm_variant,
)
from repro.obs import MetricsRegistry
from repro.radiation.environment import DEEP_SPACE, LOW_EARTH_ORBIT

# ----------------------------------------------------------------------
# Shared tiny fleet: one SEL-heavy custom band plus one quiet band, so
# both the batched (zero-SEL lockstep) and scalar (SEL remainder)
# shards are exercised in seconds.
# ----------------------------------------------------------------------

TEST_PRESET = OrbitBandPreset(
    name="test-storm",
    rationale="test band: LEO upset rates with a ~1000x latchup flux",
    environment=dataclasses.replace(
        LOW_EARTH_ORBIT,
        name="test-storm",
        sel_per_year=2000.0,
        sel_delta_amps_range=(0.05, 1.0),
    ),
)
register_preset(TEST_PRESET, replace=True)


def tiny_spec() -> FleetSpec:
    return FleetSpec(
        name="testfleet",
        seed=5,
        dt=60.0,
        calibration_runs=1,
        bands=(
            BandSpec(preset="test-storm", craft=2,
                     schemes=("none", "emr"), days=0.5),
            BandSpec(preset="leo-equatorial", craft=2,
                     schemes=("none", "3mr"), days=0.5),
        ),
    )


@pytest.fixture(scope="session")
def fleet_store(tmp_path_factory):
    return TrialStore(tmp_path_factory.mktemp("fleet-store"))


@pytest.fixture(scope="session")
def cold_result(fleet_store):
    return run_fleet(tiny_spec(), store=fleet_store, workers=1)


class TestPresets:
    def test_catalog_pairs_every_band_with_a_storm(self):
        quiet = {n for n in PRESETS if not n.endswith("-storm")
                 and n != "test-storm"}
        assert quiet == {
            "leo-equatorial", "leo-saa", "leo-polar", "geo", "deep-space"
        }
        for name in quiet:
            assert f"{name}-storm" in PRESETS

    def test_names_match_keys_and_rationales_exist(self):
        for name, preset in PRESETS.items():
            assert preset.name == name
            assert preset.rationale

    def test_anchored_to_paper_environments(self):
        assert get_preset("leo-equatorial").environment is LOW_EARTH_ORBIT
        assert get_preset("deep-space").environment is DEEP_SPACE

    def test_storm_variant_scales_rates(self):
        base = get_preset("leo-saa")
        storm = storm_variant(base)
        assert storm.environment.seu_per_day == pytest.approx(
            base.environment.seu_per_day * 8.0
        )
        assert storm.environment.sel_per_year == pytest.approx(
            base.environment.sel_per_year * 4.0
        )
        low, high = base.environment.sel_delta_amps_range
        assert storm.environment.sel_delta_amps_range == (low, high * 1.25)

    def test_storm_factors_validated(self):
        with pytest.raises(ConfigurationError):
            storm_variant(get_preset("geo"), seu_factor=0.5)

    def test_unknown_preset_lists_catalog(self):
        with pytest.raises(ConfigurationError, match="leo-saa"):
            get_preset("venus-orbit")

    def test_unknown_profile_lists_catalog(self):
        with pytest.raises(ConfigurationError, match="comms-relay"):
            get_profile("asteroid-mining")

    def test_register_refuses_silent_redefinition(self):
        with pytest.raises(ConfigurationError, match="replace=True"):
            register_preset(TEST_PRESET)


class TestProfiles:
    def test_catalog(self):
        assert set(PROFILES) == {
            "earth-observation", "comms-relay", "science-cruise"
        }

    def test_utilization_shape_and_bounds(self):
        profile = get_profile("earth-observation")
        util = build_utilization(profile, ticks=720, n_cores=4, dt=60.0)
        assert util.shape == (720, 4)
        assert float(util.min()) >= 0.0 and float(util.max()) <= 1.0

    def test_idle_windows_match_idle_fraction(self):
        profile = get_profile("science-cruise")
        # One full 6 h cycle at 60 s ticks.
        util = build_utilization(profile, ticks=360, n_cores=2, dt=60.0)
        idle = np.all(util == profile.idle_utilization, axis=1)
        assert float(idle.mean()) == pytest.approx(
            profile.idle_fraction, abs=0.02
        )

    def test_deterministic(self):
        profile = get_profile("comms-relay")
        a = build_utilization(profile, 500, 4, 60.0)
        b = build_utilization(profile, 500, 4, 60.0)
        np.testing.assert_array_equal(a, b)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ConfigurationError):
            build_utilization(get_profile("comms-relay"), 0, 4, 60.0)


class TestSpec:
    def test_round_trips_through_json(self):
        spec = tiny_spec()
        clone = FleetSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec

    def test_rejects_unknown_spec_fields(self):
        data = tiny_spec().to_dict()
        data["warp_factor"] = 9
        with pytest.raises(ConfigurationError, match="warp_factor"):
            FleetSpec.from_dict(data)

    def test_rejects_unknown_band_fields(self):
        data = tiny_spec().to_dict()
        data["bands"][0]["altitude_km"] = 550
        with pytest.raises(ConfigurationError, match="altitude_km"):
            FleetSpec.from_dict(data)

    def test_rejects_unknown_preset(self):
        with pytest.raises(ConfigurationError, match="unknown orbit-band"):
            BandSpec(preset="venus-orbit", craft=1)

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ConfigurationError, match="unknown scheme"):
            BandSpec(preset="geo", craft=1, schemes=("none", "4mr"))

    def test_rejects_duplicate_schemes(self):
        with pytest.raises(ConfigurationError, match="unique"):
            BandSpec(preset="geo", craft=1, schemes=("none", "none"))

    def test_rejects_degenerate_fleets(self):
        with pytest.raises(ConfigurationError):
            FleetSpec(name="x", bands=())
        with pytest.raises(ConfigurationError):
            FleetSpec(name="bad name", bands=(BandSpec("geo", 1),))
        with pytest.raises(ConfigurationError):
            FleetSpec(name="x", bands=(BandSpec("geo", 1),), dt=0.0)
        with pytest.raises(ConfigurationError):
            BandSpec(preset="geo", craft=0)

    def test_expand_is_the_fingerprint_grid(self):
        spec = tiny_spec()
        grid = spec.expand()
        assert len(grid) == spec.total_craft == 8
        assert grid == spec.expand()  # stable order
        assert grid[0] == {
            "band": 0, "preset": "test-storm", "scheme": "none",
            "profile": "earth-observation", "days": 0.5, "craft": 0,
        }

    def test_reference_spec_meets_acceptance_floors(self):
        spec = reference_spec()
        assert spec.total_craft >= 1000
        assert spec.planned_machine_hours >= 1_000_000

    def test_smoke_spec_is_ci_sized(self):
        spec = smoke_spec()
        assert spec.total_craft == 64
        assert spec.planned_machine_hours < 5000

    def test_load_spec_builtins_and_files(self, tmp_path):
        assert load_spec("smoke").name == "smoke"
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(tiny_spec().to_dict()))
        assert load_spec(path) == tiny_spec()
        with pytest.raises(ConfigurationError, match="no such fleet spec"):
            load_spec("nonexistent-fleet")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigurationError, match="invalid JSON"):
            load_spec(bad)


class TestCalibrationTable:
    def test_counts_become_probability_vectors(self):
        values = [
            {"scheme": "none", "target": "dram", "bits": 1,
             "counts": {"no_effect": 3, "sdc": 1}},
            {"scheme": "none", "target": "dram", "bits": 2, "counts": {}},
        ]
        table = calibration_table(values)
        assert table["none"]["dram"]["1"] == [0.75, 0.0, 0.0, 0.25]
        # An empty cell degrades to "no effect", never to a crash.
        assert table["none"]["dram"]["2"] == [1.0, 0.0, 0.0, 0.0]

    def test_vectors_sum_to_one(self):
        values = [
            {"scheme": "emr", "target": "l1", "bits": 1,
             "counts": {"no_effect": 1, "corrected": 2, "error": 3,
                        "sdc": 4}},
        ]
        (probs,) = [calibration_table(values)["emr"]["l1"]["1"]]
        assert sum(probs) == pytest.approx(1.0)


class TestReportMath:
    def _value(self, **over):
        base = {
            "preset": "geo", "scheme": "none", "profile": "comms-relay",
            "survived": True, "machine_hours": 24.0,
            "sels": {"total": 2, "ocp": 1, "ild": 1, "latched": 0,
                     "fatal": 0},
            "seu": {"no_effect": 10, "corrected": 5, "error": 2, "sdc": 3},
            "alarms": 1, "false_alarms": 0, "power_cycles": 2,
            "reboots": 2, "downtime_s": 36.0, "detections": 1,
            "detect_latency_s": 63.0, "energy_j": 100.0,
        }
        base.update(over)
        return base

    def test_cell_aggregation(self):
        spec = tiny_spec()
        values = [
            self._value(),
            self._value(survived=False, machine_hours=12.0,
                        sels={"total": 1, "ocp": 0, "ild": 0,
                              "latched": 0, "fatal": 1}),
        ]
        report = build_report(spec, values)
        (cell,) = report["cells"]
        assert (cell["preset"], cell["scheme"]) == ("geo", "none")
        assert cell["craft"] == 2 and cell["survived"] == 1
        assert cell["loss_rate"] == pytest.approx(0.5)
        assert cell["sel_total"] == 3
        # 2 of 3 latchups recovered (1 OCP + 1 ILD); the third was fatal.
        assert cell["sel_recovery_rate"] == pytest.approx(2 / 3)
        assert cell["sel_per_craft_year"] == pytest.approx(
            3 / (36.0 / 8766.0)
        )
        assert cell["sdc_per_craft_year"] == pytest.approx(
            6 / (36.0 / 8766.0)
        )
        assert cell["mean_detect_latency_s"] == pytest.approx(63.0)
        assert report["totals"]["machine_hours"] == pytest.approx(36.0)

    def test_sel_free_cell_has_perfect_recovery(self):
        values = [self._value(
            sels={"total": 0, "ocp": 0, "ild": 0, "latched": 0, "fatal": 0},
            detections=0, detect_latency_s=0.0,
        )]
        (cell,) = build_report(tiny_spec(), values)["cells"]
        assert cell["sel_recovery_rate"] == 1.0
        assert cell["mean_detect_latency_s"] == 0.0

    def test_report_json_is_canonical(self):
        report = build_report(tiny_spec(), [self._value()])
        assert report_json(report) == report_json(
            build_report(tiny_spec(), [self._value()])
        )


class TestFleetDeterminism:
    def test_cold_run_exercises_both_shards(self, cold_result):
        spec = cold_result.spec
        assert cold_result.executed == spec.total_craft == 8
        assert cold_result.store_hits == 0
        sel_bearing = [v for v in cold_result.values if v["sels"]["total"]]
        quiet = [v for v in cold_result.values if not v["sels"]["total"]]
        assert sel_bearing, "the SEL-heavy test band sampled no latchups"
        assert quiet, "no craft stayed in batch lockstep"
        # Disposition counters always sum to the latchups experienced.
        for v in cold_result.values:
            s = v["sels"]
            assert s["ocp"] + s["ild"] + s["latched"] + s["fatal"] == (
                s["total"]
            )

    def test_store_replay_is_byte_identical(self, cold_result, fleet_store):
        replay = run_fleet(tiny_spec(), store=fleet_store, workers=1)
        assert replay.executed == 0
        assert replay.store_hits == 8
        assert report_json(replay.report) == report_json(cold_result.report)

    def test_all_scalar_path_matches_batched(self, cold_result, fleet_store):
        scalar = run_fleet(
            tiny_spec(), store=fleet_store, workers=1, use_batch=False
        )
        assert report_json(scalar.report) == report_json(cold_result.report)

    def test_worker_count_is_invisible(self, cold_result):
        # No store: every trial re-executes, split across two processes.
        parallel = run_fleet(tiny_spec(), store=None, workers=2)
        assert parallel.executed == 8
        assert report_json(parallel.report) == report_json(
            cold_result.report
        )

    def test_partial_store_resumes_byte_identically(
        self, cold_result, fleet_store, tmp_path
    ):
        # Clone the store, knock out a third of the entries, resume.
        partial = TrialStore(tmp_path / "partial")
        entries = sorted(fleet_store.root.glob("??/*.json"))
        for i, path in enumerate(entries):
            if i % 3 == 0:
                continue  # the knocked-out third
            target = partial.root / path.parent.name / path.name
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(path.read_text())
        resumed = run_fleet(tiny_spec(), store=partial, workers=1)
        assert resumed.executed > 0
        assert report_json(resumed.report) == report_json(cold_result.report)

    def test_supervised_run_matches_cold(self, cold_result):
        from repro.ground import GroundPolicy

        supervised = run_fleet(
            tiny_spec(), supervision=GroundPolicy(timeout_seconds=120.0)
        )
        assert not supervised.quarantined
        assert report_json(supervised.report) == report_json(
            cold_result.report
        )

    def test_corrupt_craft_entry_is_counted_and_rerun(
        self, cold_result, fleet_store, tmp_path
    ):
        copy = TrialStore(tmp_path / "copy")
        for path in fleet_store.root.glob("??/*.json"):
            target = copy.root / path.parent.name / path.name
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(path.read_bytes())
        fp = fleet_campaign(tiny_spec(), calibration={}).specs()[0].fingerprint
        (copy.root / fp[:2] / f"{fp}.json").write_text("{garbage")
        metrics = MetricsRegistry()
        with pytest.warns(RuntimeWarning, match="corrupt entry"):
            rerun = run_fleet(
                tiny_spec(), store=copy, workers=1, metrics=metrics
            )
        assert metrics.snapshot()["counters"]["campaign.store.corrupt"] == 1
        assert rerun.executed == 1
        assert json.dumps(rerun.values, sort_keys=True) == json.dumps(
            cold_result.values, sort_keys=True
        )
        assert report_json(rerun.report) == report_json(cold_result.report)

    def test_batch_fn_without_its_key_rejects_a_mixed_band_group(self):
        assert fleet_campaign(tiny_spec(), calibration={}).batch_fn is _fleet_batch_fn
        # A wrapper that drops ``lockstep_key`` makes the round keyless,
        # so the whole mixed-band grid arrives as one group.
        with pytest.raises(ConfigurationError, match="more than one lockstep key"):
            execute(
                dataclasses.replace(
                    fleet_campaign(tiny_spec(), calibration={}),
                    batch_fn=functools.partial(_fleet_batch_fn),
                ),
                workers=1,
            )

    def test_fleet_status_after_run(self, cold_result, fleet_store):
        statuses = fleet_status(tiny_spec(), fleet_store)
        assert statuses["craft"].completed == statuses["craft"].total == 8
        assert statuses["calibration"].completed == (
            statuses["calibration"].total
        ) == 42  # 3 schemes x 7 targets x 2 bit-widths

    def test_machine_hours_capped_by_plan(self, cold_result):
        spec = cold_result.spec
        assert 0 < cold_result.report["machine_hours"] <= (
            spec.planned_machine_hours + 1e-9
        )


class TestOneWorkerPool:
    def test_pooled_cold_run_forks_each_worker_once(
        self, cold_result, tmp_path, worker_starts, round_reports
    ):
        # A cold store, so the calibration campaign runs pooled too.
        pooled = run_fleet(
            tiny_spec(), store=tmp_path, workers=2, force_pool=True
        )
        assert report_json(pooled.report) == report_json(cold_result.report)
        calibration, craft = round_reports
        assert calibration.mode == craft.mode == "fork-pool"
        assert len(calibration.timings) == 42
        assert len(worker_starts) == 2
        assert {
            t.pid for report in round_reports for t in report.timings
        } == set(worker_starts)


class TestFlightTier:
    def test_flight_samples_ride_the_same_store(self, cold_result,
                                                fleet_store):
        spec = dataclasses.replace(
            tiny_spec(), flight_sample=1, flight_days=0.005
        )
        first = run_fleet(spec, store=fleet_store, workers=1)
        # The craft grid replays from the shared store; only the
        # flight campaign (none/emr cells only — no 3mr missions) runs.
        assert first.store_hits >= 8
        assert first.flight_values
        schemes = {v["scheme"] for v in first.flight_values}
        assert schemes <= {"none", "emr"}
        assert first.report["flight"]
        again = run_fleet(spec, store=fleet_store, workers=1)
        assert again.executed == 0
        assert report_json(again.report) == report_json(first.report)


class TestFleetCli:
    def test_invalid_spec_exits_2(self, capsys):
        assert main(["fleet", "run", "--spec", "no-such-spec"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_spec_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x", "bands": [], "bogus": 1}))
        assert main(["fleet", "run", "--spec", str(bad)]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_presets_catalog(self, capsys):
        assert main(["fleet", "presets"]) == 0
        out = capsys.readouterr().out
        assert "leo-saa" in out and "deep-space-storm" in out
        assert "South Atlantic" in out
        assert "comms-relay" in out

    def test_status_reports_pending_before_any_run(self, tmp_path, capsys):
        assert main([
            "fleet", "status", "--spec", "smoke",
            "--store", str(tmp_path / "empty-store"),
        ]) == 0
        out = capsys.readouterr().out
        assert "0/64" in out and "trials pending" in out

    def test_report_refuses_incomplete_store(self, tmp_path, capsys):
        assert main([
            "fleet", "report", "--spec", "smoke",
            "--store", str(tmp_path / "empty-store"),
        ]) == 1
        assert "pending" in capsys.readouterr().err

    def test_run_and_report_agree(self, cold_result, fleet_store, tmp_path,
                                  capsys):
        spec_path = tmp_path / "fleet.json"
        spec_path.write_text(json.dumps(tiny_spec().to_dict()))
        run_json = tmp_path / "run.json"
        assert main([
            "fleet", "run", "--spec", str(spec_path),
            "--store", str(fleet_store.root), "--report", str(run_json),
        ]) == 0
        out = capsys.readouterr().out
        assert "replayed from store: 8" in out
        rep_json = tmp_path / "rep.json"
        assert main([
            "fleet", "report", "--spec", str(spec_path),
            "--store", str(fleet_store.root), "--report", str(rep_json),
        ]) == 0
        assert run_json.read_bytes() == rep_json.read_bytes()
        assert run_json.read_text() == report_json(cold_result.report)
