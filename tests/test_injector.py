"""Tests for the fault-injection campaign (Table 7 machinery)."""

import numpy as np
import pytest

from repro.core.emr import Frontier, RunResult, RunStats
from repro.errors import ConfigurationError
from repro.radiation import OutcomeClass, SeuTarget
from repro.radiation.events import classify_outcome
from repro.radiation.injector import (
    SCHEMES,
    CampaignConfig,
    FaultInjectionCampaign,
    TrialTask,
    run_campaign_trial,
)
from repro.sim import Machine
from repro.sim.power import EnergyReport
from repro.workloads import AesWorkload, ImageProcessingWorkload


@pytest.fixture(scope="module")
def campaign_table():
    workload = ImageProcessingWorkload(map_size=48, template_size=12, stride=12)
    campaign = FaultInjectionCampaign(
        workload, CampaignConfig(runs_per_scheme=15), seed=7
    )
    table = campaign.run(schemes=("none", "3mr", "emr"))
    return campaign, table


GOLDEN = (b"ok", b"ok")


def _result(outputs=GOLDEN, faults=(), corrections=0):
    return RunResult(
        scheme="3mr", workload="w", outputs=list(outputs), wall_seconds=1.0,
        breakdown={}, energy=EnergyReport(0.0, 0.0, 0.0, 0.0),
        stats=RunStats(detected_faults=list(faults), vote_corrections=corrections),
        frontier=Frontier.DRAM,
    )


@pytest.mark.parametrize(
    "result,error,expected",
    [
        (None, "dataset 0: no majority", OutcomeClass.ERROR),
        # An observed fault wins over a wrong output and a correction.
        (_result([b"ok", b"no"], ["ds=1: crash"], 1), None, OutcomeClass.ERROR),
        (_result([b"ok", b"no"], corrections=1), None, OutcomeClass.SDC),
        (_result(corrections=1), None, OutcomeClass.CORRECTED),
        (_result(), None, OutcomeClass.NO_EFFECT),
    ],
    ids=["aborted", "observed-fault", "sdc", "corrected", "no-effect"],
)
def test_classify_outcome(result, error, expected):
    assert classify_outcome(result, GOLDEN, error) is expected


class TestCampaign:
    def test_schemes_present(self, campaign_table):
        _, table = campaign_table
        assert set(table) == {"none", "3mr", "emr"}
        for counts in table.values():
            assert sum(counts.values()) == 15

    def test_redundancy_eliminates_sdc(self, campaign_table):
        """The headline Table 7 claim: EMR and 3-MR incur zero SDC."""
        _, table = campaign_table
        assert table["3mr"][OutcomeClass.SDC] == 0
        assert table["emr"][OutcomeClass.SDC] == 0

    def test_unprotected_run_is_vulnerable(self, campaign_table):
        """'None' must show SDCs and/or detected errors."""
        _, table = campaign_table
        bad = table["none"][OutcomeClass.SDC] + table["none"][OutcomeClass.ERROR]
        assert bad > 0
        assert table["none"][OutcomeClass.CORRECTED] == 0

    def test_outcome_log_kept(self, campaign_table):
        campaign, table = campaign_table
        assert len(campaign.outcomes) == 45
        targets = {outcome.target for outcome in campaign.outcomes}
        assert len(targets) >= 3  # several injection sites exercised

    def test_mbu_config(self):
        workload = AesWorkload(chunk_bytes=32, chunks=4)
        campaign = FaultInjectionCampaign(
            workload, CampaignConfig(runs_per_scheme=6, bits=2), seed=9
        )
        table = campaign.run(schemes=("emr",))
        assert sum(table["emr"].values()) == 6
        assert table["emr"][OutcomeClass.SDC] == 0

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            CampaignConfig(runs_per_scheme=0)

    def test_every_scheme_runs_through_the_table(self):
        workload = AesWorkload(chunk_bytes=32, chunks=4)
        campaign = FaultInjectionCampaign(
            workload, CampaignConfig(runs_per_scheme=2), seed=4
        )
        table = campaign.run(schemes=tuple(SCHEMES))
        assert {scheme: sum(table[scheme].values()) for scheme in SCHEMES} == {
            scheme: 2 for scheme in SCHEMES
        }

    def test_unknown_scheme_rejected(self):
        workload = AesWorkload(chunk_bytes=32, chunks=4)
        spec = workload.build(np.random.default_rng(0))
        task = TrialTask(
            scheme="tmr-lockstep", workload=workload, spec=spec,
            golden=tuple(workload.reference_outputs(spec)),
            config=CampaignConfig(), machine_factory=Machine.rpi_zero2w,
        )
        with pytest.raises(ConfigurationError, match="unknown scheme"):
            run_campaign_trial(task, np.random.default_rng(0))

    def test_pipeline_poison_gets_corrected_under_emr(self):
        workload = AesWorkload(chunk_bytes=32, chunks=4)
        config = CampaignConfig(
            runs_per_scheme=5,
            weights={SeuTarget.PIPELINE: 1.0},
        )
        campaign = FaultInjectionCampaign(workload, config, seed=5)
        table = campaign.run(schemes=("none", "emr"))
        # Every 'none' run commits a corrupted output silently.
        assert table["none"][OutcomeClass.SDC] == 5
        # Every EMR run out-votes the poisoned replica.
        assert table["emr"][OutcomeClass.CORRECTED] == 5
        assert table["emr"][OutcomeClass.SDC] == 0

    def test_pointer_strikes_surface_as_errors_not_sdc(self):
        workload = AesWorkload(chunk_bytes=32, chunks=4)
        config = CampaignConfig(
            runs_per_scheme=8,
            weights={SeuTarget.POINTER: 1.0},
        )
        campaign = FaultInjectionCampaign(workload, config, seed=6)
        table = campaign.run(schemes=("emr",))
        assert table["emr"][OutcomeClass.SDC] == 0


class TestStorageFrontierCampaign:
    def test_non_ecc_machine_campaign_is_robust(self):
        """On the Snapdragon (no ECC DRAM, storage frontier) EMR keeps
        nothing strikeable in DRAM; such strikes must land as dead
        silicon, not crash the harness — and EMR must stay SDC-free."""
        from repro.sim import Machine

        workload = AesWorkload(chunk_bytes=32, chunks=5)
        campaign = FaultInjectionCampaign(
            workload,
            CampaignConfig(runs_per_scheme=8),
            machine_factory=Machine.snapdragon801,
            seed=13,
        )
        table = campaign.run(schemes=("emr",))
        assert sum(table["emr"].values()) == 8
        assert table["emr"][OutcomeClass.SDC] == 0


class TestCensusWeights:
    def test_warmed_machine_weights_normalize(self):
        from repro.radiation.injector import census_injection_weights
        from repro.sim import Machine

        machine = Machine.rpi_zero2w()
        payload = bytes(range(256)) * 16
        region = machine.memory.alloc(len(payload), label="warm")
        machine.memory.write_region(region, payload)
        for group in range(len(machine.caches.l1)):
            machine.read_via_cache(region.addr, len(payload), group)
        weights = census_injection_weights(machine)
        assert weights[SeuTarget.POINTER] == pytest.approx(0.10)
        assert sum(weights.values()) == pytest.approx(1.0)
        assert weights[SeuTarget.DRAM] > 0
        assert weights[SeuTarget.L1_CACHE] > weights[SeuTarget.PIPELINE]
        # Valid campaign config as-is.
        CampaignConfig(runs_per_scheme=1, weights=weights)


class TestFactoryIdentity:
    """A machine factory's identity enters every trial fingerprint."""

    @staticmethod
    def _campaign(factory):
        return FaultInjectionCampaign(
            AesWorkload(chunk_bytes=32, chunks=3),
            CampaignConfig(runs_per_scheme=2),
            machine_factory=factory,
            seed=5,
        ).campaign(("none",))

    def test_named_factory_keeps_its_id(self):
        from repro.radiation.injector import _factory_id

        assert _factory_id(Machine.rpi_zero2w) == "repro.sim.machine.Machine.rpi_zero2w"

    def test_partial_factories_fingerprint_apart(self, tmp_path):
        import functools

        from repro.campaign import TrialStore, execute

        pi = self._campaign(functools.partial(Machine.rpi_zero2w, seed=1))
        snapdragon = self._campaign(functools.partial(Machine.snapdragon801, seed=2))
        assert not {s.fingerprint for s in pi.specs()} & {
            s.fingerprint for s in snapdragon.specs()
        }
        again = self._campaign(functools.partial(Machine.rpi_zero2w, seed=1))
        assert again.specs() == pi.specs()

        store = TrialStore(tmp_path)
        execute(pi, store=store)
        shared = execute(snapdragon, store=store)
        assert shared.store_hits == 0
        assert shared.executed == len(snapdragon.trials)
        assert execute(again, store=store).store_hits == len(pi.trials)
