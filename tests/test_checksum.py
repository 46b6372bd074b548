"""Tests for the checksum-protection comparison scheme and CRC32."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.emr import EmrConfig, checksum_protected_run, crc32
from repro.core.emr.runtime import EmrHooks
from repro.radiation import OutcomeClass, SeuTarget
from repro.radiation.injector import CampaignConfig, FaultInjectionCampaign
from repro.sim import Machine
from repro.workloads import AesWorkload


class TestCrc32:
    @pytest.mark.parametrize(
        "data", [b"", b"a", b"123456789", bytes(range(256)), b"\xff" * 64]
    )
    def test_matches_zlib(self, data):
        assert crc32(data) == zlib.crc32(data)

    @given(st.binary(min_size=0, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_matches_zlib_property(self, data):
        assert crc32(data) == zlib.crc32(data)

    def test_check_value(self):
        # The canonical CRC-32 check value for "123456789".
        assert crc32(b"123456789") == 0xCBF43926

    def test_single_bit_sensitivity(self):
        data = bytearray(64)
        reference = crc32(bytes(data))
        data[17] ^= 0x04
        assert crc32(bytes(data)) != reference


@pytest.fixture
def workload():
    return AesWorkload(chunk_bytes=64, chunks=8)


@pytest.fixture
def spec(workload):
    return workload.build(np.random.default_rng(0))


class TestChecksumScheme:
    def test_fault_free_outputs_match(self, workload, spec):
        golden = workload.reference_outputs(spec)
        result = checksum_protected_run(Machine.rpi_zero2w(), workload, spec=spec)
        assert result.outputs == golden
        assert result.scheme == "checksum"
        assert result.breakdown["checksum"] > 0

    def test_checksum_overhead_visible(self, workload, spec):
        from repro.core.emr import single_run

        check = checksum_protected_run(Machine.rpi_zero2w(), workload, spec=spec)
        plain = single_run(Machine.rpi_zero2w(), workload, spec=spec)
        # Verification costs real time (the paper's "computationally
        # expensive" point).
        assert check.wall_seconds > plain.wall_seconds

    def test_cache_corruption_corrected_by_refetch(self, workload, spec):
        golden = workload.reference_outputs(spec)
        machine = Machine.rpi_zero2w()

        class FlipCachedChunk(EmrHooks):
            fired = False

            def before_job(self, runtime, job):
                # After the first job, its chunk line sits in L2.
                if not self.fired and job.dataset_index == 1:
                    if 0 in machine.caches.l2:
                        machine.caches.l2.flip_bit(0, 3, 1)
                        self.fired = True

        result = checksum_protected_run(
            machine, workload, spec=spec, hooks=FlipCachedChunk()
        )
        # The guard either never re-read the line or refetched cleanly;
        # outputs must match and no silent corruption happened.
        assert result.outputs == golden

    def test_replica_crash_is_contained(self, workload, spec):
        """A job that raises something other than a detected fault is
        recorded as a replica crash and commits an empty output; the
        run goes on."""

        class CrashOnSecondJob(AesWorkload):
            calls = 0

            def run_job(self, inputs, params):
                self.calls += 1
                if self.calls == 2:
                    raise ValueError("bad block")
                return super().run_job(inputs, params)

        crashing = CrashOnSecondJob(chunk_bytes=64, chunks=8)
        golden = workload.reference_outputs(spec)
        result = checksum_protected_run(Machine.rpi_zero2w(), crashing, spec=spec)
        assert result.stats.detected_faults == [
            "ds=1 exec=0: replica crash: ValueError: bad block"
        ]
        assert result.outputs == [golden[0], b"", *golden[2:]]
        assert result.stats.jobs == len(spec.datasets) - 1

    def test_campaign_checksum_catches_memory_misses_pipeline(self):
        """Checksums verify inputs but cannot catch compute faults —
        the reason the paper builds EMR instead."""
        workload = AesWorkload(chunk_bytes=32, chunks=4)
        pipeline_only = FaultInjectionCampaign(
            workload,
            CampaignConfig(runs_per_scheme=5, weights={SeuTarget.PIPELINE: 1.0}),
            seed=2,
        )
        table = pipeline_only.run(schemes=("checksum",))
        assert table["checksum"][OutcomeClass.SDC] == 5

    def test_campaign_checksum_protects_cache(self):
        workload = AesWorkload(chunk_bytes=32, chunks=6)
        cache_only = FaultInjectionCampaign(
            workload,
            CampaignConfig(
                runs_per_scheme=8,
                weights={SeuTarget.L2_CACHE: 0.5, SeuTarget.L1_CACHE: 0.5},
            ),
            seed=3,
        )
        table = cache_only.run(schemes=("checksum",))
        # Cached-input corruption is either harmless (line not re-read)
        # or corrected by refetch; it must never become an SDC.
        assert table["checksum"][OutcomeClass.SDC] == 0
