"""Machine snapshot/restore: the fresh-experiment path.

The property test drives a machine through arbitrary mutation
sequences and requires ``restore`` to bring the canonical state digest
back exactly; the unit tests pin the guard rails (spec mismatch,
attached-component consistency, the clock reset guard) and the
``SnapshotFactory`` cloning path campaigns use.
"""

import gc
import pickle
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, SimulationError
from repro.radiation.events import SelEvent
from repro.radiation.sel import LatchupInjector
from repro.sim.machine import Machine, MachineSpec, SnapshotFactory

REGION_BYTES = 512


def _prepared_machine() -> "tuple[Machine, object]":
    machine = Machine.rpi_zero2w()
    region = machine.memory.alloc(REGION_BYTES, "scratch")
    machine.memory.write(region.addr, bytes(range(256)) * (REGION_BYTES // 256))
    machine.storage.store("blob", b"flight-data" * 40)
    return machine, region


# Each op is (code, a, b); operands are scaled into valid ranges so no
# sequence can raise — the property must hold for *any* interleaving.
_OPS = st.tuples(
    st.sampled_from(
        ["write", "flip", "read_cached", "write_cached", "advance",
         "rng", "reboot", "power_cycle", "disk_read", "disk_write"]
    ),
    st.integers(min_value=0, max_value=REGION_BYTES - 17),
    st.integers(min_value=1, max_value=16),
)


def _apply(machine: Machine, region, op) -> None:
    code, a, b = op
    if code == "write":
        machine.memory.write(region.addr + a, bytes([b]) * b)
    elif code == "flip":
        machine.memory.flip_bit(region.addr + a, b % 8)
    elif code == "read_cached":
        machine.read_via_cache(region.addr + a, b, group=0)
    elif code == "write_cached":
        machine.write_via_cache(region.addr + a, bytes([a % 256]) * b, group=0)
    elif code == "advance":
        machine.clock.advance(a * 0.25 + 0.001)
    elif code == "rng":
        machine.rng.random(b)
    elif code == "reboot":
        machine.reboot()
    elif code == "power_cycle":
        machine.power_cycle()
    elif code == "disk_read":
        machine.storage.read("blob", offset=a % 64, size=b)
    elif code == "disk_write":
        machine.storage.store(f"f{a % 4}", bytes([b]) * (a + 1))


class TestSnapshotRoundTrip:
    @given(ops=st.lists(_OPS, min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_restore_recovers_digest_after_any_mutation(self, ops):
        machine, region = _prepared_machine()
        snap = machine.snapshot()
        digest = machine.state_digest()
        for op in ops:
            _apply(machine, region, op)
        machine.restore(snap)
        assert machine.state_digest() == digest
        # And the restored machine is a fully working one.
        machine.read_via_cache(region.addr, 16, group=0)

    @given(ops=st.lists(_OPS, min_size=1, max_size=6))
    @settings(max_examples=20, deadline=None)
    def test_clone_from_snapshot_matches_and_diverges_independently(self, ops):
        machine, region = _prepared_machine()
        snap = machine.snapshot()
        clone = Machine.from_snapshot(snap)
        assert clone.state_digest() == machine.state_digest()
        original = machine.state_digest()
        clone_region = clone.memory.allocations[0]
        for op in ops:
            _apply(clone, clone_region, op)
        # The template never sees the clone's mutations.
        assert machine.state_digest() == original
        assert Machine.from_snapshot(snap).state_digest() == original

    def test_mutation_changes_digest(self):
        machine, region = _prepared_machine()
        digest = machine.state_digest()
        machine.memory.flip_bit(region.addr, 3)
        assert machine.state_digest() != digest

    def test_rng_state_round_trips(self):
        machine, _ = _prepared_machine()
        snap = machine.snapshot()
        expected = machine.rng.random(4).tolist()
        machine.restore(snap)
        assert machine.rng.random(4).tolist() == expected


class TestGuardRails:
    def test_restore_rejects_different_spec(self):
        machine, _ = _prepared_machine()
        other = Machine(MachineSpec(name="other", n_cores=2))
        with pytest.raises(ConfigurationError):
            other.restore(machine.snapshot())

    def test_clock_reset_refuses_pending_state(self):
        machine, _ = _prepared_machine()
        with pytest.raises(SimulationError, match="pending component state"):
            machine.clock.reset()
        machine.clock.reset(force=True)

    def test_dropped_machine_is_freed_without_the_cyclic_gc(self):
        machine, _ = _prepared_machine()
        ref = weakref.ref(machine)
        gc.disable()
        try:
            del machine
            assert ref() is None
        finally:
            gc.enable()

    def test_clock_reset_allowed_on_pristine_machine(self):
        machine = Machine.rpi_zero2w()
        machine.clock.advance(5.0)
        machine.clock.reset()
        assert machine.clock.now == 0.0

    def test_attached_component_state_rides_the_snapshot(self):
        machine, _ = _prepared_machine()
        injector = LatchupInjector(machine)
        injector.induce(SelEvent(time=0.0, delta_amps=0.07, location="soc"))
        snap = machine.snapshot()
        machine.power_cycle()  # clears the latchup
        assert not injector.any_active
        machine.restore(snap)
        assert injector.any_active
        assert machine.extra_current_draw == pytest.approx(0.07)

    def test_from_snapshot_rejects_attached_components(self):
        machine, _ = _prepared_machine()
        LatchupInjector(machine)
        with pytest.raises(SimulationError, match="attached"):
            Machine.from_snapshot(machine.snapshot())

    def test_restore_requires_matching_attached_names(self):
        machine, _ = _prepared_machine()
        snap = machine.snapshot()
        LatchupInjector(machine)
        with pytest.raises(SimulationError, match="attached"):
            machine.restore(snap)


class TestSnapshotFactory:
    def test_clones_are_identical(self):
        factory = SnapshotFactory(Machine.rpi_zero2w)
        assert factory().state_digest() == factory().state_digest()

    def test_warm_state_is_stamped_into_every_clone(self):
        def warm(machine):
            region = machine.memory.alloc(64, "w")
            machine.memory.write(region.addr, b"y" * 64)
            machine.clock.advance(2.0)

        factory = SnapshotFactory(Machine.rpi_zero2w, warm=warm)
        clone = factory()
        assert clone.clock.now == 2.0
        assert clone.memory.allocated_bytes == 64

    def test_factory_pickles_into_workers(self):
        factory = SnapshotFactory(Machine.rpi_zero2w)
        thawed = pickle.loads(pickle.dumps(factory))
        assert thawed().state_digest() == factory().state_digest()


class TestMemorySnapshotFootprint:
    def test_snapshot_stores_only_the_touched_prefix(self):
        machine, _ = _prepared_machine()
        snap = machine.memory.snapshot()
        # A 48 MB-class device snapshots in KB when only a few hundred
        # bytes were ever touched.
        assert snap.size == machine.memory.size
        assert len(snap.data) < 1024 * 1024
        assert len(snap.data) >= REGION_BYTES
