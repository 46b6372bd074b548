"""The simulated spacecraft computer.

Composes cores, the cache hierarchy, DRAM, flash, the power model and
the current sensor into one device with the two lifecycle operations
the paper cares about:

* ``reboot()`` — restarts software. **Does not** clear an SEL ("reboots
  may not completely clear out the SEL's residual charge", §2.1).
* ``power_cycle()`` — drops power entirely; clears SELs and all
  volatile state. This is what ILD triggers on detection.

Two stock configurations mirror the paper's deployments:
:meth:`Machine.rpi_zero2w` (the LEO SmallSat / ground SEL testbed, ECC
DRAM absent on the real part but the SEL experiments don't need DRAM
content) and :meth:`Machine.snapdragon801` (the Mars coprocessor:
no ECC DRAM, so EMR's reliability frontier falls back to storage).
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from ..errors import ConfigurationError, SimulationError
from .cache import AccessTrace, CacheHierarchy, HierarchySnapshot
from .clock import SimClock
from .core import Core, CoreGroup, CoreSnapshot, CoreSpec
from .dvfs import OndemandGovernor
from .faults import FaultSurface
from .memory import MemorySnapshot, SimMemory
from .power import EnergyMeter, PowerModel, PowerModelParams
from .sensor import CurrentSensor, SensorParams
from .storage import FlashStorage, StorageSnapshot


@dataclass(frozen=True)
class MachineSpec:
    """Static configuration of a simulated spacecraft computer."""

    name: str = "generic-soc"
    n_cores: int = 4
    dram_size: int = 64 << 20
    dram_ecc: bool = True
    l1_lines: int = 512
    l2_lines: int = 8192
    line_size: int = 64
    #: SECDED-protected cache SRAM (rare on commodity parts; when
    #: present, EMR reverts to plain parallel 3-MR, §3.2).
    cache_ecc: bool = False
    core_spec: CoreSpec = field(default_factory=CoreSpec)
    power_params: PowerModelParams = field(default_factory=PowerModelParams)
    sensor_params: SensorParams = field(default_factory=SensorParams)
    flash_capacity: int = 64 << 20
    reboot_seconds: float = 24.0
    power_cycle_seconds: float = 31.0

    def __post_init__(self) -> None:
        if self.n_cores <= 0:
            raise ConfigurationError("n_cores must be positive")


@dataclass(frozen=True)
class MachineSnapshot:
    """Complete dynamic state of a :class:`Machine` at one instant.

    Pure data (dataclasses, bytes, plain scalars): picklable into
    worker processes and hashable into a :meth:`Machine.state_digest`.
    The power model, sensor, governor and energy meter carry no
    dynamic state — they are functions of the spec — so the spec entry
    covers them. ``attached`` holds the snapshots of components
    registered via :meth:`Machine.attach` (e.g. the latchup injector's
    active-event list).
    """

    spec: MachineSpec
    rng_state: dict
    clock_now: float
    cores: "tuple[CoreSnapshot, ...]"
    memory: MemorySnapshot
    caches: HierarchySnapshot
    storage: StorageSnapshot
    extra_current_draw: float
    reboots: int
    power_cycles: int
    attached: "tuple[tuple[str, object], ...]" = ()


def _digest_update(h, value) -> None:
    """Feed ``value`` into ``h`` canonically.

    Containers are framed, dict keys sorted, floats hashed by repr
    (exact round-trip), numpy arrays by raw bytes — so equal logical
    state always produces equal digests, across processes.
    """
    if value is None:
        h.update(b"N")
    elif isinstance(value, bool):
        h.update(b"T" if value else b"F")
    elif isinstance(value, (int, np.integer)):
        h.update(b"i%d;" % int(value))
    elif isinstance(value, (float, np.floating)):
        h.update(b"f" + repr(float(value)).encode() + b";")
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        h.update(b"s%d:" % len(raw) + raw)
    elif isinstance(value, bytes):
        h.update(b"b%d:" % len(value) + value)
    elif isinstance(value, np.ndarray):
        h.update(b"a" + str(value.dtype).encode() + b":" + value.tobytes())
    elif isinstance(value, (tuple, list)):
        h.update(b"(")
        for item in value:
            _digest_update(h, item)
        h.update(b")")
    elif isinstance(value, dict):
        h.update(b"{")
        for key in sorted(value):
            _digest_update(h, key)
            _digest_update(h, value[key])
        h.update(b"}")
    elif is_dataclass(value):
        h.update(b"d" + type(value).__name__.encode() + b"<")
        for f in fields(value):
            _digest_update(h, getattr(value, f.name))
        h.update(b">")
    else:
        raise ConfigurationError(
            f"cannot digest state of type {type(value).__name__}"
        )


class Machine:
    """A running instance of :class:`MachineSpec`."""

    def __init__(self, spec: "MachineSpec | None" = None, seed: int = 0) -> None:
        self.spec = spec or MachineSpec()
        self.rng = np.random.default_rng(seed)
        self.clock = SimClock()
        self.cores = [Core(i, self.spec.core_spec) for i in range(self.spec.n_cores)]
        self.memory = SimMemory(self.spec.dram_size, ecc=self.spec.dram_ecc)
        self.caches = CacheHierarchy(
            self.memory,
            n_groups=self.spec.n_cores,
            l1_lines=self.spec.l1_lines,
            l2_lines=self.spec.l2_lines,
            line_size=self.spec.line_size,
            ecc=self.spec.cache_ecc,
        )
        self.storage = FlashStorage(capacity=self.spec.flash_capacity)
        self.power_model = PowerModel(
            self.spec.power_params, max_freq=self.spec.core_spec.max_freq
        )
        self.energy_meter = EnergyMeter(self.power_model)
        self.sensor = CurrentSensor(self.spec.sensor_params)
        self.governor = OndemandGovernor(self.spec.core_spec)
        #: Persistent current added by active latchups (amps). Owned by
        #: :mod:`repro.radiation.sel`, read by telemetry/power paths.
        self.extra_current_draw = 0.0
        self.reboots = 0
        self.power_cycles = 0
        self._power_cycle_hooks: list = []
        self._reboot_hooks: list = []
        self._attached: "dict[str, object]" = {}
        #: The machine-wide fault surface: every stateful component,
        #: registered under a stable name. The surface holds references
        #: only — its census is computed live, so no snapshot/restore
        #: plumbing is needed. Software domains (the ILD detector, the
        #: flight event log) register here when the stack comes up.
        self.fault_surface = FaultSurface()
        self.fault_surface.register("dram", self.memory)
        for g, l1 in enumerate(self.caches.l1):
            self.fault_surface.register(f"l1[{g}]", l1)
        self.fault_surface.register("l2", self.caches.l2)
        self.fault_surface.register("flash", self.storage)
        for core in self.cores:
            self.fault_surface.register(f"core{core.core_id}", core)
        self.clock.on_reset(self._pending_state)

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def n_cores(self) -> int:
        return self.spec.n_cores

    def default_core_groups(self, n_executors: int) -> "list[CoreGroup]":
        """One single-core group per executor (the paper's layout)."""
        if n_executors > self.n_cores:
            raise ConfigurationError(
                f"{n_executors} executors need {n_executors} cores; "
                f"machine has {self.n_cores}"
            )
        return [CoreGroup(i, (i,)) for i in range(n_executors)]

    # ------------------------------------------------------------------
    # Memory access helpers (used by EMR executors)
    # ------------------------------------------------------------------
    def read_via_cache(self, addr: int, n: int, group: int) -> "tuple[bytes, AccessTrace]":
        return self.caches.read(addr, n, group)

    def write_via_cache(self, addr: int, data: bytes, group: int) -> AccessTrace:
        return self.caches.write(addr, data, group)

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def attach(self, name: str, component) -> None:
        """Register a stateful component (e.g. a latchup injector) so
        its state rides along with :meth:`snapshot`/:meth:`restore`.

        The component must expose ``snapshot()`` and ``restore(state)``.
        """
        if not (hasattr(component, "snapshot") and hasattr(component, "restore")):
            raise ConfigurationError(
                f"attached component {name!r} needs snapshot()/restore()"
            )
        if name in self._attached:
            raise ConfigurationError(f"component {name!r} already attached")
        self._attached[name] = component

    def _pending_state(self) -> "str | None":
        """Reset-guard summary of live component state (see SimClock)."""
        issues = []
        resident = sum(len(c) for c in (*self.caches.l1, self.caches.l2))
        if resident:
            issues.append(f"{resident} resident cache lines")
        if self.memory.allocated_bytes:
            issues.append(f"{self.memory.allocated_bytes}B DRAM allocated")
        if self.storage.cached_files:
            issues.append(f"{len(self.storage.cached_files)} cached flash pages")
        if self.extra_current_draw:
            issues.append(f"{self.extra_current_draw:.3f}A latchup draw")
        return "; ".join(issues) or None

    def snapshot(self) -> MachineSnapshot:
        """Capture every piece of dynamic state — clock, cores, caches,
        DRAM, flash, RNG, SEL current draw and attached components —
        as pure, picklable data."""
        return MachineSnapshot(
            spec=self.spec,
            rng_state=copy.deepcopy(self.rng.bit_generator.state),
            clock_now=self.clock.now,
            cores=tuple(core.snapshot() for core in self.cores),
            memory=self.memory.snapshot(),
            caches=self.caches.snapshot(),
            storage=self.storage.snapshot(),
            extra_current_draw=self.extra_current_draw,
            reboots=self.reboots,
            power_cycles=self.power_cycles,
            attached=tuple(
                (name, component.snapshot())
                for name, component in sorted(self._attached.items())
            ),
        )

    def restore(self, snap: MachineSnapshot) -> None:
        """Rewind this machine — in place, hooks intact — to ``snap``.

        The snapshot must come from a machine with an identical spec,
        and the set of attached components must match the snapshot's
        (their state is restored too; silently dropping either side
        would leave e.g. latchup current and injector bookkeeping
        contradicting each other).
        """
        if snap.spec != self.spec:
            raise ConfigurationError(
                f"snapshot of {snap.spec.name!r} cannot restore a "
                f"{self.spec.name!r} machine"
            )
        snap_names = [name for name, _ in snap.attached]
        if snap_names != sorted(self._attached):
            raise SimulationError(
                f"snapshot carries attached components {snap_names}, "
                f"machine has {sorted(self._attached)}"
            )
        self.rng.bit_generator.state = copy.deepcopy(snap.rng_state)
        self.clock.reset(snap.clock_now, force=True)
        for core, core_snap in zip(self.cores, snap.cores):
            core.restore(core_snap)
        self.memory.restore(snap.memory)
        self.caches.restore(snap.caches)
        self.storage.restore(snap.storage)
        self.extra_current_draw = snap.extra_current_draw
        self.reboots = snap.reboots
        self.power_cycles = snap.power_cycles
        for name, state in snap.attached:
            self._attached[name].restore(state)

    @classmethod
    def from_snapshot(cls, snap: MachineSnapshot) -> "Machine":
        """A fresh machine materialised from a snapshot.

        Only detached snapshots qualify: attached components (latchup
        injectors) hold references to *their* machine and cannot be
        conjured here — build the machine, re-attach components, then
        :meth:`restore`.
        """
        if snap.attached:
            raise SimulationError(
                "snapshot carries attached-component state "
                f"({[name for name, _ in snap.attached]}); materialise "
                "the machine first, attach components, then restore()"
            )
        machine = cls(snap.spec)
        machine.restore(snap)
        return machine

    def state_digest(self) -> str:
        """SHA-256 over the canonical encoding of :meth:`snapshot` —
        equal digests iff equal logical machine state."""
        h = hashlib.sha256()
        _digest_update(h, self.snapshot())
        return h.hexdigest()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_power_cycle(self, hook) -> None:
        """Register a callable invoked (with this machine) on power cycle."""
        self._power_cycle_hooks.append(hook)

    def on_reboot(self, hook) -> None:
        """Register a callable invoked (with this machine) on every
        reboot — including the one inside a power cycle. Watchdogs and
        supervisors observe restarts through this."""
        self._reboot_hooks.append(hook)

    @staticmethod
    def _dispatch_hooks(hooks, machine, what: str) -> None:
        """Run every hook even if some raise; re-raise afterwards.

        A raising hook must not starve the hooks behind it — on a
        power cycle those hooks are what reconcile latchup bookkeeping
        with ``extra_current_draw``, and skipping them would leave the
        machine drawing phantom current. The first exception is
        re-raised once all hooks have run (any further ones ride along
        as a note in the message).
        """
        errors: "list[BaseException]" = []
        for hook in list(hooks):
            try:
                hook(machine)
            except Exception as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)
        if errors:
            if len(errors) > 1:
                raise SimulationError(
                    f"{len(errors)} {what} hooks failed: "
                    + "; ".join(f"{type(e).__name__}: {e}" for e in errors)
                ) from errors[0]
            raise errors[0]

    def reboot(self) -> float:
        """Software restart: caches and latched pipeline faults clear,
        but an active SEL's residual charge — and its current draw —
        survives. Returns the downtime in seconds."""
        self.caches.flush_all()
        self.storage.drop_page_cache()
        for core in self.cores:
            core.reset_faults()
            core.freq = self.spec.core_spec.min_freq
        self.clock.advance(self.spec.reboot_seconds)
        self.reboots += 1
        self._dispatch_hooks(self._reboot_hooks, self, "reboot")
        return self.spec.reboot_seconds

    def power_cycle(self) -> float:
        """Full power removal: everything a reboot does, plus clearing
        SEL residual charge (via registered hooks). Returns downtime."""
        downtime = self.spec.power_cycle_seconds - self.spec.reboot_seconds
        self.reboot()
        self.reboots -= 1  # the reboot above was part of the power cycle
        self.clock.advance(max(0.0, downtime))
        self.power_cycles += 1
        self._dispatch_hooks(self._power_cycle_hooks, self, "power-cycle")
        return self.spec.power_cycle_seconds

    # ------------------------------------------------------------------
    # Power
    # ------------------------------------------------------------------
    def instantaneous_current(self) -> float:
        """True board current right now, from core state + SEL draw."""
        util = np.array([1.0 if c.busy_seconds else 0.0 for c in self.cores])
        freq = np.array([c.freq for c in self.cores])
        return float(
            self.power_model.board_current(util * 0.0, freq)
        ) + self.extra_current_draw

    def quiescent_current(self) -> float:
        return self.power_model.quiescent_current(
            self.n_cores, self.spec.core_spec.min_freq
        )

    # ------------------------------------------------------------------
    # Stock configurations
    # ------------------------------------------------------------------
    @classmethod
    def rpi_zero2w(cls, seed: int = 0) -> "Machine":
        """The paper's ground SEL testbed and LEO SmallSat computer."""
        spec = MachineSpec(
            name="raspberry-pi-zero-2w",
            n_cores=4,
            dram_size=48 << 20,
            dram_ecc=True,
            l1_lines=512,
            l2_lines=8192,
        )
        return cls(spec, seed=seed)

    @classmethod
    def snapdragon801(cls, seed: int = 0) -> "Machine":
        """The Mars-rover coprocessor: commodity SoC without ECC DRAM,
        pushing EMR's reliability frontier out to flash storage."""
        spec = MachineSpec(
            name="snapdragon-801",
            n_cores=4,
            dram_size=96 << 20,
            dram_ecc=False,
            l1_lines=512,
            l2_lines=16384,
            core_spec=CoreSpec(
                base_ipc=1.6,
                freq_levels=tuple(800e6 + 200e6 * i for i in range(9)),
            ),
        )
        return cls(spec, seed=seed)

    def __repr__(self) -> str:
        return (
            f"Machine({self.spec.name!r}, {self.n_cores} cores, "
            f"DRAM {'ECC' if self.spec.dram_ecc else 'no-ECC'}, "
            f"t={self.clock.now:.3f}s)"
        )


class SnapshotFactory:
    """A machine factory that stamps out clones of a template state.

    The base factory runs once (optionally followed by a ``warm``
    callable that stages inputs, trains state, etc.); every call then
    materialises an identical fresh machine from the captured
    snapshot. Because the factory is plain data it pickles into
    :func:`repro.parallel.pmap_report` workers, so campaign trials can share
    one warmed template instead of re-deriving it per trial.
    """

    def __init__(self, base_factory=None, warm=None) -> None:
        machine = (base_factory or Machine.rpi_zero2w)()
        if warm is not None:
            warm(machine)
        self.snapshot = machine.snapshot()

    def __call__(self) -> Machine:
        return Machine.from_snapshot(self.snapshot)
