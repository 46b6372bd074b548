"""Structure-of-arrays batch simulation: N machines in lockstep.

The scalar :class:`~repro.sim.machine.Machine` is a graph of Python
objects — expressive, but every simulated tick costs Python dispatch,
and mission chunks, Table 7 campaigns and fleet studies all bottom out
in exactly that dispatch. This module packs the *hot per-tick state* of
N machines across a batch axis — core activity and PMU counters, DVFS
frequency indices, board current, sensor samples, thermal deadlines,
ILD rolling-filter windows, SEL/SEU application — so one
:meth:`BatchMachines.run` advances all N lanes through whole segments
of ticks with array ops.

Two backends, one contract:

* :class:`FleetTicker` — the canonical scalar path. One real
  :class:`Machine` advanced tick by tick with per-machine arithmetic.
* :class:`BatchMachines` — the SoA path. N lanes advanced in lockstep.

The batch backend is **byte-identical** to the scalar one at any N:
state digests (:meth:`FleetTicker.state_digest` /
:meth:`BatchMachines.state_digest`) match tick for tick. Three rules
make that possible:

1. **Per-lane RNG streams.** Every lane owns its own
   ``np.random.Generator`` (a machine's own ``rng``, or one derived
   from a per-lane ``SeedSequence`` stream). Draws happen in fixed
   blocks of :attr:`TickConfig.block_ticks` ticks, in a pinned order
   per lane (utilization jitter, sensor noise, spike uniforms, spike
   magnitudes); scalar and batch consume the same blocks from the same
   streams. A dead or peeled lane stops drawing at the next block
   boundary in both backends.
2. **No per-tick transcendentals.** Current-vs-frequency tables
   (``rel ** freq_exponent``) are precomputed per DVFS level; thermal
   damage is tracked as a *deadline* computed with ``math.log`` only
   when an SEL changes the lane's extra draw, so the per-tick check is
   a comparison. Everything that runs per tick is elementwise IEEE
   arithmetic whose result does not depend on array shape.
3. **Sequential accumulation.** Clocks, busy-seconds, energy and the
   ILD running residual sum see the same adds in the same order in
   both backends: :class:`FleetTicker` adds one tick at a time, and
   :class:`BatchMachines` evaluates a whole segment of ticks with
   ``np.add.accumulate`` along the tick axis (sequential, never
   pairwise) plus one per-tick loop for the residual sum, which
   resets on every non-quiescent tick.

Divergence (a reboot, a power cycle, any per-machine control flow the
lockstep loop cannot express) is handled by **peeling**:
:meth:`BatchMachines.peel` materialises the lane into a real
:class:`Machine` plus its carried :class:`TickState` and returns a
:class:`FleetTicker` that continues scalar, while the remaining lanes
stay batched. See ``docs/batch.md``.
"""

from __future__ import annotations

import bisect
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError, SimulationError
from .machine import Machine, MachineSpec, _digest_update
from ..radiation.thermal import ThermalParams, time_to_damage

#: Lane-ticks one chunk of a segment evaluates at once. It bounds the
#: memory of the ``(ticks, lanes, cores)`` temporaries of
#: :meth:`BatchMachines._advance` (about 330 bytes per lane-tick on
#: four cores) while keeping chunks wide enough to amortise the fixed
#: cost of a chunk and its per-tick loop over many lanes.
_CHUNK_LANE_TICKS = 1 << 13

#: CoreCounters field order used by the packed (lane, core, counter)
#: array — column i of the counters array is _COUNTER_FIELDS[i].
_COUNTER_FIELDS = (
    "instructions",
    "cycles",
    "bus_cycles",
    "branches",
    "branch_misses",
    "cache_references",
    "cache_hits",
)


@dataclass(frozen=True)
class TickConfig:
    """Parameters of the lockstep tick engine.

    Defaults mirror the rest of the stack: 1 ms metric ticks with four
    sensor samples each (:class:`~repro.sim.telemetry.TelemetryConfig`),
    ``ondemand`` governor thresholds, the paper's ILD constants
    (0.055 A / 3 s / ±4-sample rolling minimum) and the calibrated
    thermal model.
    """

    dt: float = 1e-3
    samples_per_tick: int = 4
    #: RNG draw-block granularity in ticks. Part of the reproducibility
    #: contract: digests are guaranteed equal only for runs that
    #: partition ticks into the same blocks.
    block_ticks: int = 256
    util_jitter: float = 0.04
    branch_fraction: float = 0.12
    branch_miss_rate: float = 0.03
    up_threshold: float = 0.80
    down_threshold: float = 0.30
    residual_threshold_amps: float = 0.055
    persistence_seconds: float = 3.0
    quiescence_utilization: float = 0.22
    filter_halfwidth_samples: int = 4
    thermal: ThermalParams = field(default_factory=ThermalParams)

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ConfigurationError("dt must be positive")
        if self.samples_per_tick <= 0:
            raise ConfigurationError("samples_per_tick must be positive")
        if self.block_ticks <= 0:
            raise ConfigurationError("block_ticks must be positive")
        if not 0 < self.down_threshold < self.up_threshold <= 1:
            raise ConfigurationError(
                "need 0 < down_threshold < up_threshold <= 1"
            )
        if self.residual_threshold_amps <= 0 or self.persistence_seconds <= 0:
            raise ConfigurationError("ILD threshold/persistence must be positive")
        if self.filter_halfwidth_samples < 0:
            raise ConfigurationError("filter halfwidth must be >= 0")
        if not 0 <= self.quiescence_utilization <= 1:
            raise ConfigurationError("quiescence_utilization must be in [0, 1]")
        if not 0 <= self.branch_fraction <= 1 or not 0 <= self.branch_miss_rate <= 1:
            raise ConfigurationError("branch fractions must be in [0, 1]")

    @property
    def window_ticks(self) -> int:
        """ILD persistence window length in ticks."""
        return max(1, int(round(self.persistence_seconds / self.dt)))


@dataclass(frozen=True)
class TickLaneMode:
    """Per-lane redundancy-mode overlay for the tick engines.

    The tick engines model the *board*, not the software stack, so a
    redundancy mode projects onto exactly two knobs: a standing extra
    current draw (replica cores held hot) and an optional ILD residual
    threshold override. The standing draw is part of the *expected*
    current model — it raises energy, not the ILD residual — so mode
    changes never masquerade as latchups. Defaults are arithmetic
    no-ops: a default-mode lane is bitwise identical to a mode-less
    one, and the mode is configuration, not state, so it stays out of
    :func:`_engine_digest`.
    """

    name: str = ""
    #: Standing board current of the mode (amps), added to the modeled
    #: active current (and therefore to energy), not to the residual.
    extra_current_amps: float = 0.0
    #: ILD residual threshold override; ``None`` keeps the config's.
    residual_threshold_amps: "float | None" = None

    def __post_init__(self) -> None:
        if self.extra_current_amps < 0:
            raise ConfigurationError("mode standing current must be >= 0")
        if (
            self.residual_threshold_amps is not None
            and self.residual_threshold_amps <= 0
        ):
            raise ConfigurationError("mode residual threshold must be positive")


#: The mode-less default: zero standing draw, config thresholds.
DEFAULT_LANE_MODE = TickLaneMode()


@dataclass(frozen=True)
class SelStep:
    """A latchup step: persistent extra current from ``tick`` onward."""

    tick: int
    delta_amps: float

    def __post_init__(self) -> None:
        if self.tick < 0:
            raise ConfigurationError("event tick must be >= 0")


@dataclass(frozen=True)
class SeuStrike:
    """A pipeline upset: poisons one core's datapath at ``tick``."""

    tick: int
    core: int

    def __post_init__(self) -> None:
        if self.tick < 0 or self.core < 0:
            raise ConfigurationError("event tick/core must be >= 0")


@dataclass(frozen=True)
class LaneEvents:
    """Per-lane radiation events for one run."""

    sels: tuple = ()
    seus: tuple = ()


class TickProgram:
    """A tick-indexed activity schedule shared by every lane.

    ``utilization`` has shape ``(ticks, n_cores)``; ``freq_override``
    (optional, shape ``(ticks,)``) pins every core to an exact DVFS
    level where it is not NaN; ``jitter`` (optional, shape ``(ticks,)``)
    overrides :attr:`TickConfig.util_jitter` per tick. ``sels``/``seus``
    apply to *every* lane (use :class:`LaneEvents` for per-lane ones).
    """

    def __init__(
        self,
        utilization,
        freq_override=None,
        jitter=None,
        sels=(),
        seus=(),
    ) -> None:
        self.utilization = np.ascontiguousarray(utilization, dtype=float)
        if self.utilization.ndim != 2 or self.utilization.shape[0] == 0:
            raise ConfigurationError(
                "utilization must have shape (ticks, n_cores) with ticks >= 1"
            )
        if (self.utilization < 0).any() or (self.utilization > 1).any():
            raise ConfigurationError("utilization must lie in [0, 1]")
        ticks = self.utilization.shape[0]
        self.freq_override = None
        if freq_override is not None:
            self.freq_override = np.ascontiguousarray(freq_override, dtype=float)
            if self.freq_override.shape != (ticks,):
                raise ConfigurationError("freq_override must have shape (ticks,)")
        self.jitter = None
        if jitter is not None:
            self.jitter = np.ascontiguousarray(jitter, dtype=float)
            if self.jitter.shape != (ticks,):
                raise ConfigurationError("jitter must have shape (ticks,)")
            if (self.jitter < 0).any():
                raise ConfigurationError("jitter amplitudes must be >= 0")
        self.sels = tuple(sels)
        self.seus = tuple(seus)

    @property
    def n_ticks(self) -> int:
        return self.utilization.shape[0]

    @property
    def n_cores(self) -> int:
        return self.utilization.shape[1]

    def jitter_amp(self, tick: int, default: float) -> float:
        return float(self.jitter[tick]) if self.jitter is not None else default

    @classmethod
    def constant(
        cls,
        utilization,
        ticks: int,
        n_cores: "int | None" = None,
        freq: "float | None" = None,
        sels=(),
        seus=(),
    ) -> "TickProgram":
        """Uniform activity: one utilization held for ``ticks`` ticks."""
        if np.ndim(utilization) == 0:
            if n_cores is None:
                raise ConfigurationError("scalar utilization needs n_cores")
            row = np.full(n_cores, float(utilization))
        else:
            row = np.asarray(utilization, dtype=float)
        base = np.tile(row, (ticks, 1))
        override = None if freq is None else np.full(ticks, float(freq))
        return cls(base, freq_override=override, sels=sels, seus=seus)


@dataclass(frozen=True)
class TickAlarm:
    """One ILD alarm onset during a tick run."""

    lane: int
    tick: int
    time: float
    mean_residual: float


@dataclass(frozen=True)
class TickDeath:
    """A lane crossing its thermal damage deadline."""

    lane: int
    tick: int
    time: float


@dataclass(frozen=True)
class TickRunReport:
    """What one :meth:`run` call observed, ordered by (tick, lane)."""

    lanes: int
    ticks: int
    alarms: tuple
    deaths: tuple

    def lane_alarms(self, lane: int) -> tuple:
        return tuple(a for a in self.alarms if a.lane == lane)


def merge_reports(reports) -> TickRunReport:
    """Merge per-machine scalar reports into one fleet report with the
    batch backend's (tick, lane) ordering."""
    reports = list(reports)
    alarms = sorted(
        (a for r in reports for a in r.alarms), key=lambda a: (a.tick, a.lane)
    )
    deaths = sorted(
        (d for r in reports for d in r.deaths), key=lambda d: (d.tick, d.lane)
    )
    return TickRunReport(
        lanes=sum(r.lanes for r in reports),
        ticks=max((r.ticks for r in reports), default=0),
        alarms=tuple(alarms),
        deaths=tuple(deaths),
    )


@dataclass
class TickState:
    """Engine-private per-lane state carried across :meth:`run` calls.

    This is everything the tick engine tracks *outside* the
    :class:`Machine` object graph; together with the machine state it
    defines the byte-identity contract (:func:`_engine_digest` hashes
    both). Field order is part of the digest and must not change.
    """

    filter_tail: np.ndarray
    ring: np.ndarray
    ring_pos: int
    streak: int
    run_sum: float
    in_alarm: bool
    alarm_count: int
    first_alarm_time: float
    sel_onset_time: float
    damage_deadline: float
    energy_joules: float
    ticks_run: int
    dead: bool

    @classmethod
    def fresh(cls, config: TickConfig) -> "TickState":
        return cls(
            filter_tail=np.full(config.filter_halfwidth_samples, np.inf),
            ring=np.zeros(config.window_ticks),
            ring_pos=0,
            streak=0,
            run_sum=0.0,
            in_alarm=False,
            alarm_count=0,
            first_alarm_time=float("nan"),
            sel_onset_time=float("nan"),
            damage_deadline=float("inf"),
            energy_joules=0.0,
            ticks_run=0,
            dead=False,
        )


def _engine_digest(
    rng_state,
    t,
    freq_idx,
    counters,
    busy,
    poisoned,
    damaged,
    extra,
    reboots,
    power_cycles,
    state: TickState,
) -> str:
    """SHA-256 over one lane's engine-visible state (machine hot state
    + RNG stream position + :class:`TickState`). Both backends feed the
    same canonical values, so equal digests mean equal lanes."""
    h = hashlib.sha256()
    _digest_update(
        h,
        {
            "rng": rng_state,
            "t": float(t),
            "freq_idx": np.ascontiguousarray(freq_idx, dtype=np.int64),
            "counters": np.ascontiguousarray(counters, dtype=np.int64),
            "busy": np.ascontiguousarray(busy, dtype=float),
            "poisoned": np.ascontiguousarray(poisoned, dtype=bool),
            "damaged": np.ascontiguousarray(damaged, dtype=bool),
            "extra": float(extra),
            "reboots": int(reboots),
            "power_cycles": int(power_cycles),
        },
    )
    _digest_update(h, state)
    return h.hexdigest()


class _TickKernel:
    """Shape-generic tick arithmetic shared by both backends.

    Every method works identically on ``(C,)`` arrays (one machine
    tick) and ``(T, N, C)`` arrays (a batch segment): only elementwise
    IEEE operations and fixed-length trailing-axis reductions, so
    results are bitwise independent of the leading shape.
    Per-DVFS-level current tables are precomputed here so no ``**``
    runs per tick.
    """

    def __init__(self, spec: MachineSpec, config: TickConfig) -> None:
        core = spec.core_spec
        power = spec.power_params
        sensor = spec.sensor_params
        self.config = config
        self.level_floats = tuple(float(f) for f in core.freq_levels)
        self.levels = np.array(self.level_floats)
        self._level_index = {f: i for i, f in enumerate(self.level_floats)}
        rel = self.levels / self.level_floats[-1]
        self.level_current = power.core_max_current * rel**power.freq_exponent
        self.level_static = power.static_freq_current * rel
        self.idle_current = power.idle_current
        self.base_ipc = core.base_ipc
        self.instr_scale = core.base_ipc * config.dt
        self.penalty = core.branch_miss_penalty_cycles
        self.bus_per_instr = core.bus_cycles_per_instruction
        self.noise_sigma = sensor.noise_sigma
        self.spike_probability = sensor.spike_probability
        self.spike_min = sensor.spike_min
        self.spike_span = sensor.spike_max - sensor.spike_min
        self.lsb = sensor.lsb
        self.vdt = power.supply_voltage * config.dt
        self.thermal = config.thermal
        self.window = config.window_ticks
        self.halfwidth = config.filter_halfwidth_samples
        self.residual_threshold = config.residual_threshold_amps
        self.quiescence_utilization = config.quiescence_utilization

    def index_of(self, freq: float) -> int:
        """Exact DVFS level index of ``freq`` (raises if not a level)."""
        try:
            return self._level_index[float(freq)]
        except KeyError:
            raise ConfigurationError(
                f"frequency {freq:g} Hz is not a DVFS level"
            ) from None

    def override_indices(self, program: TickProgram) -> "np.ndarray | None":
        """Per-tick override level indices (-1 = governor decides)."""
        if program.freq_override is None:
            return None
        out = np.full(program.n_ticks, -1, dtype=np.int64)
        for k, value in enumerate(program.freq_override):
            if not math.isnan(value):
                out[k] = self.index_of(float(value))
        return out

    def freq_index(self, util: np.ndarray) -> np.ndarray:
        """Steady-state ``ondemand`` level per core — the same formula
        as :meth:`OndemandGovernor.steady_state_freq_array`."""
        cfg = self.config
        span = (util - cfg.down_threshold) / (cfg.up_threshold - cfg.down_threshold)
        n = len(self.level_floats) - 1
        return np.clip(np.round(span * n), 0, n).astype(np.int64)

    def charge(self, util: np.ndarray, idx: np.ndarray):
        """Instruction/cycle/bus/branch accounting for one tick — the
        array form of :meth:`Core.execute` with the engine's fixed
        branch statistics."""
        cfg = self.config
        freq = self.levels[idx]
        instr = ((util * freq) * self.instr_scale).astype(np.int64)
        branches = (instr * cfg.branch_fraction).astype(np.int64)
        misses = (branches * cfg.branch_miss_rate).astype(np.int64)
        cycles = (instr / self.base_ipc + misses * self.penalty).astype(np.int64) + 1
        seconds = cycles / freq
        bus = (instr * self.bus_per_instr).astype(np.int64)
        return instr, branches, misses, cycles, bus, seconds

    def board_current(self, util: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Active board current — :meth:`PowerModel.board_current` with
        zero DRAM/disk/branch-miss terms, via per-level tables."""
        per_core = self.level_current[idx] * util + self.level_static[idx]
        return self.idle_current + per_core.sum(axis=-1)

    def sense(self, total, noise, spike_u, spike_mag) -> np.ndarray:
        """Sensor fine samples for one tick.

        Engine-private variant of :meth:`CurrentSensor.sample`: spike
        magnitudes are *always* drawn (fixed-count blocks) and applied
        through a mask, so the draw count never depends on data — the
        requirement for lockstep lanes.
        """
        fine = np.asarray(total)[..., None] + self.noise_sigma * noise
        magnitude = self.spike_min + self.spike_span * spike_mag
        fine = np.where(spike_u < self.spike_probability, fine + magnitude, fine)
        fine = np.maximum(fine, 0.0)
        return np.round(fine / self.lsb) * self.lsb


def _index_events(program: TickProgram, events: "LaneEvents | None", n_ticks: int):
    """Tick -> list indices for one scalar lane (program then lane).

    Every event is validated here, before any tick runs, so a bad
    event never leaves a lane half-advanced."""
    sel_by_tick: "dict[int, list]" = {}
    seu_by_tick: "dict[int, list]" = {}
    merged_sels = program.sels + (events.sels if events is not None else ())
    merged_seus = program.seus + (events.seus if events is not None else ())
    for ev in merged_sels:
        if ev.tick >= n_ticks:
            raise ConfigurationError(
                f"SEL at tick {ev.tick} beyond program end {n_ticks}"
            )
        sel_by_tick.setdefault(ev.tick, []).append(ev.delta_amps)
    for ev in merged_seus:
        if ev.tick >= n_ticks:
            raise ConfigurationError(
                f"SEU at tick {ev.tick} beyond program end {n_ticks}"
            )
        if ev.core >= program.n_cores:
            raise ConfigurationError(
                f"SEU on core {ev.core} of a {program.n_cores}-core program"
            )
        seu_by_tick.setdefault(ev.tick, []).append(ev.core)
    return sel_by_tick, seu_by_tick


class FleetTicker:
    """Canonical scalar tick engine over one real :class:`Machine`.

    Advances the machine tick by tick with per-machine arithmetic,
    drawing from ``machine.rng`` in the engine's block discipline. The
    batch backend is verified against this path digest-for-digest.
    """

    def __init__(
        self,
        machine: Machine,
        config: "TickConfig | None" = None,
        state: "TickState | None" = None,
        lane_id: int = 0,
        mode: "TickLaneMode | None" = None,
    ) -> None:
        self.machine = machine
        self.config = config or TickConfig()
        self.kernel = _TickKernel(machine.spec, self.config)
        self.mode = mode if mode is not None else DEFAULT_LANE_MODE
        if state is None:
            state = TickState.fresh(self.config)
            state.dead = bool(all(core.damaged for core in machine.cores))
        else:
            if state.ring.shape != (self.kernel.window,):
                raise ConfigurationError(
                    "carried TickState ring does not match this config's window"
                )
            if state.filter_tail.shape != (self.kernel.halfwidth,):
                raise ConfigurationError(
                    "carried TickState filter tail does not match this config"
                )
        self.state = state
        self.lane_id = lane_id

    def run(
        self,
        program: TickProgram,
        events: "LaneEvents | None" = None,
    ) -> TickRunReport:
        """Advance through ``program``, returning alarms and deaths."""
        m = self.machine
        st = self.state
        kernel = self.kernel
        cfg = self.config
        if program.n_cores != m.spec.n_cores:
            raise ConfigurationError(
                f"program has {program.n_cores} cores; machine has {m.spec.n_cores}"
            )
        n_ticks = program.n_ticks
        n_samples = cfg.samples_per_tick
        window_ticks = kernel.window
        halfwidth = kernel.halfwidth
        sel_by_tick, seu_by_tick = _index_events(program, events, n_ticks)
        ov_idx = kernel.override_indices(program)
        base = program.utilization
        mode_extra = float(self.mode.extra_current_amps)
        threshold = (
            kernel.residual_threshold
            if self.mode.residual_threshold_amps is None
            else float(self.mode.residual_threshold_amps)
        )
        rng = m.rng
        n_cores = m.spec.n_cores
        alarms: list = []
        deaths: list = []

        for k0 in range(0, n_ticks, cfg.block_ticks):
            if st.dead:
                break  # frozen lane: no further draws, no further ticks
            k1 = min(n_ticks, k0 + cfg.block_ticks)
            block = k1 - k0
            jit = rng.normal(0.0, 1.0, (block, n_cores))
            noise = rng.normal(0.0, 1.0, (block, n_samples))
            spike_u = rng.random((block, n_samples))
            spike_m = rng.random((block, n_samples))
            for b in range(block):
                if st.dead:
                    break  # died mid-block: block draws already consumed
                k = k0 + b
                t = m.clock.now
                # 1. radiation events scheduled for this tick
                for delta in sel_by_tick.get(k, ()):
                    m.extra_current_draw += delta
                    if math.isnan(st.sel_onset_time):
                        st.sel_onset_time = t
                    deadline = t + time_to_damage(
                        kernel.thermal, float(m.extra_current_draw)
                    )
                    st.damage_deadline = min(st.damage_deadline, deadline)
                for core_index in seu_by_tick.get(k, ()):
                    m.cores[core_index].poisoned = True
                # 2. utilization with per-tick jitter
                amp = program.jitter_amp(k, cfg.util_jitter)
                util = np.clip(base[k] + amp * jit[b], 0.0, 1.0)
                # 3. DVFS level
                if ov_idx is not None and ov_idx[k] >= 0:
                    idx = np.full(n_cores, ov_idx[k], dtype=np.int64)
                else:
                    idx = kernel.freq_index(util)
                # 4. charge the cores
                instr, branches, misses, cycles, bus, seconds = kernel.charge(
                    util, idx
                )
                for c, core in enumerate(m.cores):
                    counters = core.counters
                    counters.instructions += int(instr[c])
                    counters.cycles += int(cycles[c])
                    counters.bus_cycles += int(bus[c])
                    counters.branches += int(branches[c])
                    counters.branch_misses += int(misses[c])
                    core.busy_seconds += float(seconds[c])
                    core.freq = kernel.level_floats[int(idx[c])]
                # 5. currents and sensor samples (the mode's standing
                # draw is part of the *modeled* active current, so it
                # cancels out of the ILD residual; ``x + 0.0`` is
                # bitwise x, so the default mode changes nothing)
                active = kernel.board_current(util, idx) + mode_extra
                total = active + m.extra_current_draw
                fine = kernel.sense(total, noise[b], spike_u[b], spike_m[b])
                # 6. rolling-minimum filter
                window = np.concatenate([st.filter_tail, fine])
                filtered = window.min()
                st.filter_tail = window[window.size - halfwidth:]
                # 7. ILD residual persistence
                residual = filtered - active
                quiescent = util.mean() <= kernel.quiescence_utilization
                if quiescent:
                    st.streak += 1
                    old = st.ring[st.ring_pos]
                    st.ring[st.ring_pos] = residual
                    st.ring_pos = (st.ring_pos + 1) % window_ticks
                    delta = residual if st.streak <= window_ticks else residual - old
                    st.run_sum = float(st.run_sum + delta)
                    if st.streak >= window_ticks:
                        mean = st.run_sum / window_ticks
                        over = bool(mean > threshold)
                        if over and not st.in_alarm:
                            at = t + cfg.dt
                            st.alarm_count += 1
                            if math.isnan(st.first_alarm_time):
                                st.first_alarm_time = at
                            alarms.append(
                                TickAlarm(
                                    lane=self.lane_id,
                                    tick=k,
                                    time=float(at),
                                    mean_residual=float(mean),
                                )
                            )
                        st.in_alarm = over
                else:
                    st.streak = 0
                    st.run_sum = 0.0
                    st.ring_pos = 0
                    st.in_alarm = False
                # 8. energy, clock, thermal deadline
                st.energy_joules = float(st.energy_joules + total * kernel.vdt)
                m.clock.advance(cfg.dt)
                st.ticks_run += 1
                if m.clock.now >= st.damage_deadline:
                    st.dead = True
                    for core in m.cores:
                        core.damaged = True
                    deaths.append(
                        TickDeath(
                            lane=self.lane_id, tick=k, time=float(m.clock.now)
                        )
                    )
        return TickRunReport(
            lanes=1, ticks=n_ticks, alarms=tuple(alarms), deaths=tuple(deaths)
        )

    def state_digest(self) -> str:
        """Engine digest of this lane (machine hot state + TickState)."""
        m = self.machine
        kernel = self.kernel
        freq_idx = np.array([kernel.index_of(c.freq) for c in m.cores], np.int64)
        counters = np.array(
            [
                [getattr(core.counters, name) for name in _COUNTER_FIELDS]
                for core in m.cores
            ],
            np.int64,
        )
        return _engine_digest(
            m.rng.bit_generator.state,
            m.clock.now,
            freq_idx,
            counters,
            np.array([c.busy_seconds for c in m.cores]),
            np.array([c.poisoned for c in m.cores], bool),
            np.array([c.damaged for c in m.cores], bool),
            m.extra_current_draw,
            m.reboots,
            m.power_cycles,
            self.state,
        )


class BatchMachines:
    """N machine lanes advanced in lockstep as packed arrays.

    Construct by *adopting* live machines (``BatchMachines(machines)``
    — their ``rng`` objects become the lane streams, and
    :meth:`sync` writes engine state back into them) or lane-lightly
    via :meth:`from_specs` (machines materialise lazily on
    :meth:`machine`/:meth:`peel`).
    """

    def __init__(
        self, machines, config: "TickConfig | None" = None
    ) -> None:
        machines = list(machines)
        if not machines:
            raise ConfigurationError("need at least one machine")
        spec = machines[0].spec
        for m in machines[1:]:
            if m.spec != spec:
                raise ConfigurationError(
                    "batched machines must share one spec; got "
                    f"{spec.name!r} and {m.spec.name!r}"
                )
        if len({id(m.rng) for m in machines}) != len(machines):
            raise ConfigurationError("batched machines must not share RNGs")
        self._init_lanes(spec, [m.rng for m in machines], config)
        self._machines = machines
        kernel = self.kernel
        for i, m in enumerate(machines):
            self._t[i] = m.clock.now
            self._extra[i] = m.extra_current_draw
            self._reboots[i] = m.reboots
            self._power_cycles[i] = m.power_cycles
            for c, core in enumerate(m.cores):
                self._freq_idx[i, c] = kernel.index_of(core.freq)
                for j, name in enumerate(_COUNTER_FIELDS):
                    self._counters[i, c, j] = getattr(core.counters, name)
                self._busy[i, c] = core.busy_seconds
                self._poisoned[i, c] = core.poisoned
                self._damaged[i, c] = core.damaged
            self._dead[i] = bool(self._damaged[i].all())

    def _init_lanes(self, spec: MachineSpec, rngs, config) -> None:
        self.spec = spec
        self.config = config or TickConfig()
        self.kernel = _TickKernel(spec, self.config)
        n = len(rngs)
        n_cores = spec.n_cores
        self._rngs = list(rngs)
        self._machines: "list[Machine | None]" = [None] * n
        self._t = np.zeros(n)
        self._extra = np.zeros(n)
        self._reboots = np.zeros(n, np.int64)
        self._power_cycles = np.zeros(n, np.int64)
        self._freq_idx = np.zeros((n, n_cores), np.int64)
        self._counters = np.zeros((n, n_cores, len(_COUNTER_FIELDS)), np.int64)
        self._busy = np.zeros((n, n_cores))
        self._poisoned = np.zeros((n, n_cores), bool)
        self._damaged = np.zeros((n, n_cores), bool)
        self._tails = np.full((n, self.kernel.halfwidth), np.inf)
        self._rings = np.zeros((n, self.kernel.window))
        self._ring_pos = np.zeros(n, np.int64)
        self._streak = np.zeros(n, np.int64)
        self._run_sum = np.zeros(n)
        self._in_alarm = np.zeros(n, bool)
        self._alarm_count = np.zeros(n, np.int64)
        self._first_alarm = np.full(n, np.nan)
        self._sel_onset = np.full(n, np.nan)
        self._deadline = np.full(n, np.inf)
        self._energy = np.zeros(n)
        self._ticks_run = np.zeros(n, np.int64)
        self._dead = np.zeros(n, bool)
        self._peeled = np.zeros(n, bool)
        self._lane_modes: "list[TickLaneMode]" = [DEFAULT_LANE_MODE] * n
        self._mode_extra = np.zeros(n)
        self._mode_threshold = np.full(n, self.kernel.residual_threshold)

    @classmethod
    def from_specs(
        cls,
        spec: MachineSpec,
        seeds=None,
        config: "TickConfig | None" = None,
        *,
        rngs=None,
    ) -> "BatchMachines":
        """Lanes from a spec and per-lane seeds (or ready Generators —
        e.g. per-trial ``SeedSequence`` streams from
        :func:`repro.campaign.trial_rng`) without materialising any
        :class:`Machine` up front."""
        if (seeds is None) == (rngs is None):
            raise ConfigurationError("pass exactly one of seeds/rngs")
        if rngs is None:
            rngs = [np.random.default_rng(int(s)) for s in seeds]
        else:
            rngs = list(rngs)
        if not rngs:
            raise ConfigurationError("need at least one lane")
        batch = cls.__new__(cls)
        batch._init_lanes(spec, rngs, config)
        return batch

    # ------------------------------------------------------------------
    @property
    def n_lanes(self) -> int:
        return len(self._rngs)

    @property
    def active_lanes(self) -> "list[int]":
        """Lanes still advanced by :meth:`run` (not dead, not peeled)."""
        return [
            int(i) for i in np.nonzero(~self._dead & ~self._peeled)[0]
        ]

    def set_lane_modes(self, modes) -> None:
        """Apply per-lane redundancy modes (the per-lane mode masks).

        ``modes`` is a sequence of :class:`TickLaneMode | None`, one
        per lane (``None`` means the default mode). Modes are engine
        configuration, not lane state: they change the arithmetic from
        the next tick on, do not enter digests, and follow the lane
        through :meth:`peel`.
        """
        modes = list(modes)
        if len(modes) != self.n_lanes:
            raise ConfigurationError(
                f"got {len(modes)} modes for {self.n_lanes} lanes"
            )
        kernel = self.kernel
        for lane, mode in enumerate(modes):
            mode = mode if mode is not None else DEFAULT_LANE_MODE
            self._lane_modes[lane] = mode
            self._mode_extra[lane] = mode.extra_current_amps
            self._mode_threshold[lane] = (
                kernel.residual_threshold
                if mode.residual_threshold_amps is None
                else mode.residual_threshold_amps
            )

    def lane_mode(self, lane: int) -> TickLaneMode:
        """The lane's current redundancy-mode overlay."""
        return self._lane_modes[lane]

    def lane_state(self, lane: int) -> TickState:
        """A detached :class:`TickState` copy of one lane."""
        return TickState(
            filter_tail=self._tails[lane].copy(),
            ring=self._rings[lane].copy(),
            ring_pos=int(self._ring_pos[lane]),
            streak=int(self._streak[lane]),
            run_sum=float(self._run_sum[lane]),
            in_alarm=bool(self._in_alarm[lane]),
            alarm_count=int(self._alarm_count[lane]),
            first_alarm_time=float(self._first_alarm[lane]),
            sel_onset_time=float(self._sel_onset[lane]),
            damage_deadline=float(self._deadline[lane]),
            energy_joules=float(self._energy[lane]),
            ticks_run=int(self._ticks_run[lane]),
            dead=bool(self._dead[lane]),
        )

    # ------------------------------------------------------------------
    def run(self, program: TickProgram, lane_events=None) -> TickRunReport:
        """Advance every active lane through ``program`` in lockstep.

        ``lane_events`` is an optional sequence of
        :class:`LaneEvents | None`, one per lane. Program-level events
        apply to every lane; per lane, program events precede lane
        events at the same tick (matching :meth:`FleetTicker.run`).

        Each RNG block is cut into segments at event ticks, and each
        segment is evaluated in lane chunks as whole arrays over its
        ticks (:meth:`_advance`).
        """
        cfg = self.config
        kernel = self.kernel
        n = self.n_lanes
        n_cores = self.spec.n_cores
        n_samples = cfg.samples_per_tick
        if program.n_cores != n_cores:
            raise ConfigurationError(
                f"program has {program.n_cores} cores; spec has {n_cores}"
            )
        if lane_events is not None and len(lane_events) != n:
            raise ConfigurationError(
                f"lane_events has {len(lane_events)} entries for {n} lanes"
            )
        n_ticks = program.n_ticks
        ov_idx = kernel.override_indices(program)
        amp = (
            program.jitter
            if program.jitter is not None
            else np.full(n_ticks, cfg.util_jitter)
        )
        # Merge program-level and per-lane events into tick indices.
        sel_by_tick: "dict[int, list]" = {}
        seu_by_tick: "dict[int, list]" = {}
        for lane in range(n):
            events = lane_events[lane] if lane_events is not None else None
            lane_sels, lane_seus = _index_events(program, events, n_ticks)
            for k, deltas in lane_sels.items():
                sel_by_tick.setdefault(k, []).extend(
                    (lane, delta) for delta in deltas
                )
            for k, cores in lane_seus.items():
                seu_by_tick.setdefault(k, []).extend(
                    (lane, core) for core in cores
                )
        event_ticks = sorted(set(sel_by_tick) | set(seu_by_tick))
        alarms: list = []
        deaths: list = []

        for k0 in range(0, n_ticks, cfg.block_ticks):
            rows = np.nonzero(~self._dead & ~self._peeled)[0]
            if not rows.size:
                break
            k1 = min(n_ticks, k0 + cfg.block_ticks)
            block = k1 - k0
            draws = tuple(
                np.empty((rows.size, block, width))
                for width in (n_cores, n_samples, n_samples, n_samples)
            )
            jit, noise, spike_u, spike_m = draws
            for r, lane in enumerate(rows):
                rng = self._rngs[lane]
                jit[r] = rng.normal(0.0, 1.0, (block, n_cores))
                noise[r] = rng.normal(0.0, 1.0, (block, n_samples))
                spike_u[r] = rng.random((block, n_samples))
                spike_m[r] = rng.random((block, n_samples))
            first = bisect.bisect_right(event_ticks, k0)
            last = bisect.bisect_left(event_ticks, k1)
            bounds = [k0, *event_ticks[first:last], k1]
            for s0, s1 in zip(bounds, bounds[1:]):
                live = ~self._dead & ~self._peeled
                lanes = np.nonzero(live)[0]
                if not lanes.size:
                    break
                self._apply_events(
                    sel_by_tick.get(s0, ()), seu_by_tick.get(s0, ()), live
                )
                lane_rows = np.searchsorted(rows, lanes)
                step = max(1, _CHUNK_LANE_TICKS // (s1 - s0))
                for c in range(0, lanes.size, step):
                    self._advance(
                        program, ov_idx, amp, draws, lanes[c : c + step],
                        lane_rows[c : c + step], s0, s1, s0 - k0, alarms, deaths,
                    )
        alarms.sort(key=lambda a: (a.tick, a.lane))
        deaths.sort(key=lambda d: (d.tick, d.lane))
        return TickRunReport(
            lanes=n, ticks=n_ticks, alarms=tuple(alarms), deaths=tuple(deaths)
        )

    def _apply_events(self, sels, seus, live) -> None:
        """Radiation events of one tick, on live lanes only."""
        kernel = self.kernel
        for lane, delta in sels:
            if not live[lane]:
                continue
            self._extra[lane] += delta
            if math.isnan(self._sel_onset[lane]):
                self._sel_onset[lane] = self._t[lane]
            deadline = self._t[lane] + time_to_damage(
                kernel.thermal, float(self._extra[lane])
            )
            self._deadline[lane] = min(self._deadline[lane], deadline)
        for lane, core_index in seus:
            if live[lane]:
                self._poisoned[lane, core_index] = True

    def _advance(
        self, program, ov_idx, amp, draws, lanes, rows, s0, s1, b0,
        alarms, deaths,
    ) -> None:
        """Advance ``lanes`` through ticks ``[s0, s1)`` of one segment.

        ``rows`` locates the lanes in the block's ``draws``, whose tick
        ``b0`` is program tick ``s0``. No event falls inside the
        segment, so every lane's damage deadline is constant and its
        last tick is the first one whose clock reaches it (or the
        segment's last): every per-tick quantity is computed for the
        whole segment as a ``(ticks, lanes, ...)`` array, and the
        lane's state is gathered at its last tick. Ticks lead so that
        the sums and accumulates along them run over contiguous rows.
        """
        cfg = self.config
        kernel = self.kernel
        window = kernel.window
        halfwidth = kernel.halfwidth
        n_samples = cfg.samples_per_tick
        n_lanes, n_ticks = lanes.size, s1 - s0
        if rows[-1] - rows[0] == rows.size - 1:
            rows = slice(int(rows[0]), int(rows[-1]) + 1)  # views, no copies
        ticks = np.arange(n_ticks)[:, None]
        at = np.arange(n_lanes)
        # 8. clock (t + dt, sequentially) and the first tick past the
        # damage deadline: the lane's last tick
        clock = np.full((n_ticks, n_lanes), cfg.dt)
        clock[0] += self._t[lanes]
        np.add.accumulate(clock, axis=0, out=clock)
        dying = clock >= self._deadline[lanes]
        died = dying.any(axis=0)
        end = np.where(died, dying.argmax(axis=0), n_ticks - 1)
        valid = ticks <= end
        self._t[lanes] = clock[end, at]
        self._ticks_run[lanes] += end + 1
        # 2-4. utilization, DVFS, charging; the charge arrays are
        # reduced into the lane state at once, so they die young
        jit, noise, spike_u, spike_m = (
            d[rows, b0 : b0 + n_ticks].swapaxes(0, 1) for d in draws
        )
        util = np.multiply(amp[s0:s1, None, None], jit, out=np.empty(jit.shape))
        util += program.utilization[s0:s1, None, :]
        np.clip(util, 0.0, 1.0, out=util)
        idx = kernel.freq_index(util)
        if ov_idx is not None:
            ov = ov_idx[s0:s1, None, None]
            if (ov >= 0).any():
                idx = np.where(ov >= 0, ov, idx)
        self._freq_idx[lanes] = idx[end, at]
        instr, branches, misses, cycles, bus, seconds = kernel.charge(util, idx)
        counts = (instr, cycles, bus, branches, misses)  # _COUNTER_FIELDS order
        if died.any():
            for column in counts:
                column[~valid] = 0
        self._counters[lanes, :, : len(counts)] += np.stack(
            [column.sum(axis=0) for column in counts], axis=-1
        )
        del instr, branches, misses, cycles, bus, counts
        seconds[0] += self._busy[lanes]
        np.add.accumulate(seconds, axis=0, out=seconds)
        self._busy[lanes] = seconds[end, at]
        del seconds
        # 5. currents and sensor samples
        active = kernel.board_current(util, idx) + self._mode_extra[lanes]
        quiet = util.mean(axis=-1) <= kernel.quiescence_utilization
        del util, idx
        total = active + self._extra[lanes]
        energy = total * kernel.vdt
        energy[0] += self._energy[lanes]
        np.add.accumulate(energy, axis=0, out=energy)
        self._energy[lanes] = energy[end, at]
        # 6. rolling minimum over each lane's sample stream (carried
        # tail first): tick j's window is the halfwidth + S samples
        # that start at sample j * S
        fine = kernel.sense(total, noise, spike_u, spike_m)
        stream = np.concatenate(
            [self._tails[lanes], fine.swapaxes(0, 1).reshape(n_lanes, -1)], axis=1
        )
        del fine
        span = n_ticks * n_samples
        filtered = stream[:, 0:span:n_samples].copy()
        for offset in range(1, halfwidth + n_samples):
            np.minimum(
                filtered, stream[:, offset : offset + span : n_samples],
                out=filtered,
            )
        tail = (end[:, None] + 1) * n_samples + np.arange(halfwidth)
        self._tails[lanes] = stream[at[:, None], tail]
        del stream
        residual = filtered.T - active
        # 7. ILD persistence. The streak counts quiescent ticks since the
        # last reset (the lane's carried streak puts a virtual one before
        # the segment). Both engines keep ring_pos == streak % W and
        # in_alarm only while streak >= W, so a quiescent tick writes
        # ring slot (streak - 1) % W.
        last_reset = np.where(quiet, -1 - self._streak[lanes], ticks)
        streak = ticks - np.maximum.accumulate(last_reset, axis=0)
        slot = (streak - 1) % window
        # The slot's old value was written W ticks earlier: in this
        # segment, or before it (then it is still in the ring).
        head = min(window, n_ticks)
        old = np.empty((n_ticks, n_lanes))
        old[:head] = self._rings[lanes, slot[:head]]
        old[head:] = residual[: n_ticks - head]
        delta = np.where(quiet & (streak > window), residual - old, residual)
        # The running residual sum is the one true recurrence: a
        # non-quiescent tick resets it to 0.0, so it only has to run
        # over ticks where some lane is quiescent.
        run_sum = np.zeros((n_ticks, n_lanes))
        acc = self._run_sum[lanes]
        after = 0
        for j in np.flatnonzero(quiet.any(axis=1)).tolist():
            if j != after:
                acc = 0.0  # every lane reset on the ticks skipped
            acc = run_sum[j] = np.where(quiet[j], acc + delta[j], 0.0)
            after = j + 1
        mean = run_sum / window
        # ``over`` is also the alarm state after each tick: a reset
        # clears it, and it cannot be set before the streak is ready.
        over = quiet & (streak >= window) & (mean > self._mode_threshold[lanes])
        was = np.empty_like(over)
        was[0] = self._in_alarm[lanes]
        was[1:] = over[:-1]
        onset = over & ~was & valid
        # Ring writes that survive the segment: the last write to a slot
        # within its run that no later run (restarting at slot 0) reaches.
        written = quiet & valid
        stop = np.minimum.accumulate(
            np.where(quiet, n_ticks, ticks)[::-1], axis=0
        )[::-1]
        stop = np.minimum(stop, end + 1)
        run_len = np.where(written & (streak == 1), stop - ticks, 0)
        later = np.zeros_like(run_len)
        later[:-1] = np.maximum.accumulate(run_len[:0:-1], axis=0)[::-1]
        final = written & (ticks + window >= stop) & (slot >= later)
        fj, fl = np.nonzero(final)
        self._rings[lanes[fl], slot[fj, fl]] = residual[fj, fl]

        # Commit the ILD state at every lane's last tick.
        self._streak[lanes] = streak[end, at]
        self._ring_pos[lanes] = streak[end, at] % window
        self._run_sum[lanes] = run_sum[end, at]
        self._in_alarm[lanes] = over[end, at]
        self._alarm_count[lanes] += onset.sum(axis=0)
        oj, ol = np.nonzero(onset)
        for j, i in zip(oj.tolist(), ol.tolist()):
            lane = int(lanes[i])
            time = float(clock[j, i])
            if math.isnan(self._first_alarm[lane]):
                self._first_alarm[lane] = time
            alarms.append(
                TickAlarm(
                    lane=lane,
                    tick=s0 + j,
                    time=time,
                    mean_residual=float(mean[j, i]),
                )
            )
        for i in np.nonzero(died)[0].tolist():
            lane = int(lanes[i])
            self._dead[lane] = True
            self._damaged[lane, :] = True
            deaths.append(
                TickDeath(
                    lane=lane, tick=s0 + int(end[i]), time=float(clock[end[i], i])
                )
            )

    # ------------------------------------------------------------------
    def machine(self, lane: int) -> Machine:
        """The lane's real :class:`Machine`, materialised if needed and
        synced to the lane's current engine state."""
        m = self._machines[lane]
        if m is None:
            m = Machine(self.spec, seed=0)
            m.rng = self._rngs[lane]
            self._machines[lane] = m
        self._sync_lane(m, lane)
        return m

    def _sync_lane(self, m: Machine, lane: int) -> None:
        m.clock.advance_to(float(self._t[lane]))
        kernel = self.kernel
        for c, core in enumerate(m.cores):
            counters = core.counters
            for j, name in enumerate(_COUNTER_FIELDS):
                setattr(counters, name, int(self._counters[lane, c, j]))
            core.busy_seconds = float(self._busy[lane, c])
            core.freq = kernel.level_floats[int(self._freq_idx[lane, c])]
            core.poisoned = bool(self._poisoned[lane, c])
            core.damaged = bool(self._damaged[lane, c])
        m.extra_current_draw = float(self._extra[lane])

    def sync(self) -> None:
        """Write engine state back into every materialised machine (all
        adopted machines, plus lanes touched via :meth:`machine`)."""
        for lane, m in enumerate(self._machines):
            if m is not None:
                self._sync_lane(m, lane)

    def peel(self, lanes) -> "list[FleetTicker]":
        """Remove lanes from the batch for scalar continuation.

        Each peeled lane is materialised into its :class:`Machine`
        (sharing the lane's RNG stream, so draws continue seamlessly)
        and wrapped in a :class:`FleetTicker` carrying the lane's
        :class:`TickState`. The batch never touches peeled lanes again.
        """
        tickers = []
        for lane in lanes:
            if self._peeled[lane]:
                raise SimulationError(f"lane {lane} is already peeled")
            m = self.machine(lane)
            state = self.lane_state(lane)
            self._peeled[lane] = True
            tickers.append(
                FleetTicker(
                    m,
                    self.config,
                    state=state,
                    lane_id=int(lane),
                    mode=self._lane_modes[lane],
                )
            )
        return tickers

    # ------------------------------------------------------------------
    def state_digest(self, lane: int) -> str:
        """Engine digest of one lane — comparable bit-for-bit with
        :meth:`FleetTicker.state_digest`."""
        return _engine_digest(
            self._rngs[lane].bit_generator.state,
            self._t[lane],
            self._freq_idx[lane],
            self._counters[lane],
            self._busy[lane],
            self._poisoned[lane],
            self._damaged[lane],
            self._extra[lane],
            self._reboots[lane],
            self._power_cycles[lane],
            self.lane_state(lane),
        )

    def lane_digests(self) -> "list[str]":
        return [self.state_digest(lane) for lane in range(self.n_lanes)]

    def __repr__(self) -> str:
        return (
            f"BatchMachines({self.spec.name!r}, {self.n_lanes} lanes, "
            f"{len(self.active_lanes)} active)"
        )
