"""Vectorized telemetry traces for long-duration SEL experiments.

The ILD evaluation runs for hundreds of hours of simulated time at a
1 ms metric tick (§4.1) — far too many steps for the discrete
functional machine. This module generates statistically equivalent
traces directly: per-tick Table 1 counter frames, the true board
current implied by that activity (through the shared
:class:`~repro.sim.power.PowerModel`), SEL current steps, and the
fine-grained noisy sensor samples the rolling-minimum filter consumes.

A trace is built from :class:`ActivitySegment`\\ s — "quiescent for
170 s", "navigation workload burst for 90 s" — so spacecraft duty
cycles (bursty compute between comm windows, §3.1) are first-class.
Housekeeping chores (log rotation, interrupt storms) are injected into
quiescent segments: they move the *counters* as well as the current,
which is precisely the signal black-box detectors cannot use.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..errors import ConfigurationError
from .dvfs import OndemandGovernor
from .perfcounters import CounterFrame, sum_cores
from .power import PowerModel
from .sensor import CurrentSensor


@dataclass(frozen=True)
class TelemetryConfig:
    """Sampling geometry shared by every trace in an experiment."""

    tick: float = 1e-3  # counter sampling period (paper: 1 ms)
    samples_per_tick: int = 4  # sensor samples per tick (250 µs apart)
    n_cores: int = 4

    def __post_init__(self) -> None:
        if self.tick <= 0 or self.samples_per_tick <= 0 or self.n_cores <= 0:
            raise ConfigurationError("tick, samples_per_tick, n_cores must be positive")


@dataclass(frozen=True)
class ActivitySegment:
    """A span of homogeneous activity.

    ``core_util`` gives mean utilization per core in [0, 1]; per-tick
    samples jitter around it. ``quiescent`` marks the *ground truth*
    the paper's quiescence definition targets: "the target application
    not running or suspended, while normal OS or housekeeping tasks
    are still being run".
    """

    duration: float
    core_util: tuple
    label: str = "workload"
    quiescent: bool = False
    util_jitter: float = 0.04
    dram_gbs: float = 0.0
    disk_read_iops: float = 0.0
    disk_write_iops: float = 0.0
    branch_miss_rate: float = 0.03
    cache_hit_rate: float = 0.965
    #: Pin every core to this frequency instead of letting the governor
    #: pick one from utilization (used by the Fig 5 DVFS staircase).
    freq_override: "float | None" = None

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ConfigurationError("segment duration must be positive")
        if any(not 0 <= u <= 1 for u in self.core_util):
            raise ConfigurationError("core_util entries must lie in [0, 1]")
        if self.freq_override is not None and self.freq_override <= 0:
            raise ConfigurationError("freq_override must be positive")


def quiescent_segment(duration: float, n_cores: int = 4) -> ActivitySegment:
    """The canonical idle segment: all cores near zero utilization."""
    return ActivitySegment(
        duration=duration,
        core_util=(0.012,) * n_cores,
        label="quiescent",
        quiescent=True,
        util_jitter=0.008,
        disk_read_iops=0.4,
        disk_write_iops=0.8,
    )


@dataclass(frozen=True)
class HousekeepingParams:
    """Background OS chores during quiescence (§2.1: "system tasks
    (e.g. log rotation, interrupts) that also cause current spikes")."""

    events_per_hour: float = 110.0
    min_duration: float = 0.05
    max_duration: float = 0.60
    min_util: float = 0.10
    max_util: float = 0.55
    disk_write_iops: float = 160.0

    def __post_init__(self) -> None:
        if self.min_duration > self.max_duration or self.min_util > self.max_util:
            raise ConfigurationError("housekeeping min/max ranges inverted")


@dataclass(frozen=True)
class CurrentStep:
    """A persistent additional current draw (an SEL), active on
    ``[start, end)`` in trace-local seconds. ``end=None`` = until the
    end of the trace (latchups do not clear on their own)."""

    start: float
    delta_amps: float
    end: "float | None" = None

    def active_mask(self, times: np.ndarray) -> np.ndarray:
        mask = times >= self.start
        if self.end is not None:
            mask &= times < self.end
        return mask


@dataclass
class TelemetryTrace:
    """A generated trace: counters + currents + ground-truth masks."""

    config: TelemetryConfig
    counters: CounterFrame
    true_current: np.ndarray  # (n_ticks,) activity current incl. SEL
    fine_samples: np.ndarray  # (n_ticks * samples_per_tick,) sensor output
    quiescent_truth: np.ndarray  # (n_ticks,) bool
    sel_delta: np.ndarray  # (n_ticks,) amps of SEL draw applied
    labels: np.ndarray  # (n_ticks,) int index into label_names
    label_names: list
    start_time: float = 0.0

    @property
    def n_ticks(self) -> int:
        return len(self.true_current)

    @property
    def duration(self) -> float:
        return self.n_ticks * self.config.tick

    def times(self) -> np.ndarray:
        """Tick timestamps (trace-local seconds, tick centers)."""
        return self.start_time + (np.arange(self.n_ticks) + 0.5) * self.config.tick

    @property
    def sel_active(self) -> np.ndarray:
        return self.sel_delta > 0

    def measured_per_tick(self) -> np.ndarray:
        """Unfiltered per-tick current: the last sensor sample of each
        tick (what a naive 1 kHz reader of the INA3221 would log)."""
        s = self.config.samples_per_tick
        return self.fine_samples[s - 1 :: s][: self.n_ticks]

    def label_mask(self, name: str) -> np.ndarray:
        try:
            index = self.label_names.index(name)
        except ValueError:
            return np.zeros(self.n_ticks, dtype=bool)
        return self.labels == index


class TraceGenerator:
    """Builds :class:`TelemetryTrace` objects from segment schedules."""

    def __init__(
        self,
        config: "TelemetryConfig | None" = None,
        power_model: "PowerModel | None" = None,
        sensor: "CurrentSensor | None" = None,
        governor: "OndemandGovernor | None" = None,
    ) -> None:
        self.config = config or TelemetryConfig()
        self.governor = governor or OndemandGovernor()
        max_freq = self.governor.spec.max_freq
        self.power_model = power_model or PowerModel(max_freq=max_freq)
        self.sensor = sensor or CurrentSensor()
        self._ipc = self.governor.spec.base_ipc
        self._bus_per_instr = self.governor.spec.bus_cycles_per_instruction

    @property
    def max_instruction_rate(self) -> float:
        """Per-core instruction rate at 100 % util, max frequency."""
        return self._ipc * self.governor.spec.max_freq

    def generate(
        self,
        segments: "list[ActivitySegment]",
        rng: np.random.Generator,
        current_steps: "list[CurrentStep] | None" = None,
        housekeeping: "HousekeepingParams | None" = HousekeepingParams(),
        extra_baseline_amps: float = 0.0,
        start_time: float = 0.0,
    ) -> TelemetryTrace:
        if not segments:
            raise ConfigurationError("need at least one segment")
        cfg = self.config
        tick_counts = [max(1, int(round(seg.duration / cfg.tick))) for seg in segments]
        n_ticks = sum(tick_counts)
        n_cores = cfg.n_cores

        util = np.empty((n_ticks, n_cores))
        miss = np.empty((n_ticks, n_cores))
        hit = np.empty((n_ticks, n_cores))
        dram = np.empty(n_ticks)
        disk_r = np.empty(n_ticks)
        disk_w = np.empty(n_ticks)
        quiescent = np.zeros(n_ticks, dtype=bool)
        labels = np.empty(n_ticks, dtype=np.int32)
        pinned: list = []  # (rows, frequency) of freq_override segments
        label_names: list = []

        row = 0
        for seg, count in zip(segments, tick_counts):
            sl = slice(row, row + count)
            if len(seg.core_util) != n_cores:
                raise ConfigurationError(
                    f"segment {seg.label!r} has {len(seg.core_util)} core utils; "
                    f"machine has {n_cores} cores"
                )
            base = np.asarray(seg.core_util)
            shape = (count, n_cores)
            np.clip(base + rng.normal(0, seg.util_jitter, shape), 0, 1, out=util[sl])
            np.clip(seg.branch_miss_rate + rng.normal(0, 0.004, shape), 0, 1, out=miss[sl])
            np.clip(seg.cache_hit_rate + rng.normal(0, 0.006, shape), 0, 1, out=hit[sl])
            np.maximum(seg.dram_gbs + rng.normal(0, 0.02 + 0.05 * seg.dram_gbs, count), 0, out=dram[sl])
            self._poisson_rate(seg.disk_read_iops, disk_r[sl], rng)
            self._poisson_rate(seg.disk_write_iops, disk_w[sl], rng)
            quiescent[sl] = seg.quiescent
            if seg.freq_override is not None:
                pinned.append((sl, seg.freq_override))
            if seg.label not in label_names:
                label_names.append(seg.label)
            labels[sl] = label_names.index(seg.label)
            if seg.quiescent and housekeeping is not None:
                self._inject_housekeeping(
                    util, disk_w, sl, housekeeping, rng
                )
            row += count

        freq = self.governor.steady_state_freq_array(util)
        for sl, frequency in pinned:
            freq[sl] = frequency
        true_current = self.power_model.board_current(
            util, freq, dram_gbs=dram, disk_iops=disk_r + disk_w,
            branch_miss_rate=sum_cores(miss) / n_cores,
        )
        true_current += extra_baseline_amps

        # util is spent: scale it in place into the instruction rate.
        instr_rate = util
        instr_rate *= self._ipc
        instr_rate *= freq
        jitter = rng.normal(1.0, 0.02, instr_rate.shape)
        instr_rate *= np.clip(jitter, 0.85, 1.15, out=jitter)
        counters = CounterFrame.pack(
            instruction_rate=instr_rate,
            branch_miss_rate=miss,
            cpu_freq=freq,
            bus_cycle_rate=np.multiply(instr_rate, self._bus_per_instr, out=jitter),
            cache_hit_rate=hit,
            disk_read_ios=disk_r,
            disk_write_ios=disk_w,
        )
        # Packed: free the per-metric arrays before the sensor draws.
        del util, instr_rate, miss, hit, freq, jitter

        sel_delta = np.zeros(n_ticks)
        if current_steps:
            times = (np.arange(n_ticks) + 0.5) * cfg.tick
            for step in current_steps:
                sel_delta[step.active_mask(times)] += step.delta_amps
        true_current += sel_delta

        fine = self.sensor.oversample(true_current, cfg.samples_per_tick, rng)
        return TelemetryTrace(
            config=cfg,
            counters=counters,
            true_current=true_current,
            fine_samples=fine,
            quiescent_truth=quiescent,
            sel_delta=sel_delta,
            labels=labels,
            label_names=label_names,
            start_time=start_time,
        )

    def _poisson_rate(self, iops: float, out: np.ndarray, rng: np.random.Generator) -> None:
        """Per-tick IO rates into ``out``: Poisson counts per tick scaled to IOs/s."""
        if iops <= 0:
            out.fill(0.0)
        else:
            np.divide(rng.poisson(iops * self.config.tick, len(out)), self.config.tick, out=out)

    def _inject_housekeeping(
        self,
        util: np.ndarray,
        disk_w: np.ndarray,
        segment_slice: slice,
        params: HousekeepingParams,
        rng: np.random.Generator,
    ) -> None:
        cfg = self.config
        count = segment_slice.stop - segment_slice.start
        duration_s = count * cfg.tick
        n_events = rng.poisson(params.events_per_hour * duration_s / 3600.0)
        for _ in range(n_events):
            length = int(
                rng.uniform(params.min_duration, params.max_duration) / cfg.tick
            )
            if length < 1 or count < 2:
                continue
            start = int(rng.integers(0, max(1, count - length)))
            core = int(rng.integers(0, util.shape[1]))
            level = rng.uniform(params.min_util, params.max_util)
            rows = slice(segment_slice.start + start, segment_slice.start + start + length)
            util[rows, core] = np.clip(util[rows, core] + level, 0, 1)
            disk_w[rows] += params.disk_write_iops


def burst_schedule(
    total_duration: float,
    burst_duration: float,
    burst_period: float,
    burst_segment: ActivitySegment,
    n_cores: int = 4,
) -> "list[ActivitySegment]":
    """Spacecraft duty cycle: quiescence punctuated by compute bursts.

    ``burst_period`` is the start-to-start interval; the remainder of
    each period is quiescent. Models the paper's "work in bursts due to
    the unpredictable and short communication windows" pattern.
    """
    if burst_duration >= burst_period:
        raise ConfigurationError("burst_duration must be < burst_period")
    if total_duration <= 0:
        raise ConfigurationError("total_duration must be positive")
    segments: list = []
    elapsed = 0.0
    while elapsed < total_duration:
        busy = min(burst_duration, total_duration - elapsed)
        segments.append(replace(burst_segment, duration=busy))
        elapsed += busy
        if elapsed >= total_duration:
            break
        idle = min(burst_period - burst_duration, total_duration - elapsed)
        segments.append(quiescent_segment(idle, n_cores))
        elapsed += idle
    return segments
