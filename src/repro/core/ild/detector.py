"""The Idle Latchup Detector (§3.1, Fig 4).

Pipeline per metric tick:

    sensor fine samples ──rolling min──▶ filtered current
    Table 1 counters ──linear model──▶ predicted current
    residual = filtered − predicted
    quiescent? ──▶ 3 s running mean of residual > 0.055 A ──▶ ALARM

"We experimentally determined that a >0.055 A average difference
between real and predicted currents for more than three seconds was an
ideal threshold for flagging a potential SEL and rebooting."

The detector is streaming: long experiments feed it chunk by chunk
(30-minute episodes) and alarm state carries across chunk boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...errors import ConfigurationError, InvalidAddressError
from ...obs import NULL_OBS, Observability
from ...sim.faults import FaultRegion, flip_float64
from ...sim.telemetry import TelemetryTrace
from .model import CurrentModel
from .quiescence import QuiescenceDetector
from .rolling_filter import RollingMinimumFilter


@dataclass(frozen=True)
class IldConfig:
    """Deployment parameters of ILD."""

    residual_threshold_amps: float = 0.055
    persistence_seconds: float = 3.0
    #: Design target: alarm within this long of SEL onset (half the
    #: ~5-minute thermal damage deadline, with margin).
    detection_window_seconds: float = 180.0
    quiescence_utilization: float = 0.22
    filter_halfwidth_samples: int = 4

    def __post_init__(self) -> None:
        if self.residual_threshold_amps <= 0:
            raise ConfigurationError("residual threshold must be positive")
        if self.persistence_seconds <= 0:
            raise ConfigurationError("persistence must be positive")


@dataclass(frozen=True)
class Detection:
    """One alarm onset."""

    time: float  # absolute trace time, seconds
    mean_residual: float

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigurationError("detection time must be >= 0")


@dataclass
class _StreamState:
    """Residual tail carried across chunk boundaries.

    This is ILD's *own* volatile state — the few words of filter
    memory a particle can strike just like any other SRAM. It is the
    detector's self-protection surface: :meth:`IldDetector.process`
    sanity-scrubs it every chunk (see ``_scrub_state``), and the chaos
    harness corrupts it via
    :func:`repro.radiation.control_plane.strike_ild_filter`.
    """

    residual_tail: "np.ndarray" = field(default_factory=lambda: np.empty(0))
    tail_end_time: float = -1.0
    in_alarm: bool = False

#: Residuals beyond this magnitude (amps) cannot come from the rail —
#: they are corrupted filter state, and the scrub drops them.
_SANE_RESIDUAL_AMPS = 1e3


class IldDetector:
    """Streaming SEL detector over telemetry traces."""

    def __init__(
        self,
        model: CurrentModel,
        max_instruction_rate: float,
        config: "IldConfig | None" = None,
        obs: "Observability | None" = None,
    ) -> None:
        self.model = model
        self.config = config or IldConfig()
        #: Observability bundle; settable after construction (the SEL
        #: testbench wires one into pre-built detectors per episode).
        self.obs = obs if obs is not None else NULL_OBS
        self.filter = RollingMinimumFilter(self.config.filter_halfwidth_samples)
        self.quiescence = QuiescenceDetector(
            max_instruction_rate,
            utilization_threshold=self.config.quiescence_utilization,
        )
        self._state = _StreamState()
        self.quiescent_ticks_seen = 0
        self.alarm_ticks = 0
        self.evaluated_ticks = 0
        #: Times the self-protection scrub dropped corrupted filter state.
        self.states_scrubbed = 0
        #: Per-tick alarm decisions of the most recent process() call
        #: (True at ticks whose 3 s residual window exceeded threshold).
        self.last_alarm_mask: "np.ndarray | None" = None

    def reset(self) -> None:
        """Forget streaming state (e.g. after a power cycle)."""
        self._state = _StreamState()

    @property
    def stream_state(self) -> _StreamState:
        """The detector's own volatile filter state (control plane)."""
        return self._state

    # -- fault domain (see repro.sim.faults) --------------------------
    def fault_census(self) -> "tuple[FaultRegion, ...]":
        """ILD's own volatile words: the residual tail (float64s
        carried across chunk boundaries) and the alarm latch. Class
        ``scrubbed``: ``_scrub_state`` drops corrupted state before
        every alarm decision."""
        return (
            FaultRegion("residual_tail", len(self._state.residual_tail) * 64,
                        protection="scrubbed", scope="shared"),
            FaultRegion("alarm_latch", 1, protection="scrubbed",
                        scope="shared"),
        )

    def fault_strike(self, region: str, offset: int, bit: int) -> str:
        state = self._state
        if region == "residual_tail":
            index = offset // 8
            if not 0 <= index < len(state.residual_tail):
                raise InvalidAddressError(
                    f"ild: residual_tail offset {offset} outside live tail"
                )
            fbit = (offset % 8) * 8 + (bit & 7)
            # Copy before mutating: the tail may be a view into a
            # trace-owned residual array.
            tail = state.residual_tail.copy()
            tail[index] = flip_float64(float(tail[index]), fbit)
            state.residual_tail = tail
            return f"ild residual_tail[{index}] bit {fbit}"
        if region == "alarm_latch":
            if offset != 0:
                raise InvalidAddressError("ild: alarm latch has one bit")
            state.in_alarm = not state.in_alarm
            return "ild in_alarm latch flipped"
        raise InvalidAddressError(f"ild: no fault region {region!r}")

    def reconfigure(self, config: IldConfig) -> None:
        """Adopt new deployment parameters at runtime.

        The degradation policy escalates/relaxes ILD by swapping
        thresholds and persistence in flight. Filter geometry follows
        the new config, and streaming state is dropped — a window
        accumulated under the old persistence would alias into the new
        one at the wrong length.
        """
        self.config = config
        self.filter = RollingMinimumFilter(config.filter_halfwidth_samples)
        self.quiescence = QuiescenceDetector(
            self.quiescence.max_instruction_rate,
            utilization_threshold=config.quiescence_utilization,
        )
        self.reset()

    def _scrub_state(self) -> bool:
        """Self-protection: drop corrupted streaming state.

        A strike on the residual tail shows up as non-finite or
        physically impossible values (a bit flip in a float64 exponent
        lands astronomically far from any real residual). Scrubbing
        costs at most one persistence window of detection history —
        bounded, and far better than an alarm decision made on
        garbage. Returns ``True`` when state was dropped.
        """
        tail = self._state.residual_tail
        healthy = (
            isinstance(tail, np.ndarray)
            and tail.ndim == 1
            and (len(tail) == 0
                 or (np.isfinite(tail).all()
                     and float(np.abs(tail).max()) <= _SANE_RESIDUAL_AMPS))
            and isinstance(self._state.in_alarm, (bool, np.bool_))
        )
        if healthy:
            return False
        self._state = _StreamState()
        self.states_scrubbed += 1
        if self.obs.enabled:
            self.obs.metrics.counter("ild.state_scrubbed").inc()
        return True

    # ------------------------------------------------------------------
    def filtered_current(self, trace: TelemetryTrace) -> np.ndarray:
        filtered = self.filter.per_tick(
            trace.fine_samples, trace.config.samples_per_tick
        )
        return filtered[: trace.n_ticks]

    def residuals(self, trace: TelemetryTrace) -> np.ndarray:
        """Per-tick residual (measured − predicted), all ticks."""
        return self.model.residuals(trace.counters, self.filtered_current(trace))

    # ------------------------------------------------------------------
    def process(
        self,
        trace: TelemetryTrace,
        app_quiescent: "np.ndarray | None" = None,
    ) -> "list[Detection]":
        """Scan one trace chunk; returns alarm onsets (absolute time).

        Consecutive calls are treated as a continuous stream: a
        quiescent run that spans a chunk boundary keeps accumulating
        toward the persistence requirement.

        ``app_quiescent`` is the paper's application signal
        ("Applications may also signal to ILD when they are no longer
        processing data"): a per-tick bool mask OR-ed with the CPU-load
        heuristic, letting ILD evaluate residuals in regimes the load
        threshold alone would reject.
        """
        cfg = self.config
        self._scrub_state()
        tick = trace.config.tick
        window = max(1, int(round(cfg.persistence_seconds / tick)))
        residual = self.residuals(trace)
        quiescent = self.quiescence.mask(trace.counters)
        if app_quiescent is not None:
            app_quiescent = np.asarray(app_quiescent, dtype=bool)
            if app_quiescent.shape != quiescent.shape:
                raise ConfigurationError(
                    f"app_quiescent has shape {app_quiescent.shape}; "
                    f"expected {quiescent.shape}"
                )
            quiescent = quiescent | app_quiescent
        times = trace.times()
        self.evaluated_ticks += trace.n_ticks
        self.quiescent_ticks_seen += int(quiescent.sum())

        detections: "list[Detection]" = []
        state = self._state
        alarm_mask = np.zeros(trace.n_ticks, dtype=bool)

        # Walk quiescent runs.
        padded = np.concatenate([[False], quiescent, [False]])
        starts = np.nonzero(padded[1:] & ~padded[:-1])[0]
        ends = np.nonzero(padded[:-1] & ~padded[1:])[0]
        contiguous = (
            len(starts) > 0
            and starts[0] == 0
            and state.tail_end_time >= 0
            and abs(times[0] - tick - state.tail_end_time) < 1.5 * tick
        )
        for run_index, (start, end) in enumerate(zip(starts, ends)):
            run_residuals = residual[start:end]
            run_times = times[start:end]
            if run_index == 0 and contiguous and len(state.residual_tail):
                run_residuals = np.concatenate([state.residual_tail, run_residuals])
                prefix = len(state.residual_tail)
            else:
                prefix = 0
                state.in_alarm = False
            if len(run_residuals) >= window:
                kernel = np.ones(window) / window
                means = np.convolve(run_residuals, kernel, mode="valid")
                over = means > cfg.residual_threshold_amps
                self.alarm_ticks += int(over.sum())
                decision_ticks = start + np.clip(
                    np.arange(len(over)) + window - 1 - prefix,
                    0,
                    (end - start) - 1,
                )
                alarm_mask[decision_ticks[over]] = True
                # Alarm onsets: rising edges of `over`, respecting the
                # alarm state carried in from the previous chunk.
                previous = np.concatenate([[state.in_alarm], over[:-1]])
                onsets = np.nonzero(over & ~previous)[0]
                for onset in onsets:
                    # Position of the window's last sample in this run.
                    last = onset + window - 1 - prefix
                    if last < 0:
                        last = 0
                    detections.append(
                        Detection(
                            time=float(run_times[min(last, len(run_times) - 1)]),
                            mean_residual=float(means[onset]),
                        )
                    )
                state.in_alarm = bool(over[-1])
            # Save the tail for cross-chunk continuity.
            if end == trace.n_ticks:
                state.residual_tail = run_residuals[-(window - 1):] if window > 1 else np.empty(0)
                state.tail_end_time = float(times[-1])
            else:
                state.residual_tail = np.empty(0)
                state.tail_end_time = -1.0
                state.in_alarm = False
        if not len(starts) or ends[-1] != trace.n_ticks:
            state.residual_tail = np.empty(0)
            state.tail_end_time = -1.0
            state.in_alarm = False
        self.last_alarm_mask = alarm_mask
        if self.obs.enabled and trace.n_ticks:
            # Attributes are per-call only (never the accumulating
            # totals), so a task's records are independent of what any
            # other episode did and the merged trace stays deterministic.
            self.obs.tracer.span(
                "ild.process", t=float(times[0]),
                dur=float(trace.n_ticks * tick),
                n_ticks=int(trace.n_ticks),
                quiescent_ticks=int(quiescent.sum()),
                detections=len(detections),
            )
            self.obs.metrics.counter("ild.ticks_processed").inc(trace.n_ticks)
            for detection in detections:
                self.obs.tracer.event(
                    "ild.detection", t=detection.time,
                    mean_residual=detection.mean_residual,
                )
                self.obs.metrics.counter("ild.detections").inc()
        return detections


def train_ild(
    model_trace: TelemetryTrace,
    config: "IldConfig | None" = None,
    max_instruction_rate: "float | None" = None,
    feature_indices: "np.ndarray | None" = None,
) -> IldDetector:
    """Ground-calibration convenience: fit the linear model on a
    training trace's quiescent ticks and return a ready detector."""
    cfg = config or IldConfig()
    if max_instruction_rate is None:
        # Infer machine capacity from the busiest observed tick.
        max_instruction_rate = float(model_trace.counters.instruction_rate.max())
        max_instruction_rate = max(max_instruction_rate, 1.0)
    filt = RollingMinimumFilter(cfg.filter_halfwidth_samples)
    filtered = filt.per_tick(
        model_trace.fine_samples, model_trace.config.samples_per_tick
    )[: model_trace.n_ticks]
    quiescence = QuiescenceDetector(
        max_instruction_rate, utilization_threshold=cfg.quiescence_utilization
    )
    mask = quiescence.mask(model_trace.counters)
    if not mask.any():
        raise ConfigurationError("training trace has no quiescent ticks")
    model = CurrentModel(feature_indices=feature_indices)
    model.fit(model_trace.counters.slice(mask), filtered[mask])
    return IldDetector(model, max_instruction_rate, cfg)
