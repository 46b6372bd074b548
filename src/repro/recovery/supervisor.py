"""The recovery supervisor: Radshield's SEL response, orchestrated.

The paper's response to an ILD alarm is one line — "flagging a
potential SEL and rebooting" — because on the real testbed the power
relay and a process manager do the rest. The simulator has to own
that rest explicitly, and this module is where it lives:

1. **Checkpoint.** Before protected work starts, the supervisor
   captures a full :meth:`Machine.snapshot`.
2. **Power cycle with bounded retry.** On alarm it drops power. If
   residual current remains (the cycle did not clear the latchup —
   rare, but §2.1 warns restarts "may not completely clear out the
   SEL's residual charge"), it backs off and retries, doubling the
   wait, up to a configured attempt budget. Exhausting the budget is
   a FATAL event and raises :class:`~repro.errors.RecoveryFailedError`.
3. **Rollback.** DRAM and flash are restored from the checkpoint —
   the power cycle destroyed volatile state, and in-flight outputs
   written since the checkpoint are suspect anyway. The clock is
   *not* rewound: recovery takes real mission time.
4. **Replay.** Registered in-flight work is re-run under a
   :class:`~repro.recovery.watchdog.Watchdog` deadline, so a recovery
   that itself wedges (an SEU in the replay path) cannot hang the
   mission — the watchdog bites and the attempt is counted failed.

Every step lands in the flight event log (``sel.power_cycle``,
``recovery.rollback``, ``recovery.replay``) and the trace, so the
incident summarizer can show the full injection → detection →
recovery chain.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError, DetectedFaultError, RecoveryFailedError
from ..flightsw.eventlog import EvrSeverity
from ..obs import NULL_OBS
from .watchdog import Watchdog


@dataclass(frozen=True)
class SupervisorConfig:
    """Retry budgets and deadlines for the SEL response."""

    #: Power-cycle attempts before declaring recovery failed.
    max_power_cycle_attempts: int = 3
    #: Wait before the second attempt; doubles each further attempt
    #: (lets residual charge bleed off, as §2.1 suggests).
    retry_backoff_seconds: float = 8.0
    backoff_factor: float = 2.0
    #: Residual draw at or below this counts as baseline restored.
    current_epsilon_amps: float = 1e-9
    #: Watchdog deadline for one replay of the in-flight work.
    replay_deadline_seconds: float = 900.0
    max_replay_attempts: int = 2
    #: Raise :class:`RecoveryFailedError` when the attempt budget is
    #: exhausted (the chaos harness sets this False to keep fuzzing).
    raise_on_failure: bool = True

    def __post_init__(self) -> None:
        if self.max_power_cycle_attempts < 1:
            raise ConfigurationError("need at least one power-cycle attempt")
        if self.retry_backoff_seconds < 0 or self.backoff_factor < 1:
            raise ConfigurationError("backoff must be non-negative, factor >= 1")
        if self.max_replay_attempts < 1:
            raise ConfigurationError("need at least one replay attempt")


@dataclass(frozen=True)
class RecoveryOutcome:
    """What one :meth:`RecoverySupervisor.handle_alarm` call achieved."""

    alarm_time: float
    power_cycle_attempts: int
    recovered: bool
    rolled_back: bool
    replayed: bool
    #: ``None`` when nothing was registered to replay.
    replay_ok: "bool | None"
    downtime_seconds: float
    residual_current_amps: float


class RecoverySupervisor:
    """Owns the alarm → power-cycle → rollback → replay sequence.

    One supervisor serves one machine. The mission simulator (and the
    chaos harness) construct it next to the detector, call
    :meth:`checkpoint` before protected work, keep the current work
    registered via :meth:`register_inflight`, and route every ILD or
    OCP alarm through :meth:`handle_alarm`.
    """

    def __init__(
        self,
        machine,
        detector=None,
        eventlog=None,
        config: "SupervisorConfig | None" = None,
        watchdog: "Watchdog | None" = None,
        policy=None,
        obs=None,
    ) -> None:
        self.machine = machine
        self.detector = detector
        self.eventlog = eventlog
        self.config = config or SupervisorConfig()
        self.obs = obs if obs is not None else NULL_OBS
        self.watchdog = watchdog or Watchdog(machine, eventlog, obs=self.obs)
        self.policy = policy
        self._checkpoint = None
        self._inflight: "tuple[str, object] | None" = None
        self.outcomes: "list[RecoveryOutcome]" = []

    # ------------------------------------------------------------------
    def checkpoint(self):
        """Capture the machine as the rollback point for the next alarm."""
        self._checkpoint = self.machine.snapshot()
        if self.obs.enabled:
            self.obs.tracer.event(
                "recovery.checkpoint", t=self.machine.clock.now
            )
        return self._checkpoint

    def register_inflight(self, label: str, replay_fn) -> None:
        """Declare the protected work currently in flight.

        ``replay_fn(machine)`` re-runs that work after a recovery; it
        returns truthy (or ``None``) on success, falsy on a verified
        mismatch, and may raise :class:`DetectedFaultError`. It runs
        under the supervisor's watchdog deadline.
        """
        self._inflight = (label, replay_fn)

    # ------------------------------------------------------------------
    def _log(self, name: str, message: str, severity, **args) -> None:
        if self.eventlog is not None:
            self.eventlog.log(
                name, message, severity, time=self.machine.clock.now, **args
            )

    def handle_alarm(self, alarm_time: "float | None" = None) -> RecoveryOutcome:
        """Run the full supervised SEL response. Returns the outcome."""
        cfg = self.config
        machine = self.machine
        if alarm_time is None:
            alarm_time = machine.clock.now
        started = machine.clock.now

        # -- power cycle, with bounded retry + doubling backoff --------
        attempts = 0
        backoff = cfg.retry_backoff_seconds
        residual = abs(machine.extra_current_draw)
        recovered = False
        while attempts < cfg.max_power_cycle_attempts:
            attempts += 1
            machine.power_cycle()
            residual = abs(machine.extra_current_draw)
            recovered = residual <= cfg.current_epsilon_amps
            self._log(
                "sel.power_cycle",
                f"attempt {attempts}: residual draw {residual:.4f} A",
                EvrSeverity.WARNING_HI if recovered else EvrSeverity.FATAL,
                attempt=attempts,
                residual_amps=round(residual, 6),
            )
            if self.obs.enabled:
                self.obs.tracer.event(
                    "sel.power_cycle", t=machine.clock.now,
                    attempt=attempts, residual_amps=float(residual),
                )
            if recovered:
                break
            machine.clock.advance(backoff)
            backoff *= cfg.backoff_factor

        # The power cycle destroyed the detector's streaming state's
        # physical substrate; mirror that in the model.
        if self.detector is not None:
            self.detector.reset()
        if self.policy is not None:
            self.policy.observe_alarm(alarm_time)

        if not recovered:
            self._log(
                "recovery.failed",
                f"{attempts} power cycles left {residual:.4f} A residual",
                EvrSeverity.FATAL,
                attempts=attempts,
            )
            outcome = RecoveryOutcome(
                alarm_time=float(alarm_time),
                power_cycle_attempts=attempts,
                recovered=False,
                rolled_back=False,
                replayed=False,
                replay_ok=None,
                downtime_seconds=machine.clock.now - started,
                residual_current_amps=residual,
            )
            self.outcomes.append(outcome)
            if cfg.raise_on_failure:
                raise RecoveryFailedError(
                    f"{attempts} power-cycle attempts left "
                    f"{residual:.4f} A of latchup draw"
                )
            return outcome

        # -- rollback: memory + storage from the checkpoint -------------
        rolled_back = False
        if self._checkpoint is not None:
            machine.memory.restore(self._checkpoint.memory)
            machine.storage.restore(self._checkpoint.storage)
            rolled_back = True
            self._log(
                "recovery.rollback",
                "DRAM and flash restored from checkpoint",
                EvrSeverity.ACTIVITY_HI,
                checkpoint_t=round(self._checkpoint.clock_now, 3),
            )
            if self.obs.enabled:
                self.obs.tracer.event(
                    "recovery.rollback", t=machine.clock.now,
                    checkpoint_t=float(self._checkpoint.clock_now),
                )

        # -- replay in-flight work under the watchdog -------------------
        replayed = False
        replay_ok: "bool | None" = None
        if self._inflight is not None:
            label, replay_fn = self._inflight
            replayed = True
            replay_ok = False
            for attempt in range(1, cfg.max_replay_attempts + 1):
                failure = ""
                with self.watchdog.guard(cfg.replay_deadline_seconds):
                    try:
                        result = replay_fn(machine)
                        replay_ok = True if result is None else bool(result)
                    except DetectedFaultError as exc:
                        replay_ok = False
                        failure = f": {exc}"
                self._log(
                    "recovery.replay",
                    f"replayed {label!r}, attempt {attempt}: "
                    + ("ok" if replay_ok else f"failed{failure}"),
                    EvrSeverity.ACTIVITY_HI if replay_ok
                    else EvrSeverity.WARNING_HI,
                    label=label,
                    attempt=attempt,
                    ok=replay_ok,
                )
                if self.obs.enabled:
                    self.obs.tracer.event(
                        "recovery.replay", t=machine.clock.now,
                        label=label, attempt=attempt, ok=replay_ok,
                    )
                if replay_ok:
                    break

        outcome = RecoveryOutcome(
            alarm_time=float(alarm_time),
            power_cycle_attempts=attempts,
            recovered=True,
            rolled_back=rolled_back,
            replayed=replayed,
            replay_ok=replay_ok,
            downtime_seconds=machine.clock.now - started,
            residual_current_amps=residual,
        )
        self.outcomes.append(outcome)
        if self.obs.enabled:
            self.obs.metrics.counter("recovery.alarms_handled").inc()
        return outcome
