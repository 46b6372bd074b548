"""The chaos harness: fuzz the whole stack, assert the invariants.

One chaos episode drives the full protection loop — machine, latchup
injector, trained ILD, degradation policy, recovery supervisor, EMR
workload runs — through a seeded storm of faults, *including strikes
on the protection mechanisms themselves* (ILD filter state, EMR vote
buffers, the flight event log). Along the way it checks the end-to-end
invariants the subsystems each promise locally but nothing previously
verified globally:

* **No silent escape** — a strike on a protected workload or a vote
  buffer either leaves committed outputs golden or surfaces as a
  detected fault / vote correction. A mismatch nobody noticed is a
  violation.
* **Baseline restored** — after every supervised recovery, latchup
  draw is back to zero and the injector's active list is empty.
* **Always terminates** — ILD crashing on corrupted state, a wedged
  replay, or an unrecovered latchup must never hang or abort the
  episode; the watchdog and deadline fallbacks bound everything.
* **Deterministic** — the episode is a pure function of its scenario;
  the report (and the digest over all reports) is byte-identical at
  any worker count and across reruns.

Episodes run through :mod:`repro.campaign`, so the matrix is
resumable, parallel, and fingerprinted like every other experiment.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ..campaign import Campaign, Trial, canonical_json, execute
from ..core.emr.runtime import EmrConfig, EmrRuntime
from ..core.ild import train_ild
from ..errors import DetectedFaultError
from ..flightsw.eventlog import EventLog, EvrSeverity
from ..radiation.control_plane import (
    VoteBufferStrikeHooks,
    strike_eventlog,
    strike_ild_filter,
)
from ..radiation.events import OutcomeClass, SelEvent
from ..radiation.injector import (
    DEFAULT_INJECTION_WEIGHTS,
    CampaignConfig,
    TrialTask,
    run_campaign_trial,
)
from ..radiation.sel import LatchupInjector
from ..recovery import (
    DegradationPolicy,
    PolicyConfig,
    RecoverySupervisor,
    SupervisorConfig,
    level_named,
)
from ..sim.machine import Machine
from ..sim.telemetry import CurrentStep, TelemetryConfig, TraceGenerator
from ..workloads.aes import AesWorkload
from ..workloads.navigation import navigation_schedule
from .scenarios import ChaosScenario, default_scenarios, encode_scenario

#: A latchup left undetected this long triggers the fallback response
#: (the EPS breaker / ground intervention a real mission would have).
FALLBACK_DEADLINE_SECONDS = 300.0


@dataclass
class ChaosReport:
    """What one episode did, saw, and — if anything — broke."""

    scenario: str
    seed: int
    counters: "dict[str, int]" = field(default_factory=dict)
    violations: "list[str]" = field(default_factory=list)
    final_level: str = ""
    events_logged: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


def encode_chaos_report(report: ChaosReport) -> dict:
    return {
        "scenario": report.scenario,
        "seed": report.seed,
        "counters": {k: report.counters[k] for k in sorted(report.counters)},
        "violations": list(report.violations),
        "final_level": report.final_level,
        "events_logged": report.events_logged,
    }


def decode_chaos_report(data: dict) -> ChaosReport:
    return ChaosReport(
        scenario=data["scenario"],
        seed=data["seed"],
        counters=dict(data["counters"]),
        violations=list(data["violations"]),
        final_level=data["final_level"],
        events_logged=data["events_logged"],
    )


def reports_digest(reports: "list[ChaosReport]") -> str:
    """SHA-256 over the canonical encoding of every report, in order —
    the byte-identity witness ``tests/test_chaos.py`` compares across
    worker counts and reruns."""
    material = canonical_json([encode_chaos_report(r) for r in reports])
    return hashlib.sha256(material.encode()).hexdigest()


# ----------------------------------------------------------------------
def _protected_workload():
    """The small flight workload every chaos EMR run protects."""
    return AesWorkload(chunk_bytes=64, chunks=4)


def run_scenario(
    scenario: ChaosScenario,
    rng: np.random.Generator,
    tracer=None,
) -> ChaosReport:
    """Run one chaos episode. Pure in ``(scenario, rng)``."""
    report = ChaosReport(scenario=scenario.name, seed=scenario.seed)
    counters: "Counter[str]" = Counter()
    violations = report.violations

    machine = Machine.rpi_zero2w(seed=scenario.seed)
    eventlog = EventLog(capacity=256)
    injector = LatchupInjector(machine)
    generator = TraceGenerator(TelemetryConfig(tick=8e-3))
    # The software stack joins the machine's fault surface: control-
    # plane strikes below address the same census the SEU plane uses.
    machine.fault_surface.register("eventlog", eventlog)

    level = level_named(scenario.start_level)
    ground = generator.generate(
        navigation_schedule(900.0, rng=np.random.default_rng(scenario.seed + 1)),
        rng=np.random.default_rng(scenario.seed + 2),
    )
    detector = train_ild(
        ground,
        config=level.ild,
        max_instruction_rate=generator.max_instruction_rate,
    )
    machine.fault_surface.register("ild", detector)

    policy = DegradationPolicy(
        PolicyConfig(
            start_level=scenario.start_level,
            window_seconds=scenario.duration_seconds,
            escalate_alarms=2,
            escalate_faults=3,
            deescalate_quiet_seconds=4 * scenario.duration_seconds,
            cooldown_seconds=scenario.chunk_seconds,
        ),
        eventlog=eventlog,
    )
    supervisor_cfg = SupervisorConfig(
        raise_on_failure=False, replay_deadline_seconds=120.0
    )
    supervisor = RecoverySupervisor(
        machine,
        detector=detector,
        eventlog=eventlog,
        config=supervisor_cfg,
        policy=policy,
    )

    # In-flight protected work: a small EMR run verified against golden
    # outputs. Watchdog-hang scenarios wedge the first replay attempt.
    workload = _protected_workload()
    spec = workload.build(np.random.default_rng(scenario.seed + 3))
    golden = workload.reference_outputs(spec)
    hang_pending = [scenario.hang_replay]

    def replay(m) -> bool:
        if hang_pending[0]:
            hang_pending[0] = False
            # The replay wedges: simulated time passes the deadline
            # with nothing produced. The watchdog must bite on exit.
            m.clock.advance(supervisor_cfg.replay_deadline_seconds + 60.0)
            return False
        emr_config = EmrConfig(
            replication_threshold=policy.level.replication_threshold,
            n_executors=policy.level.n_executors,
            raise_on_inconclusive=False,
        )
        result = EmrRuntime(m, workload, config=emr_config).run(spec=spec)
        return result.matches(golden)

    supervisor.register_inflight("chaos-flight-workload", replay)

    def check_baseline(context: str) -> None:
        if abs(machine.extra_current_draw) > 1e-9:
            violations.append(
                f"{context}: {machine.extra_current_draw:.4f} A residual "
                "draw after recovery"
            )
        if injector.any_active:
            violations.append(f"{context}: injector still holds active latchups")

    def handle(kind: str, time: float) -> None:
        eventlog.log(
            "sel.trip", f"{kind} alarm", EvrSeverity.WARNING_HI,
            time=time, by=kind,
        )
        outcome = supervisor.handle_alarm(time)
        counters["recoveries"] += 1 if outcome.recovered else 0
        counters["replays_ok"] += 1 if outcome.replay_ok else 0
        if not outcome.recovered:
            violations.append(f"{kind} alarm at t={time:.1f}s not recovered")
        check_baseline(f"{kind} recovery at t={time:.1f}s")

    # SEU strikes are spread uniformly over chunks up front, so the
    # per-chunk draw count is a pure function of the scenario seed.
    n_chunks = max(1, int(np.ceil(
        scenario.duration_seconds / scenario.chunk_seconds
    )))
    seu_allocation = Counter(
        int(c) for c in rng.integers(0, n_chunks, size=scenario.seu_strikes)
    )

    elapsed = 0.0
    chunk_index = 0
    while elapsed < scenario.duration_seconds:
        chunk = min(scenario.chunk_seconds, scenario.duration_seconds - elapsed)
        supervisor.checkpoint()

        # -- latchups land --------------------------------------------
        steps: "list[CurrentStep]" = []
        if injector.any_active:
            steps.append(CurrentStep(
                start=0.0, delta_amps=injector.total_extra_current
            ))
        n_sels = int(rng.poisson(scenario.sel_per_hour * chunk / 3600.0))
        for onset in sorted(rng.uniform(elapsed, elapsed + chunk, size=n_sels)):
            machine.clock.advance_to(float(onset))
            event = SelEvent(
                time=float(onset),
                delta_amps=float(rng.uniform(0.09, 0.25)),
            )
            injector.induce(event)
            steps.append(CurrentStep(
                start=float(onset) - elapsed, delta_amps=event.delta_amps
            ))
            counters["sels_injected"] += 1

        # -- control-plane strike: ILD's own filter state -------------
        if "ild" in scenario.control_strikes:
            strike_ild_filter(detector, rng)
            counters["ild_strikes"] += 1

        # -- telemetry + detection ------------------------------------
        trace = generator.generate(
            navigation_schedule(
                chunk,
                rng=np.random.default_rng(scenario.seed * 7919 + chunk_index),
            ),
            rng=rng,
            current_steps=steps,
            start_time=elapsed,
        )
        try:
            detections = detector.process(trace)
        except Exception as exc:  # noqa: BLE001 - invariant: ILD never crashes
            violations.append(
                f"ild crashed on chunk {chunk_index}: {type(exc).__name__}: {exc}"
            )
            detector.reset()
            detections = []

        if detections:
            if not injector.any_active:
                counters["false_alarms"] += 1
            machine.clock.advance_to(detections[0].time)
            handle("ild", detections[0].time)

        # -- deadline fallback: an undetected latchup cannot linger ----
        machine.clock.advance_to(elapsed + chunk)
        if injector.any_active:
            onset = injector.oldest_onset()
            if machine.clock.now - onset > FALLBACK_DEADLINE_SECONDS:
                counters["fallback_recoveries"] += 1
                handle("fallback", machine.clock.now)

        # -- workload SEU strikes under EMR ----------------------------
        for _ in range(seu_allocation.get(chunk_index, 0)):
            task = TrialTask(
                scheme="emr",
                workload=workload,
                spec=spec,
                golden=tuple(golden),
                config=CampaignConfig(
                    runs_per_scheme=1,
                    bits=scenario.seu_bits,
                    replication_threshold=policy.level.replication_threshold,
                    n_executors=policy.level.n_executors,
                    weights=dict(DEFAULT_INJECTION_WEIGHTS),
                ),
                machine_factory=Machine.rpi_zero2w,
            )
            outcome = run_campaign_trial(task, rng, tracer)
            counters[f"seu_{outcome.outcome.value}"] += 1
            if outcome.outcome is OutcomeClass.SDC:
                violations.append(
                    f"silent corruption escaped EMR on chunk {chunk_index}: "
                    f"{outcome.detail}"
                )
            if outcome.outcome in (OutcomeClass.CORRECTED, OutcomeClass.ERROR):
                policy.observe_fault(machine.clock.now)

        # -- control-plane strike: the EMR vote buffer -----------------
        if "vote" in scenario.control_strikes:
            hooks = VoteBufferStrikeHooks(
                rng, strike_ordinal=int(rng.integers(len(spec.datasets)))
            )
            strike_machine = Machine.rpi_zero2w(
                seed=scenario.seed + 1000 + chunk_index
            )
            emr_config = EmrConfig(
                replication_threshold=policy.level.replication_threshold,
                n_executors=policy.level.n_executors,
                raise_on_inconclusive=False,
            )
            try:
                result = EmrRuntime(
                    strike_machine, workload, config=emr_config, hooks=hooks
                ).run(spec=spec)
            except DetectedFaultError:
                result = None
            counters["vote_strikes"] += len(hooks.struck)
            if result is not None and hooks.struck:
                noticed = bool(
                    result.stats.vote_corrections or result.stats.detected_faults
                )
                if result.matches(golden):
                    if noticed:
                        counters["vote_strikes_outvoted"] += 1
                    else:
                        violations.append(
                            f"vote-buffer strike on chunk {chunk_index} "
                            "vanished without a correction"
                        )
                elif noticed:
                    counters["vote_strikes_detected"] += 1
                else:
                    violations.append(
                        f"vote-buffer strike on chunk {chunk_index} "
                        "committed silently corrupted outputs"
                    )

        # -- control-plane strike: the flight event log ----------------
        if "eventlog" in scenario.control_strikes:
            if strike_eventlog(eventlog, rng) is not None:
                counters["eventlog_strikes"] += 1
            try:
                eventlog.render()
                eventlog.events()
            except Exception as exc:  # noqa: BLE001 - invariant check
                violations.append(
                    f"event log unreadable after strike on chunk "
                    f"{chunk_index}: {type(exc).__name__}: {exc}"
                )

        # -- degradation policy ----------------------------------------
        change = policy.update(elapsed + chunk)
        if change is not None:
            counters["level_changes"] += 1
            detector.reconfigure(change.to_level.ild)

        elapsed += chunk
        chunk_index += 1

    # -- end-of-episode invariants ------------------------------------
    if injector.any_active:
        counters["fallback_recoveries"] += 1
        handle("end-of-episode", machine.clock.now)
    check_baseline("end of episode")
    for outcome in supervisor.outcomes:
        if not outcome.recovered:
            violations.append(
                f"supervisor outcome at t={outcome.alarm_time:.1f}s "
                "never restored baseline"
            )
    if scenario.hang_replay and supervisor.outcomes:
        if supervisor.watchdog.expirations == 0:
            violations.append("replay wedged but the watchdog never bit")
        else:
            counters["watchdog_bites"] += supervisor.watchdog.expirations
    counters["states_scrubbed"] = detector.states_scrubbed
    try:
        eventlog.render()
    except Exception as exc:  # noqa: BLE001 - invariant check
        violations.append(
            f"final event log render failed: {type(exc).__name__}: {exc}"
        )

    report.counters = {k: int(v) for k, v in sorted(counters.items())}
    report.final_level = policy.level.name
    report.events_logged = eventlog.total_logged
    return report


# ----------------------------------------------------------------------
def run_chaos_trial(
    scenario: ChaosScenario,
    rng: np.random.Generator,
    tracer=None,
) -> ChaosReport:
    """Campaign trial function: one scenario, one report."""
    return run_scenario(scenario, rng, tracer)


def chaos_campaign(
    scenarios: "tuple[ChaosScenario, ...] | None" = None,
    seed: int = 0,
) -> Campaign:
    """The scenario matrix as a resumable, fingerprinted campaign."""
    scenarios = scenarios if scenarios is not None else default_scenarios()
    return Campaign(
        name="chaos",
        trial_fn=run_chaos_trial,
        trials=[
            Trial(params=encode_scenario(scenario), item=scenario)
            for scenario in scenarios
        ],
        seed=seed,
        encode=encode_chaos_report,
        decode=decode_chaos_report,
    )


def run_chaos(
    scenarios: "tuple[ChaosScenario, ...] | None" = None,
    seed: int = 0,
    workers: "int | None" = 1,
    store=None,
    trace_path: "str | None" = None,
) -> "tuple[list[ChaosReport], str]":
    """Run the matrix; returns ``(reports, digest)``."""
    result = execute(
        chaos_campaign(scenarios, seed=seed),
        workers=workers,
        store=store,
        trace_path=trace_path,
    )
    reports = list(result.values)
    return reports, reports_digest(reports)


def render_reports(reports: "list[ChaosReport]") -> str:
    """Human-readable matrix summary."""
    lines = []
    total_violations = 0
    for report in reports:
        status = "ok" if report.ok else f"{len(report.violations)} VIOLATION(S)"
        total_violations += len(report.violations)
        interesting = {
            k: v for k, v in report.counters.items() if v and k != "states_scrubbed"
        }
        summary = " ".join(f"{k}={v}" for k, v in interesting.items())
        lines.append(
            f"{report.scenario:<24} {status:<16} level={report.final_level:<9}"
            f" {summary}"
        )
        for violation in report.violations:
            lines.append(f"    !! {violation}")
    lines.append(
        f"{len(reports)} scenario(s), {total_violations} violation(s), "
        f"digest {reports_digest(reports)[:16]}"
    )
    return "\n".join(lines)
