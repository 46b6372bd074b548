"""Extension experiments beyond the paper's figures.

* **checksum comparison** — the paper dismisses checksum-based memory
  protection as "computationally expensive" and incomplete; this
  experiment quantifies both halves: runtime/energy overhead against
  EMR and the pipeline-fault blind spot.
* **physics rates** — the CRÈME-style estimator's rates against the
  paper's quoted anchors.
* **flight-software Table 2** — ILD accuracy when the activity comes
  from the F´-style component stack instead of the synthetic
  navigation schedule.

Every extension runs through the campaign engine: the single-shot
tables are one-trial campaigns, the mission-survival rerun is a grid
over seeds (one paired sky per trial, resumable mid-campaign).
"""

from __future__ import annotations

import numpy as np

from ..analysis.report import Table
from ..campaign import Campaign, Trial, execute
from ..core.emr import (
    EmrConfig,
    EmrRuntime,
    checksum_protected_run,
    sequential_3mr,
    unprotected_parallel_3mr,
)
from ..radiation.creme import SNAPDRAGON_801, estimate_environment_rates
from ..radiation.events import OutcomeClass, SeuTarget
from ..radiation.injector import CampaignConfig, FaultInjectionCampaign
from ..sim.machine import Machine
from ..workloads import AesWorkload
from .ablations import _single_trial


def _checksum_trial(task, rng, tracer=None) -> Table:
    seed, injection_runs = task
    workload = AesWorkload(chunk_bytes=128, chunks=40)
    spec = workload.build(np.random.default_rng(seed))
    config = EmrConfig(replication_threshold=0.2)

    runs = {
        "EMR": EmrRuntime(Machine.rpi_zero2w(), workload, config=config).run(spec=spec),
        "3-MR": sequential_3mr(Machine.rpi_zero2w(), workload, spec=spec, config=config),
        "Checksum": checksum_protected_run(
            Machine.rpi_zero2w(), workload, spec=spec, config=config
        ),
        "Unprotected": unprotected_parallel_3mr(
            Machine.rpi_zero2w(), workload, spec=spec, config=config
        ),
    }
    base = runs["Unprotected"]

    # Coverage: pipeline-targeted strikes (compute faults).
    pipeline_campaign = FaultInjectionCampaign(
        AesWorkload(chunk_bytes=64, chunks=8),
        CampaignConfig(
            runs_per_scheme=injection_runs,
            weights={SeuTarget.PIPELINE: 1.0},
        ),
        seed=seed + 1,
    )
    coverage = pipeline_campaign.run(schemes=("emr", "3mr", "checksum"))
    sdc = {
        "EMR": coverage["emr"][OutcomeClass.SDC],
        "3-MR": coverage["3mr"][OutcomeClass.SDC],
        "Checksum": coverage["checksum"][OutcomeClass.SDC],
        "Unprotected": "-",
    }

    table = Table(
        title="Extension: checksum protection vs. redundancy",
        columns=[
            "Scheme", "Relative runtime", "Relative energy",
            f"SDCs / {injection_runs} pipeline strikes",
        ],
    )
    for name in ("Unprotected", "Checksum", "EMR", "3-MR"):
        run = runs[name]
        table.add_row(
            name,
            round(run.wall_seconds / base.wall_seconds, 3),
            round(run.energy.total_joules / base.energy.total_joules, 3),
            sdc[name],
        )
    table.notes = (
        "checksums verify memory reads but cannot catch compute faults: "
        "every pipeline strike becomes an SDC (the paper's case for EMR)"
    )
    return table


def checksum_comparison_campaign(seed: int = 0,
                                 injection_runs: int = 10) -> Campaign:
    return _single_trial(
        "extension-checksum-comparison", _checksum_trial,
        {"seed": seed, "injection_runs": injection_runs},
        (seed, injection_runs),
    )


def checksum_comparison(seed: int = 0, injection_runs: int = 10,
                        store=None, metrics=None) -> Table:
    """Checksum guard vs. EMR vs. 3-MR: cost and coverage."""
    return execute(
        checksum_comparison_campaign(seed, injection_runs),
        store=store, metrics=metrics,
    ).values[0]


def _physics_rates_trial(task, rng, tracer=None) -> Table:
    rates = estimate_environment_rates()
    bits = SNAPDRAGON_801.sensitive_bits
    table = Table(
        title="Extension: physics-derived SEU rates (Snapdragon-801-class)",
        columns=["Environment", "Upsets/day (device)", "Per bit/day", "Paper anchor"],
    )
    anchors = {
        "mars-surface": "1.6/day (CRÈME-MC, §2.2)",
        "sea-level": "2.3e-12 /bit/day (§2.3)",
        "low-earth-orbit": "~7e5 x sea level (§2.3)",
        "deep-space": "(no anchor; harshest)",
    }
    for name in ("mars-surface", "low-earth-orbit", "deep-space", "sea-level"):
        rate = rates[name]
        table.add_row(
            name, f"{rate:.3g}", f"{rate / bits:.3g}", anchors[name]
        )
    leo_ratio = rates["low-earth-orbit"] / rates["sea-level"]
    table.notes = (
        f"LET power-law spectra x Weibull cross-section; "
        f"LEO/sea-level ratio = {leo_ratio:,.0f}x"
    )
    return table


def physics_rates_campaign() -> Campaign:
    return _single_trial(
        "extension-physics-rates", _physics_rates_trial, {}, None,
    )


def physics_rates(store=None, metrics=None) -> Table:
    """CRÈME-style estimates vs. the paper's quoted anchors."""
    return execute(
        physics_rates_campaign(), store=store, metrics=metrics,
    ).values[0]


def _feature_selection_trial(task, rng, tracer=None) -> Table:
    (seed,) = task
    from collections import defaultdict

    from ..core.ild import select_features
    from ..sim.telemetry import ActivitySegment, TelemetryConfig, TraceGenerator

    generator = TraceGenerator(TelemetryConfig(tick=4e-3))
    rng = np.random.default_rng(seed)
    segments = [
        ActivitySegment(
            duration=0.8,
            core_util=tuple(rng.uniform(0, 1, 4)),
            dram_gbs=float(rng.uniform(0, 0.8)),
            disk_read_iops=float(rng.uniform(0, 200)),
            disk_write_iops=float(rng.uniform(0, 200)),
        )
        for _ in range(24)
    ]
    trace = generator.generate(segments, rng=rng, housekeeping=None)
    selection = select_features(trace.counters, trace.true_current, n_top=22)

    grouped: "defaultdict[str, float]" = defaultdict(float)
    for name, importance in zip(selection.names, selection.importances):
        metric = name.split(".", 1)[1] if "." in name else name
        grouped[metric] += float(importance)
    table = Table(
        title="Extension: random-forest feature importance for current draw",
        columns=["Table 1 metric", "summed importance"],
    )
    for metric, importance in sorted(grouped.items(), key=lambda kv: -kv[1]):
        table.add_row(metric, round(importance, 4))
    top = max(grouped, key=grouped.get)
    table.notes = (
        f"top metric: {top} (paper: instruction rate, bus cycles, and "
        "frequency dominate)"
    )
    return table


def feature_selection_campaign(seed: int = 0) -> Campaign:
    return _single_trial(
        "extension-feature-selection", _feature_selection_trial,
        {"seed": seed}, (seed,),
    )


def feature_selection(seed: int = 0, store=None, metrics=None) -> Table:
    """Validate Table 1's metric choice: "instruction completion rate,
    bus cycle rate, and CPU frequency were by far the most correlated
    with the computer's total current draw" (§3.1), via the same
    random-forest importance pass the paper describes."""
    return execute(
        feature_selection_campaign(seed), store=store, metrics=metrics,
    ).values[0]


def _mission_pair_trial(task, rng, tracer=None) -> dict:
    seed, duration_days = task
    from dataclasses import replace as dc_replace

    from ..missions import MissionConfig, MissionSimulator
    from ..radiation.environment import RadiationEnvironment

    sky = RadiationEnvironment(
        name="deep-space",
        seu_per_day=8.0,
        sel_per_year=900.0,  # compressed so every run sees a latchup
        sel_delta_amps_range=(0.07, 0.25),
    )
    base = MissionConfig(
        duration_days=duration_days, environment=sky,
        tick=8e-3, seed=seed * 7 + 1,
    )
    shielded = MissionSimulator(base).run()
    bare = MissionSimulator(
        dc_replace(base, ild_enabled=False, emr_enabled=False)
    ).run()
    return {
        "seed": base.seed,
        "shielded_survived": shielded.survived,
        "bare_survived": bare.survived,
        "shielded_sdc": shielded.silent_corruptions,
        "bare_sdc": bare.silent_corruptions,
        "shielded_availability": shielded.availability,
    }


def mission_survival_campaign(n_seeds: int = 3,
                              duration_days: float = 0.5) -> Campaign:
    return Campaign(
        name="extension-mission-survival",
        trial_fn=_mission_pair_trial,
        trials=[
            Trial(params={"seed": seed, "duration_days": duration_days},
                  item=(seed, duration_days))
            for seed in range(n_seeds)
        ],
        context={"environment": "deep-space", "n_seeds": n_seeds},
    )


def mission_survival(n_seeds: int = 3, duration_days: float = 0.5,
                     workers: "int | None" = 1,
                     store=None, metrics=None) -> Table:
    """Paired mission reruns (§5 writ large): the same seeded radiation
    sky flown with and without Radshield; survival, silent corruption,
    and availability compared."""
    result = execute(
        mission_survival_campaign(n_seeds, duration_days),
        workers=workers, store=store, metrics=metrics,
    )
    table = Table(
        title="Extension: mission survival, Radshield vs. bare",
        columns=["seed", "protected survives", "bare survives",
                 "protected SDCs", "bare SDCs", "protected availability"],
    )
    protected_wins = 0
    for value in result.values:
        protected_wins += value["shielded_survived"] and not value["bare_survived"]
        table.add_row(
            value["seed"],
            "yes" if value["shielded_survived"] else "NO",
            "yes" if value["bare_survived"] else "NO",
            value["shielded_sdc"],
            value["bare_sdc"],
            f"{value['shielded_availability'] * 100:.2f}%",
        )
    table.notes = (
        f"{protected_wins}/{n_seeds} skies killed the bare spacecraft "
        "while Radshield survived; identical event streams per seed"
    )
    return table


def _flightsw_trial(task, rng, tracer=None) -> Table:
    seed, n_episodes = task
    from ..analysis.metrics import DetectionSummary, EpisodeTruth, score_episode
    from ..core.ild import train_ild
    from ..flightsw import flight_schedule
    from ..sim.telemetry import CurrentStep, TelemetryConfig, TraceGenerator

    generator = TraceGenerator(TelemetryConfig(tick=6e-3))
    rng = np.random.default_rng(seed)
    train_segments, _ = flight_schedule(1200.0, rng=rng)
    detector = train_ild(
        generator.generate(train_segments, rng=rng),
        max_instruction_rate=generator.max_instruction_rate,
    )
    summary = DetectionSummary()
    episode_seconds = 700.0
    for episode in range(n_episodes):
        onset = float(rng.uniform(0.35, 0.75) * episode_seconds)
        segments, _ = flight_schedule(
            episode_seconds, rng=np.random.default_rng(seed + 10 + episode)
        )
        trace = generator.generate(
            segments, rng=rng,
            current_steps=[CurrentStep(start=onset, delta_amps=0.07)],
        )
        detector.reset()
        detections = detector.process(trace)
        mask = detector.last_alarm_mask
        onset_tick = int(onset / generator.config.tick)
        summary.add(
            score_episode(
                detections,
                EpisodeTruth(duration=episode_seconds, sel_onset=onset,
                             sel_delta_amps=0.07),
                detection_window=180.0,
                pre_onset_alarm_ticks=int(mask[:onset_tick].sum()),
                pre_onset_ticks=onset_tick,
            )
        )
    table = Table(
        title="Extension: ILD accuracy under F´-style flight software",
        columns=["metric", "ILD on flight software"],
    )
    table.add_row("False negative rate", f"{summary.false_negative_rate * 100:.1f}%")
    table.add_row("False positive rate", f"{summary.false_positive_rate * 100:.2f}%")
    latency = summary.mean_latency()
    table.add_row(
        "Mean detection latency",
        f"{latency:.1f} s" if latency is not None else "n/a",
    )
    table.notes = (
        f"{n_episodes} episodes of commanded ops (slew/capture/downlink); "
        "same detector pipeline as Table 2"
    )
    return table


def flightsw_ild_campaign(seed: int = 0, n_episodes: int = 4) -> Campaign:
    return _single_trial(
        "extension-flightsw-ild", _flightsw_trial,
        {"seed": seed, "n_episodes": n_episodes}, (seed, n_episodes),
    )


def flightsw_ild_accuracy(seed: int = 0, n_episodes: int = 4,
                          store=None, metrics=None) -> Table:
    """Table 2's protocol with the F´-style flight software driving
    the activity instead of the synthetic navigation schedule.

    The episode stream shares one generator sequentially, so this
    stays a single trial."""
    return execute(
        flightsw_ild_campaign(seed, n_episodes), store=store, metrics=metrics,
    ).values[0]
