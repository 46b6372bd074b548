"""Fig 2: navigation-workload current draw before and after an SEL.

The figure's argument: under a micro-SEL the current *never* reaches
the classic 4 A protection threshold (so thresholding misses it), while
nominal high-compute activity *does* approach or cross the same level
(so a lower threshold would trip constantly).
"""

from __future__ import annotations

import numpy as np

from ..analysis.report import Series
from ..campaign import Campaign
from ..sim.telemetry import CurrentStep, TelemetryConfig, TraceGenerator
from ..workloads.navigation import navigation_schedule
from .common import report_campaign


def _build(task, rng, tracer=None) -> Series:
    duration, sel_delta_amps, threshold_amps, points, seed = task
    generator = TraceGenerator(TelemetryConfig(tick=4e-3))
    rng = np.random.default_rng(seed)
    schedule = navigation_schedule(duration, rng=np.random.default_rng(seed + 1))

    nominal = generator.generate(schedule, rng=rng)
    sel = generator.generate(
        schedule,
        rng=np.random.default_rng(seed + 2),
        current_steps=[CurrentStep(start=0.0, delta_amps=sel_delta_amps)],
    )

    def downsample(trace):
        stride = max(1, trace.n_ticks // points)
        return trace.times()[::stride], trace.measured_per_tick()[::stride]

    figure = Series(
        title="Fig 2: nav workload current, nominal vs. under SEL",
        x_label="time (s)",
        y_label="amps",
    )
    figure.add("nominal", *downsample(nominal))
    figure.add("under_sel", *downsample(sel))
    figure.add("threshold", [0.0, duration], [threshold_amps, threshold_amps])

    sel_quiescent_max = float(sel.measured_per_tick()[sel.quiescent_truth].max())
    busy_mask = ~nominal.quiescent_truth
    nominal_busy_max = float(nominal.measured_per_tick()[busy_mask].max()) if busy_mask.any() else 0.0
    figure.notes = (
        f"quiescent max under SEL {sel_quiescent_max:.2f} A never reaches the "
        f"{threshold_amps:.1f} A threshold; nominal compute peaks at "
        f"{nominal_busy_max:.2f} A — static thresholds cannot separate them"
    )
    return figure


def campaign(
    duration: float = 600.0,
    sel_delta_amps: float = 0.07,
    threshold_amps: float = 4.0,
    points: int = 120,
    seed: int = 0,
) -> Campaign:
    params = {
        "duration": duration, "sel_delta_amps": sel_delta_amps,
        "threshold_amps": threshold_amps, "points": points, "seed": seed,
    }
    return report_campaign(
        "fig2-sel-current-trace", _build, params,
        (duration, sel_delta_amps, threshold_amps, points, seed),
    )
