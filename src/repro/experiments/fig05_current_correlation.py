"""Fig 5: current vs. CPU frequency and instruction rate.

The matmul staircase — 0 to 4 busy cores at each 100 MHz DVFS step —
demonstrating the correlation (paper: 99.7 %) between instruction
completion rate and current draw that makes ILD's linear model work.
"""

from __future__ import annotations

import numpy as np

from ..analysis.report import Series
from ..campaign import Campaign
from ..sim.telemetry import TelemetryConfig, TraceGenerator
from ..workloads.matmul import staircase_schedule
from .common import report_campaign


def _build(task, rng, tracer=None) -> Series:
    step_duration, seed = task
    generator = TraceGenerator(TelemetryConfig(tick=4e-3))
    rng = np.random.default_rng(seed)
    segments = staircase_schedule(step_duration=step_duration)
    trace = generator.generate(segments, rng=rng, housekeeping=None)

    # Per-step means (one point per staircase cell).
    ticks_per_step = max(1, int(round(step_duration / trace.config.tick)))
    n_steps = trace.n_ticks // ticks_per_step
    instr = trace.counters.instruction_rate.sum(axis=1)
    step_instr = instr[: n_steps * ticks_per_step].reshape(n_steps, -1).mean(axis=1)
    step_current = (
        trace.true_current[: n_steps * ticks_per_step].reshape(n_steps, -1).mean(axis=1)
    )
    step_freq = (
        trace.counters.cpu_freq.max(axis=1)[: n_steps * ticks_per_step]
        .reshape(n_steps, -1)
        .mean(axis=1)
    )

    correlation = float(np.corrcoef(step_instr, step_current)[0, 1])
    tick_correlation = float(np.corrcoef(instr, trace.true_current)[0, 1])
    figure = Series(
        title="Fig 5: current vs. CPU frequency and instruction rate (staircase)",
        x_label="staircase step",
        y_label="amps | Ginstr/s | GHz",
    )
    steps = list(range(n_steps))
    figure.add("current_amps", steps, step_current.tolist())
    figure.add("instruction_rate_G", steps, (step_instr / 1e9).tolist())
    figure.add("cpu_freq_GHz", steps, (step_freq / 1e9).tolist())
    figure.notes = (
        f"correlation(instruction rate, current) = {correlation * 100:.1f}% "
        f"per staircase step (paper: 99.7%), {tick_correlation * 100:.1f}% "
        "per raw tick"
    )
    return figure


def campaign(step_duration: float = 4.0, seed: int = 0) -> Campaign:
    return report_campaign(
        "fig5-current-correlation", _build,
        {"step_duration": step_duration, "seed": seed}, (step_duration, seed),
    )
