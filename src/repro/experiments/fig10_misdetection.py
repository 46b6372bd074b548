"""Fig 10: ILD misdetection rate as latchup current changes.

Paper protocol: "ILD was given one minute of increased power draw
between +0.01 A to +0.1 A in increasing order, and every SEL detection
trigger was counted." The false-negative rate falls to zero once the
extra draw exceeds ~0.05 A — below the smallest experimentally
measured SEL (0.07 A), so real latchups are never missed.

Trials are independent Monte-Carlo episodes, fanned out through
:mod:`repro.parallel`: each (ΔI, trial) cell draws its onset and trace
noise from its own spawned generator, so the figure is identical at
any ``workers`` setting.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from ..analysis.report import Series
from ..campaign import Campaign, Trial
from ..sim.telemetry import CurrentStep, quiescent_segment
from .common import SelBenchConfig, SelTestbench


def _misdetection_trial(task, rng: np.random.Generator, tracer=None) -> int:
    """One episode at one current delta; returns 1 on a miss."""
    generator, detector, n_cores, delta, sel_window_seconds = task
    onset = float(rng.uniform(30.0, 90.0))
    trace = generator.generate(
        [quiescent_segment(240.0, n_cores)],
        rng=rng,
        current_steps=[
            CurrentStep(
                start=onset,
                delta_amps=float(delta),
                end=onset + sel_window_seconds,
            )
        ],
    )
    detector.reset()
    detections = detector.process(trace)
    hit = any(onset <= d.time <= onset + sel_window_seconds for d in detections)
    return int(not hit)


def campaign(
    deltas: "np.ndarray | None" = None,
    trials_per_delta: int = 6,
    sel_window_seconds: float = 60.0,
    config: "SelBenchConfig | None" = None,
) -> Campaign:
    """(ΔI, trial) grid; seed root ``seed + 500`` with the flattened
    cell index as spawn key preserves the historical pmap streams."""
    bench = SelTestbench(config)
    detector = bench.train_ild()
    if deltas is None:
        deltas = np.arange(0.01, 0.1001, 0.01)
    trials = [
        Trial(
            params={"delta": float(delta), "trial": j},
            item=(bench.generator, detector, bench.config.n_cores,
                  float(delta), sel_window_seconds),
        )
        for delta in deltas
        for j in range(trials_per_delta)
    ]

    def aggregate(misses, metrics=None) -> Series:
        fn_rates = [
            sum(misses[i * trials_per_delta : (i + 1) * trials_per_delta])
            / trials_per_delta
            for i in range(len(deltas))
        ]
        figure = Series(
            title="Fig 10: ILD misdetection rate vs. latchup current",
            x_label="additional SEL current (A)",
            y_label="false negative rate",
        )
        figure.add("false_negative_rate", [float(d) for d in deltas], fn_rates)
        detectable = [float(d) for d, fn in zip(deltas, fn_rates) if fn == 0]
        figure.notes = (
            f"FN reaches zero at ΔI >= {min(detectable):.2f} A"
            if detectable
            else "FN never reached zero in this sweep"
        ) + " (paper: zero above ~0.05 A; real SELs measure >= 0.07 A)"
        return figure

    return Campaign(
        name="fig10-misdetection",
        trial_fn=_misdetection_trial,
        trials=trials,
        seed=bench.config.seed + 500,
        context={
            "config": asdict(bench.config),
            "trials_per_delta": trials_per_delta,
            "sel_window_seconds": sel_window_seconds,
        },
        aggregate=aggregate,
    )
