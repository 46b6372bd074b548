"""Fig 11: runtimes of serial 3-MR and EMR, normalized to unprotected
parallel 3-MR, DRAM reliability frontier.

Paper shape: EMR beats serial 3-MR on every workload; both are slower
than unprotected; EMR lands 7–77 % above the unprotected baseline.
"""

from __future__ import annotations

from ..analysis.report import Series
from ..campaign import Campaign, Trial
from ..core.emr import Frontier
from ..radiation.injector import workload_identity
from ..workloads import (
    AesWorkload,
    DeflateWorkload,
    DnnWorkload,
    ImageProcessingWorkload,
    IntrusionDetectionWorkload,
)
from .common import run_schemes


def default_instances() -> "list":
    """Workload instances sized so compute dominates overheads,
    matching the paper's input-to-compute ratios."""
    return [
        AesWorkload(chunk_bytes=256, chunks=60),
        DeflateWorkload(block_bytes=1024, blocks=30),
        IntrusionDetectionWorkload(packet_bytes=512, packets=48),
        ImageProcessingWorkload(map_size=96, template_size=24, stride=6),
        DnnWorkload(window_samples=64, stride=16, windows=48),
    ]


def _runtime_trial(task, rng, tracer=None) -> dict:
    workload, scale, seed = task
    result = run_schemes(workload, frontier=Frontier.DRAM, scale=scale, seed=seed)
    return {
        "name": result.workload,
        "emr_relative": result.emr_relative,
        "sequential_relative": result.sequential_relative,
    }


def campaign(scale: int = 1, seed: int = 0) -> Campaign:
    return Campaign(
        name="fig11-emr-runtime",
        trial_fn=_runtime_trial,
        trials=[
            Trial(
                params={"workload": workload_identity(workload),
                        "scale": scale, "seed": seed},
                item=(workload, scale, seed),
            )
            for workload in default_instances()
        ],
        context={"frontier": "DRAM"},
        aggregate=_aggregate,
    )


def _aggregate(values, metrics=None) -> Series:
    figure = Series(
        title="Fig 11: relative runtime vs. unprotected parallel 3-MR (DRAM frontier)",
        x_label="workload",
        y_label="relative runtime",
    )
    names = [value["name"] for value in values]
    emr_rel = [round(value["emr_relative"], 3) for value in values]
    seq_rel = [round(value["sequential_relative"], 3) for value in values]
    figure.add("EMR", names, emr_rel)
    figure.add("serial_3MR", names, seq_rel)
    figure.add("unprotected_parallel_3MR", names, [1.0] * len(names))
    overhead_low = (min(emr_rel) - 1) * 100
    overhead_high = (max(emr_rel) - 1) * 100
    figure.notes = (
        f"EMR overhead over unprotected: {overhead_low:.0f}%–{overhead_high:.0f}% "
        "(paper: 7%–77%); serial 3-MR ≈ 3x"
    )
    return figure
