"""Fig 13: impact of replicated-portion size on runtime and memory.

Sweeping the replication threshold moves each workload between two
endpoints: replicate nothing (every shared ref conflicts — "0 %
replication amounts to serial 3-MR") and replicate everything
identical ("100 % replication is a fully-protected version of parallel
3-MR consuming 3x more memory"). The interesting region is the
per-workload sweet spot in between.
"""

from __future__ import annotations

import numpy as np

from ..analysis.report import Series
from ..campaign import Campaign, Trial
from ..core.emr import EmrConfig, EmrRuntime, Frontier, plan_replication
from ..radiation.injector import workload_identity
from ..sim.machine import Machine, MachineSpec
from ..workloads import AesWorkload, DnnWorkload, ImageProcessingWorkload

#: Thresholds from "replicate nothing" (>1) down to "replicate every
#: identical ref" (0).
DEFAULT_THRESHOLDS = (1.5, 0.9, 0.5, 0.2, 0.05, 0.0)


def _small_cache_machine() -> Machine:
    """A cache-constrained board: tripling the resident footprint must
    actually cost something, as it does at the paper's input sizes."""
    return Machine(MachineSpec(name="small-cache", l1_lines=64, l2_lines=256))


def distinct_thresholds(workload, seed: int = 0) -> "tuple[float, ...]":
    """Thresholds that each produce a different replication set: one
    just below every distinct ref frequency, plus 'replicate nothing'."""
    spec = workload.build(np.random.default_rng(seed))
    plan = plan_replication(spec.datasets, 0.0)
    frequencies = sorted({round(f, 9) for f in plan.frequencies.values()}, reverse=True)
    thresholds = [1.5] + [max(0.0, f - 1e-9) for f in frequencies]
    return tuple(thresholds)


def sweep_workload(
    workload,
    thresholds=None,
    seed: int = 0,
) -> "tuple[list, list, list]":
    """Returns (replicated_fraction_%, runtime_s, memory_KiB) arrays."""
    spec = workload.build(np.random.default_rng(seed))
    if thresholds is None:
        thresholds = distinct_thresholds(workload, seed)
    fractions, runtimes, memory = [], [], []
    for threshold in thresholds:
        plan = plan_replication(spec.datasets, threshold)
        config = EmrConfig(replication_threshold=threshold, frontier=Frontier.DRAM)
        result = EmrRuntime(_small_cache_machine(), workload, config=config).run(spec=spec)
        fractions.append(
            round(plan.replicated_fraction(spec.total_input_bytes) * 100, 2)
        )
        runtimes.append(round(result.wall_seconds, 5))
        memory.append(round(result.stats.memory_bytes / 1024, 1))
    return fractions, runtimes, memory


def _sweep_trial(task, rng, tracer=None) -> dict:
    workload, thresholds, seed = task
    fractions, runtimes, memory = sweep_workload(workload, thresholds, seed)
    return {
        "name": workload.name,
        "fractions": fractions,
        "runtimes": runtimes,
        "memory": memory,
    }


def campaign(seed: int = 0, thresholds=None) -> Campaign:
    workloads = (
        AesWorkload(),
        ImageProcessingWorkload(),
        DnnWorkload(),
    )
    return Campaign(
        name="fig13-replication-sweep",
        trial_fn=_sweep_trial,
        trials=[
            Trial(
                params={"workload": workload_identity(workload), "seed": seed},
                item=(workload, thresholds, seed),
            )
            for workload in workloads
        ],
        context={
            "thresholds": list(thresholds) if thresholds is not None else None
        },
        aggregate=_aggregate,
    )


def _aggregate(values, metrics=None) -> Series:
    figure = Series(
        title="Fig 13: replicated-portion size vs. runtime and memory",
        x_label="replicated fraction of input (%)",
        y_label="runtime (s) / memory (KiB)",
    )
    sweet_spots = []
    for value in values:
        fractions, runtimes, memory = (
            value["fractions"], value["runtimes"], value["memory"]
        )
        figure.add(f"{value['name']}.runtime", fractions, runtimes)
        figure.add(f"{value['name']}.memory_kib", fractions, memory)
        best = fractions[int(np.argmin(runtimes))]
        sweet_spots.append(f"{value['name']}@{best:.1f}%")
    figure.notes = (
        "runtime minima (sweet spots): " + ", ".join(sweet_spots)
        + "; 0% replication serializes (serial-3MR-like), full replication "
        "triples replicated memory"
    )
    return figure
