"""Fig 12: AES-256 runtime vs. input size, EMR and 3-MR on the DRAM
and disk reliability frontiers.

Paper shape: 3-MR consistently slower than EMR on both frontiers; the
storage frontier costs more and its gap grows with input size (every
jobset re-reads flash).
"""

from __future__ import annotations

import numpy as np

from ..analysis.report import Series
from ..campaign import Campaign, Trial, execute
from ..core.emr import EmrConfig, EmrRuntime, Frontier, sequential_3mr
from ..radiation.injector import workload_identity
from ..sim.machine import Machine, SnapshotFactory
from ..workloads import AesWorkload


def _size_trial(task, rng, tracer=None) -> dict:
    workload, scale, seed = task
    spec = workload.build(np.random.default_rng(seed), scale=scale)
    provision = SnapshotFactory(Machine.rpi_zero2w)
    out = {"size_kib": spec.total_input_bytes / 1024}
    for frontier, tag in ((Frontier.DRAM, "DRAM"), (Frontier.STORAGE, "disk")):
        config = EmrConfig(
            replication_threshold=workload.default_replication_threshold,
            frontier=frontier,
        )
        emr = EmrRuntime(provision(), workload, config=config).run(spec=spec)
        seq = sequential_3mr(provision(), workload, spec=spec, config=config)
        out[f"emr_{tag}"] = emr.wall_seconds
        out[f"seq_{tag}"] = seq.wall_seconds
    return out


def campaign(
    scales: "tuple[int, ...]" = (1, 2, 4),
    chunk_bytes: int = 128,
    base_chunks: int = 40,
    seed: int = 0,
) -> Campaign:
    workload = AesWorkload(chunk_bytes=chunk_bytes, chunks=base_chunks)
    return Campaign(
        name="fig12-input-size",
        trial_fn=_size_trial,
        trials=[
            Trial(params={"scale": scale, "seed": seed},
                  item=(workload, scale, seed))
            for scale in scales
        ],
        context={"workload": workload_identity(workload)},
    )


def run(
    scales: "tuple[int, ...]" = (1, 2, 4),
    chunk_bytes: int = 128,
    base_chunks: int = 40,
    seed: int = 0,
    workers: "int | None" = 1,
    store=None,
    metrics=None,
) -> Series:
    figure = Series(
        title="Fig 12: AES-256 runtime vs. input size and frontier",
        x_label="input KiB",
        y_label="simulated seconds",
    )
    result = execute(
        campaign(scales=scales, chunk_bytes=chunk_bytes,
                 base_chunks=base_chunks, seed=seed),
        workers=workers, store=store, metrics=metrics,
    )
    sizes = [value["size_kib"] for value in result.values]
    curves = {
        "EMR (DRAM)": [round(v["emr_DRAM"], 5) for v in result.values],
        "3MR (DRAM)": [round(v["seq_DRAM"], 5) for v in result.values],
        "EMR (disk)": [round(v["emr_disk"], 5) for v in result.values],
        "3MR (disk)": [round(v["seq_disk"], 5) for v in result.values],
    }
    for name, values in curves.items():
        figure.add(name, sizes, values)
    dram_gap = curves["3MR (DRAM)"][-1] / curves["EMR (DRAM)"][-1]
    disk_gap = curves["3MR (disk)"][-1] / curves["EMR (disk)"][-1]
    figure.notes = (
        f"at the largest size: 3MR/EMR = {dram_gap:.2f}x (DRAM), "
        f"{disk_gap:.2f}x (disk); disk frontier slower at every size"
    )
    return figure
