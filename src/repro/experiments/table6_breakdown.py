"""Table 6: image-processing runtime by operation, DRAM frontier.

Paper: 3-MR reads disk 3x (1.8 s vs 0.6 s), allocation is equal,
compute dominates both (~96 %), cache clears are small, and EMR's
total is ~40 % of 3-MR's.
"""

from __future__ import annotations

from ..analysis.report import Table
from ..analysis.vulnerability import time_share_breakdown
from ..campaign import Campaign
from ..core.emr import Frontier
from ..radiation.injector import workload_identity
from ..workloads import ImageProcessingWorkload
from .common import report_campaign, run_schemes

_BUCKET_LABELS = (
    ("disk_read", "Disk Read"),
    ("allocation", "Memory Allocation"),
    ("compute", "Compute"),
    ("cache_clear", "Cache Clear"),
    ("orchestration", "Orchestration"),
)


def _build(task, rng, tracer=None) -> Table:
    workload, scale, seed = task
    runs = run_schemes(workload, frontier=Frontier.DRAM, scale=scale, seed=seed)
    table = Table(
        title="Table 6: image-processing runtime by operation (DRAM frontier)",
        columns=["Operation", "3-MR (s)", "EMR (s)"],
    )
    for bucket, label in _BUCKET_LABELS:
        table.add_row(
            label,
            round(runs.sequential.breakdown.get(bucket, 0.0), 6),
            round(runs.emr.breakdown.get(bucket, 0.0), 6),
        )
    table.add_row(
        "Total Runtime",
        round(runs.sequential.wall_seconds, 6),
        round(runs.emr.wall_seconds, 6),
    )
    emr_shares = time_share_breakdown(runs.emr)
    table.notes = (
        f"EMR/3-MR total = {runs.emr.wall_seconds / runs.sequential.wall_seconds:.2f} "
        f"(paper ~0.41); EMR compute share {emr_shares.get('compute', 0) * 100:.0f}% "
        "(paper 96%)"
    )
    return table


def campaign(scale: int = 1, seed: int = 0,
             workload: "ImageProcessingWorkload | None" = None) -> Campaign:
    # Dense stride: the paper matches *every* window, which is what
    # makes compute dominate the breakdown (their compute runs for
    # 2400 s against 1.8 s of disk). stride=4 gives 625 windows here.
    workload = workload or ImageProcessingWorkload(
        map_size=128, template_size=32, stride=4
    )
    return report_campaign(
        "table6-breakdown", _build,
        {"workload": workload_identity(workload), "scale": scale, "seed": seed},
        (workload, scale, seed), context={"frontier": "DRAM"},
    )
