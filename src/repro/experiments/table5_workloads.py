"""Table 5: the workload suite and the replication strategy EMR's
frequency rule actually picks for each — checked against the paper's
reported optimum."""

from __future__ import annotations

import numpy as np

from ..analysis.report import Table
from ..campaign import Campaign
from ..core.emr import plan_replication
from ..workloads import paper_workloads
from .common import report_campaign


def _build(task, rng, tracer=None) -> Table:
    (seed,) = task
    table = Table(
        title="Table 5: tested workloads, library analog, chosen replication",
        columns=["Workload", "Library", "Replicated regions", "Paper strategy", "Match"],
    )
    # ONE generator shared sequentially across workloads: each build
    # consumes from the same stream, so this stays a single trial.
    rng = np.random.default_rng(seed)
    for workload in paper_workloads():
        spec = workload.build(rng)
        plan = plan_replication(
            spec.datasets, workload.default_replication_threshold
        )
        blobs = sorted({ref.blob for ref in plan.replicated})
        chosen = ", ".join(blobs) if blobs else "none"
        expected = workload.paper_replication_strategy
        matches = _strategy_matches(blobs, expected)
        table.add_row(
            workload.name, workload.library_analog, chosen, expected,
            "yes" if matches else "NO",
        )
    table.notes = (
        "replication chosen automatically by the identical-ref frequency rule"
    )
    return table


def campaign(seed: int = 0) -> Campaign:
    return report_campaign("table5-workloads", _build, {"seed": seed}, (seed,))


def _strategy_matches(blobs: "list[str]", paper_strategy: str) -> bool:
    strategy = paper_strategy.lower()
    if "no replication" in strategy:
        return not blobs
    keywords = {
        "key": "key",
        "search pattern": "patterns",
        "match image": "template",
        "weights": "weights",
    }
    for keyword, blob in keywords.items():
        if keyword in strategy:
            return blobs == [blob]
    return False
